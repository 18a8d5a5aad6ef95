"""Projection of a real vector onto quantized low-complexity sequence sets.

project_lagrangian solves

    min over u in alphabet^n of  sum_i (value(u_i) - x_i)^2
                                 + alpha * sum_{i>k} w[u_{i-k}..u_i]

exactly with a Viterbi dynamic program over the alphabet^k context states
(the first k positions incur distortion only).  project_constrained meets
a hard complexity budget by an exact search over the breakpoints of alpha
(Everett's generalized Lagrange multipliers), and project_l0 is the exact
fast path for memoryless spike-and-slab weights.  Every projector requires
finite x; the Viterbi projectors also refuse an x with a coordinate 2^52
grid steps or more from the grid, where squared distances lose its offset.

Ties are always broken toward the lexicographically smallest symbol-index
sequence: the dynamic program runs backward over suffix costs, keeping for
every (position, context) the smallest optimal symbol as a back-pointer,
and the path is rebuilt forward by following them.

The dense trellis costs O(n S^(k+1)) for an alphabet of S symbols.  A k=1
table with one weight on its diagonal (hold) and one off it (jump), both
finite and hold <= jump, as every pc_markov table is, takes a stay-or-jump
pass instead, in O(n S): from a state, the best next symbol is the state
itself or the first best jump target, which is the same for every state.
Its cells are the dense pass's cells, summed in the same order, and its
comparisons pick the first minimum of each dense row, so it returns the
same bytes (see _stay_or_jump_pass).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .empirics import complexity_cost
from .quantize import QuantAlphabet
from .sources import WeightTable

MAX_STATES = 2 ** 20          # alphabet^k context states
MAX_TRELLIS_CELLS = 2 ** 24   # n * alphabet^k back-pointers kept alive
STAY_OR_JUMP_BLOCK = 64       # positions whose cells the stay-or-jump pass forms at once


class InfeasibleProjection(ValueError):
    """No sequence satisfies the requested constraint.

    min_cost carries the smallest achievable complexity cost when known.
    """

    def __init__(self, message: str, min_cost: float | None = None):
        super().__init__(message)
        self.min_cost = min_cost


class ProblemTooLarge(ValueError):
    pass


def _scaled_weights(w: np.ndarray, alpha: float) -> np.ndarray:
    # alpha = 0 must erase the weights entirely, including the +inf ones
    if alpha == 0.0:
        return np.zeros_like(w)
    try:
        with np.errstate(over="raise"):
            return np.where(np.isinf(w), np.inf, alpha * w)
    except FloatingPointError:
        # an infinite alpha * w would read as a forbidden window
        raise ValueError(f"alpha = {alpha!r} scales a finite weight to inf") from None


def _finite_vector(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite: NaN or inf cannot be projected")
    return x


def _check_distortion(x: np.ndarray, alphabet: QuantAlphabet) -> None:
    """Refuse an x with a coordinate 2^52 grid steps or more from a grid
    end.  There the squared distances to adjacent grid values can round to
    one value, so the trellis would lose the coordinate's offset, and far
    enough out they overflow to a cost that reads as forbidden.  Below the
    bound no distortion sum can overflow."""
    with np.errstate(over="ignore"):
        far = np.maximum(np.abs(x - alphabet.values[0]), np.abs(x - alphabet.values[-1]))
    if far.max() >= 2.0 ** (52 - alphabet.b):
        raise ValueError(
            "x is too large to project: a coordinate lies 2^52 grid steps or more from "
            "the grid, where its squared distances to the grid round together or are "
            "not finite"
        )


def _check_trellis_size(n: int, s: int, k: int) -> None:
    if s ** k > MAX_STATES:
        raise ProblemTooLarge(f"trellis needs {s}^{k} states; limit is {MAX_STATES}")
    if n * s ** k > MAX_TRELLIS_CELLS:
        raise ProblemTooLarge(
            f"trellis needs {n} x {s}^{k} back-pointers; limit is {MAX_TRELLIS_CELLS}"
        )


def project_lagrangian(
    x: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    alpha: float,
    dist_scale: float = 1.0,
) -> np.ndarray:
    """Global minimizer of squared distortion plus alpha times the window
    weights, as symbol indices.  dist_scale multiplies the distortion term
    (used internally to realize a pure minimum-cost pass with dist_scale=0).
    """
    x = _finite_vector(x)
    n = len(x)
    k = w.k
    s = alphabet.size
    if n <= k:
        raise ValueError(f"need len(x) > k, got {n} <= {k}")
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    _check_trellis_size(n, s, k)
    _check_distortion(x, alphabet)

    aw = _scaled_weights(w.w, alpha)
    if _is_stay_or_jump(w):
        return _stay_or_jump_pass(x, alphabet.values, aw[0, 0], aw[0, 1], dist_scale)

    dist = dist_scale * (alphabet.values[None, :] - x[:, None]) ** 2  # (n, s)
    if k == 0:
        # decoupled: per-position minimum, argmin toward the smallest index
        stage = dist + aw[None, :]
        if np.isinf(stage.min(axis=1)).any():
            raise InfeasibleProjection("every symbol is forbidden at some position")
        return np.argmin(stage, axis=1).astype(np.int64)

    aw = aw.reshape(s ** k, s)  # cost of (state, symbol)
    # state id encodes the context base-s, most recent symbol in the low digit;
    # after symbol a the next state is (state mod s^(k-1)) * s + a
    states = s ** k
    low_states = s ** (k - 1)
    rows = np.arange(states)

    # backward pass: suffix[state] is the best cost of positions i..n-1 after
    # the context state; back[i - k, state] is the first (smallest) symbol
    # attaining it.  total is (dist + aw) + suffix[next state], summed in
    # that order; a state's next-state row depends on its low k-1 digits only
    suffix = np.zeros(states)
    back = np.empty((n - k, states), dtype=np.min_scalar_type(s - 1))
    total = np.empty((states, s))
    by_low_digits = total.reshape(s, low_states, s)
    for i in range(n - 1, k - 1, -1):
        np.add(dist[i], aw, out=total)
        by_low_digits += suffix.reshape(low_states, s)
        best_symbol = total.argmin(axis=1)
        back[i - k] = best_symbol
        suffix = total[rows, best_symbol]

    # fold the first k (distortion-only) positions into the initial context
    prefix_dist = np.zeros(states)
    for j in range(k):
        digit = (rows // s ** (k - 1 - j)) % s
        prefix_dist += dist[j][digit]
    start_cost = prefix_dist + suffix
    state = int(start_cost.argmin())  # lex-smallest context
    if math.isinf(start_cost[state]):
        raise InfeasibleProjection("every length-n path has infinite cost")

    out = np.empty(n, dtype=np.int64)
    for j in range(k):
        out[j] = (state // s ** (k - 1 - j)) % s
    for i in range(k, n):
        a = back.item(i - k, state)
        out[i] = a
        state = (state % low_states) * s + a
    return out


def _is_stay_or_jump(w: WeightTable) -> bool:
    """A k=1 table with one weight on its diagonal (hold) and one off it
    (jump), both finite, hold <= jump: the form of every pc_markov table."""
    if w.k != 1 or w.alphabet.size < 2:
        return False
    hold, jump = w.w[0, 0], w.w[0, 1]
    if not (math.isfinite(hold) and math.isfinite(jump) and hold <= jump):
        return False
    table = np.full_like(w.w, jump)
    np.fill_diagonal(table, hold)
    return np.array_equal(w.w, table)


def _stay_or_jump_pass(
    x: np.ndarray, values: np.ndarray, hold: float, jump: float, dist_scale: float
) -> np.ndarray:
    """The k=1 trellis for a stay-or-jump table in O(n S): the bytes of the
    dense pass, its cells summed as (dist + weight) + suffix in the same order.

    At a position, H[a] and J[a] are the cells that hold at a and that jump
    to a.  Row `state` of the dense trellis is J with H[state] on its
    diagonal, so its first minimum is state or j1, the first argmin of J:
    state < j1 holds iff H[state] <= J[j1], state > j1 iff H[state] < J[j1],
    and j1 itself always holds (H[j1] <= J[j1], as hold <= jump and float
    rounding is monotone).  The next suffix is min(H, J[j1]).
    """
    n, s = len(x), len(values)
    suffix = np.zeros(s)
    holds = np.empty((n - 1, s), dtype=bool)  # position i + 1 keeps the state
    jump_to = np.empty(n - 1, dtype=np.int64)  # else it moves to this symbol
    symbols = np.arange(s)
    # the distortion and the H and J cells of one block of positions at a
    # time, from the back: no (n, 2, S) array beside the hold bits
    block = min(STAY_OR_JUMP_BLOCK, n - 1)
    cells = np.empty((block, 2, s))
    rows = list(cells)
    h_rows = [row[0] for row in rows]
    j_rows = [row[1] for row in rows]
    for end in range(n, 1, -block):
        start = max(end - block, 1)
        m = end - start
        dist = dist_scale * (values[None, :] - x[start:end, None]) ** 2
        np.add(dist, hold, out=cells[:m, 0])
        np.add(dist, jump, out=cells[:m, 1])
        first = [0] * m
        first_cost = [0.0] * m
        for r in range(m - 1, -1, -1):
            np.add(rows[r], suffix, out=rows[r])
            j1 = j_rows[r].argmin()
            v1 = j_rows[r][j1]
            np.minimum(h_rows[r], v1, out=suffix)
            first[r] = j1
            first_cost[r] = v1
        h = cells[:m, 0]
        v1 = np.array(first_cost)[:, None]
        j1 = np.array(first)[:, None]
        holds[start - 1:end - 1] = (h < v1) | ((h == v1) & (symbols <= j1))
        jump_to[start - 1:end - 1] = j1[:, 0]

    start_cost = dist_scale * (values - x[0]) ** 2 + suffix
    state = int(start_cost.argmin())  # lex-smallest first symbol
    out = np.empty(n, dtype=np.int64)
    out[0] = state
    for i in range(1, n):
        if not holds.item(i - 1, state):
            state = jump_to.item(i - 1)
        out[i] = state
    return out


def _min_cost_path(x: np.ndarray, w: WeightTable, alphabet: QuantAlphabet) -> np.ndarray:
    """A sequence of minimum achievable complexity cost (distortion ignored)."""
    return project_lagrangian(x, w, alphabet, alpha=1.0, dist_scale=0.0)


def _finite_cost_rounding(x: np.ndarray, w: WeightTable, alphabet: QuantAlphabet) -> np.ndarray:
    """The alpha -> 0+ limit of the Lagrangian projection: the nearest
    sequence among those of finite cost (every finite weight set to 0)."""
    allowed = WeightTable(alphabet=alphabet, k=w.k, w=np.where(np.isinf(w.w), np.inf, 0.0))
    return project_lagrangian(x, allowed, alphabet, alpha=1.0)


class _SweepPoint(NamedTuple):
    """One pass of the breakpoint search: its sequence and where it lies."""

    u: np.ndarray
    cost: float
    distortion: float


def project_constrained(
    x: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    gamma: float,
) -> np.ndarray:
    """Feasible sequence (complexity cost <= gamma) of smallest distortion
    among the Lagrangian solutions, found by a breakpoint search.

    The Lagrangian solutions are the vertices of the lower convex hull of
    (cost, distortion) (Everett 1963; Shoham & Gersho 1988).  The alpha = 0
    pass is returned if feasible.  Otherwise the search brackets gamma by an
    infeasible left end L and a feasible right end R: the alpha_max pass is
    R if feasible, else it is L and the minimum-cost path is R; L is
    otherwise the alpha = 0 pass, or its alpha -> 0+ limit when the
    rounding has cost +inf (returned if feasible: it is then the nearest
    feasible sequence).  Every further pass is at the alpha where L and R
    tie,

        alpha = (d_R - d_L) / ((c_L - c_R) * (n - k)),

    and a result strictly inside the bracket, or of lower distortion at an
    end's cost, replaces the end on its side of gamma.  Otherwise L-R is a
    hull edge and R is returned.  Every pass shrinks the bracket, so the
    search is exact and finite.  When the constrained optimum is not a hull
    vertex (a duality gap) the best feasible vertex is returned instead.
    """
    x = _finite_vector(x)
    if math.isnan(gamma):
        raise ValueError("gamma must not be NaN")

    def sweep_pass(u: np.ndarray) -> _SweepPoint:
        return _SweepPoint(u, complexity_cost(u, w), _distortion(x, u, alphabet))

    left = sweep_pass(project_lagrangian(x, w, alphabet, 0.0))
    right = left
    if left.cost > gamma:
        alpha_max = 2.0 * w.max_finite() * len(x)
        if alpha_max <= 0:
            alpha_max = 1.0
        right = sweep_pass(project_lagrangian(x, w, alphabet, alpha_max))
        if right.cost > gamma:
            left = right
            right = sweep_pass(_min_cost_path(x, w, alphabet))
            if right.cost > gamma:
                raise InfeasibleProjection(
                    f"no sequence attains cost <= {gamma}", min_cost=right.cost
                )
        elif math.isinf(left.cost):
            # the rounding uses a forbidden window: the left end is the
            # alpha -> 0+ limit instead, the nearest sequence of finite cost
            left = sweep_pass(_finite_cost_rounding(x, w, alphabet))
            if left.cost <= gamma:
                right = left

    windows = len(x) - w.k
    while right.distortion > left.distortion:
        alpha = (right.distortion - left.distortion) / ((left.cost - right.cost) * windows)
        point = sweep_pass(project_lagrangian(x, w, alphabet, alpha))
        end = right if point.cost <= gamma else left
        inside = right.cost < point.cost < left.cost
        if not (inside or (point.cost == end.cost and point.distortion < end.distortion)):
            break
        if end is right:
            right = point
        else:
            left = point
    return right.u


def _distortion(x: np.ndarray, u: np.ndarray, alphabet: QuantAlphabet) -> float:
    return float(((alphabet.values[u] - x) ** 2).sum())


def project_l0(x: np.ndarray, alphabet: QuantAlphabet, s: int) -> np.ndarray:
    """Exact projection onto {grid sequences with at most s nonzeros}.

    Each coordinate gets its nearest grid value; the s coordinates with the
    largest distortion gains keep it (earlier index wins ties) and the rest
    are zeroed.  This is the exact constrained projection for memoryless
    spike-and-slab weights.  x may also be a (T, n) stack, projected row by
    row.
    """
    x = _finite_vector(x)
    n = x.shape[-1]
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= {n}, got {s}")
    zero_idx = alphabet.zero_index()
    if zero_idx is None:
        raise ValueError("alphabet does not contain 0")
    q = nearest_index(alphabet, x)
    if s == 0:
        return np.full_like(q, zero_idx)
    v = alphabet.values[q]
    # half of x^2 - (x - v)^2, which would overflow for |x| near 1e300
    gains = v * (x - 0.5 * v)
    # the s-th largest gain of each row: each row has at least s gains at or
    # above it, and exactly s unless it ties; then every larger gain is kept
    # and the earliest of the tied ones fill the rest of the budget
    kth = np.partition(gains, n - s, axis=-1)[..., n - s, None]
    keep = gains >= kth
    if np.count_nonzero(keep) > keep.size // n * s:
        tied = gains == kth
        room = s - np.count_nonzero(gains > kth, axis=-1)[..., None]
        keep = (gains > kth) | (tied & (np.cumsum(tied, axis=-1) <= room))
    q[~keep] = zero_idx
    return q


def nearest_index(alphabet: QuantAlphabet, x: np.ndarray) -> np.ndarray:
    """Index of the closest grid value to each coordinate (lower on ties)."""
    values = alphabet.values
    # clipped first, so the scaled offset stays in [0, size - 1] for any x
    x = np.minimum(np.maximum(x, values[0]), values[-1])
    lo_idx = np.floor((x - values[0]) * 2.0 ** alphabet.b).astype(np.int64)
    hi_idx = np.minimum(lo_idx + 1, alphabet.size - 1)
    # hi_idx is lo_idx + 1, or lo_idx itself at the top, where d_hi == d_lo
    lo_idx += np.abs(x - values[hi_idx]) < np.abs(x - values[lo_idx])
    return lo_idx

