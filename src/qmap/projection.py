"""Projection of a real vector onto quantized low-complexity sequence sets.

project_lagrangian solves

    min over u in alphabet^n of  sum_i (value(u_i) - x_i)^2
                                 + alpha * sum_{i>k} w[u_{i-k}..u_i]

exactly with a Viterbi dynamic program over the alphabet^k context states
(the first k positions incur distortion only).  project_constrained meets
a hard complexity budget.  On a stay-or-jump table (below), where the cost
counts jumps, it is exact: one dynamic program over (position, jumps
left, value).  On any other table it searches the breakpoints of alpha
(Everett's generalized Lagrange multipliers) and returns the best
feasible Lagrangian solution, which is the constrained optimum only where
that is a vertex of the (cost, distortion) hull.  project_l0 is the exact
fast path for memoryless spike-and-slab weights.  Every projector requires
finite x; the Viterbi projectors also refuse an x with a coordinate 2^52
grid steps or more from the grid, where squared distances lose its offset.
A Viterbi projector's grid is its weight table's, w.alphabet.

The Viterbi projectors break ties toward the lexicographically smallest
symbol-index sequence: the dynamic program runs backward over suffix costs,
keeping for every (position, context) the smallest optimal symbol as a
back-pointer, and the path is rebuilt forward by following them.
project_l0 is the exception: of tied gains it keeps the earlier index, so
for x = [0.5, 0.5] on the grid {0, 0.5} with s = 1 it returns [1, 0], where
the lexicographically smallest optimum is [0, 1].

Every pass with k >= 1 forms the distortion a block of positions at a
time, from the back, and hands each block to the dense step, which writes
the block's back-pointers in O(S^(k+1)) a position for an alphabet of S
symbols, whatever the table; one start cost and one forward rebuild
follow.  A budget of fewer than n - 1 jumps on a stay-or-jump table (a
k=1 table with one weight on its diagonal, hold, and one off it, jump,
both finite and hold <= jump, as every pc_markov table is) takes the
jump-count pass instead, in O((jumps + 1) * S) a position.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .quantize import QuantAlphabet
from .sources import WeightTable, complexity_cost

MAX_STATES = 2 ** 20          # alphabet^k context states
MAX_TRELLIS_CELLS = 2 ** 24   # n * alphabet^k back-pointers kept alive
VITERBI_BLOCK = 64            # positions whose distortion a pass forms at once


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


def _check_trellis_input(x: np.ndarray, w: WeightTable) -> None:
    n, s, k = len(x), w.alphabet.size, w.k
    if n <= k:
        raise ValueError(f"need len(x) > k, got {n} <= {k}")
    if s ** k > MAX_STATES:
        raise ProblemTooLarge(f"trellis needs {s}^{k} states; limit is {MAX_STATES}")
    if n * s ** k > MAX_TRELLIS_CELLS:
        raise ProblemTooLarge(
            f"trellis needs {n} x {s}^{k} back-pointers; limit is {MAX_TRELLIS_CELLS}"
        )
    _check_distortion(x, w.alphabet)


def project_lagrangian(
    x: np.ndarray,
    w: WeightTable,
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
    alphabet = w.alphabet
    s = alphabet.size
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    _check_trellis_input(x, w)

    aw = _scaled_weights(w.w, alpha)
    values = alphabet.values
    if k == 0:
        # decoupled: per-position minimum, argmin toward the smallest index
        stage = dist_scale * (values[None, :] - x[:, None]) ** 2 + aw[None, :]
        if np.isinf(stage.min(axis=1)).any():
            raise InfeasibleProjection("every symbol is forbidden at some position")
        return np.argmin(stage, axis=1).astype(np.int64)

    # state id encodes the context base-s, most recent symbol in the low digit;
    # after symbol a the next state is (state mod s^(k-1)) * s + a
    states = s ** k
    low_states = s ** (k - 1)
    aw = aw.reshape(states, s)  # cost of (state, symbol)

    # backward pass: suffix[state] is the best cost of positions i..n-1 after
    # the context state; back[i - k, state] is the first (smallest) symbol
    # attaining it.  _dense_step takes a block's distortion, fills its rows
    # of back and returns the suffix before the block.  No (n, S)
    # distortion array is held beside the back-pointers
    suffix = np.zeros(states)
    back = np.empty((n - k, states), dtype=np.min_scalar_type(s - 1))
    for end in range(n, k, -VITERBI_BLOCK):
        start = max(end - VITERBI_BLOCK, k)
        dist = (values[None, :] - x[start:end, None]) ** 2
        if dist_scale != 1.0:  # 1.0 * dist is dist: no product to form
            dist *= dist_scale
        suffix = _dense_step(dist, aw, back[start - k:end - k], suffix)

    # fold the first k (distortion-only) positions into the initial context,
    # summed from the first: appending symbol a to context c gives c * s + a
    start_cost = np.zeros(1)
    for dist in dist_scale * (values[None, :] - x[:k, None]) ** 2:
        start_cost = np.add.outer(start_cost, dist).ravel()
    start_cost += suffix
    state = int(start_cost.argmin())  # lex-smallest context
    if math.isinf(start_cost[state]):
        raise InfeasibleProjection("every length-n path has infinite cost")

    path = [(state // s ** (k - 1 - j)) % s for j in range(k)]
    flat = memoryview(back.reshape(-1))  # a back-pointer read as an int, with no numpy call
    for row in range(0, (n - k) * states, states):
        a = flat[row + state]
        path.append(a)
        state = (state % low_states) * s + a
    return np.array(path, dtype=np.int64)


def _dense_step(dist: np.ndarray, aw: np.ndarray, back: np.ndarray,
                suffix: np.ndarray) -> np.ndarray:
    """The step of the dense trellis, O(S^(k+1)) a position, over a block
    of distortion rows from the back, for the (state, symbol) costs aw.  A
    cell is (dist + aw) + suffix[next state], summed in that order; a
    state's next-state row depends on its low k-1 digits only."""
    states, s = aw.shape
    low_states = states // s
    rows = np.arange(states)
    total = np.empty((states, s))
    by_low_digits = total.reshape(s, low_states, s)
    for r in range(len(dist) - 1, -1, -1):
        np.add(dist[r], aw, out=total)
        np.add(by_low_digits, suffix.reshape(low_states, s), out=by_low_digits)
        best_symbol = total.argmin(axis=1)
        back[r] = best_symbol
        suffix = total[rows, best_symbol]
    return suffix


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


class _SweepPoint(NamedTuple):
    """One pass of the breakpoint search: its sequence and where it lies."""

    u: np.ndarray
    cost: float
    distortion: float


def project_constrained(
    x: np.ndarray,
    w: WeightTable,
    gamma: float,
) -> np.ndarray:
    """Feasible sequence (complexity cost <= gamma) of smallest distortion:
    the constrained optimum on a stay-or-jump table, the best Lagrangian
    solution within gamma on any other.

    On a stay-or-jump table a sequence with J jumps costs
    (hold * (n - 1 - J) + jump * J) / (n - 1), so the budget is at most
    J(gamma) jumps (see _jump_budget, exact in rational arithmetic), and
    one jump-count pass returns the sequence of least distortion among
    them (see _project_jumps).  When J(gamma) >= n - 1 every sequence fits
    and the search's first pass below is returned.  complexity_cost sums the
    window weights in floats, so on its output it may exceed gamma by a
    few ulps: fewer than D + 2 ulps of gamma, for D distinct windows.

    On any other table the search runs.  The Lagrangian solutions are the
    vertices of the lower convex hull of (cost, distortion) (Everett 1963;
    Shoham & Gersho 1988).  The first pass is the alpha -> 0+ limit of the
    Lagrangian projection, a trellis pass whose finite weights are all 0: the
    lexicographically smallest sequence of finite cost whose distortion, as
    the trellis sums it in floats from the back, is least.  Near a midpoint
    that can be the lower neighbour where nearest_index rounds up.  It is
    the alpha = 0 pass whenever that has finite cost, and it is returned if
    feasible.  Otherwise the search brackets gamma between the two limits
    of alpha: an infeasible left end L, this first pass, and a feasible
    right end R, the alpha -> inf limit, which is the minimum-cost pass
    (distortion scaled by 0).  If that pass is infeasible too, no sequence
    fits and InfeasibleProjection carries its cost.  Every further pass is
    at the alpha where L and R tie,

        alpha = (d_R - d_L) / ((c_L - c_R) * (n - k)),

    (as distortion / alpha + w where alpha times a finite weight
    overflows), and a result strictly inside the bracket, or of lower
    distortion at an end's cost, replaces the end on its side of gamma.
    Otherwise L-R is a hull edge and R is returned.  Every pass shrinks the
    bracket, so the search is finite.  When the constrained optimum is not a
    hull vertex (a duality gap) the best feasible vertex is returned
    instead.
    """
    x = _finite_vector(x)
    if math.isnan(gamma):
        raise ValueError("gamma must not be NaN")
    # alpha -> 0+: every finite weight set to 0
    allowed = WeightTable(w.alphabet, np.where(np.isinf(w.w), np.inf, 0.0))
    if _is_stay_or_jump(w):
        n = len(x)
        _check_trellis_input(x, w)
        jumps = _jump_budget(w, n, gamma)
        if jumps < 0:
            # every constant sequence has the least cost
            raise InfeasibleProjection(f"no sequence attains cost <= {gamma}",
                                       min_cost=complexity_cost(np.zeros(n, np.int64), w))
        if jumps >= n - 1:  # every sequence fits: the search's first pass
            return project_lagrangian(x, allowed, alpha=1.0)
        return _project_jumps(x, w.alphabet, jumps)

    def sweep_pass(u: np.ndarray) -> _SweepPoint:
        return _SweepPoint(u, complexity_cost(u, w), _distortion(x, u, w.alphabet))

    left = sweep_pass(project_lagrangian(x, allowed, alpha=1.0))
    right = left
    if left.cost > gamma:
        # alpha -> inf: the minimum-cost path, distortion ignored
        right = sweep_pass(project_lagrangian(x, w, 1.0, dist_scale=0.0))
        if right.cost > gamma:
            raise InfeasibleProjection(
                f"no sequence attains cost <= {gamma}", min_cost=right.cost
            )

    windows = len(x) - w.k
    top = float(w.w[np.isfinite(w.w)].max())  # the left end has finite cost
    while right.distortion > left.distortion:
        alpha = (right.distortion - left.distortion) / ((left.cost - right.cost) * windows)
        if math.isinf(alpha * top):
            # alpha * w overflows: distortion / alpha + w has the same minimiser
            u = project_lagrangian(x, w, 1.0, dist_scale=1.0 / alpha)
        else:
            u = project_lagrangian(x, w, alpha)
        point = sweep_pass(u)
        end = right if point.cost <= gamma else left
        inside = right.cost < point.cost < left.cost
        if not (inside or (point.cost == end.cost and point.distortion < end.distortion)):
            break
        if end is right:
            right = point
        else:
            left = point
    return right.u


def _jump_budget(w: WeightTable, n: int, gamma: float) -> int:
    """J(gamma), the most jumps a length-n sequence may make within gamma on
    a stay-or-jump table: the largest J with

        hold * (n - 1 - J) + jump * J <= gamma * (n - 1),

    in exact rational arithmetic on the three floats (their denominators
    are powers of 2).  Negative when no sequence fits, n - 1 or more when
    every sequence does."""
    if math.isinf(gamma):
        return n - 1 if gamma > 0 else -1
    ratios = [float(v).as_integer_ratio() for v in (w.w[0, 0], w.w[0, 1], gamma)]
    scale = max(den for _, den in ratios)
    hold, jump, budget = (num * (scale // den) for num, den in ratios)
    room = (budget - hold) * (n - 1)
    if jump == hold:
        return n - 1 if room >= 0 else -1
    return room // (jump - hold)


def _project_jumps(x: np.ndarray, alphabet: QuantAlphabet, jumps: int) -> np.ndarray:
    """The grid sequence of least distortion with at most `jumps` value
    changes, 0 <= jumps < n - 1, as symbol indices: Bellman's segmented
    least squares on the grid, O(n * (jumps + 1) * S).

    G[r, a] is the least distortion of the positions after i, given value a
    at i and r jumps left; H = G + d_i is the same from i on, summed from
    the back as the trellis sums it.  Going back a position, from value a
    with r jumps left the next value either holds, at H[r, a], or jumps to
    j1, the first argmin of row r - 1 of H, at its minimum M[r - 1]; so
    G[r] = min(H[r], M[r - 1]), and G[0] = H[0].  The value holds iff
    (H[r, a], a) <= (M[r - 1], j1) lexicographically: every choice takes
    the smallest optimal next value, keeping a jump when the next value is
    a itself, so the rebuild from the first argmin of d_0 + G[jumps] gives
    the lexicographically smallest optimal sequence, as the trellis does.

    Two kinds of row are not formed.  The start has i windows behind it at
    position i, so it reaches no row r < jumps - i + 1 of the G before i;
    and a row with more jumps left than windows ahead equals the row with
    as many, so the rebuild reads that one.  The hold flags are kept
    packed, eight values to a byte, beside j1 of every row.
    """
    n, s = len(x), alphabet.size
    values = alphabet.values
    flag_bytes = -(-s // 8)
    target_type = np.min_scalar_type(s - 1)
    held = (n - 1) * jumps * (flag_bytes + target_type.itemsize)
    if held > MAX_TRELLIS_CELLS:
        raise ProblemTooLarge(
            f"jump-count pass needs {held} bytes of hold flags and jump targets for "
            f"{n} positions, {jumps} jumps and {s} values; limit is {MAX_TRELLIS_CELLS}"
        )
    # for position i: flags[i - 1, r - 1] (bit a) holds at a with r jumps
    # left, targets[i - 1, r] is j1 of row r
    flags = np.empty((n - 1, jumps, flag_bytes), dtype=np.uint8)
    targets = np.empty((n - 1, jumps), dtype=target_type)
    g = np.zeros((jumps + 1, s))
    g_flat = g.reshape(-1)
    row_starts = np.arange(jumps + 1) * s
    symbols = np.arange(s)
    block_flags = np.zeros((VITERBI_BLOCK, jumps, s), dtype=bool)
    block_targets = np.zeros((VITERBI_BLOCK, jumps + 1), dtype=np.intp)
    # M[r - 1] spread across row r: numpy compares same-shape rows faster
    # than it broadcasts a column
    jump_in = np.empty((jumps, s))
    ties = np.empty((jumps, s), dtype=bool)
    for end in range(n, 1, -VITERBI_BLOCK):
        start = max(end - VITERBI_BLOCK, 1)
        dist = (values[None, :] - x[start:end, None]) ** 2
        for i in range(end - 1, start - 1, -1):
            # the rows of H that the rows jumps - i + 1 .. hi of the next G
            # read; row n - i of that G is new and starts as row n - i - 1
            lo, hi = max(jumps - i, 0), min(jumps, n - i)
            if hi == n - i:
                g[hi] = g[hi - 1]
            h = g[lo:hi + 1]
            h += dist[i - start]
            j1 = block_targets[i - start, lo:hi + 1]
            h.argmin(axis=1, out=j1)
            jump = jump_in[lo:hi]
            np.copyto(jump, g_flat[row_starts[lo:hi] + j1[:-1]][:, None])
            hold = block_flags[i - start, lo:hi]
            stay = h[1:]
            np.less(stay, jump, out=hold)
            if np.equal(stay, jump, out=ties[lo:hi]).any():
                hold |= ties[lo:hi] & (symbols <= j1[:-1, None])
            np.minimum(stay, jump, out=stay)
        rows = end - start
        flags[start - 1:end - 1] = np.packbits(block_flags[:rows], axis=-1, bitorder="little")
        targets[start - 1:end - 1] = block_targets[:rows, :jumps]

    a = int(((values - x[0]) ** 2 + g[jumps]).argmin())
    path = [a]
    r = jumps
    # a flag byte or a target read as an int, with no numpy call
    flag_view, target_view = memoryview(flags.reshape(-1)), memoryview(targets.reshape(-1))
    for row in range(n - 1):
        r = min(r, n - 1 - row)  # no more jumps left than windows ahead
        if r and not flag_view[(row * jumps + r - 1) * flag_bytes + (a >> 3)] >> (a & 7) & 1:
            r -= 1
            a = target_view[row * jumps + r]
        path.append(a)
    return np.array(path, dtype=np.int64)


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
    q, v = _nearest(alphabet, x)
    if s == 0:
        return np.full_like(q, zero_idx)
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
    return _nearest(alphabet, x)[0]


def _nearest(alphabet: QuantAlphabet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of the closest grid value to each coordinate (lower
    on ties).  Scaling by 2^b, the floor and lo + 1/2 are all exact, so
    t > lo + 1/2 compares exactly.  The fraction t - lo would not be: for
    t in (-1/2, 0) it is 1 + t, which can round to 1/2."""
    values = alphabet.values
    scale = 2.0 ** alphabet.b
    # clipped first, so t stays on the scaled grid for any x
    t = np.minimum(np.maximum(x, values[0]), values[-1]) * scale
    lo = np.floor(t)
    lo += t > lo + 0.5
    return (lo - values[0] * scale).astype(np.int64), lo / scale
