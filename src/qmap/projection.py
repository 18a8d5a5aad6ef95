"""Projection of a real vector onto quantized low-complexity sequence sets.

project_lagrangian solves

    min over u in alphabet^n of  sum_i (value(u_i) - x_i)^2
                                 + alpha * sum_{i>k} w[u_{i-k}..u_i]

exactly with a Viterbi dynamic program over the alphabet^k context states
(the first k positions incur distortion only).  project_constrained meets
a hard complexity budget by a search over the breakpoints of alpha
(Everett's generalized Lagrange multipliers); it returns the best feasible
Lagrangian solution, which is the constrained optimum only where that is a
vertex of the (cost, distortion) hull.  project_l0 is the exact fast path
for memoryless spike-and-slab weights.  Every projector requires
finite x; the Viterbi projectors also refuse an x with a coordinate 2^52
grid steps or more from the grid, where squared distances lose its offset,
and a weight table on another grid than the alphabet.

Ties are always broken toward the lexicographically smallest symbol-index
sequence: the dynamic program runs backward over suffix costs, keeping for
every (position, context) the smallest optimal symbol as a back-pointer,
and the path is rebuilt forward by following them.

Every pass with k >= 1 forms the distortion a block of positions at a
time, from the back, and hands each block to the step of the table, which
writes the block's back-pointers; one start cost and one forward rebuild
follow.  The dense step costs O(S^(k+1)) a position for an alphabet of S
symbols.  A k=1 table with one weight on its diagonal (hold) and one off
it (jump), both finite and hold <= jump, as every pc_markov table is,
takes the stay-or-jump step instead, in O(S): from a state, the best next
symbol is the state itself or the first best jump target, which is the
same for every state.  Its cells are the dense step's, summed in the same
order, and its comparisons pick the first minimum of each dense row, so it
writes the same back-pointers (see _stay_or_jump_step).  Two cases need
no per-position loop.  A table whose scaled weights are all 0, as in the
alpha -> 0+ pass of the breakpoint search, takes the free step, whose
suffix is one number a position.  The stay-or-jump step first tries each
block as one where no state leaves its value, as at the search's
alpha_max.
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


def _check_same_grid(w: WeightTable, alphabet: QuantAlphabet) -> None:
    """Refuse a weight table whose symbols index another grid: its windows
    would be read as windows of the wrong values, or not fit at all."""
    if not np.array_equal(w.alphabet.values, alphabet.values):
        raise ValueError(
            f"the weight table is on another grid (b={w.alphabet.b}, {w.alphabet.size} "
            f"values from {w.alphabet.values[0]}) than the alphabet (b={alphabet.b}, "
            f"{alphabet.size} values from {alphabet.values[0]})"
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
    _check_same_grid(w, alphabet)
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
    if not aw.any():
        step = _free_step
    elif _is_stay_or_jump(w):
        step = _stay_or_jump_step(aw[0, 0], aw[0, 1], s)
    else:
        step = _dense_step(aw.reshape(states, s))  # cost of (state, symbol)

    # backward pass: suffix[state] is the best cost of positions i..n-1 after
    # the context state; back[i - k, state] is the first (smallest) symbol
    # attaining it.  step(dist, back, suffix) takes a block's distortion,
    # fills its rows of back and returns the suffix before the block.  No
    # (n, S) distortion array is held beside the back-pointers
    suffix = np.zeros(states)
    back = np.empty((n - k, states), dtype=np.min_scalar_type(s - 1))
    for end in range(n, k, -VITERBI_BLOCK):
        start = max(end - VITERBI_BLOCK, k)
        dist = (values[None, :] - x[start:end, None]) ** 2
        if dist_scale != 1.0:  # 1.0 * dist is dist: no product to form
            dist *= dist_scale
        suffix = step(dist, back[start - k:end - k], suffix)

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


def _dense_step(aw: np.ndarray):
    """The step of the dense trellis, O(S^(k+1)) a position, for the
    (state, symbol) costs aw.  A cell is (dist + aw) + suffix[next state],
    summed in that order; a state's next-state row depends on its low k-1
    digits only."""
    states, s = aw.shape
    low_states = states // s
    rows = np.arange(states)
    total = np.empty((states, s))
    by_low_digits = total.reshape(s, low_states, s)

    def step(dist: np.ndarray, back: np.ndarray, suffix: np.ndarray) -> np.ndarray:
        for r in range(len(dist) - 1, -1, -1):
            np.add(dist[r], aw, out=total)
            np.add(by_low_digits, suffix.reshape(low_states, s), out=by_low_digits)
            best_symbol = total.argmin(axis=1)
            back[r] = best_symbol
            suffix = total[rows, best_symbol]
        return suffix
    return step


def _free_step(dist: np.ndarray, back: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    """The step of a table whose scaled weights are all 0.  Every context's
    suffix is then one number, c_i = min_a d_i[a] + c_{i+1} (rounding is
    monotone), and every context's back-pointer the first argmin of
    d_i + c_{i+1}: the dense step's cells and back-pointers, with no
    per-position loop."""
    m = len(dist)
    sums = np.empty(m + 1)  # sums[j] = c_{m - j} in the block, from the back
    sums[0] = suffix[0]
    dist[::-1].min(axis=1, out=sums[1:])
    np.cumsum(sums, out=sums)
    back[:] = (dist + sums[m - 1::-1, None]).argmin(axis=1)[:, None]
    suffix[:] = sums[m]
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


def _stay_or_jump_step(hold: float, jump: float, s: int):
    """The step of a stay-or-jump table's k=1 trellis, O(S) a position: the
    back-pointers of the dense step, its cells summed as (dist + weight) +
    suffix in the same order.

    At a position, H[a] and J[a] are the cells that hold at a and that jump
    to a.  Row `state` of the dense trellis is J with H[state] on its
    diagonal, so its first minimum is state or j1, the first argmin of J:
    state < j1 holds iff H[state] <= J[j1], state > j1 iff H[state] < J[j1],
    and j1 itself always holds (H[j1] <= J[j1], as hold <= jump and float
    rounding is monotone).  The next suffix is min(H, J[j1]); the step
    writes it over the suffix it is given.

    A block first assumes that no state leaves its value in it, as at a
    large alpha.  Each state's suffix is then the sum of its hold cells
    from the back, F_r = (d_r + hold) + F_{r+1}, and H = F.  If every H is
    <= J[j1] at every position of the block, these are the loop's cells and
    the block keeps them: every state holds where every H < J[j1], and a
    tie takes the rule above.  Otherwise the block runs the per-position
    loop, and so does every later block of the pass.
    """
    cells = np.empty((VITERBI_BLOCK, 2, s))
    rows = list(cells)
    h_rows = [row[0] for row in rows]
    j_rows = [row[1] for row in rows]
    held = np.empty((VITERBI_BLOCK + 1, s))
    symbols = np.arange(s)
    block_rows = np.arange(VITERBI_BLOCK)[:, None]
    try_held = True

    def write_back(h: np.ndarray, j: np.ndarray, back: np.ndarray) -> None:
        j1 = j.argmin(axis=1)[:, None]
        v1 = j[block_rows[:len(j)], j1]
        # straight into back's rows: no int64 temporary cast into them
        back[:] = j1
        np.copyto(back, symbols, casting="unsafe",
                  where=(h < v1) | ((h == v1) & (symbols <= j1)))

    def step(dist: np.ndarray, back: np.ndarray, suffix: np.ndarray) -> np.ndarray:
        nonlocal try_held
        m = len(dist)
        if try_held:
            # rows from the back of the block: f[i] = F, i positions before its end
            f = held[:m + 1]
            f[0] = suffix
            np.add(dist[::-1], hold, out=f[1:])
            np.cumsum(f, axis=0, out=f)
            h, j = f[1:], (dist[::-1] + jump) + f[:m]
            v1 = j.min(axis=1, keepdims=True)
            if (h < v1).all():
                back[:] = symbols
            elif (h <= v1).all():
                write_back(h[::-1], j[::-1], back)
            else:
                try_held = False
            if try_held:
                suffix[:] = f[m]
                return suffix
        np.add(dist, hold, out=cells[:m, 0])
        np.add(dist, jump, out=cells[:m, 1])
        for r in range(m - 1, -1, -1):
            np.add(rows[r], suffix, out=rows[r])
            j = j_rows[r]
            np.minimum(h_rows[r], j[j.argmin()], out=suffix)
        write_back(cells[:m, 0], cells[:m, 1], back)
        return suffix
    return step


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
    (cost, distortion) (Everett 1963; Shoham & Gersho 1988).  The first pass
    is the alpha -> 0+ limit of the Lagrangian projection, the nearest
    sequence of finite cost; it is the alpha = 0 rounding whenever that has
    finite cost, and it is returned if feasible.  Otherwise the search
    brackets gamma by an infeasible left end L, this first pass, and a
    feasible right end R: the alpha_max pass is R if feasible, else it is L
    and the minimum-cost path is R.  Every further pass is at the alpha
    where L and R tie,

        alpha = (d_R - d_L) / ((c_L - c_R) * (n - k)),

    and a result strictly inside the bracket, or of lower distortion at an
    end's cost, replaces the end on its side of gamma.  Otherwise L-R is a
    hull edge and R is returned.  Every pass shrinks the bracket, so the
    search is finite.  When the constrained optimum is not a hull vertex (a
    duality gap) the best feasible vertex is returned instead.
    """
    _check_same_grid(w, alphabet)
    x = _finite_vector(x)
    if math.isnan(gamma):
        raise ValueError("gamma must not be NaN")

    def sweep_pass(u: np.ndarray) -> _SweepPoint:
        return _SweepPoint(u, complexity_cost(u, w), _distortion(x, u, alphabet))

    # alpha -> 0+: every finite weight set to 0
    allowed = WeightTable(w.alphabet, w.k, np.where(np.isinf(w.w), np.inf, 0.0))
    left = sweep_pass(project_lagrangian(x, allowed, alphabet, alpha=1.0))
    right = left
    if left.cost > gamma:
        alpha_max = 2.0 * w.max_finite() * len(x)
        if alpha_max <= 0:
            alpha_max = 1.0
        right = sweep_pass(project_lagrangian(x, w, alphabet, alpha_max))
        if right.cost > gamma:
            left = right
            # the minimum-cost path: distortion ignored
            right = sweep_pass(project_lagrangian(x, w, alphabet, 1.0, dist_scale=0.0))
            if right.cost > gamma:
                raise InfeasibleProjection(
                    f"no sequence attains cost <= {gamma}", min_cost=right.cost
                )

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
