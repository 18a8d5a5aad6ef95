"""Projection of a real vector onto quantized low-complexity sequence sets.

project_lagrangian solves

    min over u in alphabet^n of  sum_i (value(u_i) - x_i)^2
                                 + alpha * sum_{i>k} w[u_{i-k}..u_i]

exactly with a Viterbi dynamic program over the alphabet^k context states
(the first k positions incur distortion only).  project_constrained meets
a hard complexity budget by an exact search over the breakpoints of alpha
(Everett's generalized Lagrange multipliers), project_l0 is the exact fast
path for memoryless spike-and-slab weights, and project_bruteforce
enumerates everything at toy scale.  Every projector requires finite x.

Ties are always broken toward the lexicographically smallest symbol-index
sequence: the dynamic program runs backward over suffix costs, keeping for
every (position, context) the smallest optimal symbol as a back-pointer,
and the path is rebuilt forward by following them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .empirics import complexity_cost
from .quantize import QuantAlphabet
from .sources import WeightTable

MAX_STATES = 2 ** 20          # alphabet^k context states
MAX_TRELLIS_CELLS = 2 ** 24   # n * alphabet^k back-pointers kept alive
MAX_BRUTEFORCE = 10 ** 6      # alphabet^n sequences


class InfeasibleProjection(ValueError):
    """No sequence satisfies the requested constraint.

    min_cost carries the smallest achievable complexity cost when known.
    """

    def __init__(self, message: str, min_cost: float | None = None):
        super().__init__(message)
        self.min_cost = min_cost


class ProblemTooLarge(ValueError):
    pass


@dataclass
class SweepInfo:
    """Telemetry from the constrained breakpoint search: alpha, cost and
    distortion of every Viterbi pass in order (alpha 0 for the rounding and
    for its alpha -> 0+ limit, inf for the minimum-cost path), the alpha of
    the returned pass, and how many passes were feasible."""

    alphas: list[float]
    costs: list[float]
    distortions: list[float]
    best_alpha: float
    n_feasible: int


def _scaled_weights(w: np.ndarray, alpha: float) -> np.ndarray:
    # alpha = 0 must erase the weights entirely, including the +inf ones
    if alpha == 0.0:
        return np.zeros_like(w)
    return np.where(np.isinf(w), np.inf, alpha * w)


def _finite_vector(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite: NaN or inf cannot be projected")
    return x


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

    dist = dist_scale * (alphabet.values[None, :] - x[:, None]) ** 2  # (n, s)
    if k == 0:
        # decoupled: per-position minimum, argmin toward the smallest index
        stage = dist + _scaled_weights(w.w, alpha)[None, :]
        if np.isinf(stage.min(axis=1)).any():
            raise InfeasibleProjection("every symbol is forbidden at some position")
        return np.argmin(stage, axis=1).astype(np.int64)

    aw = _scaled_weights(w.w, alpha).reshape(s ** k, s)  # cost of (state, symbol)
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
    alpha: float
    cost: float
    distortion: float


def project_constrained(
    x: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    gamma: float,
    full_output: bool = False,
):
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
    info = SweepInfo(alphas=[], costs=[], distortions=[], best_alpha=0.0, n_feasible=0)

    def sweep_pass(u: np.ndarray, alpha: float) -> _SweepPoint:
        point = _SweepPoint(u, alpha, complexity_cost(u, w), _distortion(x, u, alphabet))
        info.alphas.append(alpha)
        info.costs.append(point.cost)
        info.distortions.append(point.distortion)
        info.n_feasible += point.cost <= gamma
        return point

    left = sweep_pass(project_lagrangian(x, w, alphabet, 0.0), 0.0)
    right = left
    if left.cost > gamma:
        alpha_max = 2.0 * w.max_finite() * len(x)
        if alpha_max <= 0:
            alpha_max = 1.0
        right = sweep_pass(project_lagrangian(x, w, alphabet, alpha_max), alpha_max)
        if right.cost > gamma:
            left = right
            right = sweep_pass(_min_cost_path(x, w, alphabet), math.inf)
            if right.cost > gamma:
                raise InfeasibleProjection(
                    f"no sequence attains cost <= {gamma}", min_cost=right.cost
                )
        elif math.isinf(left.cost):
            # the rounding uses a forbidden window: the left end is the
            # alpha -> 0+ limit instead, the nearest sequence of finite cost
            left = sweep_pass(_finite_cost_rounding(x, w, alphabet), 0.0)
            if left.cost <= gamma:
                right = left

    windows = len(x) - w.k
    while right.distortion > left.distortion:
        alpha = (right.distortion - left.distortion) / ((left.cost - right.cost) * windows)
        point = sweep_pass(project_lagrangian(x, w, alphabet, alpha), alpha)
        end = right if point.cost <= gamma else left
        inside = right.cost < point.cost < left.cost
        if not (inside or (point.cost == end.cost and point.distortion < end.distortion)):
            break
        if end is right:
            right = point
        else:
            left = point
    info.best_alpha = right.alpha
    return (right.u, info) if full_output else right.u


def _distortion(x: np.ndarray, u: np.ndarray, alphabet: QuantAlphabet) -> float:
    return float(((alphabet.values[u] - x) ** 2).sum())


def project_l0(x: np.ndarray, alphabet: QuantAlphabet, s: int) -> np.ndarray:
    """Exact projection onto {grid sequences with at most s nonzeros}.

    Each coordinate gets its nearest grid value; the s coordinates with the
    largest distortion gains keep it (earlier index wins ties) and the rest
    are zeroed.  This is the exact constrained projection for memoryless
    spike-and-slab weights.
    """
    x = _finite_vector(x)
    n = len(x)
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= {n}, got {s}")
    zero_idx = alphabet.zero_index()
    if zero_idx is None:
        raise ValueError("alphabet does not contain 0")
    q = nearest_index(alphabet, x)
    v = alphabet.values[q]
    # half of x^2 - (x - v)^2, which would overflow for |x| near 1e300
    gains = v * (x - 0.5 * v)
    order = np.argsort(-gains, kind="stable")
    out = np.full(n, zero_idx, dtype=np.int64)
    keep = order[:s]
    out[keep] = q[keep]
    return out


def nearest_index(alphabet: QuantAlphabet, x: np.ndarray) -> np.ndarray:
    """Index of the closest grid value to each coordinate (lower on ties)."""
    # clipped first, so the scaled offset stays in [0, size - 1] for any x
    x = np.clip(np.asarray(x, dtype=float), alphabet.values[0], alphabet.values[-1])
    lo_idx = np.floor((x - alphabet.values[0]) * 2.0 ** alphabet.b).astype(np.int64)
    hi_idx = np.minimum(lo_idx + 1, alphabet.size - 1)
    d_lo = np.abs(x - alphabet.values[lo_idx])
    d_hi = np.abs(x - alphabet.values[hi_idx])
    return np.where(d_hi < d_lo, hi_idx, lo_idx)


def enumerate_sequences(size: int, n: int) -> np.ndarray:
    """All size^n index sequences in lexicographic order, shape (size^n, n)."""
    if size ** n > MAX_BRUTEFORCE:
        raise ProblemTooLarge(f"{size}^{n} sequences exceed the enumeration limit")
    return np.array(list(itertools.product(range(size), repeat=n)), dtype=np.int64)


def sequence_costs(seqs: np.ndarray, w: WeightTable) -> np.ndarray:
    """Raw window-weight sums sum_{i>k} w[window] for each row of seqs."""
    n = seqs.shape[1]
    k = w.k
    total = np.zeros(len(seqs))
    for i in range(k, n):
        window = tuple(seqs[:, i - k + j] for j in range(k + 1))
        total += w.w[window]
    return total


def project_bruteforce(
    x: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    gamma: float | None = None,
    alpha: float | None = None,
) -> np.ndarray:
    """Exhaustive constrained (gamma) or Lagrangian (alpha) projection.

    Enumeration is lexicographic with strict-minimum updates, so the
    returned argmin is the lexicographically smallest one.
    """
    if (gamma is None) == (alpha is None):
        raise ValueError("pass exactly one of gamma or alpha")
    x = np.asarray(x, dtype=float)
    n = len(x)
    seqs = enumerate_sequences(alphabet.size, n)
    dist = ((alphabet.values[seqs] - x[None, :]) ** 2).sum(axis=1)
    raw = sequence_costs(seqs, w)
    if alpha is not None:
        if alpha == 0.0:
            objective = dist
        else:
            objective = dist + alpha * raw
        best = objective.min()
        if math.isinf(best):
            raise InfeasibleProjection("every length-n path has infinite cost")
        return seqs[int(np.flatnonzero(objective == best)[0])]
    cost = raw / (n - w.k)
    feasible = cost <= gamma
    if not feasible.any():
        raise InfeasibleProjection(
            f"no sequence attains cost <= {gamma}", min_cost=float(cost.min())
        )
    dist = np.where(feasible, dist, np.inf)
    return seqs[int(np.flatnonzero(dist == dist.min())[0])]
