"""Projection of a real vector onto quantized low-complexity sequence sets.

project_lagrangian solves

    min over u in alphabet^n of  sum_i (value(u_i) - x_i)^2
                                 + alpha * sum_{i>k} w[u_{i-k}..u_i]

exactly with a Viterbi dynamic program over the alphabet^k context states
(the first k positions incur distortion only).  project_constrained sweeps
alpha by bisection to satisfy a hard complexity budget, project_l0 is the
exact fast path for memoryless spike-and-slab weights, and
project_bruteforce enumerates everything at toy scale.

Ties are always broken toward the lexicographically smallest symbol-index
sequence: the dynamic program runs backward over suffix costs and the path
is rebuilt forward choosing the smallest symbol that preserves optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .empirics import complexity_cost
from .quantize import QuantAlphabet
from .sources import WeightTable

MAX_STATES = 2 ** 20          # alphabet^k context states
MAX_TRELLIS_CELLS = 2 ** 24   # n * alphabet^k suffix-cost floats kept alive
MAX_BRUTEFORCE = 10 ** 6      # alphabet^n sequences
BISECTION_ITERS = 40


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
    """Telemetry from the constrained bisection sweep."""

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


def _check_trellis_size(n: int, s: int, k: int) -> None:
    if s ** k > MAX_STATES:
        raise ProblemTooLarge(f"trellis needs {s}^{k} states; limit is {MAX_STATES}")
    if n * s ** k > MAX_TRELLIS_CELLS:
        raise ProblemTooLarge(
            f"trellis needs {n} x {s}^{k} suffix cells; limit is {MAX_TRELLIS_CELLS}"
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
    x = np.asarray(x, dtype=float)
    n = len(x)
    k = w.k
    s = alphabet.size
    if n <= k:
        raise ValueError(f"need len(x) > k, got {n} <= {k}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _check_trellis_size(n, s, k)

    dist = dist_scale * (alphabet.values[None, :] - x[:, None]) ** 2  # (n, s)
    if k == 0:
        # decoupled: per-position minimum, argmin toward the smallest index
        stage = dist + _scaled_weights(w.w, alpha)[None, :]
        if np.isinf(stage.min(axis=1)).any():
            raise InfeasibleProjection("every symbol is forbidden at some position")
        return np.argmin(stage, axis=1).astype(np.int64)

    aw = _scaled_weights(w.w, alpha).reshape(s ** k, s)  # cost of (state, symbol)
    # state id encodes the context base-s, most recent symbol in the low digit
    states = s ** k
    next_state = (
        (np.arange(states)[:, None] % s ** (k - 1)) * s + np.arange(s)[None, :]
    )

    suffix = np.zeros((n + 1, states))
    for i in range(n - 1, k - 1, -1):
        total = dist[i][None, :] + aw + suffix[i + 1][next_state]
        suffix[i] = total.min(axis=1)

    # fold the first k (distortion-only) positions into the initial context
    prefix_dist = np.zeros(states)
    for j in range(k):
        digit = (np.arange(states) // s ** (k - 1 - j)) % s
        prefix_dist += dist[j][digit]
    start_cost = prefix_dist + suffix[k]
    best = start_cost.min()
    if math.isinf(best):
        raise InfeasibleProjection("every length-n path has infinite cost")

    out = np.empty(n, dtype=np.int64)
    state = int(np.flatnonzero(start_cost == best)[0])  # lex-smallest context
    for j in range(k):
        out[j] = (state // s ** (k - 1 - j)) % s
    for i in range(k, n):
        row = dist[i] + aw[state] + suffix[i + 1][next_state[state]]
        a = int(np.flatnonzero(row == suffix[i][state])[0])
        out[i] = a
        state = int(next_state[state][a])
    return out


def _min_cost_path(x: np.ndarray, w: WeightTable, alphabet: QuantAlphabet) -> np.ndarray:
    """A sequence of minimum achievable complexity cost (distortion ignored)."""
    return project_lagrangian(x, w, alphabet, alpha=1.0, dist_scale=0.0)


def project_constrained(
    x: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    gamma: float,
    full_output: bool = False,
):
    """Feasible sequence (complexity cost <= gamma) of smallest distortion
    found by a bisection sweep of the Lagrangian projection.

    The sweep is monotone (distortion up, cost down in alpha) but the
    Lagrangian path can skip constrained optima when the trade-off curve is
    non-convex; the returned point is the best feasible one encountered.
    """
    x = np.asarray(x, dtype=float)
    u0 = project_lagrangian(x, w, alphabet, 0.0)
    c0 = complexity_cost(u0, w)
    info = SweepInfo(alphas=[0.0], costs=[c0], distortions=[_distortion(x, u0, alphabet)],
                     best_alpha=0.0, n_feasible=0)
    if c0 <= gamma:
        info.n_feasible = 1
        return (u0, info) if full_output else u0

    alpha_max = 2.0 * w.max_finite() * len(x)
    if alpha_max <= 0:
        alpha_max = 1.0
    best_u = None
    best_dist = math.inf
    best_alpha = math.nan

    def consider(u: np.ndarray, alpha: float) -> bool:
        nonlocal best_u, best_dist, best_alpha
        cost = complexity_cost(u, w)
        d = _distortion(x, u, alphabet)
        info.alphas.append(alpha)
        info.costs.append(cost)
        info.distortions.append(d)
        feasible = cost <= gamma
        if feasible:
            info.n_feasible += 1
            if d < best_dist:
                best_u, best_dist, best_alpha = u, d, alpha
        return feasible

    hi = alpha_max
    if not consider(project_lagrangian(x, w, alphabet, hi), hi):
        u_min = _min_cost_path(x, w, alphabet)
        if not consider(u_min, math.inf):
            raise InfeasibleProjection(
                f"no sequence attains cost <= {gamma}",
                min_cost=complexity_cost(u_min, w),
            )
    lo = 0.0
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if consider(project_lagrangian(x, w, alphabet, mid), mid):
            hi = mid
        else:
            lo = mid

    info.best_alpha = best_alpha
    return (best_u, info) if full_output else best_u


def _distortion(x: np.ndarray, u: np.ndarray, alphabet: QuantAlphabet) -> float:
    return float(((alphabet.values[u] - x) ** 2).sum())


def project_l0(x: np.ndarray, alphabet: QuantAlphabet, s: int) -> np.ndarray:
    """Exact projection onto {grid sequences with at most s nonzeros}.

    Each coordinate gets its nearest grid value; the s coordinates with the
    largest distortion gains keep it (earlier index wins ties) and the rest
    are zeroed.  This is the exact constrained projection for memoryless
    spike-and-slab weights.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= {n}, got {s}")
    zero_idx = alphabet.zero_index()
    if zero_idx is None:
        raise ValueError("alphabet does not contain 0")
    q = nearest_index(alphabet, x)
    gains = x ** 2 - (x - alphabet.values[q]) ** 2
    order = np.argsort(-gains, kind="stable")
    out = np.full(n, zero_idx, dtype=np.int64)
    keep = order[:s]
    out[keep] = q[keep]
    return out


def nearest_index(alphabet: QuantAlphabet, x: np.ndarray) -> np.ndarray:
    """Index of the closest grid value to each coordinate (lower on ties)."""
    x = np.asarray(x, dtype=float)
    lo_idx = np.clip(
        np.floor((x - alphabet.values[0]) * 2.0 ** alphabet.b).astype(np.int64),
        0,
        alphabet.size - 1,
    )
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
