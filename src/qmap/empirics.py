"""The weighted empirical complexity cost of a quantized sequence."""

from __future__ import annotations

import math

import numpy as np

from .sources import WeightTable


def complexity_cost(u: np.ndarray, w: WeightTable) -> float:
    """Weighted empirical cost sum_w w[a^{k+1}] * phat(a^{k+1} | u).

    Any window with infinite weight makes the cost +inf; that marks the
    sequence infeasible for the projector and solver rather than erroring.
    The distinct windows are summed in order of first occurrence, strictly
    left to right, so the value is the same float as a running total over
    the window counts kept in order of first occurrence; the projectors
    compare it against the budget exactly.
    """
    u = np.asarray(u, dtype=np.int64)
    n = len(u)
    k = w.k
    s = w.alphabet.size
    if n <= k:
        raise ValueError(f"sequence of length {n} has no windows of order k={k}")
    if u.min() < 0 or u.max() >= s:
        raise ValueError(f"symbols must lie in [0, {s})")
    # window code in base s, first symbol most significant: the C-order
    # position of the window in the weight array
    codes = u[k:].copy()
    for j in range(1, k + 1):
        codes += u[k - j: n - j] * s ** j
    distinct, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    weights = w.w.ravel()[distinct[order]]
    if np.isinf(weights).any():
        return math.inf
    # cumsum adds sequentially; the leading 0.0 matches a running total
    terms = np.concatenate(([0.0], weights * counts[order]))
    return float(np.cumsum(terms)[-1]) / (n - k)

