"""Empirical statistics of quantized sequences: k-types, the weighted
complexity cost, conditional empirical entropy, divergences and jump
counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .sources import WeightTable


@dataclass(frozen=True)
class KType:
    """Counts of overlapping (k+1)-windows of a symbol sequence.

    counts[a^{k+1}] is the number of windows equal to that tuple; the total
    over all tuples is n - k.  Dividing by n - k gives the (k+1)-th order
    empirical distribution.
    """

    k: int
    counts: dict[tuple[int, ...], int]
    n: int

    @property
    def total(self) -> int:
        return self.n - self.k

    def probs(self) -> dict[tuple[int, ...], float]:
        t = self.total
        return {key: c / t for key, c in self.counts.items()}

    def context_counts(self) -> dict[tuple[int, ...], int]:
        """Marginal over the first k symbols of each window."""
        out: dict[tuple[int, ...], int] = {}
        for key, c in self.counts.items():
            ctx = key[:-1]
            out[ctx] = out.get(ctx, 0) + c
        return out


def k_type(u: np.ndarray, k: int) -> KType:
    """Empirical distribution of the overlapping length-(k+1) windows of u."""
    u = np.asarray(u, dtype=np.int64)
    n = len(u)
    if n <= k:
        raise ValueError(f"sequence of length {n} has no windows of order k={k}")
    counts: dict[tuple[int, ...], int] = {}
    for i in range(k, n):
        key = tuple(int(v) for v in u[i - k: i + 1])
        counts[key] = counts.get(key, 0) + 1
    return KType(k=k, counts=counts, n=n)


def complexity_cost(u: np.ndarray, w: WeightTable) -> float:
    """Weighted empirical cost sum_w w[a^{k+1}] * phat(a^{k+1} | u).

    Any window with infinite weight makes the cost +inf; that marks the
    sequence infeasible for the projector and solver rather than erroring.
    The distinct windows are summed in order of first occurrence, strictly
    left to right, so the value is the same float as summing over the
    k-type's counts; the projectors compare it against the budget exactly.
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


def cond_empirical_entropy(u: np.ndarray, k: int) -> float:
    """Order-k conditional empirical entropy of u, in bits.

    The context marginal is taken over the same n - k windows, so the
    conditional rows normalize exactly and the value is nonnegative.
    """
    kt = k_type(u, k)
    ctx_counts = kt.context_counts()
    total = 0.0
    for key, c in kt.counts.items():
        total += c * math.log2(c / ctx_counts[key[:-1]])
    return -total / kt.total


def count_jumps(u: np.ndarray) -> int:
    """Number of positions i >= 2 with u_i != u_{i-1}."""
    u = np.asarray(u)
    if len(u) < 2:
        raise ValueError("need a sequence of length >= 2")
    return int(np.count_nonzero(u[1:] != u[:-1]))


def kl_divergence(p: Mapping, q: Mapping) -> float:
    """KL divergence in bits; +inf when absolute continuity fails."""
    total = 0.0
    for key, pv in p.items():
        if pv == 0.0:
            continue
        qv = q.get(key, 0.0)
        if qv == 0.0:
            return math.inf
        total += pv * math.log2(pv / qv)
    return total
