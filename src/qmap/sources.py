"""Stationary source models: samplers, exact quantized kernels, weight tables,
and information-dimension curves.

Built-in models fix the slab distribution to Unif[0,1) (density floor 1), so
their quantized kernels have closed forms.  Arbitrary quantized chains enter
through TableMarkov with explicit per-context rows.  All logarithms are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .quantize import QuantAlphabet, build_alphabet

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class SpikeSlab:
    """i.i.d. mixture (1-p)*delta_0 + p*Unif[0,1); memory order 0."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class PiecewiseConstant:
    """First-order chain: hold the value w.p. 1-p, else redraw from Unif[0,1)."""

    p: float
    f_min: float = 1.0  # density floor of the slab; 1 for the uniform slab

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.f_min <= 0:
            raise ValueError("f_min must be positive")


@dataclass(frozen=True)
class QuantKernel:
    """Order-k conditional law of a quantized chain over a finite alphabet.

    rows maps a length-k context (tuple of symbol indices) to a probability
    vector over the next symbol; marginal is the stationary context law.
    """

    alphabet: QuantAlphabet
    k: int
    rows: dict[tuple[int, ...], np.ndarray]
    marginal: dict[tuple[int, ...], float] = field(repr=False)

    def __post_init__(self):
        s = self.alphabet.size
        for ctx, row in self.rows.items():
            if len(ctx) != self.k:
                raise ValueError(f"context {ctx} has length {len(ctx)}, expected k={self.k}")
            if len(row) != s or np.any(row < 0):
                raise ValueError(f"row for context {ctx} is not a distribution over {s} symbols")
            if abs(float(row.sum()) - 1.0) > _ROW_TOL:
                raise ValueError(f"row for context {ctx} sums to {row.sum()!r}, not 1")
        total = sum(self.marginal.values())
        if abs(total - 1.0) > _ROW_TOL:
            raise ValueError(f"context marginal sums to {total!r}, not 1")


@dataclass(frozen=True)
class TableMarkov:
    """Source given directly by an explicit quantized kernel."""

    kernel: QuantKernel


SourceModel = Union[SpikeSlab, PiecewiseConstant, TableMarkov]


@dataclass(frozen=True)
class WeightTable:
    """Dense table w[a_1..a_{k+1}] = -log2 q(a_{k+1} | a_1..a_k), +inf on zeros."""

    alphabet: QuantAlphabet
    k: int
    w: np.ndarray  # shape (S,) * (k + 1)

    def __post_init__(self):
        s = self.alphabet.size
        if self.w.shape != (s,) * (self.k + 1):
            raise ValueError(f"weight array shape {self.w.shape} != {(s,) * (self.k + 1)}")
        if np.any(self.w[np.isfinite(self.w)] < -1e-12):
            raise ValueError("weights must be nonnegative")

    def max_finite(self) -> float:
        finite = self.w[np.isfinite(self.w)]
        return float(finite.max()) if finite.size else 0.0


def sample_path(model: SourceModel, n: int, seed: int) -> np.ndarray:
    """Draw a length-n path; deterministic given (model, n, seed).

    spike-slab draws the slab values first, then the spike mask; the
    piecewise-constant chain draws fresh slab values first, then the jump
    indicators, with X_1 always a fresh (stationary) draw.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if isinstance(model, SpikeSlab):
        values = rng.random(n)
        mask = rng.random(n) < model.p
        return np.where(mask, values, 0.0)
    if isinstance(model, PiecewiseConstant):
        values = rng.random(n)
        jumps = rng.random(n) < model.p
        jumps[0] = True
        last = np.maximum.accumulate(np.where(jumps, np.arange(n), 0))
        return values[last]
    if isinstance(model, TableMarkov):
        return _sample_table(model.kernel, n, rng)
    raise TypeError(f"unsupported model {model!r}")


def _sample_table(kernel: QuantKernel, n: int, rng: np.random.Generator) -> np.ndarray:
    contexts = sorted(kernel.marginal)
    weights = np.array([kernel.marginal[c] for c in contexts])
    ctx = contexts[rng.choice(len(contexts), p=weights / weights.sum())]
    symbols: list[int] = list(ctx[: min(kernel.k, n)])
    while len(symbols) < n:
        context = tuple(symbols[-kernel.k:]) if kernel.k else ()
        row = kernel.rows.get(context)
        if row is None:
            raise ValueError(f"kernel has no row for reachable context {context}")
        symbols.append(int(rng.choice(kernel.alphabet.size, p=row)))
    return kernel.alphabet.values[np.asarray(symbols[:n], dtype=np.int64)]


def quantized_kernel(model: SourceModel, b: int) -> QuantKernel:
    """Exact order-k conditional law of the b-bit quantized model."""
    if isinstance(model, SpikeSlab):
        alphabet = build_alphabet(0.0, 1.0, b)
        s = alphabet.size
        row = np.full(s, model.p * 2.0 ** -b)
        row[0] += 1.0 - model.p
        return QuantKernel(alphabet=alphabet, k=0, rows={(): row}, marginal={(): 1.0})
    if isinstance(model, PiecewiseConstant):
        alphabet = build_alphabet(0.0, 1.0, b)
        s = alphabet.size
        if s * s > 2 ** 24:
            raise ValueError(f"piecewise-constant kernel with b={b} needs {s}x{s} rows; too large")
        rows = {}
        for i in range(s):
            row = np.full(s, model.p * 2.0 ** -b)
            row[i] += 1.0 - model.p
            rows[(i,)] = row
        marginal = {(i,): 2.0 ** -b for i in range(s)}
        return QuantKernel(alphabet=alphabet, k=1, rows=rows, marginal=marginal)
    if isinstance(model, TableMarkov):
        if model.kernel.alphabet.b != b:
            raise ValueError(
                f"table kernel was built at b={model.kernel.alphabet.b}, requested b={b}"
            )
        return model.kernel
    raise TypeError(f"unsupported model {model!r}")


def weights_from_kernel(kernel: QuantKernel) -> WeightTable:
    """w[a^{k+1}] = -log2 of the conditional; zero conditionals map to +inf."""
    s = kernel.alphabet.size
    if s ** (kernel.k + 1) > 2 ** 24:
        raise ValueError(f"dense weight table with {s}^{kernel.k + 1} entries is too large")
    w = np.full((s,) * (kernel.k + 1), np.inf)
    for ctx, row in kernel.rows.items():
        with np.errstate(divide="ignore"):
            vals = np.where(row > 0.0, -np.log2(np.where(row > 0.0, row, 1.0)), np.inf)
        if kernel.k == 0:
            w = vals
        else:
            w[ctx] = vals
    return WeightTable(alphabet=kernel.alphabet, k=kernel.k, w=w)


def cond_entropy(kernel: QuantKernel) -> float:
    """H of the next symbol given the context, in bits, under the marginal."""
    total = 0.0
    for ctx, weight in kernel.marginal.items():
        row = kernel.rows.get(ctx)
        if row is None or weight == 0.0:
            continue
        pos = row[row > 0.0]
        total += weight * float(-(pos * np.log2(pos)).sum())
    return total


def ktuple_law(kernel: QuantKernel, j: int) -> dict[tuple[int, ...], float]:
    """Exact law of j consecutive quantized symbols of the stationary chain."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return {(): 1.0}
    k = kernel.k
    if kernel.alphabet.size ** j > 2 ** 20:
        raise ValueError(f"law over {kernel.alphabet.size}^{j} tuples is too large")
    if j <= k:
        law: dict[tuple[int, ...], float] = {}
        for ctx, weight in kernel.marginal.items():
            key = ctx[:j]
            law[key] = law.get(key, 0.0) + weight
        return law
    law = dict(kernel.marginal)
    for length in range(k, j):
        nxt: dict[tuple[int, ...], float] = {}
        for prefix, weight in law.items():
            if weight == 0.0:
                continue
            ctx = prefix[length - k:] if k else ()
            row = kernel.rows.get(ctx)
            if row is None:
                continue
            for a in np.flatnonzero(row):
                nxt[prefix + (int(a),)] = weight * float(row[a])
        law = nxt
    return law


def info_dimension_curve(
    model: SourceModel, k: int, b_list: list[int]
) -> list[tuple[int, float]]:
    """Per-bit conditional entropy H([X_{k+1}]_b | [X^k]_b) / b for each b.

    For the spike-and-slab model the curve approaches p as b grows.
    """
    out = []
    for b in b_list:
        kern = quantized_kernel(model, b)
        if k == kern.k:
            h = cond_entropy(kern)
        elif k > kern.k:
            # the quantized chain is Markov of order kern.k, so the
            # conditional entropy is the same for any longer context
            h = cond_entropy(kern)
        else:
            h = _law_entropy(ktuple_law(kern, k + 1)) - _law_entropy(ktuple_law(kern, k))
        out.append((b, h / b))
    return out


def _law_entropy(law: dict[tuple[int, ...], float]) -> float:
    probs = np.array([v for v in law.values() if v > 0.0])
    return float(-(probs * np.log2(probs)).sum()) if probs.size else 0.0


def weight_gap(p: float, b: int) -> float:
    """log2 ratio between the hold/zero cell mass and a slab cell mass.

    This is the per-symbol weight difference that converts a complexity
    budget into an l0 or jump-count budget; strictly positive and
    increasing in b.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    cell = p * 2.0 ** -b
    return math.log2(((1.0 - p) + cell) / cell)


def stationary_context_law(
    rows: dict[tuple[int, ...], np.ndarray], size: int, k: int
) -> dict[tuple[int, ...], float]:
    """Stationary law of the context chain (a_1..a_k) -> (a_2..a_k, a).

    Power iteration from the uniform law over the provided contexts; used
    when a table kernel arrives without an explicit marginal.
    """
    if k == 0:
        return {(): 1.0}
    contexts = sorted(rows)
    mu = {c: 1.0 / len(contexts) for c in contexts}
    for _ in range(100_000):
        nxt = {c: 0.0 for c in contexts}
        for ctx, weight in mu.items():
            row = rows[ctx]
            for a in np.flatnonzero(row):
                tgt = ctx[1:] + (int(a),)
                if tgt not in nxt:
                    raise ValueError(f"kernel reaches context {tgt} with no row")
                nxt[tgt] += weight * float(row[a])
        delta = sum(abs(nxt[c] - mu[c]) for c in contexts)
        mu = nxt
        if delta < 1e-14:
            break
    else:
        raise ValueError("context chain did not reach a stationary law")
    return mu


def kernel_from_json(doc: dict) -> QuantKernel:
    """Build a QuantKernel from {"b", "k", "lo", "hi", "rows": [...]}.

    Each row is {"context": [indices], "probs": [...]}; the stationary
    context marginal is computed from the rows.
    """
    alphabet = build_alphabet(float(doc["lo"]), float(doc["hi"]), int(doc["b"]))
    k = int(doc["k"])
    rows: dict[tuple[int, ...], np.ndarray] = {}
    for entry in doc["rows"]:
        ctx = tuple(int(i) for i in entry["context"])
        rows[ctx] = np.asarray(entry["probs"], dtype=float)
    marginal = stationary_context_law(rows, alphabet.size, k)
    return QuantKernel(alphabet=alphabet, k=k, rows=rows, marginal=marginal)
