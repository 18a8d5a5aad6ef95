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

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class QuantKernel:
    """Order-k conditional law of a quantized chain over its own alphabet.

    cond[a_1..a_k, a] = q(a | a_1..a_k) is a dense array of shape
    (S,) * (k + 1); marginal[a_1..a_k] is the stationary context law, of
    shape (S,) * k (np.ones(()) at k = 0).  A context of marginal 0 may have
    an all-zero row: the chain never reaches it.
    """

    alphabet: QuantAlphabet
    k: int
    cond: np.ndarray = field(repr=False)
    marginal: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = self.alphabet.size
        if self.cond.shape != (s,) * (self.k + 1) or self.marginal.shape != (s,) * self.k:
            raise ValueError(
                f"cond {self.cond.shape} and marginal {self.marginal.shape} do not fit "
                f"S={s}, k={self.k}"
            )
        if np.any(self.cond < 0) or np.any(self.marginal < 0):
            raise ValueError("kernel probabilities must be nonnegative")
        sums = self.cond.sum(axis=-1)
        bad = (np.abs(sums - 1.0) > _ROW_TOL) & ((sums != 0.0) | (self.marginal != 0.0))
        if np.any(bad):
            ctx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"row for context {ctx} sums to {float(sums[ctx])!r}, not 1")
        total = float(self.marginal.sum())
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


def sample_path(model: SourceModel, n: int, seed: int) -> np.ndarray:
    """Draw a length-n path; deterministic given (model, n, seed).

    It is the expansion of a one-row sample_runs on np.random.default_rng(seed).
    """
    values, _, lengths = sample_runs(model, n, 1, np.random.default_rng(seed))
    return np.repeat(values, lengths)


def sample_runs(model: SourceModel, n: int, rows: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `rows` independent length-n paths from `rng` in run-length form:
    (values, starts, lengths), one entry per run, in path order.

    starts index the flattened (rows * n) block, and no run crosses a row.
    A piecewise-constant run lasts from one jump to the next; spike-slab and
    table runs have length 1.  Row r of a spike-slab or piecewise-constant
    block takes uniforms [2n r, 2n (r + 1)) of the stream: the n slab values
    first, then the n spike or jump uniforms; X_1 of a piecewise-constant
    row is always a fresh (stationary) draw.  Table rows are drawn one after
    another.  So a block of rows is the same as that many one-row calls on
    the same rng.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(model, PiecewiseConstant):
        u = rng.random((rows, 2 * n))
        jumps = u[:, n:] < model.p
        jumps[:, 0] = True  # so no run crosses a row
        starts = np.flatnonzero(jumps)
        # the slab value at flat position r n + j sits at u.flat[2n r + j]
        values = u.ravel()[starts + starts // n * n]
        # a run lasts to the next start, the last one to the block's end
        lengths = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1:] = rows * n - starts[-1:]
        return values, starts, lengths
    if isinstance(model, SpikeSlab):
        u = rng.random((rows, 2 * n))
        values = np.where(u[:, n:] < model.p, u[:, :n], 0.0).ravel()
    elif isinstance(model, TableMarkov):
        values = np.empty(rows * n)
        for r in range(rows):
            values[r * n: (r + 1) * n] = _sample_table(model.kernel, n, rng)
    else:
        raise TypeError(f"unsupported model {model!r}")
    return values, np.arange(rows * n), np.ones(rows * n, dtype=np.intp)


def _sample_table(kernel: QuantKernel, n: int, rng: np.random.Generator) -> np.ndarray:
    s = kernel.alphabet.size
    mu = kernel.marginal.ravel()
    rows = kernel.cond.reshape(-1, s)
    code = int(rng.choice(mu.size, p=mu / mu.sum()))  # base-S context code
    symbols = [int(a) for a in np.unravel_index(code, kernel.marginal.shape)][:n]
    while len(symbols) < n:
        a = int(rng.choice(s, p=rows[code]))
        symbols.append(a)
        code = (code * s + a) % mu.size
    return kernel.alphabet.values[np.asarray(symbols, dtype=np.int64)]


def quantized_kernel(model: SourceModel, b: int) -> QuantKernel:
    """Exact order-k conditional law of the b-bit quantized model."""
    if isinstance(model, SpikeSlab):
        alphabet = build_alphabet(0.0, 1.0, b)
        cond = np.full(alphabet.size, model.p * 2.0 ** -b)
        cond[0] += 1.0 - model.p
        return QuantKernel(alphabet=alphabet, k=0, cond=cond, marginal=np.ones(()))
    if isinstance(model, PiecewiseConstant):
        alphabet = build_alphabet(0.0, 1.0, b)
        s = alphabet.size
        if s * s > 2 ** 24:
            raise ValueError(f"piecewise-constant kernel with b={b} needs {s}x{s} rows; too large")
        cond = np.full((s, s), model.p * 2.0 ** -b)
        cond[np.diag_indices(s)] += 1.0 - model.p
        return QuantKernel(alphabet=alphabet, k=1, cond=cond, marginal=np.full(s, 2.0 ** -b))
    if isinstance(model, TableMarkov):
        if model.kernel.alphabet.b != b:
            raise ValueError(
                f"table kernel was built at b={model.kernel.alphabet.b}, requested b={b}"
            )
        return model.kernel
    raise TypeError(f"unsupported model {model!r}")


def weights_from_kernel(kernel: QuantKernel) -> WeightTable:
    """w[a^{k+1}] = -log2 of the conditional; zero conditionals map to +inf."""
    with np.errstate(divide="ignore"):
        w = -np.log2(kernel.cond)
    return WeightTable(alphabet=kernel.alphabet, k=kernel.k, w=w)


def cond_entropy(kernel: QuantKernel) -> float:
    """H of the next symbol given the context, in bits, under the marginal."""
    total = 0.0
    # row by row over the positive entries: result files depend on this float order
    for weight, row in zip(kernel.marginal.ravel(), kernel.cond.reshape(-1, kernel.alphabet.size)):
        if weight == 0.0:
            continue
        total += weight * _law_entropy(row)
    return float(total)


def ktuple_law(kernel: QuantKernel, j: int) -> np.ndarray:
    """Exact law of j consecutive quantized symbols of the stationary chain,
    as an array of shape (S,) * j."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return np.ones(())
    k = kernel.k
    s = kernel.alphabet.size
    if s ** j > 2 ** 20:
        raise ValueError(f"law over {s}^{j} tuples is too large")
    if j <= k:
        # cumsum adds left to right; np.sum pairs terms and rounds differently
        flat = kernel.marginal.reshape(s ** j, -1)
        return np.cumsum(flat, axis=1)[:, -1].reshape((s,) * j)
    law = kernel.marginal
    for _ in range(k, j):
        law = law[..., None] * kernel.cond
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
        if k >= kern.k:
            # the quantized chain is Markov of order kern.k, so the
            # conditional entropy is the same for any longer context
            h = cond_entropy(kern)
        else:
            h = _law_entropy(ktuple_law(kern, k + 1)) - _law_entropy(ktuple_law(kern, k))
        out.append((b, h / b))
    return out


def _law_entropy(law: np.ndarray) -> float:
    probs = law[law > 0.0]
    return float(-(probs * np.log2(probs)).sum()) if probs.size else 0.0


def stationary_context_law(cond: np.ndarray, k: int) -> np.ndarray:
    """Stationary law of the context chain (a_1..a_k) -> (a_2..a_k, a), as
    an array of shape (S,) * k.

    Power iteration from the uniform law over the contexts with a nonzero
    row; mass that flows into a context without one is an error.
    """
    if k == 0:
        return np.ones(())
    has_row = cond.any(axis=-1)
    stray = (cond > 0.0).any(axis=0) & ~has_row
    if np.any(stray):
        ctx = tuple(int(i) for i in np.argwhere(stray)[0])
        raise ValueError(f"kernel reaches context {ctx} with no row")
    mu = np.where(has_row, 1.0 / np.count_nonzero(has_row), 0.0)
    for _ in range(100_000):
        nxt = (mu[..., None] * cond).sum(axis=0)
        delta = sum(np.abs(nxt - mu).ravel().tolist())  # left to right, in context order
        mu = nxt
        if delta < 1e-14:
            break
    else:
        raise ValueError("context chain did not reach a stationary law")
    return mu


def kernel_from_json(doc: dict) -> QuantKernel:
    """Build a QuantKernel from {"b", "k", "lo", "hi", "rows": [...]}.

    Each row is {"context": [indices], "probs": [...]}, with k indices in
    [0, S) and S probabilities.  A context without a row must be one the
    chain never reaches.  The stationary context marginal is computed from
    the rows.
    """
    alphabet = build_alphabet(float(doc["lo"]), float(doc["hi"]), int(doc["b"]))
    k = int(doc["k"])
    s = alphabet.size
    if s ** (k + 1) > 2 ** 24:
        raise ValueError(f"dense kernel with {s}^{k + 1} entries is too large")
    cond = np.zeros((s,) * (k + 1))
    for entry in doc["rows"]:
        ctx = tuple(int(i) for i in entry["context"])
        probs = np.asarray(entry["probs"], dtype=float)
        if len(ctx) != k or not all(0 <= i < s for i in ctx):
            raise ValueError(f"context {list(ctx)} is not k={k} symbol indices in [0, {s})")
        if probs.shape != (s,):
            raise ValueError(f"row for context {list(ctx)} has {probs.size} probs, not S={s}")
        cond[ctx] = probs
    marginal = stationary_context_law(cond, k)
    return QuantKernel(alphabet=alphabet, k=k, cond=cond, marginal=marginal)
