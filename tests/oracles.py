"""Exhaustive oracles and closed-form reference quantities for the tests.

None of the qmap commands runs these.  They check the package from outside:
brute-force projection (Lagrangian, cost-budget and jump-count) and Q-MAP
optimum over every grid sequence at toy scale, k-types and the empirical
quantities of the cost decomposition, the scalar quantizer the vector one
must agree with, nearest-grid rounding by distances, the spike-and-slab
weight gap, the contraction floor of the error recursion, the per-alpha
scan of the f_minimax exponent, a table chain drawn one rng.choice call per
symbol, and the error path of a PGD run against the quantized truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
import pytest

import qmap.experiments as experiments
from qmap.projection import InfeasibleProjection, ProblemTooLarge
from qmap.quantize import QuantAlphabet, quantize_vector
from qmap.sensing import SenseMatrix
from qmap.solver import PgdConfig, pgd_solve
from qmap.sources import QuantKernel, WeightTable
from qmap.validation import f_exponent

MAX_BRUTEFORCE = 10 ** 6      # alphabet^n sequences


# ------------------------------------------------------------- enumeration

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


def lagrangian_objective(x, u, w, alpha):
    dist = float(((w.alphabet.values[u] - x) ** 2).sum())
    if alpha == 0.0:
        return dist
    raw = sum(float(w.w[tuple(u[i - w.k: i + 1])]) for i in range(w.k, len(u)))
    return dist + alpha * raw


def project_bruteforce(
    x: np.ndarray,
    w: WeightTable,
    gamma: float | None = None,
    alpha: float | None = None,
) -> np.ndarray:
    """Exhaustive constrained (gamma) or Lagrangian (alpha) projection onto
    the grid of w.

    Enumeration is lexicographic with strict-minimum updates, so the
    returned argmin is the lexicographically smallest one.
    """
    if (gamma is None) == (alpha is None):
        raise ValueError("pass exactly one of gamma or alpha")
    x = np.asarray(x, dtype=float)
    n = len(x)
    alphabet = w.alphabet
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


def project_jumps_bruteforce(x: np.ndarray, alphabet: QuantAlphabet, jumps: int) -> np.ndarray:
    """Exhaustive projection onto the grid sequences with at most `jumps`
    value changes.  Each sequence's distortion is summed from the back, as
    the jump-count pass sums it, so the oracle and the pass compare the
    same floats; the lexicographically smallest sequence of least
    distortion is returned."""
    x = np.asarray(x, dtype=float)
    seqs = enumerate_sequences(alphabet.size, len(x))
    seqs = seqs[np.count_nonzero(np.diff(seqs, axis=1), axis=1) <= jumps]
    dist = (alphabet.values[seqs] - x[None, :]) ** 2
    total = np.zeros(len(seqs))
    for column in dist.T[::-1]:
        total = total + column
    return seqs[int(np.flatnonzero(total == total.min())[0])]


def qmap_bruteforce(
    A: SenseMatrix,
    y: np.ndarray,
    w: WeightTable,
    gamma: float,
) -> np.ndarray:
    """Exhaustive residual minimizer over the sequences on the grid of w
    with cost <= gamma."""
    y = np.asarray(y, dtype=float)
    alphabet = w.alphabet
    seqs = enumerate_sequences(alphabet.size, A.n)
    cost = sequence_costs(seqs, w) / (A.n - w.k)
    feasible = cost <= gamma
    if not feasible.any():
        raise InfeasibleProjection(
            f"no sequence attains cost <= {gamma}", min_cost=float(cost.min())
        )
    resid = np.linalg.norm(alphabet.values[seqs] @ A.entries.T - y[None, :], axis=1)
    resid = np.where(feasible, resid, np.inf)
    return seqs[int(np.flatnonzero(resid == resid.min())[0])]


# ------------------------------------------------------ empirical quantities

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


# ------------------------------------------------- closed-form references

def quantize_scalar(x: float, b: int) -> float:
    """Truncate x to the 2**-b grid (round toward -inf).

    Returns floor(x) plus the first b binary digits of x - floor(x), so
    0 <= x - quantize_scalar(x, b) < 2**-b for every finite x.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    scale = float(2 ** b)
    fl = math.floor(x)
    # frac in [0, 1); frac * 2**b and the division below are exact float ops.
    frac = x - fl
    return fl + math.floor(frac * scale) / scale


def nearest_index_by_distance(alphabet: QuantAlphabet, x: np.ndarray) -> np.ndarray:
    """The closest grid value's index to each coordinate, by comparing the
    distances to the grid values below and above it (lower on ties)."""
    values = alphabet.values
    x = np.minimum(np.maximum(x, values[0]), values[-1])
    lo_idx = np.floor((x - values[0]) * 2.0 ** alphabet.b).astype(np.int64)
    hi_idx = np.minimum(lo_idx + 1, alphabet.size - 1)
    # hi_idx is lo_idx + 1, or lo_idx itself at the top, where d_hi == d_lo
    lo_idx += np.abs(x - values[hi_idx]) < np.abs(x - values[lo_idx])
    return lo_idx


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


def contraction_floor(n: int, m: int, b: int, sigma: float, dbar: float,
                      delta: float, scale: str) -> float:
    """Additive floor of the per-iteration error recursion, in raw (not
    per-sqrt-n) units: sqrt(n) times the quantization term of the error
    recursion plus
    the noise term for the given matrix scaling."""
    quant = 2.0 * (2.0 + math.sqrt(n / m)) ** 2 * 2.0 ** -b
    if sigma > 0:
        level = b * (dbar + 3.0 * delta)
        noise = 0.5 * sigma * math.sqrt((n if scale == "normalized" else 1.0) * level / m)
    else:
        noise = 0.0
    return math.sqrt(n) * (quant + noise)


def max_over_s(alpha: float, s_fracs: np.ndarray) -> float:
    """max over s of f_exponent at one alpha: the best of the s_fracs grid
    of (0, 1/(1-alpha)), refined at 1e-4 between its grid neighbours."""
    s_hi = 1.0 / (1.0 - alpha)
    s = s_fracs * s_hi
    vals = f_exponent(alpha, s)
    best = int(np.argmax(vals))
    # local refinement around the best grid point at 1e-4 resolution in s
    lo = s[max(0, best - 1)]
    hi = s[min(len(s) - 1, best + 1)]
    fine = np.arange(lo, hi, 1e-4)
    if fine.size:
        vals_fine = f_exponent(alpha, fine)
        return float(max(vals[best], vals_fine.max()))
    return float(vals[best])


def f_minimax_scan(alpha_points: int = 401, s_points: int = 1000) -> float:
    """f_minimax one alpha at a time: min over the alpha grid of max_over_s."""
    alpha_grid = np.linspace(-0.999, 0.999, alpha_points)
    s_grid = np.linspace(1e-4, 1.0 - 1e-4, s_points)
    return min(max_over_s(float(a), s_grid) for a in alpha_grid)


# ---------------------------------------------------------------- samplers

def sample_table_by_choice(kernel: QuantKernel, n: int, rng: np.random.Generator) -> np.ndarray:
    """A length-n path of a table chain, one rng.choice call per draw: the
    start context from the stationary law, then each symbol from its
    context's row.  sources._sample_table must give the same bytes and
    leave rng in the same state."""
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


# ------------------------------------------------------------- error paths

def pgd_error_path(A: SenseMatrix, y: np.ndarray, alphabet: QuantAlphabet,
                   cfg: PgdConfig, truth: np.ndarray):
    """pgd_solve(A, y, alphabet, cfg) plus the error ||Xhat(t) - [truth]||, t = 0
    .. iters, against the truth quantized on alphabet: the quantity the
    contraction analysis controls.  Xhat(0) is cfg.start or the zero vector,
    and every later iterate is a projector output, so the projector is
    wrapped to record them.  A run that ends in a cycle is refused, since
    its last iterations are never projected."""
    truth_q = alphabet.values[quantize_vector(np.asarray(truth, dtype=float), alphabet)]
    start = cfg.start if cfg.start is not None else np.full(A.n, alphabet.zero_index())
    errors = [float(np.linalg.norm(alphabet.values[start] - truth_q))]

    def projector(s_vec):
        idx = cfg.projector(s_vec)
        errors.append(float(np.linalg.norm(alphabet.values[idx] - truth_q)))
        return idx

    est, trace = pgd_solve(A, y, alphabet, replace(cfg, projector=projector))
    if trace.status == "cycle":
        raise AssertionError("the run ended in a cycle; its error path is not recorded")
    return est, trace, errors


def recovery_error_paths(config: dict) -> tuple[list[dict], list[list[float]]]:
    """run_recover(config) in process, with each trial's error path over all
    its stages.  A block samples the truths of its trials (one sample_path
    call each, in trial order), then runs every stage as one
    pgd_solve_stack call over them.  The stacked projector is wrapped to
    record each iterate stack; a row stays in place and leaves the stack
    when it stops, so the rows of the t-th call are the trials whose stage
    ran t iterations or more, in order.  A stage after the first drops its
    start, which repeats the previous stage's last iterate.  A stage that
    ends in a cycle is refused, since its last iterations are never
    projected."""
    paths: list[list[float]] = []
    truths: list[np.ndarray] = []
    sample_path = experiments.sample_path
    solve_stack = experiments.pgd_solve_stack

    def sample(*args):
        truths.append(sample_path(*args))
        paths.append([])
        return truths[-1]

    def solve(designs, ys, alphabet, cfg):
        rows = len(designs)
        truth_q = [alphabet.values[quantize_vector(x, alphabet)] for x in truths[-rows:]]
        iterates = []

        def projector(steps):
            idx = cfg.projector(steps)
            iterates.append(idx.copy())
            return idx

        ests, traces = solve_stack(designs, ys, alphabet, replace(cfg, projector=projector))
        if any(trace.status == "cycle" for trace in traces):
            raise AssertionError("a stage ended in a cycle; its error path is not recorded")
        start = cfg.start if cfg.start is not None else np.full((rows, designs[0].n), alphabet.zero_index())
        errors = [[float(np.linalg.norm(alphabet.values[start[i]] - truth_q[i]))]
                  for i in range(rows)]
        for t, stack in enumerate(iterates, 1):
            running = [i for i in range(rows) if traces[i].iters >= t]
            assert len(running) == len(stack)
            for i, idx in zip(running, stack):
                errors[i].append(float(np.linalg.norm(alphabet.values[idx] - truth_q[i])))
        for path, err in zip(paths[-rows:], errors):
            path.extend(err[1:] if path else err)
        return ests, traces

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "sample_path", sample)
        mp.setattr(experiments, "pgd_solve_stack", solve)
        rows = experiments.run_recover(config, jobs=1)
    # one error per iterate of every stage, the shared start counted once
    assert [len(path) for path in paths] == [row["iters"] + 1 for row in rows]
    return rows, paths
