"""Projected gradient descent for the quantized-MAP objective, exhaustive
oracles, and convergence telemetry.

One iteration moves the estimate toward the measurement hyperplane,

    S(t+1) = Xhat(t) + mu * A^T (y - A Xhat(t)),

then projects S(t+1) back onto the chosen feasible set (hard complexity
budget, Lagrangian penalty, or sparsity budget).  The projection is one
fixed map from the step vector to the grid, built by the caller.  The
iteration starts from the all-zero vector; the first projection restores
feasibility even when the zero vector itself is infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .projection import (
    InfeasibleProjection,
    enumerate_sequences,
    sequence_costs,
)
from .quantize import QuantAlphabet, quantize_vector
from .sensing import SenseMatrix
from .sources import QuantKernel, WeightTable, cond_entropy


@dataclass
class PgdConfig:
    """Solver knobs.

    projector receives the gradient-step vector S(t+1) (n floats) and
    returns n symbol indices into the alphabet given to pgd_solve; it may
    raise InfeasibleProjection.  Bind its alphabet, weights and budget in
    beforehand, e.g. partial(project_l0, alphabet=alphabet, s=8).

    mu = None takes the step size paired with the matrix scaling (1/m for
    unit-variance entries, n/m for 1/n-variance entries).  stop_tol is
    compared against the iterate change, so 0 still stops at an exact fixed
    point.
    """

    projector: Callable[[np.ndarray], np.ndarray]
    mu: Optional[float] = None
    max_iters: int = 200
    stop_tol: float = 0.0
    start: Optional[np.ndarray] = None  # symbol indices; default all-zero values


@dataclass
class PgdTrace:
    """Per-iteration telemetry; index t = 0 is the initial state.

    residuals holds ||y - A Xhat(t)||; err_quantized, recorded only when
    pgd_solve is given the truth, holds ||Xhat(t) - [truth]||, the error
    against the quantized truth that the contraction analysis controls.

    status says why the run stopped: "converged" (the iterate change fell
    to stop_tol), "cycle" (an iterate repeated exactly, so the rest of the
    run up to max_iters is known), "max_iters", or "infeasible" (set on the
    trace attached to the InfeasibleProjection raised by the projector).
    No run can diverge: every iterate is a grid value, so it stays bounded.
    After a cycle is found the series up to max_iters are filled from its
    period: they are exactly the values the remaining iterations would
    record.
    """

    residuals: list[float] = field(default_factory=list)
    err_quantized: Optional[list[float]] = None
    status: str = "max_iters"

    @property
    def iters(self) -> int:
        return len(self.residuals) - 1


def default_gamma(kernel: QuantKernel, delta: float = 0.1) -> float:
    """Complexity budget b * (H/b + delta) from the exact kernel entropy."""
    return cond_entropy(kernel) + delta * kernel.alphabet.b


def pgd_solve(
    A: SenseMatrix,
    y: np.ndarray,
    alphabet: QuantAlphabet,
    cfg: PgdConfig,
    truth: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, PgdTrace]:
    """Run PGD; returns (estimate as grid values, trace).

    truth is the analog parameter vector: the error is tracked against its
    quantization, the quantity the contraction analysis controls.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (A.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({A.m},)")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite: NaN or inf measurements cannot be fitted")
    mu = cfg.mu if cfg.mu is not None else A.paired_step
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if cfg.stop_tol < 0:
        raise ValueError("stop_tol must be >= 0")

    if cfg.start is not None:
        idx = np.asarray(cfg.start, dtype=np.int64)
        if idx.shape != (A.n,):
            raise ValueError("start must give one symbol index per coordinate")
    else:
        zero = alphabet.zero_index()
        if zero is None:
            raise ValueError("alphabet has no zero value; supply an explicit start")
        idx = np.full(A.n, zero, dtype=np.int64)

    trace = PgdTrace()
    if truth is not None:
        truth_q = alphabet.values[quantize_vector(np.asarray(truth, dtype=float), alphabet)]
        trace.err_quantized = []

    def record(est: np.ndarray) -> np.ndarray:
        resid = y - A.entries @ est
        trace.residuals.append(float(np.linalg.norm(resid)))
        if truth is not None:
            trace.err_quantized.append(float(np.linalg.norm(est - truth_q)))
        return resid

    # The step is a deterministic function of the symbol-index iterate, so
    # an iterate seen before at t0 repeats the whole stretch since t0 forever.
    # seen maps each distinct iterate to its first t, in order of t.
    seen = {idx.tobytes(): 0}
    est = alphabet.values[idx]
    resid = record(est)
    for t in range(1, cfg.max_iters + 1):
        s_vec = est + mu * (A.entries.T @ resid)
        try:
            new_idx = cfg.projector(s_vec)
        except InfeasibleProjection as exc:
            trace.status = "infeasible"
            exc.iteration = t
            exc.trace = trace
            raise
        new_est = alphabet.values[new_idx]
        change = float(np.linalg.norm(new_est - est))
        idx, est = new_idx, new_est
        resid = record(est)
        if change <= cfg.stop_tol:
            trace.status = "converged"
            break
        t0 = seen.setdefault(idx.tobytes(), t)
        if t0 < t:
            # every change within the period exceeded stop_tol, so the
            # period repeats up to max_iters; copy its values one period back
            period = t - t0
            series = [trace.residuals]
            if truth is not None:
                series.append(trace.err_quantized)
            for values in series:
                for _ in range(cfg.max_iters - t):
                    values.append(values[-period])
            final = list(seen)[t0 + (cfg.max_iters - t0) % period]
            est = alphabet.values[np.frombuffer(final, dtype=idx.dtype)]
            trace.status = "cycle"
            break
    else:
        trace.status = "max_iters"
    return est, trace


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


def qmap_bruteforce(
    A: SenseMatrix,
    y: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    gamma: float,
) -> np.ndarray:
    """Exhaustive residual minimizer over sequences with cost <= gamma."""
    y = np.asarray(y, dtype=float)
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
