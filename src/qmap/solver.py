"""Projected gradient descent for the quantized-MAP objective, exhaustive
oracles, and convergence telemetry.

One iteration moves the estimate toward the measurement hyperplane,

    S(t+1) = Xhat(t) + mu * A^T (y - A Xhat(t)),

then projects S(t+1) back onto the chosen feasible set (hard complexity
budget, Lagrangian penalty, or sparsity budget).  The iteration starts from
the all-zero vector; the first projection restores feasibility even when
the zero vector itself is infeasible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .empirics import complexity_cost
from .projection import (
    InfeasibleProjection,
    enumerate_sequences,
    project_constrained,
    project_l0,
    project_lagrangian,
    sequence_costs,
)
from .quantize import QuantAlphabet, quantize_vector
from .sensing import SenseMatrix
from .sources import QuantKernel, WeightTable, cond_entropy


@dataclass(frozen=True)
class ConstrainedProjector:
    gamma: float


@dataclass(frozen=True)
class LagrangianProjector:
    alpha: float


@dataclass(frozen=True)
class L0Projector:
    s: int


ProjectorSpec = Union[ConstrainedProjector, LagrangianProjector, L0Projector]


@dataclass
class PgdConfig:
    """Solver knobs.

    mu = None derives the step size paired with the matrix scaling (1/m for
    unit-variance entries, n/m for 1/n-variance entries); an explicit
    mismatched mu is refused unless allow_unpaired_mu is set.  stop_tol is
    compared against the iterate change, so 0 still stops at an exact fixed
    point.
    """

    projector: ProjectorSpec
    b: int
    k: int
    mu: Optional[float] = None
    max_iters: int = 200
    stop_tol: float = 0.0
    seed: int = 0
    allow_unpaired_mu: bool = False
    start: Optional[np.ndarray] = None  # symbol indices; default all-zero values


@dataclass
class PgdTrace:
    """Per-iteration telemetry; index t = 0 is the initial state.

    Estimates themselves are kept as compact content hashes so long runs
    stay cheap while still pinning down the exact iterate sequence.

    status says why the run stopped: "converged" (the iterate change fell
    to stop_tol), "cycle" (an iterate repeated exactly, so the rest of the
    run up to max_iters is known), "max_iters", or "infeasible" (set on the
    trace attached to the InfeasibleProjection raised by the projector).
    After a cycle is found the rows up to max_iters are filled from its
    period: they are exactly the rows the remaining iterations would record.
    """

    residuals: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    estimate_hashes: list[str] = field(default_factory=list)
    err_quantized: Optional[list[float]] = None
    err_analog: Optional[list[float]] = None
    status: str = "max_iters"

    @property
    def iters(self) -> int:
        return len(self.residuals) - 1

    def rows(self) -> list[dict]:
        out = []
        for t in range(len(self.residuals)):
            row = {"t": t, "residual": self.residuals[t], "cost": self.costs[t]}
            row["err_quantized"] = self.err_quantized[t] if self.err_quantized else ""
            row["err_analog"] = self.err_analog[t] if self.err_analog else ""
            out.append(row)
        return out

    def to_csv(self, path) -> None:
        """Write the per-iteration telemetry as a CSV file."""
        lines = ["t,residual,cost,err_quantized,err_analog"]
        for row in self.rows():
            lines.append(
                ",".join(
                    repr(v) if isinstance(v, float) else str(v)
                    for v in (row["t"], row["residual"], row["cost"],
                              row["err_quantized"], row["err_analog"])
                )
            )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def default_gamma(kernel: QuantKernel, delta: float = 0.1) -> float:
    """Complexity budget b * (H/b + delta) from the exact kernel entropy."""
    return cond_entropy(kernel) + delta * kernel.alphabet.b


def _project(s_vec: np.ndarray, proj: ProjectorSpec, w: WeightTable,
             alphabet: QuantAlphabet) -> np.ndarray:
    if isinstance(proj, L0Projector):
        return project_l0(s_vec, alphabet, proj.s)
    if isinstance(proj, LagrangianProjector):
        return project_lagrangian(s_vec, w, alphabet, proj.alpha)
    if isinstance(proj, ConstrainedProjector):
        return project_constrained(s_vec, w, alphabet, proj.gamma)
    raise TypeError(f"unknown projector {proj!r}")


def pgd_solve(
    A: SenseMatrix,
    y: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    cfg: PgdConfig,
    truth: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, PgdTrace]:
    """Run PGD; returns (estimate as grid values, trace).

    truth is the analog parameter vector: errors are tracked both against
    its quantization (the quantity the contraction analysis controls) and
    against the analog vector itself.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (A.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({A.m},)")
    mu = cfg.mu if cfg.mu is not None else A.paired_step
    if cfg.mu is not None and not cfg.allow_unpaired_mu:
        paired = A.paired_step
        if abs(cfg.mu - paired) > 1e-9 * paired:
            raise ValueError(
                f"mu={cfg.mu} is not the step paired with scale={A.scale!r} "
                f"({paired}); set allow_unpaired_mu to override"
            )
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

    truth_q = None
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        truth_q = alphabet.values[quantize_vector(truth, alphabet)]

    trace = PgdTrace()
    if truth is not None:
        trace.err_quantized = []
        trace.err_analog = []

    def record(cur_idx: np.ndarray, est: np.ndarray) -> np.ndarray:
        resid = y - A.entries @ est
        trace.residuals.append(float(np.linalg.norm(resid)))
        trace.costs.append(complexity_cost(cur_idx, w))
        trace.estimate_hashes.append(
            hashlib.blake2b(cur_idx.tobytes(), digest_size=8).hexdigest()
        )
        if truth is not None:
            trace.err_quantized.append(float(np.linalg.norm(est - truth_q)))
            trace.err_analog.append(float(np.linalg.norm(est - truth)))
        return resid

    # The step is a deterministic function of the symbol-index iterate, so
    # an iterate seen before at t0 repeats the whole stretch since t0 forever.
    # seen maps each distinct iterate to its first t, in order of t.
    seen = {idx.tobytes(): 0}
    est = alphabet.values[idx]
    resid = record(idx, est)
    for t in range(1, cfg.max_iters + 1):
        s_vec = est + mu * (A.entries.T @ resid)
        try:
            new_idx = _project(s_vec, cfg.projector, w, alphabet)
        except InfeasibleProjection as exc:
            trace.status = "infeasible"
            exc.iteration = t
            exc.trace = trace
            raise
        new_est = alphabet.values[new_idx]
        change = float(np.linalg.norm(new_est - est))
        idx, est = new_idx, new_est
        resid = record(idx, est)
        if change <= cfg.stop_tol:
            trace.status = "converged"
            break
        t0 = seen.setdefault(idx.tobytes(), t)
        if t0 < t:
            # every change within the period exceeded stop_tol, so the
            # period repeats up to max_iters; copy its rows one period back
            period = t - t0
            series = [trace.residuals, trace.costs, trace.estimate_hashes]
            if truth is not None:
                series += [trace.err_quantized, trace.err_analog]
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


def contraction_fraction(err: list[float], floor: float) -> float:
    """Fraction of consecutive error pairs (from t = 1 on) satisfying
    err[t+1] <= 0.9 err[t] + floor, counted over the iterations before the
    error reaches the floor.

    When the error starts below the floor already, every pre-convergence
    pair (err[t] > 0) is counted instead; with no countable pairs the
    fraction is vacuously 1.
    """
    pairs = [(err[t], err[t + 1]) for t in range(1, len(err) - 1)]
    above = [p for p in pairs if p[0] > floor]
    if not above:
        above = [p for p in pairs if p[0] > 0.0]
    if not above:
        return 1.0
    good = sum(1 for e0, e1 in above if e1 <= 0.9 * e0 + floor)
    return good / len(above)


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


def qmap_lagrangian_bruteforce(
    A: SenseMatrix,
    y: np.ndarray,
    w: WeightTable,
    alphabet: QuantAlphabet,
    lam: float,
) -> np.ndarray:
    """Exhaustive minimizer of cost + (lam / n^2) * residual^2."""
    y = np.asarray(y, dtype=float)
    n = A.n
    seqs = enumerate_sequences(alphabet.size, n)
    cost = sequence_costs(seqs, w) / (n - w.k)
    resid2 = ((alphabet.values[seqs] @ A.entries.T - y[None, :]) ** 2).sum(axis=1)
    objective = cost + (lam / n ** 2) * resid2
    best = objective.min()
    if math.isinf(best):
        raise InfeasibleProjection("every sequence has infinite objective")
    return seqs[int(np.flatnonzero(objective == best)[0])]
