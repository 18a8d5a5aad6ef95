"""Projected gradient descent for the quantized-MAP objective.

One iteration moves the estimate toward the measurement hyperplane,

    S(t+1) = Xhat(t) + step * A^T (y - A Xhat(t)),

where step is mu times the step paired with the design's scaling, then
projects S(t+1) back onto the chosen feasible set (hard complexity
budget or sparsity budget).  The projection is one fixed map from the
step vector to the grid, built by the caller.  The iteration starts from
the all-zero vector; the first projection restores feasibility even when
the zero vector itself is infeasible.  The solver
knows only the projector's contract, the grid and the design; the source
model, its weights and the budget are bound into the projector.

pgd_solve_stack runs this loop on a stack of independent problems at once,
one projector call per iteration for the whole stack; pgd_solve is its
one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .projection import InfeasibleProjection
from .quantize import QuantAlphabet
from .sensing import SenseMatrix


@dataclass
class PgdConfig:
    """Solver knobs.

    projector receives the gradient-step vector S(t+1) (n floats) and
    returns n symbol indices into the alphabet given to pgd_solve; it may
    raise InfeasibleProjection.  Bind its alphabet, weights and budget in
    beforehand, e.g. partial(project_l0, alphabet=alphabet, s=8).  For
    pgd_solve_stack it maps a (rows, n) stack of step vectors row by row,
    as project_l0 does, and start is a (T, n) array.  A symbol outside
    [0, alphabet.size) raises ValueError, but a projector on another grid
    whose symbols fall inside it cannot be caught: a 2-bit projector given
    a 6-bit alphabet "converges" on values such as 0.015625 and 0.046875.

    mu is a multiple of the step size paired with each design's scaling
    (1/m for unit-variance entries, n/m for 1/n-variance entries; see
    SenseMatrix.step_size).  There is no stop tolerance: every iterate is a
    grid point, so a run stops early only when its iterate repeats exactly
    (see PgdTrace.status).
    """

    projector: Callable[[np.ndarray], np.ndarray]
    mu: float = 1.0
    max_iters: int = 200
    start: Optional[np.ndarray] = None  # symbol indices; default all-zero values


@dataclass
class PgdTrace:
    """Per-iteration telemetry; index t = 0 is the initial state.

    residuals holds ||y - A Xhat(t)||.

    status says why the run stopped: "converged" (the projection returned
    the iterate it was given, a repeat of period 1), "cycle" (an earlier
    iterate repeated exactly, so the rest of the run up to max_iters is
    known), "max_iters", or "infeasible" (set on the trace attached to the
    InfeasibleProjection raised by the projector).
    No run can diverge: every iterate is a grid value, so it stays bounded.
    After a cycle is found the residuals up to max_iters are filled from its
    period: they are exactly the values the remaining iterations would
    record.
    """

    residuals: list[float] = field(default_factory=list)
    status: str = "max_iters"

    @property
    def iters(self) -> int:
        return len(self.residuals) - 1


def pgd_solve(
    A: SenseMatrix,
    y: np.ndarray,
    alphabet: QuantAlphabet,
    cfg: PgdConfig,
) -> tuple[np.ndarray, PgdTrace]:
    """Run PGD; returns (estimate as grid values, trace).

    The one-row case of pgd_solve_stack: cfg.projector and cfg.start are
    those of one vector."""
    projector = cfg.projector
    start = None if cfg.start is None else np.asarray(cfg.start)[None]
    ests, traces = pgd_solve_stack(
        [A], np.asarray(y, dtype=float)[None], alphabet,
        replace(cfg, projector=lambda steps: projector(steps[0])[None], start=start),
    )
    return ests[0], traces[0]


def pgd_solve_stack(
    designs: Sequence[SenseMatrix],
    ys: np.ndarray,
    alphabet: QuantAlphabet,
    cfg: PgdConfig,
) -> tuple[np.ndarray, list[PgdTrace]]:
    """Run PGD on a stack of independent problems; returns ((T, n)
    estimates as grid values, one trace per row).

    Row i fits ys[i] with designs[i] (all of one shape, each setting its
    row's step) from cfg.start[i], a (T, n) array of symbol indices, and
    ends exactly as pgd_solve would on its own: each row keeps its own
    residuals, status and cycle record, and leaves the stack when it stops.
    cfg.projector maps the step vectors of the rows still running, a
    (rows, n) stack in row order, to symbol indices row by row.  The
    projector cannot say which row it found infeasible, so an
    InfeasibleProjection carries the trace of the first running row,
    marked "infeasible"; no other trace leaves the call.
    """
    rows_total = len(designs)
    if rows_total < 1:
        raise ValueError("need at least one problem")
    m, n = designs[0].m, designs[0].n
    if any((A.m, A.n) != (m, n) for A in designs):
        raise ValueError("every design of a stack must have the same shape")
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (rows_total, m):
        raise ValueError(f"y has shape {ys.shape}, expected ({rows_total}, {m})")
    if not np.isfinite(ys).all():
        raise ValueError("y must be finite: NaN or inf measurements cannot be fitted")
    step = np.array([A.step_size(cfg.mu) for A in designs])[:, None]
    if not (np.isfinite(step).all() and (step > 0).all()):
        raise ValueError(f"mu must be finite and > 0, with finite steps, got {cfg.mu}")
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    if cfg.start is not None:
        idx = np.asarray(cfg.start, dtype=np.int64)
        if idx.shape != (rows_total, n):
            raise ValueError("start must give one symbol index per coordinate")
    else:
        zero = alphabet.zero_index()
        if zero is None:
            raise ValueError("alphabet has no zero value; supply an explicit start")
        idx = np.full((rows_total, n), zero, dtype=np.int64)

    traces = [PgdTrace() for _ in range(rows_total)]
    out = np.empty((rows_total, n))
    entries = [A.entries for A in designs]
    # The step is a deterministic function of the symbol-index iterate, so
    # an iterate seen before at t0 repeats the whole stretch since t0 forever.
    # seen[i] maps each distinct iterate of row i to its first t, in order of t.
    seen = [{row.tobytes(): 0} for row in idx]
    running = list(range(rows_total))  # the rows still in the stack, in order
    est = alphabet.values[idx]
    resid = np.empty(m)
    grad = np.empty((rows_total, n))

    def record(j: int, i: int, going: bool) -> None:
        # ||y - A est|| of row i, at stack position j, summed as
        # np.linalg.norm sums it; then, if the row goes on, the gradient
        # A^T (y - A est) while A is in cache
        np.matmul(entries[i], est[j], out=resid)
        np.subtract(ys[i], resid, out=resid)
        traces[i].residuals.append(math.sqrt(resid @ resid))
        if going:
            np.matmul(resid, entries[i], out=grad[j])

    for j in running:
        record(j, j, True)
    for t in range(1, cfg.max_iters + 1):
        steps = est + step * grad
        try:
            # int64 as the start is, so that a repeat of the start is found
            idx = np.asarray(cfg.projector(steps), dtype=np.int64)
        except InfeasibleProjection as exc:
            exc.iteration = t
            exc.trace = traces[running[0]]
            exc.trace.status = "infeasible"
            raise
        # as unsigned, a negative symbol is above every valid one
        if idx.view(np.uint64).max() >= alphabet.size:
            bad = idx[(idx < 0) | (idx >= alphabet.size)][0]
            raise ValueError(f"projector returned symbol {bad}, outside [0, {alphabet.size}) "
                             f"of the solver's {alphabet.b}-bit alphabet: bound to another grid?")
        est = alphabet.values[idx]
        keep = []
        for j, i in enumerate(running):
            trace = traces[i]
            t0 = seen[i].setdefault(idx[j].tobytes(), t)
            going = t0 == t and t < cfg.max_iters
            if t0 == t:
                record(j, i, going)
            else:  # a repeat of iterate t0, whose residual the trace holds
                trace.residuals.append(trace.residuals[t0])
            if t0 == t - 1:
                trace.status = "converged"
            elif t0 < t:
                # the period repeats up to max_iters; copy its residuals one
                # period back, and end at the iterate max_iters would reach
                period = t - t0
                for _ in range(cfg.max_iters - t):
                    trace.residuals.append(trace.residuals[-period])
                final = list(seen[i])[t0 + (cfg.max_iters - t0) % period]
                est[j] = alphabet.values[np.frombuffer(final, dtype=np.int64)]
                trace.status = "cycle"
            if going:
                keep.append(j)
            else:
                out[i] = est[j]  # a row that stops leaves the stack with its estimate
        if len(keep) < len(running):
            running = [running[j] for j in keep]
            if not running:
                break
            est, grad, step = est[keep], grad[keep], step[keep]
    return out, traces
