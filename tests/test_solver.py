import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_weight_table
from oracles import (
    contraction_floor,
    enumerate_sequences,
    pgd_error_path,
    qmap_bruteforce,
    sequence_costs,
)
from qmap.empirics import complexity_cost
from qmap.projection import (
    InfeasibleProjection,
    project_constrained,
    project_l0,
    project_lagrangian,
)
from qmap.quantize import build_alphabet, quantize_vector
from qmap.sensing import SenseMatrix, gen_gaussian, measure
from qmap.solver import PgdConfig, default_gamma, pgd_solve, pgd_solve_stack
from qmap.sources import (
    PiecewiseConstant,
    SpikeSlab,
    cond_entropy,
    quantized_kernel,
    sample_path,
    weights_from_kernel,
)


def spike_setup(n, b, p, seed, m=None, sigma=0.0, scale="unit"):
    m = m or n
    x = sample_path(SpikeSlab(p), n, seed)
    ab = build_alphabet(0, 1, b)
    xq = ab.values[quantize_vector(x, ab)]
    A = gen_gaussian(m, n, scale, seed + 1)
    y = measure(A, xq, sigma, seed + 2)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    return x, xq, ab, A, y, w


def test_identity_design_recovers_in_one_step():
    n, b, p = 16, 4, 0.3
    x, xq, ab, A, y, w = spike_setup(n, b, p, 7)
    A = SenseMatrix(n, n, np.eye(n), "unit")
    y = A.entries @ xq
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=n), mu=1.0)
    est, trace = pgd_solve(A, y, ab, cfg)
    assert np.array_equal(est, xq)
    assert trace.residuals[1] == 0.0  # the first step lands on [x]_b
    assert trace.status == "converged"


def test_feasibility_invariant_l0_and_constrained():
    n, b, p = 24, 2, 0.2
    x, xq, ab, A, y, w = spike_setup(n, b, p, 11, m=16)
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=5), max_iters=12)
    est, trace = pgd_solve(A, y, ab, cfg)
    assert np.count_nonzero(est) <= 5
    gamma = default_gamma(quantized_kernel(SpikeSlab(p), b), delta=0.15)
    cfg = PgdConfig(
        projector=partial(project_constrained, w=w, alphabet=ab, gamma=gamma), max_iters=12,
    )
    est, trace = pgd_solve(A, y, ab, cfg)
    idx = quantize_vector(est, ab)
    assert complexity_cost(idx, w) <= gamma


def test_noiseless_fixed_point_is_stationary():
    n, b, p = 12, 3, 0.25
    x, xq, ab, A, y, w = spike_setup(n, b, p, 23)
    start = quantize_vector(xq, ab)
    s = int(np.count_nonzero(xq)) + 1
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=s), max_iters=5, start=start)
    est, trace = pgd_solve(A, y, ab, cfg)
    assert np.array_equal(est, xq)
    assert trace.status == "converged"
    assert trace.residuals[-1] == 0.0


def test_residual_mostly_nonincreasing_noiseless():
    n, b, p = 64, 4, 0.1
    x, xq, ab, A, y, w = spike_setup(n, b, p, 31, m=48)
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=12), max_iters=40, mu=0.4 / 48)
    est, trace = pgd_solve(A, y, ab, cfg)
    drops = sum(
        1 for r0, r1 in zip(trace.residuals[1:], trace.residuals[2:]) if r1 <= r0 + 1e-12
    )
    total = len(trace.residuals) - 2
    assert total == 0 or drops / total >= 0.9  # telemetry, not a theorem


def test_default_step_is_the_paired_step():
    # mu = None takes 1/m for unit entries and n/m for 1/n-variance entries
    for scale in ("unit", "normalized"):
        n, b, p = 8, 2, 0.3
        x, xq, ab, A, y, w = spike_setup(n, b, p, 5, m=4, scale=scale)
        l0 = partial(project_l0, alphabet=ab, s=3)
        paired = pgd_solve(A, y, ab, PgdConfig(l0, mu=A.paired_step))
        default = pgd_solve(A, y, ab, PgdConfig(l0))
        assert np.array_equal(default[0], paired[0])
        assert default[1] == paired[1]
    # an explicit step is used as given
    other = pgd_solve(A, y, ab, PgdConfig(l0, mu=0.123))
    assert other[1] != paired[1]


def test_infeasible_projection_carries_iteration():
    n, b = 6, 2
    ab = build_alphabet(0, 1, b)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.3), b))
    A = gen_gaussian(4, n, "unit", 2)
    y = A.entries @ np.full(n, 0.75)
    cfg = PgdConfig(
        projector=partial(project_constrained, w=w, alphabet=ab, gamma=-1.0), max_iters=3,
    )
    with pytest.raises(InfeasibleProjection) as exc:
        pgd_solve(A, y, ab, cfg)
    assert exc.value.iteration == 1
    assert exc.value.trace.status == "infeasible"


def test_zero_not_in_alphabet_requires_start():
    ab = build_alphabet(0.5, 1.0, 2)
    w = random_weight_table(np.random.default_rng(0), ab.size, 0)
    w2 = type(w)(alphabet=ab, k=0, w=w.w)
    A = gen_gaussian(3, 4, "unit", 0)
    cfg = PgdConfig(projector=partial(project_lagrangian, w=w2, alphabet=ab, alpha=0.0))
    with pytest.raises(ValueError, match="zero"):
        pgd_solve(A, np.zeros(3), ab, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_measurements_are_refused(bad):
    x, xq, ab, A, y, w = spike_setup(8, 2, 0.3, 3, m=6)
    y[2] = bad
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=3))
    with pytest.raises(ValueError, match="y must be finite"):
        pgd_solve(A, y, ab, cfg)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_step_size_must_be_finite_and_positive(mu):
    # mu = -1 steps away from the data and mu = 0 never moves; both would
    # otherwise end as "converged"
    x, xq, ab, A, y, w = spike_setup(8, 2, 0.3, 3, m=6)
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=3), mu=mu)
    with pytest.raises(ValueError, match="mu must be finite and > 0"):
        pgd_solve(A, y, ab, cfg)


def test_qmap_bruteforce_unconstrained_square():
    n, b, p = 4, 1, 0.4
    ab = build_alphabet(0, 1, b)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    A = gen_gaussian(n, n, "unit", 9)
    u_true = np.array([0, 1, 0, 1])
    y = A.entries @ ab.values[u_true]
    got = qmap_bruteforce(A, y, w, ab, gamma=math.inf)
    assert np.array_equal(got, u_true)


def test_qmap_bruteforce_is_exhaustive_minimum(rng):
    n, m, b, p = 6, 4, 1, 0.3
    ab = build_alphabet(0, 1, b)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    gamma = default_gamma(quantized_kernel(SpikeSlab(p), b), delta=0.3)
    for seed in range(10):
        x = sample_path(SpikeSlab(p), n, 200 + seed)
        A = gen_gaussian(m, n, "unit", 300 + seed)
        y = A.entries @ ab.values[quantize_vector(x, ab)]
        got = qmap_bruteforce(A, y, w, ab, gamma)
        seqs = enumerate_sequences(ab.size, n)
        costs = sequence_costs(seqs, w) / (n - w.k)
        resid = np.linalg.norm(ab.values[seqs] @ A.entries.T - y, axis=1)
        feasible = costs <= gamma
        r_got = float(np.linalg.norm(A.entries @ ab.values[got] - y))
        assert np.all(r_got <= resid[feasible] + 1e-12)


def test_pgd_feasible_and_dominated_by_oracle():
    n, m, b, p = 6, 4, 1, 0.3
    ab = build_alphabet(0, 1, b)
    kern = quantized_kernel(SpikeSlab(p), b)
    w = weights_from_kernel(kern)
    gamma = default_gamma(kern, delta=0.3)
    for seed in range(10):
        x = sample_path(SpikeSlab(p), n, 400 + seed)
        A = gen_gaussian(m, n, "unit", 500 + seed)
        xq = ab.values[quantize_vector(x, ab)]
        y = A.entries @ xq
        oracle = qmap_bruteforce(A, y, w, ab, gamma)
        proj = partial(project_constrained, w=w, alphabet=ab, gamma=gamma)
        cfg = PgdConfig(projector=proj, max_iters=25, stop_tol=0.0)
        est, trace = pgd_solve(A, y, ab, cfg)
        idx = quantize_vector(est, ab)
        assert complexity_cost(idx, w) <= gamma
        r_pgd = float(np.linalg.norm(A.entries @ est - y))
        r_orc = float(np.linalg.norm(A.entries @ ab.values[oracle] - y))
        assert r_pgd >= r_orc - 1e-12


def test_noisy_contraction_telemetry():
    # normalized design with its paired step n/m; the per-iteration error
    # recursion holds with the theorem floor in nearly all iterations
    n, m, b, p, sigma = 256, 2048, 6, 0.05, 0.1
    model = SpikeSlab(p)
    x = sample_path(model, n, 1234)
    ab = build_alphabet(0, 1, b)
    xq = ab.values[quantize_vector(x, ab)]
    A = gen_gaussian(m, n, "normalized", 4321)
    y = measure(A, xq, sigma, 999)
    kern = quantized_kernel(model, b)
    cfg = PgdConfig(projector=partial(project_l0, alphabet=ab, s=20), max_iters=30)
    est, trace, err = pgd_error_path(A, y, ab, cfg, x)
    assert trace.status == "converged"
    dbar = cond_entropy(kern) / b
    floor = contraction_floor(n, m, b, sigma, dbar, 0.1, "normalized")
    # pairs from t = 1 on while the error is above the floor, or every
    # pre-convergence pair when it starts below, as acceptance criterion 5
    pairs = [(err[t], err[t + 1]) for t in range(1, len(err) - 1)]
    counted = [p for p in pairs if p[0] > floor] or [p for p in pairs if p[0] > 0.0]
    assert counted
    good = sum(1 for e0, e1 in counted if e1 <= 0.9 * e0 + floor)
    assert good >= 0.9 * len(counted)


def test_default_gamma_tracks_entropy():
    kern = quantized_kernel(SpikeSlab(0.1), 5)
    assert default_gamma(kern, delta=0.1) == pytest.approx(
        cond_entropy(kern) + 0.5, abs=1e-12
    )


def test_pc_markov_constrained_pgd_runs():
    # a first-order model exercises the Viterbi projector inside the solver
    n, m, b, p = 24, 20, 2, 0.15
    model = PiecewiseConstant(p)
    x = sample_path(model, n, 60)
    ab = build_alphabet(0, 1, b)
    xq = ab.values[quantize_vector(x, ab)]
    A = gen_gaussian(m, n, "unit", 61)
    y = A.entries @ xq
    kern = quantized_kernel(model, b)
    w = weights_from_kernel(kern)
    gamma = default_gamma(kern, delta=0.4)
    proj = partial(project_constrained, w=w, alphabet=ab, gamma=gamma)
    cfg = PgdConfig(projector=proj, max_iters=15, mu=0.5 / m)
    est, trace = pgd_solve(A, y, ab, cfg)
    idx = quantize_vector(est, ab)
    assert complexity_cost(idx, w) <= gamma
    assert trace.residuals[-1] <= trace.residuals[0]


def plain_l0_pgd(A, y, ab, s, mu, max_iters, stop_tol):
    """PGD with the l0 projector and no cycle short-circuit: every iteration
    runs.  Returns the estimate, the residuals and the iterate changes."""
    residuals = []

    def record(idx):
        est = ab.values[idx]
        residuals.append(float(np.linalg.norm(y - A.entries @ est)))
        return est

    est = record(np.full(A.n, ab.zero_index(), dtype=np.int64))
    changes = []
    for _ in range(max_iters):
        s_vec = est + mu * (A.entries.T @ (y - A.entries @ est))
        new_idx = project_l0(s_vec, ab, s)
        changes.append(float(np.linalg.norm(ab.values[new_idx] - est)))
        est = record(new_idx)
        if changes[-1] <= stop_tol:
            break
    return est, residuals, changes


def cycling_grow_stage():
    """A homotopy grow stage of the criterion-6 cell m/n = 0.05 (n=128, p=0.1,
    b=6, solve grid b=12, step 0.5/m, 300 iterations), where PGD enters an
    exact 2-cycle within a few iterations."""
    n, m, b, p = 128, 6, 6, 0.1
    _, _, _, A, y, _ = spike_setup(n, b, p, 0, m=m)
    return A, y, build_alphabet(0, 1, 12), 0.5 / m


@pytest.mark.parametrize("s", [4, 20])
@pytest.mark.parametrize("tol_factor", [0.0, 0.5, 1.0])
def test_cycle_short_circuit_matches_plain_loop(s, tol_factor):
    A, y, ab, mu = cycling_grow_stage()
    max_iters = 300
    _, _, changes = plain_l0_pgd(A, y, ab, s, mu, max_iters, 0.0)
    # below the smallest change the loop never stops; at it, it converges
    stop_tol = tol_factor * min(changes)
    est_ref, residuals, _ = plain_l0_pgd(A, y, ab, s, mu, max_iters, stop_tol)
    proj = partial(project_l0, alphabet=ab, s=s)
    cfg = PgdConfig(projector=proj, mu=mu, max_iters=max_iters, stop_tol=stop_tol)
    est, trace = pgd_solve(A, y, ab, cfg)
    if tol_factor < 1.0:
        assert trace.status == "cycle"
        assert trace.iters == max_iters
    else:
        assert trace.status == "converged"
        assert trace.iters < max_iters
    assert np.array_equal(est, est_ref)
    assert trace.residuals == residuals


@st.composite
def l0_problem_stacks(draw):
    """A stack of small l0 PGD problems and the config they share.  The
    designs, measurements and starts differ by row, so the rows stop at
    different iterations, by convergence, a cycle or max_iters."""
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 8))
    b = draw(st.integers(1, 3))
    ab = build_alphabet(draw(st.sampled_from([0.0, -1.0])), 1.0, b)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a design's scale sets its paired step, so with mu = None the rows' steps differ
    scales = draw(st.lists(st.sampled_from(["unit", "normalized"]), min_size=rows, max_size=rows))
    designs = [SenseMatrix(m, n, rng.standard_normal((m, n)), scale) for scale in scales]
    truth = ab.values[rng.integers(0, ab.size, (rows, n))]
    ys = np.array([A.entries @ x for A, x in zip(designs, truth)])
    ys += draw(st.sampled_from([0.0, 0.1])) * rng.standard_normal((rows, m))
    start = rng.integers(0, ab.size, (rows, n)) if draw(st.booleans()) else None
    mu = draw(st.sampled_from([None, 0.3 / m, 2.0 / m]))
    cfg = PgdConfig(partial(project_l0, alphabet=ab, s=draw(st.integers(0, n))), mu,
                    draw(st.integers(1, 30)), draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])), start)
    return designs, ys, ab, cfg


def assert_stack_matches_rows(designs, ys, ab, cfg):
    ests, traces = pgd_solve_stack(designs, ys, ab, cfg)
    assert ests.shape == (len(designs), designs[0].n) and len(traces) == len(designs)
    for i, (A, y) in enumerate(zip(designs, ys)):
        start = None if cfg.start is None else cfg.start[i]
        est, trace = pgd_solve(A, y, ab, replace(cfg, start=start))
        assert ests[i].tobytes() == est.tobytes()
        assert traces[i].residuals == trace.residuals
        assert traces[i].status == trace.status
    return traces


@settings(max_examples=300, deadline=None)
@given(l0_problem_stacks())
def test_stack_equals_one_row_solves(case):
    assert_stack_matches_rows(*case)


def test_stack_rows_stop_each_their_own_way():
    # one stack whose rows stop by a cycle, by convergence and by
    # max_iters, at different iterations; once with stop_tol > 0
    A, y, ab, mu = cycling_grow_stage()
    n, m = A.n, A.m
    rng = np.random.default_rng(3)
    fixed = ab.values[rng.integers(0, ab.size, n)] * (rng.random(n) < 0.05)
    B = gen_gaussian(m, n, "unit", 8)
    designs = [A, B, B, gen_gaussian(m, n, "unit", 9)]
    ys = np.array([y, B.entries @ fixed, B.entries @ fixed, y])
    start = np.zeros((4, n), dtype=np.int64)
    start[1] = quantize_vector(fixed, ab)  # a fixed point: converges at once
    projector = partial(project_l0, alphabet=ab, s=20)
    # the cycle returns the iterate max_iters would reach: both parities
    for stop_tol, max_iters in ((0.0, 12), (0.0, 13), (1e-3, 12)):
        cfg = PgdConfig(projector, mu, max_iters, stop_tol, start)
        traces = assert_stack_matches_rows(designs, ys, ab, cfg)
        statuses = [trace.status for trace in traces]
        assert statuses[:2] == ["cycle", "converged"]
        assert "max_iters" in statuses[2:]
        assert len({trace.iters for trace in traces if trace.status != "cycle"}) > 1


def test_infeasible_projection_stops_the_whole_stack():
    n, b = 6, 2
    ab = build_alphabet(0, 1, b)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.3), b))
    designs = [gen_gaussian(4, n, "unit", seed) for seed in (2, 3)]
    ys = np.array([A.entries @ np.full(n, 0.75) for A in designs])
    infeasible = partial(project_constrained, w=w, alphabet=ab, gamma=-1.0)
    cfg = PgdConfig(projector=lambda steps: np.array([infeasible(s) for s in steps]))
    with pytest.raises(InfeasibleProjection) as exc:
        pgd_solve_stack(designs, ys, ab, cfg)
    assert exc.value.iteration == 1
    assert exc.value.trace.status == "infeasible"


def test_stack_refuses_mismatched_shapes():
    ab = build_alphabet(0, 1, 2)
    cfg = PgdConfig(partial(project_l0, alphabet=ab, s=2))
    A, B = gen_gaussian(3, 5, "unit", 1), gen_gaussian(4, 5, "unit", 2)
    with pytest.raises(ValueError, match="same shape"):
        pgd_solve_stack([A, B], np.zeros((2, 3)), ab, cfg)
    with pytest.raises(ValueError, match="y has shape"):
        pgd_solve_stack([A, A], np.zeros((2, 4)), ab, cfg)
    with pytest.raises(ValueError, match="start"):
        pgd_solve_stack([A, A], np.zeros((2, 3)), ab,
                        replace(cfg, start=np.zeros(5, dtype=np.int64)))
