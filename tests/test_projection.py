import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmap.projection as projection
from conftest import random_weight_table
from oracles import (
    enumerate_sequences,
    lagrangian_objective,
    nearest_index_by_distance,
    project_bruteforce,
    project_jumps_bruteforce,
    sequence_costs,
    weight_gap,
)
from qmap.experiments import build_model, run_recover
from qmap.projection import (
    InfeasibleProjection,
    ProblemTooLarge,
    nearest_index,
    project_constrained,
    project_l0,
    project_lagrangian,
)
from qmap.quantize import build_alphabet
from qmap.sources import (
    PiecewiseConstant,
    SpikeSlab,
    WeightTable,
    complexity_cost,
    quantized_kernel,
    weights_from_kernel,
)


def count_viterbi_passes(monkeypatch) -> list:
    """Count project_lagrangian calls made through qmap.projection: one per
    pass of the constrained breakpoint search.  Returns a list that grows by
    one entry per call, the pass's dist_scale (0.0 for the minimum-cost
    pass)."""
    calls = []
    real = projection.project_lagrangian

    def counted(*args, **kwargs):
        calls.append(kwargs.get("dist_scale", 1.0))
        return real(*args, **kwargs)

    monkeypatch.setattr(projection, "project_lagrangian", counted)
    return calls


def test_alpha_zero_is_nearest_rounding(rng):
    ab = build_alphabet(0, 1, 2)
    w = random_weight_table(rng, 4, 1, inf_frac=0.3)
    w2 = random_weight_table(rng, 4, 1)
    w2.w[:] = np.inf  # all transitions forbidden; alpha=0 must not care
    x = np.array([0.1, 0.9, 0.49, 0.26, 0.125])
    expect = nearest_index(ab, x)
    assert np.array_equal(project_lagrangian(x, w, 0.0), expect)
    assert np.array_equal(project_lagrangian(x, w2, 0.0), expect)
    # exact midpoint ties resolve to the lower value
    assert project_lagrangian(np.array([0.125, 0.3]), w, 0.0)[0] == 0


def test_zero_weight_pass_may_round_a_nudged_midpoint_down(monkeypatch):
    # a pass whose weights are all 0 returns the lexicographically smallest
    # sequence of least distortion as the trellis sums it, in floats from
    # the back.  One ulp above the midpoint 0.125, the distortions of 0 and
    # 0.25 differ by less than an ulp of the suffix sum, so both neighbours
    # tie there and the pass takes 0, where nearest_index rounds up to 0.25
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.1), 2))
    ab = w.alphabet
    x = np.full(100, 0.125)
    x[[0, 50]] = np.nextafter(0.125, 1.0)
    assert nearest_index(ab, x)[[0, 50]].tolist() == [1, 1]
    dense = spy_step(monkeypatch)
    # alpha = 0, and no budget (J(gamma) >= n - 1): one dense pass each
    for u in (project_lagrangian(x, w, 0.0), project_constrained(x, w, math.inf)):
        assert u.dtype == np.int64 and u.tolist() == [0] * 100
    assert len(dense) == 2 * -(-99 // projection.VITERBI_BLOCK)
    # at n = 8 with x[0] and x[4] nudged, three float minimizers differ: the
    # trellis rounds x[0] down but not x[4], project_bruteforce (summed from
    # the front) rounds neither down, and an enumeration summed from the back
    # rounds both down.  They tie on the distortion to within 1e-12, so no
    # oracle reproduces the trellis's sequence on such inputs
    x8 = np.full(8, 0.125)
    x8[[0, 4]] = np.nextafter(0.125, 1.0)
    u = project_lagrangian(x8, w, 0.0)
    assert u.tolist() == [0, 0, 0, 0, 1, 0, 0, 0]
    assert project_bruteforce(x8, w, alpha=0.0).tolist() == [1, 0, 0, 0, 1, 0, 0, 0]
    assert project_jumps_bruteforce(x8, ab, 7).tolist() == [0] * 8
    assert nearest_index(ab, x8).tolist() == [1, 0, 0, 0, 1, 0, 0, 0]
    least = ((ab.values[enumerate_sequences(ab.size, 8)] - x8) ** 2).sum(axis=1).min()
    assert abs(((ab.values[u] - x8) ** 2).sum() - least) <= 1e-12


def test_grid_sequence_is_fixed_point_for_small_alpha(rng):
    ab = build_alphabet(0, 1, 2)
    w = random_weight_table(rng, 4, 1)
    u = rng.integers(0, 4, 12)
    x = ab.values[u]
    got = project_lagrangian(x, w, 1e-9)
    assert np.array_equal(got, u)


def test_lagrangian_matches_bruteforce(rng):
    for trial in range(160):
        n = int(rng.integers(3, 9))
        size = int(rng.integers(2, 4))
        k = int(rng.integers(0, 3))
        if n <= k:
            continue
        w = random_weight_table(rng, size, k, inf_frac=0.2)
        if trial % 2:
            x = rng.normal(0.3, 0.6, n)
            alpha = float(rng.exponential(0.5))
        else:
            # tie-heavy: grid points and midpoints, small integer weights and
            # dyadic alpha keep every objective exact, so exact ties are
            # common and only the tie-break decides the sequence
            x = w.alphabet.values[rng.integers(0, size, n)] + rng.choice([0.0, 0.125], n)
            w.w[np.isfinite(w.w)] = rng.integers(0, 3, np.isfinite(w.w).sum())
            alpha = float(rng.choice([0.0, 0.125, 0.5, 1.0, 4.0]))
        u_dp = project_lagrangian(x, w, alpha)
        u_bf = project_bruteforce(x, w, alpha=alpha)
        o_dp = lagrangian_objective(x, u_dp, w, alpha)
        o_bf = lagrangian_objective(x, u_bf, w, alpha)
        assert abs(o_dp - o_bf) < 1e-12
        assert np.array_equal(u_dp, u_bf)


def stay_or_jump_table(size: int, hold: float, jump: float) -> WeightTable:
    w = np.full((size, size), jump)
    np.fill_diagonal(w, hold)
    return WeightTable(alphabet=build_alphabet(0.0, size * 0.25, 2), w=w)


def spy_step(mp) -> list:
    """Record a copy of the distortion block handed to each call of the
    Viterbi step projection._dense_step, one list entry per call."""
    calls = []
    step = projection._dense_step

    def counted(dist, aw, back, suffix):
        calls.append(dist.copy())
        return step(dist, aw, back, suffix)

    mp.setattr(projection, "_dense_step", counted)
    return calls


@st.composite
def stay_or_jump_cases(draw):
    # dyadic inputs, weights and alpha keep every cell exact, so ties are
    # common and the tie-break alone decides the sequence
    small = draw(st.booleans())
    size = draw(st.integers(2, 4 if small else 64))
    n = draw(st.integers(2, 8 if small else 512))
    weight = st.one_of(st.integers(0, 6).map(float), st.integers(0, 48).map(lambda v: v / 16))
    hold, jump = sorted([draw(weight), draw(weight)])
    if draw(st.booleans()):
        jump = hold
    w = stay_or_jump_table(size, hold, jump)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # grid values and midpoints, with one step beyond each end of the grid
    points = np.arange(-2, 2 * size + 1) * 0.125
    if draw(st.booleans()):
        x = rng.choice(points, n)
    else:
        x = np.full(n, draw(st.sampled_from(points.tolist())))
    # the last, 2 * jump * n, is large enough that most states hold
    alpha = draw(st.sampled_from([0.0, 0.0625, 0.5, 1.0, 4.0, 2.0 * jump * n]))
    return x, w, alpha


@settings(max_examples=300, deadline=None)
@given(stay_or_jump_cases(), st.sampled_from([1.0, 0.0]))
def test_lagrangian_on_stay_or_jump_tables_matches_bruteforce(case, dist_scale):
    x, w, alpha = case
    u = project_lagrangian(x, w, alpha, dist_scale)
    assert u.dtype == np.int64
    if w.alphabet.size ** len(x) > 4 ** 8:
        return
    if dist_scale == 1.0:
        assert u.tobytes() == project_bruteforce(x, w, alpha=alpha).tobytes()
    else:
        # the minimum-cost pass: the lexicographically smallest sequence of
        # least scaled weight, every sum exact on dyadic weights and alpha
        seqs = enumerate_sequences(w.alphabet.size, len(x))
        assert u.tobytes() == seqs[(sequence_costs(seqs, w) * alpha).argmin()].tobytes()


@pytest.mark.parametrize("table", [
    np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]),  # hold > jump
    np.array([[0.5, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 0.5]]),  # uneven diagonal
    np.array([[0.5, 2.0, 1.0], [2.0, 0.5, 2.0], [2.0, 2.0, 0.5]]),  # uneven jumps
    np.array([[0.5, 2.0, np.inf], [2.0, 0.5, 2.0], [2.0, 2.0, 0.5]]),  # a forbidden jump
])
def test_other_k1_tables_take_the_dense_pass(table, monkeypatch):
    w = WeightTable(alphabet=build_alphabet(0.0, 0.75, 2), w=table)
    rng = np.random.default_rng(5)
    for alpha in (0.0, 0.125, 0.5, 2.0):
        for _ in range(5):
            x = rng.choice(np.arange(-1, 7) * 0.125, 7)
            u = project_lagrangian(x, w, alpha)
            assert u.tobytes() == project_bruteforce(x, w, alpha=alpha).tobytes()


def test_all_forbidden_raises(rng):
    w = random_weight_table(rng, 3, 1)
    w.w[:] = np.inf
    with pytest.raises(InfeasibleProjection):
        project_lagrangian(np.array([0.1, 0.2, 0.3]), w, 0.5)


def test_constrained_returns_rounding_when_feasible(rng):
    p, b = 0.3, 2
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    x = rng.uniform(0, 1, 12)
    u0 = project_lagrangian(x, w, 0.0)
    gamma = complexity_cost(u0, w) + 1e-9
    assert np.array_equal(project_constrained(x, w, gamma), u0)


def test_constrained_feasibility_and_sweep_monotonicity(rng):
    p, b = 0.15, 3
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    ab = w.alphabet
    for _ in range(10):
        x = rng.uniform(0, 1, 24)
        gamma = float(rng.uniform(0.3, 1.2))
        try:
            u = project_constrained(x, w, gamma)
        except InfeasibleProjection:
            continue
        assert complexity_cost(u, w) <= gamma
        # distortion nondecreasing and cost nonincreasing along an alpha grid
        alphas = np.linspace(0.0, 2.0, 9)
        dists, costs = [], []
        for a in alphas:
            ua = project_lagrangian(x, w, float(a))
            dists.append(float(((ab.values[ua] - x) ** 2).sum()))
            costs.append(complexity_cost(ua, w))
        assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_constrained_matches_l0_on_spike_slab(rng):
    # budget gamma placed between the s and s+1 cost levels: the constrained
    # projection must equal the exact sparse projection
    p, b, n = 0.2, 2, 14
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    ab = w.alphabet
    gap = weight_gap(p, b)
    const = math.log2(1 - p + p * 2.0 ** -b)
    for _ in range(40):
        x = rng.uniform(0, 1, n)
        s = int(rng.integers(1, n))
        gamma = (s + 0.5) / n * gap - const
        u_c = project_constrained(x, w, gamma)
        u_l0 = project_l0(x, ab, s)
        d_c = float(((ab.values[u_c] - x) ** 2).sum())
        d_l0 = float(((ab.values[u_l0] - x) ** 2).sum())
        assert d_c == pytest.approx(d_l0, abs=1e-12)
        assert np.count_nonzero(ab.values[u_c]) <= s


def test_constrained_vs_exhaustive_at_toy_scale(rng):
    # the breakpoint search returns the best feasible Lagrangian solution,
    # which is the exhaustive constrained optimum except on duality-gap
    # instances (optimum off the convex hull); those are counted
    gaps = 0
    for _ in range(40):
        n = int(rng.integers(3, 7))
        w = random_weight_table(rng, 3, 1, inf_frac=0.1)
        x = rng.normal(0.4, 0.5, n)
        gamma = float(rng.uniform(0.5, 2.0))
        try:
            u_bf = project_bruteforce(x, w, gamma=gamma)
        except InfeasibleProjection:
            with pytest.raises(InfeasibleProjection):
                project_constrained(x, w, gamma)
            continue
        u_sw = project_constrained(x, w, gamma)
        d_bf = float(((w.alphabet.values[u_bf] - x) ** 2).sum())
        d_sw = float(((w.alphabet.values[u_sw] - x) ** 2).sum())
        assert complexity_cost(u_sw, w) <= gamma
        assert d_sw >= d_bf - 1e-12
        if d_sw > d_bf + 1e-9:
            gaps += 1  # the constrained optimum is not a hull vertex
    assert gaps < 20  # the search attains the optimum on most instances


def lagrangian_hull(raws, dists, collinear=False):
    """Vertices (raw cost, distortion) of the lower convex hull of the
    points, from the least-cost one to the least-distortion one: the
    solutions of the Lagrangian projection as alpha runs from inf to 0.
    collinear=True also keeps the points that lie on the hull's edges."""
    hull = []
    for p in sorted(set(zip(raws, dists))):
        while len(hull) >= 2:
            turn = ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                    - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0]))
            if turn > 0 or (collinear and turn == 0):
                break
            hull.pop()
        hull.append(p)
    d_min = min(d for _, d in hull)
    return hull[: next(i for i, (_, d) in enumerate(hull) if d == d_min) + 1]


def hull_value(hull, raw):
    """The hull's distortion at a raw cost (flat right of the last vertex)."""
    for (c0, d0), (c1, d1) in zip(hull, hull[1:]):
        if c0 <= raw <= c1:
            return d0 + (d1 - d0) * (raw - c0) / (c1 - c0)
    return hull[-1][1] if raw >= hull[-1][0] else math.inf


@st.composite
def constrained_cases(draw):
    k = draw(st.sampled_from([0, 1, 2]))
    size = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k + 1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = random_weight_table(rng, size, k, inf_frac=draw(st.sampled_from([0.0, 0.2, 0.5])))
    # dyadic weights keep every raw cost exact, so the projector's cost and
    # the enumeration's agree to the bit at the budget; small weights put
    # breakpoints at large alpha, next to the minimum-cost end of the bracket
    scale = draw(st.sampled_from([4.0, 64.0]))
    w.w[np.isfinite(w.w)] = np.round(w.w[np.isfinite(w.w)] * 4) / scale
    if draw(st.booleans()):
        x = w.alphabet.values[rng.integers(0, size, n)] + rng.choice([0.0, 0.125], n)
    else:
        x = rng.normal(0.3, 0.5, n)
    if draw(st.booleans()):
        # forbid a window of the plain rounding (its context row keeps a
        # finite entry), so the alpha = 0 pass has cost +inf
        u0 = nearest_index(w.alphabet, x)
        window = tuple(u0[:k + 1])
        row = w.w[window[:-1]]
        if np.isfinite(np.delete(row, window[-1])).any():
            w.w[window] = np.inf
    seqs = enumerate_sequences(size, n)
    costs = sequence_costs(seqs, w) / (n - k)
    finite = costs[np.isfinite(costs)]
    frac = draw(st.floats(-0.2, 1.2))
    gamma = float(finite.min() + frac * (finite.max() - finite.min()))
    return x, w, gamma


@settings(max_examples=300, deadline=None)
@given(constrained_cases())
@example((  # the rounding [0, 1, 1] uses the forbidden window (1, 1)
    np.array([0.0, 0.25, 0.25]),
    WeightTable(build_alphabet(0.0, 0.5, 2), np.array([[0.0, 1.0], [0.5, np.inf]])),
    0.5,
))
def test_constrained_is_best_feasible_hull_vertex(case):
    x, w, gamma = case
    windows = len(x) - w.k
    seqs = enumerate_sequences(w.alphabet.size, len(x))
    raws = sequence_costs(seqs, w)
    dists = ((w.alphabet.values[seqs] - x[None, :]) ** 2).sum(axis=1)
    finite = np.isfinite(raws)
    # raw costs are exact (dyadic weights), and so are the distortions of
    # grid-point x: collinear points are then dropped exactly, leaving only
    # true vertices
    hull = lagrangian_hull(raws[finite].tolist(), dists[finite].tolist())
    feasible = [d for raw, d in hull if raw / windows <= gamma]
    if not feasible:
        with pytest.raises(InfeasibleProjection) as exc:
            project_constrained(x, w, gamma)
        assert exc.value.min_cost == float(raws.min()) / windows
        return
    # a function-scoped fixture would span every example of the test
    with pytest.MonkeyPatch.context() as mp:
        passes = count_viterbi_passes(mp)
        u = project_constrained(x, w, gamma)
    cost = complexity_cost(u, w)
    d = float(((w.alphabet.values[u] - x) ** 2).sum())
    assert cost <= gamma
    # the feasible vertex of least distortion, or a point of the hull edge
    # through it when the edge holds further (collinear) points
    assert d <= min(feasible) + 1e-12
    assert d <= hull_value(hull, cost * windows) + 1e-12
    # every pass that moves an end finds a new hull point: a vertex, or a
    # point on an edge when points are collinear
    boundary = lagrangian_hull(raws[finite].tolist(), dists[finite].tolist(), collinear=True)
    assert len(passes) <= len(boundary) + 3


def test_constrained_pass_count_on_piecewise_constant_path(monkeypatch):
    # a noisy piecewise-constant path whose budget allows the clean path's
    # jumps plus half a jump, as in the project benchmark, at S=64, n=1024.
    # One jump weight of the pc_markov table is raised, so the table is not
    # stay-or-jump and the breakpoint search runs
    n, p, b = 1024, 0.1, 6
    rng = np.random.default_rng(7)
    values = rng.random(n)
    jumps = rng.random(n) < p
    jumps[0] = True
    clean = values[np.maximum.accumulate(np.where(jumps, np.arange(n), 0))]
    x = clean + 0.05 * rng.standard_normal(n)
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(p), b))
    w.w[0, 1] += 1.0
    half_jump = 0.5 * (w.w[1, 0] - w.w[0, 0]) / (n - 1)
    gamma = complexity_cost(nearest_index(w.alphabet, clean), w) + half_jump
    dense = spy_step(monkeypatch)
    passes = count_viterbi_passes(monkeypatch)
    u = project_constrained(x, w, gamma)
    assert complexity_cost(u, w) <= gamma
    # the alpha -> 0+ pass, the minimum-cost pass, then bisection passes
    assert len(passes) == 12
    assert passes[:2] == [1.0, 0.0] and set(passes[2:]) == {1.0}
    # every pass, the alpha -> 0+ one too, hands each block to the dense step
    blocks = -(-(n - 1) // projection.VITERBI_BLOCK)
    assert len(dense) == len(passes) * blocks


def exact_jump_budget(w: WeightTable, n: int, gamma: float) -> int:
    """The most jumps of a length-n sequence whose cost is within gamma, on
    a stay-or-jump table, by exact rational arithmetic; -1 if none fits."""
    hold, jump, budget = (Fraction(float(v)) for v in (w.w[0, 0], w.w[0, 1], gamma))
    fits = [j for j in range(n) if hold * (n - 1 - j) + jump * j <= budget * (n - 1)]
    return max(fits, default=-1)


@st.composite
def jump_budget_cases(draw):
    """A stay-or-jump table at b 1-3, an x and a gamma at the exact cost of
    some jump count, or one ulp either side of it."""
    b = draw(st.integers(1, 3))
    if draw(st.booleans()):
        w = weights_from_kernel(quantized_kernel(
            PiecewiseConstant(draw(st.sampled_from([0.1, 0.3, 0.5]))), b))
    else:
        # dyadic weights: ties between budgets, and hold == jump
        hold, jump = sorted(draw(st.lists(st.integers(0, 12), min_size=2, max_size=2)))
        w = stay_or_jump_table(2 ** b, hold / 4, jump / 4)
    n = draw(st.integers(2, 8 if b < 3 else 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # grid values and midpoints, with one step beyond each end: ties
        step = w.alphabet.values[1] - w.alphabet.values[0]
        x = w.alphabet.values[0] + rng.integers(-2, 2 * w.alphabet.size + 1, n) * (step / 2)
    else:
        x = rng.normal(w.alphabet.values.mean(), np.ptp(w.alphabet.values) / 2, n)
    jumps = draw(st.integers(0, n - 1))
    hold, jump = Fraction(float(w.w[0, 0])), Fraction(float(w.w[0, 1]))
    gamma = float((hold * (n - 1 - jumps) + jump * jumps) / (n - 1))
    gamma = float(np.nextafter(gamma, draw(st.sampled_from([-math.inf, gamma, math.inf]))))
    return x, w, gamma


@settings(max_examples=400, deadline=None)
@given(jump_budget_cases())
def test_jump_count_pass_is_the_exact_constrained_projection(case):
    # on a stay-or-jump table the cost counts jumps, so the feasible set is
    # {at most J(gamma) jumps}, J(gamma) taken in exact arithmetic
    x, w, gamma = case
    n = len(x)
    jumps = exact_jump_budget(w, n, gamma)
    if jumps < 0:
        with pytest.raises(InfeasibleProjection) as exc:
            project_constrained(x, w, gamma)
        assert exc.value.min_cost == complexity_cost(np.zeros(n, np.int64), w)
        return
    with pytest.MonkeyPatch.context() as mp:
        passes = count_viterbi_passes(mp)
        u = project_constrained(x, w, gamma)
    assert u.dtype == np.int64
    if jumps >= n - 1:
        # every sequence fits: the search's first pass, all weights 0
        zeroed = WeightTable(w.alphabet, np.zeros_like(w.w))
        assert len(passes) == 1
        assert u.tobytes() == project_lagrangian(x, zeroed, 1.0).tobytes()
    else:
        assert passes == []
        assert u.tobytes() == project_jumps_bruteforce(x, w.alphabet, jumps).tobytes()
    assert np.count_nonzero(np.diff(u)) <= jumps
    # complexity_cost sums the weight of each of the D distinct windows in
    # floats, then divides by n - 1: D + 1 roundings of nonnegative terms
    # whose exact sum is within gamma, so it exceeds gamma by less than
    # D + 2 ulps of gamma
    distinct = len(set(zip(u[:-1].tolist(), u[1:].tolist())))
    assert complexity_cost(u, w) <= gamma + (distinct + 2) * math.ulp(gamma)


def jump_count_reference(x: np.ndarray, alphabet, jumps: int) -> np.ndarray:
    """The jump-count pass spelled out: every row at every position, kept
    unpacked, and the hold rule as a lexicographic comparison of (cost,
    value) pairs."""
    n, s = len(x), alphabet.size
    d = (alphabet.values[None, :] - x[:, None]) ** 2
    g = np.zeros((jumps + 1, s))
    hold = np.ones((n, jumps + 1, s), dtype=bool)  # no jump is left at r = 0
    target = np.zeros((n, jumps + 1), dtype=np.int64)
    symbols = np.arange(s)
    for i in range(n - 1, 0, -1):
        h = g + d[i]
        target[i] = h.argmin(axis=1)
        best = h.min(axis=1)[:-1, None]
        hold[i, 1:] = (h[1:] < best) | ((h[1:] == best) & (symbols <= target[i, :-1, None]))
        g = h.copy()
        g[1:] = np.minimum(h[1:], best)
    a = int((d[0] + g[jumps]).argmin())
    path, r = [a], jumps
    for i in range(1, n):
        if not hold[i, r, a]:
            r -= 1
            a = int(target[i, r])
        path.append(a)
    return np.array(path, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3 * projection.VITERBI_BLOCK + 5),
       st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_jump_count_pass_equals_the_plain_dynamic_program(b, n, budget, ties, seed):
    # over several distortion blocks, with the unreachable and saturated
    # rows the pass leaves out, and its packed flags
    rng = np.random.default_rng(seed)
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.1), b))
    ab = w.alphabet
    if ties:
        x = ab.values[rng.integers(0, ab.size, n)] + rng.choice([0.0, 2.0 ** -(b + 1)], n)
    else:
        x = np.repeat(rng.random(n), rng.integers(1, 30, n))[:n] + rng.normal(0.0, 0.05, n)
    jumps = min(int(budget * (n - 1)), n - 2)
    if jumps < 0:
        return
    assert (projection._project_jumps(x, ab, jumps).tobytes()
            == jump_count_reference(x, ab, jumps).tobytes())


@pytest.mark.parametrize("bad", ["nan", "inf", "too far", "n <= k", "too large",
                                 "NaN gamma", "-inf gamma", "gamma below hold"])
def test_jump_count_pass_raises_what_the_search_raises(bad, monkeypatch):
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.3), 2))
    ab = w.alphabet
    x = np.array([0.1, 0.6, 0.62, 0.3, 0.9, 0.2])
    gamma = 1.5
    if bad in ("nan", "inf", "too far"):
        x[2] = {"nan": math.nan, "inf": math.inf, "too far": 1e16}[bad]
    elif bad == "n <= k":
        x = x[:1]
    elif bad == "too large":
        monkeypatch.setattr(projection, "MAX_TRELLIS_CELLS", len(x) * ab.size - 1)
    else:
        gamma = {"NaN gamma": math.nan, "-inf gamma": -math.inf,
                 "gamma below hold": w.w[0, 0] / 2}[bad]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_is_stay_or_jump", lambda w: False)  # the search
        with pytest.raises(ValueError) as want:
            project_constrained(x, w, gamma)
    with pytest.raises(type(want.value)) as got:
        project_constrained(x, w, gamma)
    assert str(got.value) == str(want.value)
    if isinstance(want.value, InfeasibleProjection):
        assert got.value.min_cost == want.value.min_cost


def test_jump_count_pass_refuses_more_flags_than_the_cap(monkeypatch):
    # n - 1 positions of packed hold flags (one byte for 8 values) and jump
    # targets (one byte each) for J(gamma) rows
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.1), 3))
    x = np.random.default_rng(3).random(40)
    gamma = 2.0
    jumps = exact_jump_budget(w, len(x), gamma)
    assert 0 < jumps < len(x) - 1
    u = project_constrained(x, w, gamma)
    held = (len(x) - 1) * jumps * 2
    monkeypatch.setattr(projection, "MAX_TRELLIS_CELLS", held)
    assert project_constrained(x, w, gamma).tobytes() == u.tobytes()
    monkeypatch.setattr(projection, "MAX_TRELLIS_CELLS", held - 1)
    with pytest.raises(ProblemTooLarge, match="jump-count pass"):
        project_constrained(x, w, gamma)


def test_jump_count_pass_is_no_worse_than_the_search():
    # noisy piecewise-constant paths with a binding budget, as in the
    # project benchmark: the search returns a hull vertex within the budget,
    # the pass the best sequence within it
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.1), 4))
    n = 300
    for seed in range(5):
        rng = np.random.default_rng(seed)
        clean = np.repeat(rng.random(n), rng.geometric(0.1, n))[:n]
        x = clean + 0.05 * rng.standard_normal(n)
        gamma = complexity_cost(nearest_index(w.alphabet, clean), w)
        u = project_constrained(x, w, gamma)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projection, "_is_stay_or_jump", lambda w: False)
            searched = project_constrained(x, w, gamma)
        assert np.count_nonzero(np.diff(u)) <= exact_jump_budget(w, n, gamma)
        d, d_search = (float(((w.alphabet.values[v] - x) ** 2).sum()) for v in (u, searched))
        assert d <= d_search * (1 + 1e-12)


@pytest.mark.parametrize("case", ["holds", "must jump", "start ties a smaller jump"])
def test_lagrangian_on_stay_or_jump_tables_hand_cases(case):
    if case == "holds":
        w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.1), 3))
        x = np.full(100, 0.3) + np.random.default_rng(1).normal(0.0, 0.1, 100)
        alpha, expect = 2.0 * w.w.max() * 100, None
    elif case == "must jump":
        # holding 0 through the last three positions costs more than one jump
        w = stay_or_jump_table(4, 0.5, 2.0)
        x = np.array([0.0, 0.0, 0.0, 0.75, 0.75, 0.75])
        alpha, expect = 0.125, [0, 0, 0, 3, 3, 3]
    else:
        # hold == jump: at position 1 the start state 1's hold cell ties the
        # best jump cell, whose first target j1 = 0 is smaller, so the
        # dense row's first minimum jumps to 0
        w = stay_or_jump_table(2, 1.0, 1.0)
        x = np.array([0.25, 0.125])
        alpha, expect = 1.0, [1, 0]
    u = project_lagrangian(x, w, alpha)
    if expect is not None:
        assert u.tolist() == expect
    else:
        assert len(set(u.tolist())) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "too far", "n <= k", "too large"])
def test_search_end_passes_raise_what_a_trellis_pass_raises(bad, monkeypatch):
    # the end passes of the breakpoint search, its alpha -> 0+ and
    # minimum-cost passes, are trellis passes, and so fail as a trellis pass
    # fails.  The search runs on tables that are not stay-or-jump: here a
    # pc_markov table with one jump weight raised
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.3), 2))
    w.w[0, 1] += 1.0
    ab = w.alphabet
    x = np.array([0.1, 0.6, 0.62, 0.3, 0.9, 0.2])
    if bad in ("nan", "inf", "too far"):
        x[2] = {"nan": math.nan, "inf": math.inf, "too far": 1e16}[bad]
    elif bad == "n <= k":
        x = x[:1]
    else:
        monkeypatch.setattr(projection, "MAX_TRELLIS_CELLS", len(x) * ab.size - 1)
    with pytest.raises(ValueError) as want:
        project_lagrangian(x, w, 1.0)
    with pytest.raises(type(want.value)) as got:
        project_constrained(x, w, 0.0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("jump", [2e307, 1e160])
def test_search_on_huge_jump_weights_matches_bruteforce(jump, monkeypatch):
    # every constant sequence costs 0, so a budget of 0 is feasible.  The
    # search used to take a third end, alpha = 2 * jump * n, which is inf
    # at 2e307 and scales the jump weight to inf at 1e160: both raised a
    # ValueError.  Its ends are now the alpha -> 0+ and minimum-cost passes
    w = stay_or_jump_table(4, 0.0, jump)
    w.w[0, 1] = 1.0
    x = np.array([0.1, 0.6, 0.62, 0.3, 0.9, 0.2])
    passes = count_viterbi_passes(monkeypatch)
    u = project_constrained(x, w, 0.0)
    assert u.tobytes() == project_bruteforce(x, w, gamma=0.0).tobytes()
    assert u.tolist() == [2] * 6 and complexity_cost(u, w) == 0.0
    assert passes[:2] == [1.0, 0.0] and set(passes[2:]) == {1.0}


def test_search_probe_whose_alpha_overflows_a_weight_matches_bruteforce(monkeypatch):
    # the ends tie at alpha = 1.25, and 1.25 * 1.7e308 is inf: the probe
    # minimises distortion / alpha + w, the same sequence, where it raised
    # "alpha = 1.25 scales a finite weight to inf"
    w = stay_or_jump_table(4, 0.0, 1.7e308)
    w.w[0, 1] = 1.0
    x = np.array([0.0, 0.0, 0.0, 0.75, 0.75, 0.75, 0.75])
    passes = count_viterbi_passes(monkeypatch)
    u = project_constrained(x, w, 0.5 / 6)
    with np.errstate(over="ignore"):  # the oracle's cost sums overflow
        expect = project_bruteforce(x, w, gamma=0.5 / 6)
    assert u.tobytes() == expect.tobytes() and u.tolist() == [2] * 7
    # the two ends, a probe at alpha ~ 1.3e-308, then the scaled probe
    assert passes == [1.0, 0.0, 1.0, 1.0 / 1.25]
    # n = 400 (alpha = 62.5 at jump 2e307): every jump costs at least
    # 1 > 0.5 = gamma * 399, so only the constant sequences fit, and the
    # constants 1 and 2 tie for the least distortion
    w.w[w.w > 1.0] = 2e307
    x = np.repeat([0.0, 0.75], 200)
    u = project_constrained(x, w, 0.5 / 399)
    constants = ((w.alphabet.values[:, None] - x) ** 2).sum(axis=1)
    assert len(set(u.tolist())) == 1
    assert ((w.alphabet.values[u] - x) ** 2).sum() == constants.min()


def test_constrained_starts_at_the_nearest_finite_cost_sequence(monkeypatch):
    # the recover_table kernel forbids the jumps 0 -> 3 and 3 -> 0 of the
    # rounding [0, 3, 3, 0, 0, 3]; the nearest sequence of finite cost is
    # within the budget, so the first pass ends the search
    root = Path(__file__).resolve().parents[1]
    config = json.loads((root / "configs" / "recover_table.json").read_text("utf-8"))
    w = weights_from_kernel(quantized_kernel(build_model(config["model"]), config["b"]))
    x = np.array([0.0, 0.8, 0.8, 0.1, 0.0, 0.9])
    assert math.isinf(complexity_cost(nearest_index(w.alphabet, x), w))
    passes = count_viterbi_passes(monkeypatch)
    u = project_constrained(x, w, 5.0)
    assert len(passes) == 1
    assert u.dtype == np.int64 and u.tolist() == [1, 2, 2, 1, 1, 2]


def test_recover_table_config_pass_count(monkeypatch):
    # the only shipped config whose table is not stay-or-jump: every PGD
    # iteration of its constrained projector runs the breakpoint search
    root = Path(__file__).resolve().parents[1]
    config = json.loads((root / "configs" / "recover_table.json").read_text("utf-8"))
    passes = count_viterbi_passes(monkeypatch)
    run_recover(config, jobs=1)
    assert len(passes) == 258


def test_viterbi_projectors_take_the_grid_of_their_table():
    # the grid is w.alphabet; a call that still passes an alphabet binds
    # nothing silently
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.1), 3))
    x = np.array([0.1, 0.12, 0.5, 0.52, 0.9])
    with pytest.raises(TypeError):
        project_lagrangian(x, w, w.alphabet, 0.5)
    with pytest.raises(TypeError):
        project_constrained(x, w, w.alphabet, 1.0)


def test_infeasible_carries_min_cost(rng):
    p, b = 0.25, 2
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    x = np.full(9, 0.8)
    with pytest.raises(InfeasibleProjection) as exc:
        project_constrained(x, w, -1.0)
    assert exc.value.min_cost == pytest.approx(
        -math.log2(1 - p + p * 2.0 ** -b), abs=1e-9
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("projector", ["lagrangian", "constrained", "l0"])
def test_projectors_reject_non_finite_input(projector, bad):
    # NaN used to raise a stray IndexError in the trellis (or return a
    # wrong sequence at k=0), inf was reported as InfeasibleProjection, and
    # project_l0 returned a wrong projection for either.  A finite 1e200
    # overflowed the squared distance to inf, with a RuntimeWarning and a
    # false InfeasibleProjection from the trellis
    x = np.array([0.1, 0.6, bad, 0.3, 0.9, 0.2])
    for w in (weights_from_kernel(quantized_kernel(SpikeSlab(0.3), 2)),
              weights_from_kernel(quantized_kernel(PiecewiseConstant(0.3), 2))):
        project = {
            "lagrangian": lambda: project_lagrangian(x, w, 0.5),
            "constrained": lambda: project_constrained(x, w, 0.5),
            "l0": lambda: project_l0(x, w.alphabet, 3),
        }[projector]
        if projector == "l0" and math.isfinite(bad):
            # project_l0 sums no squared distance: it keeps the huge coordinate
            assert project()[2] == w.alphabet.size - 1
            continue
        with pytest.raises(ValueError, match="finite") as exc:
            project()
        assert not isinstance(exc.value, InfeasibleProjection)


@pytest.mark.parametrize("source", [SpikeSlab(0.3), PiecewiseConstant(0.3)])  # k = 0, 1
def test_non_finite_alpha_and_nan_gamma_are_refused(source):
    # alpha=NaN used to return all zeros (alpha < 0 is False for NaN),
    # alpha=inf raised a misleading InfeasibleProjection, and gamma=NaN
    # returned the unconstrained rounding (cost > NaN is False).  A finite
    # alpha whose alpha * w overflows warned and forbade every such window
    x = np.array([0.1, 0.6, 0.62, 0.3, 0.9, 0.2])
    w = weights_from_kernel(quantized_kernel(source, 2))
    for alpha in (math.nan, math.inf, -math.inf, -0.5, 1e308):
        with pytest.raises(ValueError, match="alpha") as exc:
            project_lagrangian(x, w, alpha)
        assert not isinstance(exc.value, InfeasibleProjection)
    with pytest.raises(ValueError, match="gamma") as exc:
        project_constrained(x, w, math.nan)
    assert not isinstance(exc.value, InfeasibleProjection)
    # +inf means no budget: the alpha = 0 pass; -inf is a budget no
    # sequence meets
    assert np.array_equal(project_constrained(x, w, math.inf),
                          project_lagrangian(x, w, 0.0))
    with pytest.raises(InfeasibleProjection):
        project_constrained(x, w, -math.inf)


def test_project_l0_examples(rng):
    ab = build_alphabet(0, 1, 1)
    got = project_l0(np.array([0.1, 0.9]), ab, 1)
    assert list(got) == [0, 1]
    dist = float(((ab.values[got] - np.array([0.1, 0.9])) ** 2).sum())
    # oracle: enumerate all at-most-1-sparse grid candidates
    best = min(
        float(((ab.values[np.array(c)] - np.array([0.1, 0.9])) ** 2).sum())
        for c in [(0, 0), (1, 0), (0, 1)]
    )
    assert dist == pytest.approx(best, abs=1e-15) == pytest.approx(0.17, abs=1e-12)

    x = rng.uniform(0, 1, 10)
    ab2 = build_alphabet(0, 1, 3)
    assert np.array_equal(project_l0(x, ab2, 10), nearest_index(ab2, x))
    assert np.all(ab2.values[project_l0(x, ab2, 0)] == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("huge", [1e300, 1.7e308])
def test_project_l0_keeps_huge_coordinates(huge):
    # x^2 and the grid offset scaled by 2^b overflow at these sizes; the
    # huge coordinate still has the largest gain and must be kept
    ab01 = build_alphabet(0, 1, 2)
    assert list(project_l0(np.array([0.3, huge, 0.6, 0.9]), ab01, 1)) == [0, 3, 0, 0]
    assert list(project_l0(np.array([0.3, -huge, 0.6, 0.9]), ab01, 1)) == [0, 0, 0, 3]
    ab11 = build_alphabet(-1, 1, 2)
    assert list(project_l0(np.array([0.3, -huge, 0.6, 0.9]), ab11, 1)) == [4, 0, 4, 4]
    assert list(project_l0(np.array([0.3, huge, 0.6, 0.9]), ab11, 1)) == [4, 7, 4, 4]
    assert list(nearest_index(ab11, np.array([-huge, huge]))) == [0, 7]


def l0_by_stable_sort(x, ab, s):
    """project_l0's rule spelled out: every coordinate's nearest grid value,
    kept at the s largest gains, the earlier index first on a tie."""
    q = nearest_index(ab, x)
    v = ab.values[q]
    gains = v * (x - 0.5 * v)
    keep = np.argsort(-gains, kind="stable")[:s]
    out = np.full(len(x), ab.zero_index(), dtype=np.int64)
    out[keep] = q[keep]
    return out


@st.composite
def l0_stacks(draw):
    """A (T, n) stack for project_l0, a budget s and an alphabet.  Most
    stacks draw their coordinates from a small pool of grid values,
    midpoints and huge values, so gains tie exactly, within a row and
    across rows."""
    b = draw(st.integers(1, 3))
    ab = build_alphabet(draw(st.sampled_from([0.0, -1.0])), 1.0, b)
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    s = draw(st.integers(0, n))
    step = 2.0 ** -b
    pool = sorted({v * step for v in range(-2 ** b - 2, 2 ** b + 3)}
                  | {(v + 0.5) * step for v in range(-2, 3)}
                  | {1e300, -1e300, 1.7e308})
    coordinate = st.sampled_from(pool) | st.floats(-2.0, 2.0)
    x = draw(st.lists(coordinate, min_size=rows * n, max_size=rows * n))
    return np.array(x).reshape(rows, n), s, ab


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(l0_stacks())
@example((np.array([[0.25, 0.25, 0.25], [0.0, 0.75, 0.75]]), 0, build_alphabet(0, 1, 2)))
@example((np.array([[0.25, 0.25, 0.25], [0.0, 0.75, 0.75]]), 3, build_alphabet(0, 1, 2)))
@example((np.array([[0.3, 1e300, 0.6, 0.9], [0.3, -1e300, 0.6, 0.9]]), 1,
          build_alphabet(-1, 1, 2)))
def test_project_l0_projects_a_stack_row_by_row(case):
    x, s, ab = case
    got = project_l0(x, ab, s)
    assert got.shape == x.shape and got.dtype == np.int64
    for row, out in zip(x, got):
        assert np.array_equal(out, project_l0(row, ab, s))
        assert np.array_equal(out, l0_by_stable_sort(row, ab, s))


def test_project_l0_is_exact_constrained_projection(rng):
    # exhaustive oracle over all sequences with at most s nonzeros
    ab = build_alphabet(0, 1, 1)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        s = int(rng.integers(0, n + 1))
        x = rng.normal(0.4, 0.5, n)
        got = project_l0(x, ab, s)
        dist = float(((ab.values[got] - x) ** 2).sum())
        seqs = enumerate_sequences(ab.size, n)
        ok = (ab.values[seqs] != 0).sum(axis=1) <= s
        dists = ((ab.values[seqs] - x) ** 2).sum(axis=1)
        assert dist == pytest.approx(float(dists[ok].min()), abs=1e-12)
        assert np.count_nonzero(ab.values[got]) <= s


@st.composite
def rounding_cases(draw):
    """A stack or vector of coordinates and a grid of b <= 12 bits, some
    with lo < 0: grid values, midpoints, either one nudged by one ulp,
    points beyond the ends and huge values."""
    b = draw(st.integers(1, 12))
    lo = draw(st.sampled_from([0.0, -1.0, -0.375, 0.3]))
    ab = build_alphabet(lo, lo + draw(st.sampled_from([0.5, 1.0, 3.0])), b)
    half_steps = st.integers(-4, 2 * ab.size + 2)
    # values[0] + h/2 grid steps: a grid value for even h, a midpoint for odd h
    point = half_steps.map(lambda h: ab.values[0] + h * 2.0 ** -(b + 1))
    nudged = st.tuples(point, st.sampled_from([-math.inf, math.inf])).map(
        lambda pair: float(np.nextafter(*pair)))
    coordinate = (point | nudged | st.floats(lo - 1.0, lo + 4.0)
                  | st.sampled_from([1e300, -1e300, 1.7e308, -0.0, 5e-324]))
    shape = draw(st.sampled_from([(5,), (3, 4), (1, 1)]))
    size = int(np.prod(shape))
    x = np.array(draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(shape)
    return x, ab


@settings(max_examples=400, deadline=None)
@given(rounding_cases())
@example((  # t = -1/2 + 2^-54: 1 + t, the fraction, rounds to 1/2
    np.array([np.nextafter(-0.25, 0.0)]), build_alphabet(-0.5, 0.5, 1)))
def test_nearest_index_equals_rounding_by_distance(case):
    x, ab = case
    q = nearest_index(ab, x)
    assert q.dtype == np.int64
    assert q.tobytes() == nearest_index_by_distance(ab, x).tobytes()
    # project_l0 takes its values from the same rounding, not from values[q]
    assert projection._nearest(ab, x)[1].tobytes() == ab.values[q].tobytes()


def test_lagrangian_refuses_a_coordinate_too_far_from_the_grid():
    # at 1e16 every grid value of [0, 1) is at one squared distance in
    # floats, and alpha = 0 rounded coordinate 0 to symbol 0 instead of 3
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.3), 2))
    with pytest.raises(ValueError, match="too large") as exc:
        project_lagrangian(np.array([1e16, 0.5, 0.2, 0.9]), w, 0.0)
    assert not isinstance(exc.value, InfeasibleProjection)
    # below 2^52 grid steps (2^50 at b = 2) alpha = 0 still is the nearest rounding
    for far in (2.0 ** 46, -2.0 ** 46, 2.0 ** 50 - 2.0 ** 3):
        x = np.array([far, 0.5, 0.2, 0.9])
        assert np.array_equal(project_lagrangian(x, w, 0.0),
                              nearest_index(w.alphabet, x))


def test_bruteforce_guards():
    ab = build_alphabet(0, 1, 3)
    with pytest.raises(ProblemTooLarge):
        enumerate_sequences(ab.size, 12)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.5), 3))
    with pytest.raises(ValueError):
        project_bruteforce(np.zeros(3), w)  # neither gamma nor alpha


def test_single_coordinate_bruteforce(rng):
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.5), 2))
    ab = w.alphabet
    x = np.array([0.6])
    got = project_bruteforce(x, w, gamma=math.inf)
    assert ab.values[got[0]] == ab.values[nearest_index(ab, x)[0]]


def test_runtime_scales_linearly_in_n(rng):
    w = random_weight_table(rng, 4, 1)
    xs = [rng.normal(0.5, 0.4, n) for n in (2 ** 10, 2 ** 11, 2 ** 12)]
    for x in xs:
        project_lagrangian(x, w, 0.3)  # warm up allocation paths
    # interleaved rounds; each ratio pairs back-to-back samples of one round,
    # so a slow phase of the host slows both of its sides, and the median
    # over the rounds drops a round that a phase change split.  A sample is
    # 5 back-to-back calls, over 20 ms at n = 2^10 (about 4.6 ms a call on
    # one Xeon core), so a scheduler stall of a few ms moves a ratio by far
    # less than the 25 % between 2.0 and the bound
    ratios = []
    for _ in range(7):
        times = []
        for x in xs:
            t0 = time.perf_counter()
            for _ in range(5):
                project_lagrangian(x, w, 0.3)
            times.append(time.perf_counter() - t0)
        ratios.append([times[1] / times[0], times[2] / times[1]])
    r11, r12 = np.median(ratios, axis=0)
    assert r11 < 2.5
    assert r12 < 2.5


@pytest.mark.parametrize("n", [2 ** 10, 2 ** 11, 2 ** 12])
@pytest.mark.parametrize("table", [
    pytest.param(f"dense k={k}", id=f"dense k={k}-_dense_step") for k in (1, 2)
])
def test_one_pass_hands_each_position_to_its_step_once(table, n, monkeypatch):
    # the deterministic side of test_runtime_scales_linearly_in_n: the work
    # of one pass is its step's work on positions k..n-1, each taken once
    rng = np.random.default_rng(n)
    w = random_weight_table(rng, 4, int(table[-1]))
    ab = w.alphabet
    x = rng.normal(0.5, 0.4, n)
    calls = spy_step(monkeypatch)
    project_lagrangian(x, w, 0.3)
    assert all(0 < len(dist) <= projection.VITERBI_BLOCK for dist in calls)
    # blocks come from the back; each row is the distortion of one position
    handed = np.concatenate(calls[::-1])
    assert handed.tobytes() == ((ab.values[None, :] - x[w.k:, None]) ** 2).tobytes()


HALVES = build_alphabet(0.0, 1.0, 1)  # {0, 0.5}


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: project_lagrangian(np.zeros(3), WeightTable(HALVES, np.zeros((2,) * 3)),
                                            1.0),
                 ProblemTooLarge, "trellis needs 2^2 states; limit is 2", id="states"),
    # alpha > 0 keeps the +inf weights; alpha = 0 erases them
    pytest.param(lambda: project_lagrangian(np.zeros(2), WeightTable(HALVES, np.full(2, math.inf)),
                                            1.0),
                 InfeasibleProjection, "every symbol is forbidden at some position",
                 id="forbidden"),
    pytest.param(lambda: project_l0(np.zeros(3), HALVES, 4), ValueError,
                 "need 0 <= s <= 3, got 4", id="l0-s"),
    pytest.param(lambda: project_l0(np.zeros(3), build_alphabet(0.5, 1.0, 2), 1), ValueError,
                 "alphabet does not contain 0", id="l0-zero"),
])
def test_refusals_name_their_cause(call, error, message, monkeypatch):
    # a limit the 4 states of a binary k=2 table exceed, so the refusal
    # needs no table of 2^21 states; no other case reaches it
    monkeypatch.setattr(projection, "MAX_STATES", 2)
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
