import math
import time

import numpy as np
import pytest

from conftest import random_weight_table
from qmap.empirics import complexity_cost
from qmap.projection import (
    InfeasibleProjection,
    ProblemTooLarge,
    enumerate_sequences,
    nearest_index,
    project_bruteforce,
    project_constrained,
    project_l0,
    project_lagrangian,
)
from qmap.quantize import build_alphabet
from qmap.sources import SpikeSlab, quantized_kernel, weight_gap, weights_from_kernel


def lagrangian_objective(x, u, w, alphabet, alpha):
    dist = float(((alphabet.values[u] - x) ** 2).sum())
    if alpha == 0.0:
        return dist
    raw = sum(w[tuple(u[i - w.k: i + 1])] for i in range(w.k, len(u)))
    return dist + alpha * raw


def test_alpha_zero_is_nearest_rounding(rng):
    ab = build_alphabet(0, 1, 2)
    w = random_weight_table(rng, 4, 1, inf_frac=0.3)
    w2 = random_weight_table(rng, 4, 1)
    w2.w[:] = np.inf  # all transitions forbidden; alpha=0 must not care
    x = np.array([0.1, 0.9, 0.49, 0.26, 0.125])
    expect = nearest_index(ab, x)
    assert np.array_equal(project_lagrangian(x, w, ab, 0.0), expect)
    assert np.array_equal(project_lagrangian(x, w2, ab, 0.0), expect)
    # exact midpoint ties resolve to the lower value
    assert project_lagrangian(np.array([0.125, 0.3]), w, ab, 0.0)[0] == 0


def test_grid_sequence_is_fixed_point_for_small_alpha(rng):
    ab = build_alphabet(0, 1, 2)
    w = random_weight_table(rng, 4, 1)
    u = rng.integers(0, 4, 12)
    x = ab.values[u]
    got = project_lagrangian(x, w, ab, 1e-9)
    assert np.array_equal(got, u)


def test_lagrangian_matches_bruteforce(rng):
    for trial in range(80):
        n = int(rng.integers(3, 9))
        size = int(rng.integers(2, 4))
        k = int(rng.integers(0, 3))
        if n <= k:
            continue
        w = random_weight_table(rng, size, k, inf_frac=0.2)
        x = rng.normal(0.3, 0.6, n)
        alpha = float(rng.exponential(0.5))
        u_dp = project_lagrangian(x, w, w.alphabet, alpha)
        u_bf = project_bruteforce(x, w, w.alphabet, alpha=alpha)
        o_dp = lagrangian_objective(x, u_dp, w, w.alphabet, alpha)
        o_bf = lagrangian_objective(x, u_bf, w, w.alphabet, alpha)
        assert abs(o_dp - o_bf) < 1e-12
        assert np.array_equal(u_dp, u_bf)


def test_all_forbidden_raises(rng):
    w = random_weight_table(rng, 3, 1)
    w.w[:] = np.inf
    with pytest.raises(InfeasibleProjection):
        project_lagrangian(np.array([0.1, 0.2, 0.3]), w, w.alphabet, 0.5)


def test_constrained_returns_rounding_when_feasible(rng):
    p, b = 0.3, 2
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    ab = w.alphabet
    x = rng.uniform(0, 1, 12)
    u0 = project_lagrangian(x, w, ab, 0.0)
    gamma = complexity_cost(u0, w) + 1e-9
    assert np.array_equal(project_constrained(x, w, ab, gamma), u0)


def test_constrained_feasibility_and_sweep_monotonicity(rng):
    p, b = 0.15, 3
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    ab = w.alphabet
    for _ in range(10):
        x = rng.uniform(0, 1, 24)
        gamma = float(rng.uniform(0.3, 1.2))
        try:
            u, info = project_constrained(x, w, ab, gamma, full_output=True)
        except InfeasibleProjection:
            continue
        assert complexity_cost(u, w) <= gamma
        # distortion nondecreasing and cost nonincreasing along an alpha grid
        alphas = np.linspace(0.0, 2.0, 9)
        dists, costs = [], []
        for a in alphas:
            ua = project_lagrangian(x, w, ab, float(a))
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
        u_c = project_constrained(x, w, ab, gamma)
        u_l0 = project_l0(x, ab, s)
        d_c = float(((ab.values[u_c] - x) ** 2).sum())
        d_l0 = float(((ab.values[u_l0] - x) ** 2).sum())
        assert d_c == pytest.approx(d_l0, abs=1e-12)
        assert np.count_nonzero(ab.values[u_c]) <= s


def test_constrained_vs_exhaustive_at_toy_scale(rng):
    # the bisection sweep attains the exhaustive constrained optimum except
    # on duality-gap instances, which are recorded and excluded
    gaps = 0
    for _ in range(40):
        n = int(rng.integers(3, 7))
        w = random_weight_table(rng, 3, 1, inf_frac=0.1)
        x = rng.normal(0.4, 0.5, n)
        gamma = float(rng.uniform(0.5, 2.0))
        try:
            u_bf = project_bruteforce(x, w, w.alphabet, gamma=gamma)
        except InfeasibleProjection:
            with pytest.raises(InfeasibleProjection):
                project_constrained(x, w, w.alphabet, gamma)
            continue
        u_sw = project_constrained(x, w, w.alphabet, gamma)
        d_bf = float(((w.alphabet.values[u_bf] - x) ** 2).sum())
        d_sw = float(((w.alphabet.values[u_sw] - x) ** 2).sum())
        assert complexity_cost(u_sw, w) <= gamma
        assert d_sw >= d_bf - 1e-12
        if d_sw > d_bf + 1e-9:
            gaps += 1  # Lagrangian path skipped the constrained optimum
    assert gaps < 20  # the sweep attains the optimum on most instances


def test_infeasible_carries_min_cost(rng):
    p, b = 0.25, 2
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    x = np.full(9, 0.8)
    with pytest.raises(InfeasibleProjection) as exc:
        project_constrained(x, w, w.alphabet, -1.0)
    assert exc.value.min_cost == pytest.approx(
        -math.log2(1 - p + p * 2.0 ** -b), abs=1e-9
    )


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


def test_bruteforce_guards():
    ab = build_alphabet(0, 1, 3)
    with pytest.raises(ProblemTooLarge):
        enumerate_sequences(ab.size, 12)
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.5), 3))
    with pytest.raises(ValueError):
        project_bruteforce(np.zeros(3), w, ab)  # neither gamma nor alpha


def test_single_coordinate_bruteforce(rng):
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.5), 2))
    ab = w.alphabet
    x = np.array([0.6])
    got = project_bruteforce(x, w, ab, gamma=math.inf)
    assert ab.values[got[0]] == ab.values[nearest_index(ab, x)[0]]


def test_runtime_scales_linearly_in_n(rng):
    w = random_weight_table(rng, 4, 1)
    ab = w.alphabet
    xs = [rng.normal(0.5, 0.4, n) for n in (2 ** 10, 2 ** 11, 2 ** 12)]
    for x in xs:
        project_lagrangian(x, w, ab, 0.3)  # warm up allocation paths
    # interleaved rounds, so a slow phase of the host slows every size alike
    best = [math.inf] * len(xs)
    for _ in range(7):
        for j, x in enumerate(xs):
            t0 = time.perf_counter()
            project_lagrangian(x, w, ab, 0.3)
            best[j] = min(best[j], time.perf_counter() - t0)
    t10, t11, t12 = best
    assert t11 / t10 < 2.5
    assert t12 / t11 < 2.5
