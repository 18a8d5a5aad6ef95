import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel, random_weight_table
from oracles import (
    cond_empirical_entropy,
    count_jumps,
    k_type,
    kl_divergence,
    weight_gap,
)
from qmap.quantize import quantize_vector
from qmap.sources import (
    PiecewiseConstant,
    SpikeSlab,
    complexity_cost,
    cond_entropy,
    quantized_kernel,
    sample_path,
    weights_from_kernel,
)


def naive_window_counts(u, k):
    """Brute-force double-loop counting oracle for the (k+1)-type."""
    counts = {}
    for i in range(k, len(u)):
        key = tuple(int(v) for v in u[i - k: i + 1])
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_k_type_examples():
    kt = k_type(np.array([0, 0, 1]), 0)
    assert kt.probs() == {(0,): 2 / 3, (1,): 1 / 3}
    kt = k_type(np.array([0, 1, 0, 1]), 1)
    assert kt.probs() == {(0, 1): 2 / 3, (1, 0): 1 / 3}


def test_k_type_matches_naive_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(5, 40))
        u = rng.integers(0, 4, n)
        k = int(rng.integers(0, min(3, n - 1)))
        kt = k_type(u, k)
        assert kt.counts == naive_window_counts(u, k)
        assert sum(kt.counts.values()) == n - k
        assert sum(kt.probs().values()) == pytest.approx(1.0, abs=1e-12)


def test_k_type_marginal_consistency(rng):
    # dropping the last window symbol counts the length-k windows of u[:-1]
    for _ in range(20):
        n = int(rng.integers(6, 30))
        u = rng.integers(0, 3, n)
        k = int(rng.integers(1, 4))
        if n <= k:
            continue
        marginal = k_type(u, k).context_counts()
        expect = naive_window_counts(u[:-1], k - 1)
        assert marginal == expect


def test_k_type_rejects_short_input():
    with pytest.raises(ValueError):
        k_type(np.array([0, 1]), 2)


def test_complexity_cost_all_zeros():
    b, p = 3, 0.3
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    u = np.zeros(10, dtype=np.int64)
    assert complexity_cost(u, w) == pytest.approx(
        -math.log2((1 - p) + p * 2.0 ** -b), abs=1e-12
    )


def test_spike_slab_cost_identity(rng):
    # c_w(u) + log2(1-p+p 2^-b) == (||u||_0 / n) * weight gap, for every u
    p, b = 0.23, 4
    w = weights_from_kernel(quantized_kernel(SpikeSlab(p), b))
    gap = weight_gap(p, b)
    const = math.log2(1 - p + p * 2.0 ** -b)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        u = rng.integers(0, 2 ** b, n)
        s = int(np.count_nonzero(u))
        assert complexity_cost(u, w) + const == pytest.approx(
            s / n * gap, abs=1e-10
        )


def test_pc_markov_cost_identity(rng):
    # c_w(u) == gap * N_J/(n-1) - log2(1-p+p 2^-b), for every u
    p, b = 0.4, 3
    w = weights_from_kernel(quantized_kernel(PiecewiseConstant(p), b))
    gap = weight_gap(p, b)
    const = math.log2(1 - p + p * 2.0 ** -b)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        u = rng.integers(0, 2 ** b, n)
        expect = gap * count_jumps(u) / (n - 1) - const
        assert complexity_cost(u, w) == pytest.approx(expect, abs=1e-10)


def test_cost_decomposition_identity(rng):
    # c_w(u) = empirical conditional entropy + context-weighted KL to the kernel
    for _ in range(60):
        k = int(rng.integers(0, 3))
        kern = random_kernel(rng, 3, k)
        w = weights_from_kernel(kern)
        n = int(rng.integers(k + 2, 60))
        u = rng.integers(0, 3, n)
        kt = k_type(u, k)
        ctx_counts = kt.context_counts()
        total = kt.total
        kl_term = 0.0
        for ctx, c_ctx in ctx_counts.items():
            phat = {a: kt.counts.get(ctx + (a,), 0) / c_ctx for a in range(3)}
            q = {a: kern.cond[ctx][a] for a in range(3)}
            kl_term += (c_ctx / total) * kl_divergence(phat, q)
        expect = cond_empirical_entropy(u, k) + kl_term
        assert complexity_cost(u, w) == pytest.approx(expect, abs=1e-10)
        assert complexity_cost(u, w) >= cond_empirical_entropy(u, k) - 1e-12


def test_cost_infinite_on_forbidden_window(rng):
    w = random_weight_table(rng, 3, 1)
    w.w[0, 1] = math.inf
    u = np.array([0, 1, 2])
    assert complexity_cost(u, w) == math.inf


def window_loop_cost(u, w):
    """The cost as a loop over the k-type's windows in first-occurrence order."""
    kt = k_type(u, w.k)
    total = 0.0
    for key, c in kt.counts.items():
        weight = float(w.w[key])
        if math.isinf(weight):
            return math.inf
        total += weight * c
    return total / kt.total


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    k=st.sampled_from([0, 1, 2]),
    size=st.integers(1, 64),
    used=st.integers(1, 64),
    extra=st.integers(0, 300),
    inf_frac=st.sampled_from([0.0, 0.02, 0.3]),
)
def test_complexity_cost_equals_window_loop(seed, k, size, used, extra, inf_frac):
    # equality, not approx: the projectors compare the cost against gamma
    rng = np.random.default_rng(seed)
    w = random_weight_table(rng, size, k, inf_frac)
    u = rng.integers(0, min(used, size), k + 1 + extra)
    assert complexity_cost(u, w) == window_loop_cost(u, w)


def test_complexity_cost_rejects_bad_symbols():
    w = random_weight_table(np.random.default_rng(0), 3, 1)
    with pytest.raises(ValueError, match="symbols"):
        complexity_cost(np.array([0, 3, 1]), w)
    with pytest.raises(ValueError, match="symbols"):
        complexity_cost(np.array([0, -1, 1]), w)
    with pytest.raises(ValueError, match="no windows"):
        complexity_cost(np.array([0]), w)


def test_cond_empirical_entropy_examples(rng):
    assert cond_empirical_entropy(np.zeros(7, dtype=int), 1) == 0.0
    assert cond_empirical_entropy(np.array([0, 1] * 4), 0) == pytest.approx(1.0)
    # oracle: H(windows) - H(contexts) over the same counts
    for _ in range(40):
        n = int(rng.integers(5, 50))
        k = int(rng.integers(0, 3))
        u = rng.integers(0, 3, n)
        kt = k_type(u, k)
        total = kt.total

        def entropy(counts):
            return -sum(
                c / total * math.log2(c / total) for c in counts.values() if c
            )

        expect = entropy(kt.counts) - entropy(kt.context_counts())
        got = cond_empirical_entropy(u, k)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got >= -1e-12


def test_count_jumps():
    assert count_jumps(np.array([0, 0, 1, 1, 0])) == 2
    assert count_jumps(np.zeros(9, dtype=int)) == 0
    assert count_jumps(np.array([0, 1] * 6)) == 11
    with pytest.raises(ValueError):
        count_jumps(np.array([3]))


def test_distances_at_equal_distributions(rng):
    p = {0: 0.2, 1: 0.5, 2: 0.3}
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence({0: 1.0}, {0: 0.5, 1: 0.5}) == pytest.approx(1.0)
    assert kl_divergence({0: 0.5, 1: 0.5}, {0: 1.0}) == math.inf


def test_kl_l1_lemma(rng):
    # D(p||q) <= -eps log2 eps + eps log2 |U| - eps log2 q_min when p << q
    size = 5
    for _ in range(100):
        q = rng.exponential(1.0, size) + 0.05
        q /= q.sum()
        noise = rng.uniform(-1, 1, size) * 0.04
        p = np.clip(q + noise - noise.mean() / size, 1e-6, None)
        p /= p.sum()
        pd = dict(enumerate(p))
        qd = dict(enumerate(q))
        eps = float(np.abs(p - q).sum())
        if eps == 0.0 or eps > 0.5:
            continue
        q_min = q.min()
        bound = -eps * math.log2(eps) + eps * math.log2(size) - eps * math.log2(q_min)
        assert kl_divergence(pd, qd) <= bound + 1e-12


def test_entropy_continuity_lemma(rng):
    # |H(p) - H(q)| <= -eps log2 eps + eps log2 |U| for small l1 distance
    size = 6
    for _ in range(100):
        q = rng.dirichlet(np.ones(size))
        p = rng.dirichlet(np.ones(size))
        lam = rng.uniform(0.9, 1.0)
        p = lam * q + (1 - lam) * p
        eps = float(np.abs(p - q).sum())
        if eps == 0.0 or eps > 0.5:
            continue

        def entropy(d):
            return -sum(v * math.log2(v) for v in d if v > 0)

        bound = -eps * math.log2(eps) + eps * math.log2(size)
        assert abs(entropy(p) - entropy(q)) <= bound + 1e-12


def test_cost_converges_to_entropy_monte_carlo():
    # c_w([X^n]_b)/b approaches H/b for model samples at n = 2^14
    n, b = 2 ** 14, 3
    model = PiecewiseConstant(0.25)
    kern = quantized_kernel(model, b)
    w = weights_from_kernel(kern)
    ab = kern.alphabet
    vals = []
    for seed in range(5):
        u = quantize_vector(sample_path(model, n, 900 + seed), ab)
        vals.append(complexity_cost(u, w) / b)
    target = cond_entropy(kern) / b
    assert abs(float(np.mean(vals)) - target) < 0.05
