import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel
from qmap.quantize import quantize_vector
from qmap.sources import (
    PiecewiseConstant,
    SpikeSlab,
    TableMarkov,
    ktuple_law,
    quantized_kernel,
    sample_paths,
)
from qmap.validation import (
    REJECT_LEVEL,
    TailEstimate,
    binomial_tail,
    chi_square_lower_bound,
    chi_square_tail,
    chi_square_upper_bound,
    f_exponent,
    f_minimax,
    gaussian_projection_check,
    inner_product_bound,
    inner_product_tail,
    mc_empirical_deviation,
    normal_cdf,
    type_deviation_bound,
)


def test_chi_square_bound_values():
    # e^{-5 (1 - ln 2)} for m=10, tau=1
    assert chi_square_upper_bound(10, 1.0) == pytest.approx(
        math.exp(-5 * (1 - math.log(2))), abs=1e-15
    )
    assert chi_square_lower_bound(10, 1.0) == 0.0
    # tau -> 0 makes both bounds trivial
    assert chi_square_upper_bound(10, 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert chi_square_lower_bound(10, 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_chi_square_tail_estimates():
    upper, lower = chi_square_tail(10, 1.0, 100_000, 5)
    assert upper.estimate <= upper.bound
    assert upper.bound == pytest.approx(0.21566, abs=1e-4)
    assert lower.estimate == 0.0
    assert upper.ci_low <= upper.estimate <= upper.ci_high
    up2, lo2 = chi_square_tail(1000, 0.2, 100_000, 6)
    assert up2.estimate <= up2.bound
    assert lo2.estimate <= lo2.bound
    # determinism
    again, _ = chi_square_tail(10, 1.0, 100_000, 5)
    assert again.hits == upper.hits


def test_inner_product_bound_and_corollary():
    for alpha in (-0.5, 0.0, 0.5):
        b = inner_product_bound(alpha, 0.45, 50)
        assert b <= 2.0 ** (-0.05 * 50) + 1e-12
    est = inner_product_tail(0.0, 50, 0.45, 100_000, 3)
    assert est.estimate <= est.bound
    assert est.params["flat_bound"] == pytest.approx(2.0 ** -2.5)


def test_chi_square_tail_blocks_match_one_draw():
    # 100003 trials fit one block of chi-square draws; a million take 4
    for m, tau, trials, seed in ((7, 0.5, 100_003, 2), (100, 0.2, 1_000_003, 11)):
        sums = np.random.default_rng(seed).chisquare(m, trials)
        upper, lower = chi_square_tail(m, tau, trials, seed)
        assert upper.hits == int((sums > m * (1.0 + tau)).sum())
        assert lower.hits == int((sums < m * (1.0 - tau)).sum())


@pytest.mark.parametrize("m, tau, trials", [(7, 0.5, 2003), (100, 0.2, 1001)])
def test_chi_square_tail_does_not_depend_on_the_block(m, tau, trials, monkeypatch):
    import qmap.validation as validation

    results = []
    for block in (1, 7, validation._BLOCK):
        monkeypatch.setattr(validation, "_BLOCK", block)
        results.append([e.to_json() for e in chi_square_tail(m, tau, trials, 3)])
    assert results[0] == results[1] == results[2]
    assert results[0][0]["hits"] > 0


@pytest.mark.parametrize("alpha, m", [(-0.5, 20), (0.5, 3)])
def test_inner_product_tail_does_not_depend_on_the_block(alpha, m, monkeypatch):
    import qmap.validation as validation

    # below the stream's period of 2^18 trials, whose chi-square draws all
    # come before its normals
    trials = 5003
    results = []
    for block in (1, 7, validation._BLOCK):
        monkeypatch.setattr(validation, "_BLOCK", block)
        results.append(inner_product_tail(alpha, m, 0.45, trials, 12).to_json())
    assert results[0] == results[1] == results[2]
    assert results[0]["hits"] > 0


def _inner_product_tail_exact(alpha, m, tau):
    # P(alpha Q + sqrt(1 - alpha^2) sqrt(Q) G <= m (alpha - tau)) with
    # Q ~ chi-square(m) and G ~ N(0, 1), by quadrature over Q
    from scipy import integrate, stats

    root = math.sqrt(1.0 - alpha ** 2)

    def integrand(q):
        z = (m * (alpha - tau) - alpha * q) / (root * math.sqrt(q))
        return stats.chi2.pdf(q, m) * stats.norm.cdf(z)

    value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-13, limit=200)
    return value


@pytest.mark.parametrize("alpha, m", [(a, m) for m in (20, 50) for a in (-0.5, 0.0, 0.5)])
def test_inner_product_tail_matches_exact_law(alpha, m):
    trials = 10 ** 6
    p = _inner_product_tail_exact(alpha, m, 0.45)
    est = inner_product_tail(alpha, m, 0.45, trials, 2024)
    assert abs(est.hits - trials * p) <= 4.0 * math.sqrt(trials * p * (1.0 - p))


def test_inner_product_tail_repeats_across_a_block_boundary():
    trials = 2 ** 18 + 3
    first = inner_product_tail(0.0, 20, 0.45, trials, 5)
    assert first.hits == inner_product_tail(0.0, 20, 0.45, trials, 5).hits


def test_inner_product_alpha_one_reduces_to_chi_square():
    # with u = v the statistic is a scaled chi-square; compare the two
    # Monte Carlo estimates of the same lower-tail event
    m, tau, trials = 30, 0.3, 60_000
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((trials, m))
    stat = (xs * xs).mean(axis=1)
    direct = float((stat - 1.0 <= -tau).mean())
    _, lower = chi_square_tail(m, tau, trials, 9)
    assert abs(direct - lower.estimate) < 0.01
    with pytest.raises(ValueError):
        inner_product_tail(1.0, 10, 0.1, 10, 0)


def test_f_exponent_vanishes_at_small_s():
    for alpha in (-0.9, 0.0, 0.7):
        assert abs(float(f_exponent(alpha, 1e-12))) < 1e-9


def test_f_max_at_alpha_045_matches_dense_scan():
    # cross-check one column against a fine 1e-6 grid scan
    alpha = 0.45
    s_hi = 1.0 / (1.0 - alpha)
    fine = np.arange(1e-6, s_hi, 1e-6)
    expect = float(f_exponent(alpha, fine).max())
    from qmap.validation import _max_over_s

    got = _max_over_s(alpha, np.linspace(1e-4, 1 - 1e-4, 1000))
    assert got == pytest.approx(expect, abs=1e-7)


def test_f_minimax_threshold():
    value = f_minimax()
    assert value >= 0.05
    with pytest.raises(ValueError):
        f_minimax(alpha_grid=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        f_minimax(s_grid=np.array([0.0, 0.5]))


def test_gaussian_projection_check():
    from scipy.special import ndtr

    for n in (2, 100):
        est = gaussian_projection_check(n, 10_000, 4)
        assert est.estimate < 0.02
        assert abs(est.params["correlation"]) < 0.03
        assert abs(est.params["mean"]) < 0.05
        assert abs(est.params["variance"] - 1.0) < 0.1
        assert est.respects_bound
        # Dvoretzky-Kiefer-Wolfowitz-Massart for the KS distance, a normal
        # test for the correlation
        assert est.p_value == min(1.0, 2.0 * math.exp(-2.0 * 10_000 * est.estimate ** 2))
        corr = est.params["correlation"]
        assert est.params["correlation_p_value"] == pytest.approx(
            2.0 * ndtr(-abs(corr) * 100.0), rel=1e-14)


def test_gaussian_projection_check_refuses_fewer_than_two_trials():
    # one trial has no correlation: np.corrcoef warned and the report wrote
    # correlation null with respects_bound false
    with pytest.raises(ValueError, match="trials >= 2"):
        gaussian_projection_check(2, 1, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        gaussian_projection_check(1, 10, 1)
    assert gaussian_projection_check(2, 2, 1).trials == 2


@pytest.mark.parametrize("n, trials", [(3, 2001), (70, 301)])
def test_gaussian_projection_does_not_depend_on_the_block(n, trials, monkeypatch):
    import qmap.validation as validation

    results = []
    # one row, five rows, all rows per block; n = 70 > 64 takes one row
    for block in (1, 5 * n, 64, validation._BLOCK):
        monkeypatch.setattr(validation, "_BLOCK", block)
        results.append(gaussian_projection_check(n, trials, 7).to_json())
    assert all(r == results[0] for r in results[1:])


def test_normal_cdf_matches_scipy():
    from scipy.special import ndtr

    x = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                        np.random.default_rng(0).normal(scale=3.0, size=100_000)])
    assert np.abs(normal_cdf(x) - ndtr(x)).max() <= 4.5e-16
    assert float(normal_cdf(0.0)) == 0.5


@st.composite
def binomial_cases(draw):
    trials = draw(st.integers(1, 100_000))
    p = draw(st.one_of(st.just(0.0), st.floats(1e-300, 1.0),
                       st.sampled_from([1e-12, 1e-6, 0.5, 1.0 - 1e-9])))
    sd = math.sqrt(trials * p * (1.0 - p))
    near = round(trials * p + draw(st.floats(-40.0, 40.0)) * sd) + draw(st.integers(-2, 2))
    hits = draw(st.one_of(st.integers(0, trials), st.just(min(max(near, 0), trials))))
    return hits, trials, p


@settings(max_examples=300, deadline=None)
@given(case=binomial_cases())
def test_binomial_tail_matches_scipy(case):
    from scipy.stats import binom

    hits, trials, p = case
    expect = float(binom.sf(hits - 1, trials, p))
    if expect == 0.0:
        # binom.sf returns 0 for some tails far above the smallest double,
        # e.g. 1080 hits of 1112 at 1/2 (1.34e-273); the pmf sum does not
        expect = float(binom.pmf(np.arange(hits, trials + 1), trials, p).sum())
    # the lgamma terms of the first summand are off by up to about
    # trials * log(trials) units in the last place: 2e-10 at 1e5 trials
    assert binomial_tail(hits, trials, p) == pytest.approx(expect, rel=1e-8, abs=1e-300)


@pytest.mark.parametrize("hits, trials, p", [
    (0, 10, 0.0), (1, 10, 0.0), (10, 10, 0.0),  # bound 0: chi_square_lower_bound at tau >= 1
    (0, 10, 0.3), (10, 10, 0.3), (10, 10, 0.01), (1, 10, 1e-12), (1, 1, 0.5),
    # tails between 1e-308 and 1e-300
    (1000, 1000, 0.5), (576, 1000, 0.1), (24817, 100_000, 0.2), (346, 2000, 0.01),
])
def test_binomial_tail_edges_match_scipy(hits, trials, p):
    from scipy.stats import binom

    expect = float(binom.sf(hits - 1, trials, p))
    assert binomial_tail(hits, trials, p) == pytest.approx(expect, rel=1e-8, abs=0.0)


def test_binomial_tail_outside_the_unit_interval_and_below_the_doubles():
    # a bound at or above 1 is never rejected, whatever the hits
    for bound in (1.0, 5.0, math.inf):
        assert binomial_tail(10, 10, bound) == 1.0
    # far below the smallest double: 0, not NaN
    assert binomial_tail(100_000, 100_000, 1e-6) == 0.0
    assert binomial_tail(5_000, 100_000, 1e-6) == 0.0


def test_tail_estimate_is_rejected_only_below_the_level():
    # P(Bin(10, 0.5) >= 9) = 11 / 1024 is not small enough to reject
    assert TailEstimate("x", 10, 9, 0.9, 0.7, 1.0, bound=0.5).respects_bound
    # 5 hits in 100000 trials at bound 1e-6 have probability 7.7e-8
    est = TailEstimate("x", 100_000, 5, 5e-5, 0.0, 1.0, bound=1e-6)
    assert est.p_value <= REJECT_LEVEL and not est.respects_bound
    assert not TailEstimate("x", 10, 0, 0.0, 0.0, 1.0, bound=0.5, p_value=1.0,
                            extra_ok=False).respects_bound


def test_mc_empirical_deviation_impossible_epsilon():
    est = mc_empirical_deviation(SpikeSlab(0.3), 64, 1, 2, 2.5, 200, 12)
    assert est.estimate == 0.0


def test_mc_empirical_deviation_decreases_with_n():
    estimates = []
    for n in (2 ** 8, 2 ** 10, 2 ** 12):
        est = mc_empirical_deviation(PiecewiseConstant(0.2), n, 1, 3, 0.1, 400, 99)
        estimates.append(est.estimate)
    slack = 3 * math.sqrt(0.25 / 400)
    assert all(a >= b - slack for a, b in zip(estimates, estimates[1:]))
    assert estimates[0] > estimates[-1] - slack


# a 3-symbol table chain: an alphabet size that is not a power of 2
TABLE = TableMarkov(random_kernel(np.random.default_rng(5), 3, 1))
MODELS = {
    "spike_slab": (SpikeSlab(0.3), 2),
    "pc_p0": (PiecewiseConstant(0.0), 2),
    "pc_p0.2": (PiecewiseConstant(0.2), 2),
    "pc_p1": (PiecewiseConstant(1.0), 2),
    "table": (TABLE, 2),
}


def _per_path_hits(model, n, k, b, epsilon, trials, seed):
    # one path at a time, its k-windows counted by a Counter; the l1
    # distance is summed as mc_empirical_deviation sums a row
    kernel = quantized_kernel(model, b)
    mu = ktuple_law(kernel, k)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        path = sample_paths(model, n, 1, rng)[0]
        symbols = quantize_vector(path, kernel.alphabet).tolist()
        counts = Counter(tuple(symbols[i: i + k]) for i in range(n - k + 1))
        emp = np.array([counts[t] for t in np.ndindex(mu.shape)]) / (n - k + 1)
        hits += np.abs(emp - mu.ravel()).sum() >= epsilon
    return hits


@pytest.mark.parametrize("n, k, epsilon, trials", [
    (2 ** 17, 1, 0.0125, 5),  # one path per block
    (300, 0, 0.35, 200),
    (300, 1, 0.35, 200),
])
def test_mc_empirical_deviation_equals_per_path_loop(n, k, epsilon, trials):
    model, b, seed = PiecewiseConstant(0.2), 3, 17
    assert (mc_empirical_deviation(model, n, k, b, epsilon, trials, seed).hits
            == _per_path_hits(model, n, k, b, epsilon, trials, seed))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("size", ["k+1", 120])
def test_mc_empirical_deviation_equals_per_path_loop_for_every_model(name, k, size):
    model, b = MODELS[name]
    n = k + 1 if size == "k+1" else size
    epsilon, trials, seed = 0.35, 50, 17
    assert (mc_empirical_deviation(model, n, k, b, epsilon, trials, seed).hits
            == _per_path_hits(model, n, k, b, epsilon, trials, seed))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), k=st.integers(0, 3), extra=st.integers(0, 30),
       trials=st.integers(1, 12), block=st.integers(1, 2 ** 10),
       epsilon=st.sampled_from([0.05, 0.2, 0.35, 0.7]), seed=st.integers(0, 2 ** 32 - 1))
def test_mc_empirical_deviation_hits_match_per_path_loop_at_any_block(
        name, k, extra, trials, block, epsilon, seed):
    import qmap.validation as validation

    model, b = MODELS[name]
    n = k + 1 + extra
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "_BLOCK", block)
        hits = mc_empirical_deviation(model, n, k, b, epsilon, trials, seed).hits
    assert hits == _per_path_hits(model, n, k, b, epsilon, trials, seed)


@pytest.mark.parametrize("b, k, n, trials, block", [
    (2, 3, 8, 50, 2 ** 8),  # 16 rows of 2n = 16 draws, but 64 types a row
    (5, 4, 8, 3, None),  # 2^20 types a row: one row per block
])
def test_mc_empirical_deviation_bounds_its_count_array(b, k, n, trials, block, monkeypatch):
    import qmap.validation as validation

    if block is not None:
        monkeypatch.setattr(validation, "_BLOCK", block)
    limit = max(validation._BLOCK, (2 ** b) ** k)
    bincount = np.bincount

    def bounded_bincount(x, weights=None, minlength=0):
        # refuse before allocating, so an unbounded block fails cheaply
        if minlength > limit:
            raise AssertionError(f"count array of {minlength} cells exceeds {limit}")
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", bounded_bincount)
    assert mc_empirical_deviation(PiecewiseConstant(0.2), n, k, b, 1.5, trials, 3).trials == trials


@pytest.mark.parametrize("model, k, epsilon", [(PiecewiseConstant(0.2), 1, 0.5),
                                               (SpikeSlab(0.3), 1, 0.1),
                                               (SpikeSlab(0.3), 2, 0.2)])
def test_mc_empirical_deviation_hits_do_not_depend_on_the_block(model, k, epsilon,
                                                                monkeypatch):
    import qmap.validation as validation

    n, b, trials, seed = 100, 2, 23, 41
    hits = []
    # a row takes 2n cells: one row, three rows, all 23 rows per block
    for block in (1, 3 * 2 * n, validation._BLOCK):
        monkeypatch.setattr(validation, "_BLOCK", block)
        hits.append(mc_empirical_deviation(model, n, k, b, epsilon, trials, seed).hits)
    assert hits[0] == hits[1] == hits[2]
    assert 0 < hits[0] < trials


def test_mc_empirical_deviation_reports_bounds():
    est = mc_empirical_deviation(PiecewiseConstant(0.2), 256, 1, 3, 0.1, 50, 1, g=10)
    assert est.bound_vacuous  # n^{S^k} dwarfs the tail at desk scale
    assert est.params["bound_log2"] > 0
    assert est.params["markov_bound_log2"] > est.params["bound_log2"]
    js = est.to_json()
    assert js["bound_vacuous"] is True
    assert js["bound"] is None or js["bound"] > 1.0


def test_type_deviation_bound_formula():
    c = 1.0 / (2.0 * math.log(2.0))
    n, k, g, eps, size = 4096, 1, 8, 0.1, 8
    bound, log2 = type_deviation_bound(n, k, g, eps, size)
    expect = (
        c * eps ** 2 / 8
        + math.log2(k + g)
        + size * math.log2(n)
        - n * c * eps ** 2 / (8 * (k + g))
    )
    assert log2 == pytest.approx(expect, abs=1e-12)
    # informative in an i.i.d.-like regime with a small alphabet
    small, _ = type_deviation_bound(10 ** 7, 1, 1, 0.2, 2)
    assert small < 1.0


def test_tail_estimate_respects_vacuous_bound():
    est = TailEstimate("x", 10, 9, 0.9, 0.7, 1.0, bound=5.0)
    assert est.respects_bound
    est2 = TailEstimate("x", 10, 10, 1.0, 0.7, 1.0, bound=0.01)
    assert est2.p_value == pytest.approx(1e-20, rel=1e-12)
    assert not est2.respects_bound


WORKING_SETS = {
    # name: (call, cells it draws, bytes of the arrays its random stream
    # makes it keep)
    "inner_product": (lambda: inner_product_tail(0.0, 20, 0.45, 100_000, 1),
                      2 * 100_000, 8 * 100_000),  # the chi-square draws of one period
    "empirical_deviation": (lambda: mc_empirical_deviation(
        PiecewiseConstant(0.2), 4096, 1, 3, 0.1, 200, 1), 200 * 2 * 4096, 0),
    "gaussian_projection": (lambda: gaussian_projection_check(100, 10_000, 1),
                            2 * 10_000 * 100, 8 * 10_000 * 100),  # u, drawn before v
    # at small n the per-trial arrays weigh as much as u: beside u, the
    # statistic and the norms that the KS distance and the correlation read
    "gaussian_projection_n2": (lambda: gaussian_projection_check(2, 100_000, 7),
                               2 * 100_000 * 2, 8 * 100_000 * 2 + 2 * 8 * 100_000),
    "chi_square": (lambda: chi_square_tail(10, 1.0, 300_000, 1), 300_000, 0),
}


@pytest.mark.parametrize("name", sorted(WORKING_SETS))
def test_sampler_holds_its_stream_arrays_and_a_few_blocks(name):
    import tracemalloc

    import qmap.validation as validation

    call, cells, forced = WORKING_SETS[name]
    # the draws of a case that fits in one block could be held whole, with
    # all their temporaries, inside the bound
    assert cells > validation._BLOCK
    call()  # leave first-call allocations out of the trace
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= forced + 3 * 8 * validation._BLOCK, peak
