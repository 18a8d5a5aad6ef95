import math

import numpy as np
import pytest

from qmap.sensing import SenseMatrix, gen_gaussian, measure


def test_generation_is_reproducible():
    a = gen_gaussian(2, 2, "unit", 99)
    b = gen_gaussian(2, 2, "unit", 99)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, gen_gaussian(2, 2, "unit", 100).entries)


def test_normalized_columns_concentrate():
    # entries N(0, 1/n): column energy concentrates at m/n, i.e. 1 for m = n
    A = gen_gaussian(1000, 1000, "normalized", 5)
    norms = (A.entries ** 2).sum(axis=0)
    assert 0.9 < float(norms.mean()) < 1.1


def test_unit_scale_energy_concentrates():
    # (1/m)||A u||^2 concentrates near 1 for a fixed unit vector
    rng = np.random.default_rng(0)
    u = rng.standard_normal(64)
    u /= np.linalg.norm(u)
    vals = []
    for seed in range(40):
        A = gen_gaussian(200, 64, "unit", 1000 + seed)
        vals.append(float((A.entries @ u) @ (A.entries @ u)) / 200)
    assert abs(float(np.mean(vals)) - 1.0) < 0.05


def test_entry_mean_sanity():
    A = gen_gaussian(200, 100, "unit", 17)
    # 5 sigma bound on the sample mean of m*n standard normals
    assert abs(float(A.entries.mean())) < 5.0 / math.sqrt(200 * 100)


def test_measure_exact_and_linear():
    A = gen_gaussian(5, 7, "unit", 1)
    rng = np.random.default_rng(2)
    x1, x2 = rng.standard_normal(7), rng.standard_normal(7)
    assert np.array_equal(measure(A, x1, 0.0, 0), A.entries @ x1)
    lhs = measure(A, x1 + x2, 0.0, 0)
    rhs = measure(A, x1, 0.0, 0) + measure(A, x2, 0.0, 0)
    assert np.allclose(lhs, rhs, atol=1e-12)
    with pytest.raises(ValueError):
        measure(A, np.zeros(6), 0.0, 0)


def test_measure_noise_energy_chi_square():
    A = gen_gaussian(4000, 3, "unit", 3)
    y = measure(A, np.zeros(3), 1.0, 123)
    # chi-square concentration at tau = 0.2 makes this a >5-sigma-safe band
    assert 0.8 < float(y @ y) / 4000 < 1.2


def test_sigma_max_gaussian_event_rate():
    # sigma_max < sqrt(n) + 2 sqrt(m) on nearly all draws at m=50, n=100
    hits = 0
    bound = math.sqrt(100) + 2 * math.sqrt(50)
    for seed in range(200):
        A = gen_gaussian(50, 100, "unit", 7000 + seed)
        hits += np.linalg.norm(A.entries, 2) < bound
    assert hits >= 198


def test_paired_steps():
    unit, normalized = gen_gaussian(8, 16, "unit", 0), gen_gaussian(8, 16, "normalized", 0)
    assert unit.step_size() == 1 / 8
    assert normalized.step_size() == 2.0
    # a multiple mu is mu / m or mu * n / m, not mu times the rounded 1 / m
    # (0.7 * (1 / 26) != 0.7 / 26)
    for mu in (0.5, 0.7, 1.0):
        assert gen_gaussian(26, 16, "unit", 0).step_size(mu) == mu / 26
        assert gen_gaussian(26, 16, "normalized", 0).step_size(mu) == mu * 16 / 26
    assert gen_gaussian(26, 16, "unit", 0).step_size(0.7) != 0.7 * (1 / 26)


def test_design_dimensions_come_from_its_entries():
    A = gen_gaussian(3, 5, "unit", 0)
    assert (A.m, A.n) == (3, 5)
    for entries in (np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="2-D"):
            SenseMatrix(entries, "unit")


@pytest.mark.parametrize("call, message", [
    # the design checks the scale, whichever way it is built
    pytest.param(lambda: SenseMatrix(np.zeros((2, 2)), "unit-variance"),
                 "scale must be one of ('unit', 'normalized'), got 'unit-variance'",
                 id="design-scale"),
    pytest.param(lambda: gen_gaussian(2, 2, "unit-variance", 0),
                 "scale must be one of ('unit', 'normalized'), got 'unit-variance'",
                 id="generated-scale"),
    pytest.param(lambda: gen_gaussian(0, 2, "unit", 0), "m and n must be >= 1", id="m"),
    pytest.param(lambda: measure(gen_gaussian(2, 2, "unit", 0), np.zeros(2), -1.0, 0),
                 "sigma must be >= 0", id="sigma"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
