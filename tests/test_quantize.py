import math

import numpy as np
import pytest

from oracles import quantize_scalar
from qmap.quantize import build_alphabet, quantize_vector


def truncated_expansion(x: float, b: int) -> float:
    """Independent digit-by-digit oracle: floor(x) plus the first b binary
    digits of the fractional part."""
    fl = math.floor(x)
    frac = x - fl
    out = float(fl)
    for i in range(1, b + 1):
        frac *= 2.0
        digit = int(frac)
        frac -= digit
        out += digit * 2.0 ** -i
    return out


def test_scalar_examples():
    assert quantize_scalar(0.75, 1) == 0.5
    assert quantize_scalar(1.0, 3) == 1.0
    # oracle: floor(-0.3) = -1, 0.7 = 0.10...ic binary, truncated at 2 bits
    assert truncated_expansion(-0.3, 2) == -0.5
    assert quantize_scalar(-0.3, 2) == -0.5


def test_scalar_matches_expansion_oracle(rng):
    for x in rng.uniform(-8, 8, 300):
        for b in (1, 2, 3, 7):
            assert quantize_scalar(float(x), b) == truncated_expansion(float(x), b)


def test_scalar_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_scalar(float("nan"), 2)
    with pytest.raises(ValueError):
        quantize_scalar(math.inf, 2)
    with pytest.raises(ValueError):
        quantize_scalar(0.5, 0)


def test_scalar_invariants(rng):
    xs = np.concatenate([rng.uniform(-20, 20, 500), rng.integers(-5, 5, 50) * 0.125])
    for x in xs:
        x = float(x)
        for b in (1, 2, 5, 9):
            q = quantize_scalar(x, b)
            assert quantize_scalar(q, b) == q            # idempotence
            assert 0.0 <= x - q < 2.0 ** -b              # truncation error bound
            assert quantize_scalar(x, b + 1) >= q        # refinement
    ys = np.sort(rng.uniform(-5, 5, 200))
    for b in (1, 3):
        qs = [quantize_scalar(float(y), b) for y in ys]
        assert all(a <= c for a, c in zip(qs, qs[1:]))   # monotone


def test_build_alphabet_examples():
    assert list(build_alphabet(0, 1, 1).values) == [0.0, 0.5]
    assert list(build_alphabet(0, 1, 2).values) == [0.0, 0.25, 0.5, 0.75]
    # grid points of [-1, 1) at spacing 0.5
    assert list(build_alphabet(-1, 1, 1).values) == [-1.0, -0.5, 0.0, 0.5]


def test_alphabet_structure(rng):
    for _ in range(50):
        b = int(rng.integers(1, 6))
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(0.5, 3))
        ab = build_alphabet(lo, hi, b)
        diffs = np.diff(ab.values)
        assert np.all(diffs == 2.0 ** -b)
        assert all(quantize_scalar(float(v), b) == v for v in ab.values)
        # the size bound is stated for grid-aligned bounds; lo snaps down
        assert ab.size <= (hi - quantize_scalar(lo, b)) * 2 ** b + 1
        assert ab.values[-1] < hi
        # value v sits at index (v - values[0]) / step
        assert [int((v - ab.values[0]) * 2 ** b) for v in ab.values] == list(range(ab.size))
        zero = ab.zero_index()
        if ab.values[0] <= 0.0 <= ab.values[-1]:
            assert ab.values[zero] == 0.0
        else:
            assert zero is None
        # the range is the union of the cells, whatever edges built the grid:
        # every grid value quantizes to itself, and a finer grid over the
        # range holds the grid
        assert (ab.lo, ab.hi) == (ab.values[0], ab.values[-1] + 2.0 ** -b)
        assert quantize_vector(ab.values, ab).tolist() == list(range(ab.size))
        assert np.isin(ab.values, build_alphabet(ab.lo, ab.hi, 12).values).all()


def test_build_alphabet_rejects_bad_range():
    with pytest.raises(ValueError):
        build_alphabet(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        build_alphabet(2.0, 1.0, 2)


def test_quantize_vector_examples():
    ab1 = build_alphabet(0, 1, 1)
    assert list(quantize_vector(np.array([0.1, 0.9]), ab1)) == [0, 1]
    assert list(quantize_vector(np.zeros(4), ab1)) == [0, 0, 0, 0]
    ab2 = build_alphabet(0, 1, 2)
    # per-coordinate oracle via quantize_scalar + index lookup
    x = np.array([0.26, 0.74, 0.5])
    expect = [int((quantize_scalar(float(v), 2) - ab2.values[0]) * 4) for v in x]
    assert expect == [1, 2, 2]
    assert list(quantize_vector(x, ab2)) == expect


def test_quantize_vector_endpoint_and_errors():
    ab = build_alphabet(0, 1, 2)
    # the closed right endpoint belongs to the last cell
    assert quantize_vector(np.array([1.0]), ab)[0] == ab.size - 1
    with pytest.raises(ValueError, match="coordinate 1"):
        quantize_vector(np.array([0.5, 1.5]), ab)


@pytest.mark.parametrize("bad, expect", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    (-0.25, "-0.25"), (1.25, "1.25"),
])
def test_quantize_vector_names_the_first_bad_coordinate(bad, expect):
    # the range check reads only min and max; the error still names the
    # first offending coordinate, wherever the others lie
    ab = build_alphabet(0, 1, 2)
    x = np.array([0.5, 1.0, bad, 0.0, 2.0, -1.0, math.nan])
    with pytest.raises(ValueError, match=rf"^coordinate 2 = {expect} outside"):
        quantize_vector(x, ab)
    # and in a vector whose only bad coordinate is the last one
    with pytest.raises(ValueError, match=rf"^coordinate 3 = {expect} outside"):
        quantize_vector(np.array([0.0, 0.25, 1.0, bad]), ab)


def test_quantize_vector_matches_scalar(rng):
    ab = build_alphabet(-1, 1, 3)
    x = rng.uniform(-1, 1, 200)
    idx = quantize_vector(x, ab)
    for xi, ii in zip(x, idx):
        assert ab.values[ii] == quantize_scalar(float(xi), 3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_alphabet(0.0, 1.0, 0), "b must be >= 1, got 0", id="b"),
    pytest.param(lambda: build_alphabet(0.0, math.inf, 2), "lo and hi must be finite",
                 id="range"),
    pytest.param(lambda: quantize_vector(np.zeros((2, 2)), build_alphabet(0.0, 1.0, 2)),
                 "expected a 1-D vector", id="vector"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
