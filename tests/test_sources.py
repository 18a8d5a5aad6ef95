import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_kernel
from oracles import sample_table_by_choice, weight_gap
from qmap.quantize import build_alphabet, quantize_vector
from qmap.sources import (
    PiecewiseConstant,
    QuantKernel,
    SpikeSlab,
    WeightTable,
    _sample_table,
    cond_entropy,
    info_dimension_curve,
    kernel_from_json,
    ktuple_law,
    quantized_kernel,
    sample_path,
    sample_runs,
    stationary_context_law,
    weights_from_kernel,
)

H_QUARTER = 0.8112781244591328  # binary entropy of 1/4, frozen from -sum p log2 p


def test_sampler_degenerate_cases():
    assert np.array_equal(sample_path(SpikeSlab(0.0), 5, 3), np.zeros(5))
    path = sample_path(PiecewiseConstant(0.0), 5, 9)
    assert np.all(path == path[0])


def test_sampler_law_of_large_numbers():
    x = sample_path(SpikeSlab(0.1), 100_000, 7)
    frac = np.count_nonzero(x) / len(x)
    assert abs(frac - 0.1) < 0.01  # 3 sigma is ~0.003 at this n
    assert np.all((x >= 0) & (x < 1))


def test_sampler_determinism():
    a = sample_path(PiecewiseConstant(0.3), 1000, 42)
    b = sample_path(PiecewiseConstant(0.3), 1000, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_path(PiecewiseConstant(0.3), 1000, 43))


def _two_draw_path(model, n, seed):
    # sample_path's own formulas, one generator per path: n slab values, then
    # n spike or jump uniforms; recover and phase result bytes rest on them
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    if isinstance(model, SpikeSlab):
        mask = rng.random(n) < model.p
        return np.where(mask, values, 0.0)
    jumps = rng.random(n) < model.p
    jumps[0] = True
    last = np.maximum.accumulate(np.where(jumps, np.arange(n), 0))
    return values[last]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from([SpikeSlab, PiecewiseConstant]),
       n=st.integers(1, 300),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 64 - 1))
def test_sample_path_equals_its_two_draw_formula(kind, n, p, seed):
    model = kind(p)
    assert sample_path(model, n, seed).tobytes() == _two_draw_path(model, n, seed).tobytes()


@pytest.mark.parametrize("kind", ["spike_slab", "pc_markov", "table"])
def test_sample_runs_block_equals_one_row_calls(kind, rng):
    model = {"spike_slab": SpikeSlab(0.3), "pc_markov": PiecewiseConstant(0.2),
             "table": random_kernel(rng, 3, 1)}[kind]
    n, rows = 37, 9
    block = sample_runs(model, n, rows, np.random.default_rng(8))
    one = np.random.default_rng(8)
    # row r's runs, their starts shifted by r n into the flattened block
    calls = [sample_runs(model, n, 1, one) for _ in range(rows)]
    joined = (np.concatenate([values for values, _, _ in calls]),
              np.concatenate([starts + r * n for r, (_, starts, _) in enumerate(calls)]),
              np.concatenate([lengths for _, _, lengths in calls]))
    for got, want in zip(block, joined):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert block[2].sum() == rows * n
    # sample_path expands one row of runs drawn on its seed's generator
    values, _, lengths = calls[0]
    assert sample_path(model, n, 8).tobytes() == np.repeat(values, lengths).tobytes()


RECOVER_TABLE_KERNEL = kernel_from_json(json.loads(
    (Path(__file__).parent.parent / "configs" / "recover_table.json").read_text("utf-8")
)["model"]["kernel"])


def kernel_with_zeros(seed: int, b: int, k: int) -> QuantKernel:
    """A random order-k kernel on the b-bit grid whose rows have zero
    probabilities, but never on repeating the context's last symbol, so
    every path can reach a constant context, a self-loop, and the chain is
    aperiodic.  A rare draw still mixes too slowly for stationary_context_law,
    which raises ValueError, as (2221, 1, 3) and (2301, 2, 2) do."""
    rng = np.random.default_rng(seed)
    s = 2 ** b
    raw = rng.exponential(1.0, (s,) * (k + 1)) * (rng.random((s,) * (k + 1)) < 0.5)
    if k:
        for ctx in np.ndindex((s,) * k):
            raw[ctx + (ctx[-1],)] += 0.1
    else:
        raw[int(rng.integers(s))] += 0.1
    cond = raw / raw.sum(axis=-1, keepdims=True)
    return QuantKernel(alphabet=build_alphabet(0.0, 1.0, b), cond=cond,
                       marginal=stationary_context_law(cond, k))


@settings(max_examples=300, deadline=None)
@given(table=st.one_of(st.none(), st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 2),
                                            st.integers(0, 3))),
       n=st.one_of(st.sampled_from([1, 2, 5, 64]), st.integers(1, 80)),
       seed=st.integers(0, 2 ** 64 - 1))
def test_table_sampler_equals_one_choice_call_per_symbol(table, n, seed):
    # one block of uniforms inverted on each row's cdf is the draw of
    # rng.choice(p=...): the same path, and the same stream consumed (n < k
    # takes the start context's first n symbols from one draw).  table None
    # is the kernel of configs/recover_table.json
    if table is None:
        kernel = RECOVER_TABLE_KERNEL
    else:
        try:
            kernel = kernel_with_zeros(*table)
        except ValueError:
            assume(False)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_table(kernel, n, got_rng)
    assert got.tobytes() == sample_table_by_choice(kernel, n, want_rng).tobytes()
    assert got_rng.random() == want_rng.random()


def test_stationary_law_of_a_kernel_with_zeros_sums_to_one():
    # the power iteration lets the mass drift: on this b=2, k=3 kernel (64
    # contexts, zero entries) its law summed to 1 + 1.14e-12, which
    # QuantKernel refused
    kernel = kernel_with_zeros(2297, 2, 3)
    assert abs(kernel.marginal.sum() - 1.0) <= 1e-12
    for seed, b, k in ((2221, 1, 3), (2301, 2, 2)):
        with pytest.raises(ValueError, match="did not reach a stationary law"):
            kernel_with_zeros(seed, b, k)


def test_pc_sampler_stationary_marginal():
    # the empirical marginal at a fixed position across paths matches the
    # uniform slab law cellwise
    ab = build_alphabet(0, 1, 2)
    hits = np.zeros(4)
    trials = 4000
    for t in range(trials):
        path = sample_path(PiecewiseConstant(0.25), 7, 50_000 + t)
        hits[quantize_vector(path[[5]], ab)[0]] += 1
    assert np.all(np.abs(hits / trials - 0.25) < 0.035)


def test_spike_slab_kernel_values():
    kern = quantized_kernel(SpikeSlab(0.5), 1)
    assert kern.cond == pytest.approx([0.75, 0.25], abs=1e-15)
    kern = quantized_kernel(SpikeSlab(0.1), 2)
    assert kern.cond[0] == pytest.approx(0.925, abs=1e-15)
    assert np.all(kern.cond[1:] == pytest.approx(0.025, abs=1e-15))


def test_pc_kernel_rows_sum_to_one():
    kern = quantized_kernel(PiecewiseConstant(0.37), 3)
    for row in kern.cond:
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert kern.marginal.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_examples():
    w = weights_from_kernel(quantized_kernel(SpikeSlab(0.5), 1))
    assert w.w[0] == pytest.approx(math.log2(4 / 3), abs=1e-15)
    assert w.w[1] == 2.0
    wpc = weights_from_kernel(quantized_kernel(PiecewiseConstant(0.5), 1))
    assert wpc.w[0, 0] == pytest.approx(math.log2(4 / 3), abs=1e-15)
    assert wpc.w[0, 1] == 2.0


def test_weights_deterministic_row():
    ab = build_alphabet(0, 1, 1)
    kern = quantized_kernel(SpikeSlab(0.0), 1)
    w = weights_from_kernel(kern)
    assert w.w[0] == 0.0
    assert math.isinf(w.w[1])


def test_weight_kernel_duality(rng):
    kern = random_kernel(rng, 3, 1)
    w = weights_from_kernel(kern)
    for ctx in np.ndindex(kern.marginal.shape):
        for a, prob in enumerate(kern.cond[ctx]):
            assert 2.0 ** -w.w[ctx + (a,)] == pytest.approx(prob, abs=1e-12)


def test_cond_entropy_examples():
    assert cond_entropy(quantized_kernel(SpikeSlab(0.0), 2)) == 0.0
    assert cond_entropy(quantized_kernel(SpikeSlab(0.5), 1)) == pytest.approx(
        H_QUARTER, abs=1e-12
    )
    assert cond_entropy(quantized_kernel(PiecewiseConstant(0.5), 1)) == pytest.approx(
        H_QUARTER, abs=1e-12
    )


def test_expected_complexity_equals_entropy(rng):
    # sum over (k+1)-tuples of law * weight == conditional entropy
    for k in (0, 1, 2):
        kern = random_kernel(rng, 3, k)
        w = weights_from_kernel(kern)
        law = ktuple_law(kern, k + 1)
        total = sum(prob * w.w[key] for key, prob in np.ndenumerate(law) if prob > 0)
        assert total == pytest.approx(cond_entropy(kern), abs=1e-10)


def test_info_dimension_curve_spike_slab():
    curve = dict(info_dimension_curve(SpikeSlab(0.1), 0, [4, 8, 12, 16]))
    # closed form: H = -q0 log2 q0 + p (1 - 2^-b)(b - log2 p)
    for b, ratio in curve.items():
        q0 = 0.9 + 0.1 * 2.0 ** -b
        h = -q0 * math.log2(q0) + 0.1 * (1 - 2.0 ** -b) * (b - math.log2(0.1))
        assert ratio == pytest.approx(h / b, abs=1e-9)
    vals = [curve[b] for b in (4, 8, 12, 16)]
    assert all(a > c for a, c in zip(vals, vals[1:]))  # decreasing toward p
    assert abs(curve[16] - 0.1) < 0.05


def test_info_dimension_degenerate_source():
    curve = info_dimension_curve(SpikeSlab(0.0), 0, [2, 5])
    assert all(ratio == 0.0 for _, ratio in curve)


def test_info_dimension_pc_orders():
    # k=0 sees the uniform marginal (ratio 1); k>=1 sees the hold structure
    assert info_dimension_curve(PiecewiseConstant(0.5), 0, [3])[0][1] == pytest.approx(1.0)
    r1 = info_dimension_curve(PiecewiseConstant(0.5), 1, [3])[0][1]
    r2 = info_dimension_curve(PiecewiseConstant(0.5), 2, [3])[0][1]
    assert r1 == pytest.approx(r2, abs=1e-12)
    assert r1 < 1.0


def test_weight_gap_examples():
    assert weight_gap(0.5, 1) == pytest.approx(math.log2(3), abs=1e-15)
    # p -> 1 with b fixed drives the gap to 0+
    assert 0.0 < weight_gap(0.9999, 8) < weight_gap(0.999, 8) < 0.5
    for b in (1, 2, 3, 8):
        assert weight_gap(0.3, b + 1) > weight_gap(0.3, b)
    with pytest.raises(ValueError):
        weight_gap(0.0, 3)


def test_table_kernel_json_round_trip(rng):
    kern = random_kernel(rng, 4, 1)
    ab = kern.alphabet
    doc = {
        "b": ab.b, "k": kern.k, "lo": ab.lo, "hi": ab.hi,
        "rows": [{"context": list(ctx), "probs": [float(v) for v in kern.cond[ctx]]}
                 for ctx in np.ndindex(kern.marginal.shape)],
    }
    again = kernel_from_json(json.loads(json.dumps(doc)))
    assert again.k == kern.k
    assert again.alphabet.size == kern.alphabet.size
    assert np.allclose(again.cond, kern.cond, atol=1e-12)
    for ctx, prob in np.ndenumerate(kern.marginal):
        assert again.marginal[ctx] == pytest.approx(prob, abs=1e-9)


def test_kernel_json_rows_are_checked():
    # b=1, k=1: S=2 symbols, one context index per row, two probs
    good = {"context": [0], "probs": [0.7, 0.3]}
    for bad, match in (
        ({"context": [-1], "probs": [1.0, 0.0]}, "context"),
        ({"context": [2], "probs": [0.5, 0.5]}, "context"),
        ({"context": [], "probs": [0.5, 0.5]}, "context"),
        ({"context": [1], "probs": [0.5, 0.25, 0.25]}, "probs"),
    ):
        doc = {"b": 1, "k": 1, "lo": 0.0, "hi": 1.0, "rows": [good, bad]}
        with pytest.raises(ValueError, match=match):
            kernel_from_json(doc)


def test_kernel_json_unreached_context_may_be_omitted():
    # S=4 at b=2; contexts 2 and 3 are never reached, so they need no row
    rows = [{"context": [0], "probs": [0.5, 0.5, 0.0, 0.0]},
            {"context": [1], "probs": [0.25, 0.75, 0.0, 0.0]}]
    kern = kernel_from_json({"b": 2, "k": 1, "lo": 0.0, "hi": 1.0, "rows": rows})
    assert kern.marginal == pytest.approx([1 / 3, 2 / 3, 0.0, 0.0], abs=1e-12)
    assert np.all(kern.cond[2:] == 0.0)
    assert math.isinf(weights_from_kernel(kern).w[2, 0])
    path = sample_path(kern, 200, 4)
    assert set(path) <= {0.0, 0.25}
    rows[1] = {"context": [1], "probs": [0.25, 0.5, 0.25, 0.0]}
    with pytest.raises(ValueError, match="reaches context"):
        kernel_from_json({"b": 2, "k": 1, "lo": 0.0, "hi": 1.0, "rows": rows})


def test_ktuple_law_marginalises(rng):
    # the law of j+1 symbols sums over its last symbol to the law of j
    for k in (0, 1, 2):
        kern = random_kernel(rng, 3, k)
        assert ktuple_law(kern, 0) == 1.0 and ktuple_law(kern, 0).shape == ()
        for j in range(k + 3):
            longer = ktuple_law(kern, j + 1)
            assert longer.shape == (3,) * (j + 1)
            assert np.allclose(longer.sum(axis=-1), ktuple_law(kern, j), atol=1e-12)


def test_table_kernel_stationary_marginal(rng):
    kern = random_kernel(rng, 3, 2)
    # stationarity of the context chain: mu P = mu
    inflow = np.zeros_like(kern.marginal)
    for src, prob in np.ndenumerate(kern.marginal):
        for a, q in enumerate(kern.cond[src]):
            inflow[src[1:] + (a,)] += prob * float(q)
    for ctx, prob in np.ndenumerate(kern.marginal):
        assert inflow[ctx] == pytest.approx(prob, abs=1e-9)


def test_table_sampler_uses_kernel(rng):
    kern = random_kernel(rng, 3, 1)
    path = sample_path(kern, 2000, 5)
    assert set(np.round(path, 10)) <= set(np.round(kern.alphabet.values, 10))
    assert quantized_kernel(kern, kern.alphabet.b) is kern
    with pytest.raises(ValueError):
        quantized_kernel(kern, kern.alphabet.b + 1)


def test_quantized_kernel_rejects_unknown_model():
    with pytest.raises(TypeError):
        quantized_kernel(object(), 2)


def test_orders_come_from_the_arrays_and_misfits_are_refused():
    ab = build_alphabet(0.0, 1.0, 2)
    assert WeightTable(ab, np.zeros((4, 4, 4))).k == 2
    uniform = np.full((4, 4), 0.25)
    assert QuantKernel(ab, uniform, np.full(4, 0.25)).k == 1
    for w in (np.zeros(()), np.zeros((4, 3)), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="weight array shape"):
            WeightTable(ab, w)
    for marginal in (np.ones(()), np.full(3, 1 / 3), np.full((4, 4), 1 / 16)):
        with pytest.raises(ValueError, match="do not fit"):
            QuantKernel(ab, uniform, marginal)
    with pytest.raises(ValueError, match="do not fit"):
        QuantKernel(ab, np.ones(()), np.ones(()))


HALVES = build_alphabet(0.0, 1.0, 1)  # {0, 0.5}


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: SpikeSlab(1.5), ValueError, "p must be in [0, 1], got 1.5",
                 id="spike-slab-p"),
    pytest.param(lambda: PiecewiseConstant(-0.1), ValueError, "p must be in [0, 1], got -0.1",
                 id="pc-p"),
    pytest.param(lambda: QuantKernel(HALVES, np.array([1.5, -0.5]), np.ones(())), ValueError,
                 "kernel probabilities must be nonnegative", id="negative-probability"),
    pytest.param(lambda: QuantKernel(HALVES, np.eye(2), np.array([0.5, 0.6])), ValueError,
                 "context marginal sums to 1.1, not 1", id="marginal-sum"),
    pytest.param(lambda: WeightTable(HALVES, np.array([1.0, -1.0])), ValueError,
                 "weights must be nonnegative", id="negative-weight"),
    pytest.param(lambda: sample_runs(SpikeSlab(0.5), 0, 1, np.random.default_rng(0)),
                 ValueError, "n must be >= 1, got 0", id="sample-n"),
    pytest.param(lambda: sample_runs("spike", 4, 1, np.random.default_rng(0)), TypeError,
                 "unsupported model 'spike'", id="sample-model"),
    pytest.param(lambda: quantized_kernel(PiecewiseConstant(0.1), 13), ValueError,
                 "piecewise-constant kernel with b=13 needs 8192x8192 rows; too large",
                 id="pc-kernel-size"),
    pytest.param(lambda: ktuple_law(quantized_kernel(SpikeSlab(0.1), 1), -1), ValueError,
                 "j must be >= 0", id="ktuple-j"),
    pytest.param(lambda: ktuple_law(quantized_kernel(SpikeSlab(0.1), 1), 21), ValueError,
                 "law over 2^21 tuples is too large", id="ktuple-size"),
    pytest.param(lambda: kernel_from_json({"b": 1, "k": 24, "lo": 0.0, "hi": 1.0, "rows": []}),
                 ValueError, "dense kernel with 2^25 entries is too large", id="json-kernel-size"),
])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
