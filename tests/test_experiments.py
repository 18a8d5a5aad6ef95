import json
import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qmap.experiments import (
    _stages,
    build_model,
    build_projector,
    canonical_json,
    format_value,
    run_infodim,
    run_phase,
    run_project,
    run_recover,
    run_recovery_trials,
    run_validate,
    trial_seed,
    write_csv,
)
from qmap.projection import project_l0
from qmap.quantize import build_alphabet
from qmap.sources import PiecewiseConstant, QuantKernel, SpikeSlab, quantized_kernel
from qmap.validation import f_minimax

ROOT = Path(__file__).resolve().parents[1]

RECOVER_CFG = {
    "model": {"kind": "spike_slab", "p": 0.05},
    "n": 64, "m": 32, "b": 6, "k": 0,
    "projector": {"kind": "l0", "s": 6},
    "trials": 3, "seed": 17,
}


def trial_row(config, index):
    return run_recovery_trials(config, [index])[0]


def test_build_model_kinds():
    assert isinstance(build_model({"kind": "spike_slab", "p": 0.1}), SpikeSlab)
    assert isinstance(build_model({"kind": "pc_markov", "p": 0.2}), PiecewiseConstant)
    doc = {
        "b": 1, "k": 0, "lo": 0.0, "hi": 1.0,
        "rows": [{"context": [], "probs": [0.75, 0.25]}],
    }
    assert isinstance(build_model({"kind": "table_markov", "kernel": doc}), QuantKernel)
    with pytest.raises(ValueError):
        build_model({"kind": "bogus"})


def test_trial_seed_stability():
    a = trial_seed(5, 0).generate_state(4)
    b = trial_seed(5, 0).generate_state(4)
    c = trial_seed(5, 1).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_recovery_trial_is_deterministic():
    r1 = trial_row(RECOVER_CFG, 0)
    r2 = trial_row(RECOVER_CFG, 0)
    assert r1 == r2
    assert r1["n"] == 64
    # the row's keys, in order, are the header of the recover CSV
    assert list(r1) == ["trial", "seed", "n", "m", "b", "k", "sigma", "iters",
                        "final_err_quantized", "final_err_analog", "residual"]


def test_run_recover_parallel_matches_serial():
    serial = run_recover(RECOVER_CFG, jobs=1)
    parallel = run_recover(RECOVER_CFG, jobs=3)
    assert serial == parallel


def test_single_schedule_and_projectors():
    cfg = dict(RECOVER_CFG, schedule="single", max_iters=10,
               projector={"kind": "lagrangian", "alpha": 0.001})
    row = trial_row(cfg, 1)
    assert row["iters"] <= 10
    cfg = dict(RECOVER_CFG, schedule="single", max_iters=8,
               projector={"kind": "constrained", "delta": 0.3})
    assert trial_row(cfg, 0)["iters"] <= 8
    with pytest.raises(ValueError):
        trial_row(dict(RECOVER_CFG, schedule="bogus"), 0)
    with pytest.raises(ValueError):  # homotopy needs the l0 projector
        trial_row(
            dict(RECOVER_CFG, schedule="homotopy",
                 projector={"kind": "lagrangian", "alpha": 0.1}), 0
        )


def test_homotopy_stages_of_criterion_4():
    # s=20, b=6: the budget grows on the 12-bit solve grid, then the full
    # budget polishes on the 6-bit target grid at a rising step size.  Each
    # mu is a multiple of the design's paired step
    b = 6
    spec = {"kind": "l0", "s": 20}
    kernel = quantized_kernel(SpikeSlab(0.05), b)
    projector = partial(project_l0, alphabet=kernel.alphabet, s=20)
    stages = _stages({"projector": spec}, spec, projector, kernel)
    expected = [(12, s, 0.5, 300) for s in range(2, 21, 2)]
    expected += [(12, 20, 0.5, 800), (6, 20, 0.7, 60), (6, 20, 1.0, 60)]
    got = []
    for stage_alphabet, cfg in stages:
        assert cfg.projector.func is project_l0
        assert cfg.projector.keywords["alphabet"] is stage_alphabet
        assert cfg.start is None
        got.append((stage_alphabet.b, cfg.projector.keywords["s"], cfg.mu, cfg.max_iters))
    assert got == expected


@pytest.mark.parametrize("b, lo, hi", [(2, 0.1, 1.0), (3, -0.3, 0.7), (6, 0.37, 1.9)])
def test_homotopy_solve_grid_holds_the_target_grid(b, lo, hi):
    # off-grid edges snap outward to the target grid's cell edges, and the
    # solve grid spans the same cells at 12 bits
    size = build_alphabet(lo, hi, b).size
    kernel = build_model({"kind": "table_markov", "kernel": {
        "b": b, "k": 0, "lo": lo, "hi": hi,
        "rows": [{"context": [], "probs": [1.0] + [0.0] * (size - 1)}],
    }})
    spec = {"kind": "l0", "s": 4}
    projector = partial(project_l0, alphabet=kernel.alphabet, s=4)
    fine = _stages({"projector": spec}, spec, projector, kernel)[0][0]
    assert fine.b == 12
    assert np.isin(kernel.alphabet.values, fine.values).all()
    assert (fine.lo, fine.hi) == (kernel.alphabet.lo, kernel.alphabet.hi)


def test_normalized_design_homotopy_recovers_as_the_unit_one():
    # the homotopy's steps are multiples of each design's paired step, so a
    # 1/n-variance design steps n/m where a unit one steps 1/m.  At 0.5/m
    # for both, the normalized recover_spike run recovered 0 of 20 trials
    config = json.loads((ROOT / "configs" / "recover_spike.json").read_text("utf-8"))
    rows = run_recover(dict(config, scale="normalized"))
    assert len(rows) == 20
    assert all(row["final_err_quantized"] == 0.0 for row in rows)


@pytest.mark.parametrize("key,value", [("max_iters", 5)])
def test_homotopy_refuses_the_single_schedule_keys(key, value):
    # the homotopy stages set their own budgets, so a max_iters in the
    # config would be ignored
    spec = {"kind": "l0", "s": 6}
    kernel = quantized_kernel(SpikeSlab(0.05), 6)
    projector = partial(project_l0, alphabet=kernel.alphabet, s=6)
    config = {"projector": spec, key: value}
    with pytest.raises(ValueError, match=f"config {key} applies to the single schedule only"):
        _stages(config, spec, projector, kernel)
    with pytest.raises(ValueError, match=f"config {key} "):
        trial_row(dict(RECOVER_CFG, **{key: value}), 0)


def test_l0_trial_builds_no_weight_table(monkeypatch):
    # the l0 projector never reads complexity weights, on either grid
    import qmap.experiments as experiments

    expected = trial_row(RECOVER_CFG, 0)

    def refuse(kernel):
        raise AssertionError("an l0 trial built a weight table")

    monkeypatch.setattr(experiments, "weights_from_kernel", refuse)
    assert trial_row(RECOVER_CFG, 0) == expected
    with pytest.raises(AssertionError, match="weight table"):
        trial_row(dict(RECOVER_CFG, schedule="single", projector={
            "kind": "constrained", "delta": 0.3}), 0)


def test_trial_reports_the_best_target_grid_stage_end():
    # the 0.7/m polish stage ends at residual 0.758; the 1.0/m stage then
    # cycles from that fit to a worse end at residual 2.157
    kernel = {"b": 2, "k": 0, "lo": 0.0, "hi": 0.5,
              "rows": [{"context": [], "probs": [0.75, 0.25]}]}
    cfg = {"model": {"kind": "table_markov", "kernel": kernel},
           "n": 16, "m": 12, "b": 2, "k": 0,
           "projector": {"kind": "l0", "s": 4}, "trials": 1, "seed": 1}
    row = trial_row(cfg, 0)
    assert row["residual"] == pytest.approx(0.7584, abs=1e-4)
    assert row["final_err_quantized"] == 0.0625


def test_measure_quantized_flag():
    exact = trial_row(RECOVER_CFG, 2)
    analog = trial_row(dict(RECOVER_CFG, measure_quantized=False), 2)
    assert exact["final_err_quantized"] == 0.0
    assert analog["final_err_quantized"] > 0.0  # floor-quantized truth unreachable
    assert analog["final_err_analog"] < 2.0 ** -5  # still near the analog truth


def test_run_phase_shape():
    cfg = {
        "model": {"kind": "spike_slab", "p": 0.1},
        "n": 32, "b": 5, "k": 0,
        "projector": {"kind": "l0", "s": 6},
        "m_over_n": [0.25, 1.0],
        "trials": 3, "seed": 5,
    }
    rows = run_phase(cfg, jobs=1)
    assert [r["m_over_n"] for r in rows] == [0.25, 1.0]
    assert rows[1]["success_rate"] >= rows[0]["success_rate"] - 1e-12
    assert all(0 <= r["success_rate"] <= 1 for r in rows)
    assert rows[0]["d_k_ref"] > 0.1
    assert run_phase(cfg, jobs=2) == rows


BLOCK_RECOVER_CFG = dict(RECOVER_CFG, trials=5, sigma=0.02)
BLOCK_PHASE_CFG = {
    "model": {"kind": "spike_slab", "p": 0.1},
    "n": 32, "b": 5, "k": 0,
    "projector": {"kind": "l0", "s": 6},
    "m_over_n": [0.25, 0.75],
    "trials": 5, "seed": 6,
}


@pytest.mark.parametrize("designs", [1, 3, 10 ** 6])
def test_blocks_change_no_row(designs, monkeypatch):
    # a block of one trial is the reference; three designs leave an uneven
    # last block, and 10^6 designs put every trial of a config in one block
    import qmap.experiments as experiments

    n = RECOVER_CFG["n"]
    monkeypatch.setattr(experiments, "_BLOCK", 1)
    recover_rows = run_recover(BLOCK_RECOVER_CFG)
    phase_rows = run_phase(BLOCK_PHASE_CFG)
    monkeypatch.setattr(experiments, "_BLOCK", designs * RECOVER_CFG["m"] * n)
    assert run_recover(BLOCK_RECOVER_CFG) == recover_rows
    monkeypatch.setattr(experiments, "_BLOCK", designs * 24 * 32)  # the m = 24 phase cell
    assert run_phase(BLOCK_PHASE_CFG) == phase_rows


def test_run_infodim_rows():
    cfg = {"model": {"kind": "spike_slab", "p": 0.1}, "k": 0, "b_list": [4, 8]}
    rows = run_infodim(cfg)
    assert [r["b"] for r in rows] == [4, 8]
    assert rows[0]["ratio"] > rows[1]["ratio"]
    assert rows[0]["spike_slab_limit"] == 0.1
    assert list(rows[0]) == ["b", "ratio", "k", "spike_slab_limit"]


def test_run_validate_report():
    cfg = {
        "seed": 9,
        "suites": {
            "chi_square": [{"m": 10, "tau": 1.0, "trials": 5000}],
            "gaussian_projection": [{"n": 3, "trials": 10_000}],
        },
    }
    report = run_validate(cfg)
    assert report["ok"] is True
    assert len(report["results"]) == 3  # upper + lower + projection
    assert report["config"] == cfg
    assert run_validate(cfg) == report
    # the f_minimax entry's point counts reach f_minimax, as integers
    small = run_validate({"seed": 9, "suites": {"f_minimax": {"alpha_points": 5,
                                                             "s_points": 7.0}}})
    assert small["f_minimax"]["value"] == f_minimax(5, 7) != f_minimax()


def test_write_csv_embeds_config(tmp_path):
    path = tmp_path / "out.csv"
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": float("inf")}]
    write_csv(str(path), rows, {"seed": 3})
    text = path.read_text().splitlines()
    assert text[0] == '# config={"seed":3}'
    assert text[1] == "a,b"
    assert text[2] == "1,0.5"
    assert text[3] == "2,inf"


def test_format_value_round_trips(tmp_path):
    for v in (0.1, 1e-17, 3.0, float(np.float64(2.5000000000000004))):
        assert float(format_value(v)) == v
    assert format_value(np.int64(3)) == "3"
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    # numpy scalars print as plain numbers, not as their reprs
    values = [np.float64(0.1), np.int64(-7), float("inf"), 1e-17, 0.1, 3.0,
              np.float64(2.5000000000000004), np.float32(0.25), -0.0]
    columns = [f"c{i}" for i in range(len(values))]
    path = tmp_path / "values.csv"
    write_csv(str(path), [dict(zip(columns, values))], {})
    cells = path.read_text().splitlines()[2].split(",")
    assert len(cells) == len(values)
    for cell, v in zip(cells, values):
        assert "np." not in cell
        assert (int(cell) if isinstance(v, np.integer) else float(cell)) == v


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_projector({"kind": "ridge"}, quantized_kernel(SpikeSlab(0.1), 2)),
                 "unknown projector kind 'ridge'", id="projector-kind"),
    pytest.param(lambda: run_project({"input": os.devnull}),
                 f"no values found in {os.devnull}", id="empty-input"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
