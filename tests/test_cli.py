import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmap
from conftest import INFODIM_CFG, PHASE_CFG, PROJECT_CFG, RECOVER_CFG, VALIDATE_CFG
from qmap.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def test_recover_runs_and_is_deterministic_across_jobs(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", RECOVER_CFG)
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert run(["recover", "--config", cfg, "--out", outs[0], "--jobs", 1]) == 0
    assert run(["recover", "--config", cfg, "--out", outs[1], "--jobs", 1]) == 0
    assert run(["recover", "--config", cfg, "--out", outs[2], "--jobs", 8]) == 0
    blobs = [o.read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    header = blobs[0].decode().splitlines()
    assert header[0].startswith("# config=")
    assert header[1] == "trial,seed,n,m,b,k,sigma,iters,final_err_quantized,final_err_analog,residual"


def test_phase_deterministic_across_jobs(tmp_path):
    cfg = write_cfg(tmp_path, "p.json", PHASE_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["phase", "--config", cfg, "--out", a, "--jobs", 1]) == 0
    assert run(["phase", "--config", cfg, "--out", b, "--jobs", 8]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_infodim_and_validate_and_project(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "i.json", INFODIM_CFG)
    out = tmp_path / "i.csv"
    assert run(["infodim", "--config", cfg, "--out", out]) == 0
    assert "spike-slab limit p=0.1" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "b,ratio,k,spike_slab_limit"

    vcfg = write_cfg(tmp_path, "v.json", VALIDATE_CFG)
    vout = tmp_path / "v.json.out"
    assert run(["validate", "--config", vcfg, "--out", vout]) == 0
    report = json.loads(vout.read_text())
    assert report["ok"] is True

    vec = tmp_path / "vec.csv"
    vec.write_text("0.1\n0.6\n0.62\n")
    pcfg = write_cfg(tmp_path, "pr.json", {
        "input": str(vec), "model": {"kind": "pc_markov", "p": 0.3}, "b": 2,
        "projector": {"kind": "lagrangian", "alpha": 0.01},
    })
    pout = tmp_path / "p.csv"
    assert run(["project", "--config", pcfg, "--out", pout]) == 0
    lines = pout.read_text().splitlines()
    assert lines[1] == "i,x,value,symbol"
    assert len(lines) == 5


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", RECOVER_CFG)
    a, b, c = (tmp_path / f"s{i}.csv" for i in range(3))
    run(["recover", "--config", cfg, "--out", a, "--jobs", 1])
    run(["recover", "--config", cfg, "--out", b, "--jobs", 1, "--seed", 999])
    run(["recover", "--config", cfg, "--out", c, "--jobs", 1, "--seed", 999])
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()
    assert b'"seed":999' in b.read_bytes()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["recover", "--config", bad]) == 2
    assert "line 1" in capsys.readouterr().err

    unknown = write_cfg(tmp_path, "u.json", dict(RECOVER_CFG, bogus_key=1))
    assert run(["recover", "--config", unknown]) == 2
    assert "bogus_key" in capsys.readouterr().err

    f_min = dict(RECOVER_CFG, model={"kind": "pc_markov", "p": 0.1, "f_min": 0.25}, k=1)
    assert run(["recover", "--config", write_cfg(tmp_path, "f.json", f_min)]) == 2
    assert "'f_min' was unexpected" in capsys.readouterr().err

    missing = dict(RECOVER_CFG)
    del missing["m"]
    assert run(["recover", "--config", write_cfg(tmp_path, "m.json", missing)]) == 2
    err = capsys.readouterr().err
    assert "'m' is a required property" in err

    assert run(["recover", "--config", tmp_path / "absent.json"]) == 2

    # a --seed override on a config that is not an object used to raise TypeError
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert run(["recover", "--config", listed, "--seed", 3]) == 2
    assert "[1] is not of type 'object'" in capsys.readouterr().err

    # json.loads takes NaN and +-Infinity, and 1e400 overflows to inf; a
    # lagrangian alpha of NaN used to write an all-zero projection
    vec = tmp_path / "vec.csv"
    vec.write_text("0.1\n0.6\n")
    for constant in ("NaN", "Infinity", "-Infinity", "1e400"):
        text = json.dumps({"input": str(vec), "model": {"kind": "pc_markov", "p": 0.3},
                           "b": 2, "projector": {"kind": "lagrangian", "alpha": 0.5}})
        path = tmp_path / "nan.json"
        path.write_text(text.replace("0.5", constant))
        out = tmp_path / "nan.csv"
        assert run(["project", "--config", path, "--out", out]) == 2
        assert constant in capsys.readouterr().err
        assert not out.exists()

    # keys that no code path reads, and trial keys that phase sets itself: a
    # single run takes the paired step, and infodim draws nothing
    for command, cfg, key in (
        ("recover", dict(RECOVER_CFG, solve_b=12), "solve_b"),
        ("recover", dict(RECOVER_CFG, delta=0.1), "delta"),
        ("recover", dict(RECOVER_CFG, mu=0.5), "mu"),
        ("phase", dict(PHASE_CFG, mu=0.5), "mu"),
        ("infodim", dict(INFODIM_CFG, seed=1), "seed"),
        # every iterate is a grid point: a run stops only on an exact repeat
        ("recover", dict(RECOVER_CFG, stop_tol=0.0), "stop_tol"),
        ("phase", dict(PHASE_CFG, stop_tol=0.1), "stop_tol"),
        ("phase", dict(PHASE_CFG, success_threshold=0.1), "success_threshold"),
        ("phase", dict(PHASE_CFG, m=8), "m"),
    ):
        assert run([command, "--config", write_cfg(tmp_path, "k.json", cfg)]) == 2
        assert f"'{key}' was unexpected" in capsys.readouterr().err

    # a phase cell sets the model's p, which a table model does not have
    table = {"kind": "table_markov", "kernel": {
        "b": 1, "k": 0, "lo": 0.0, "hi": 1.0,
        "rows": [{"context": [], "probs": [0.75, 0.25]}],
    }}
    for cfg in (dict(PHASE_CFG, model=table), dict(PHASE_CFG, model=table, p_grid=[0.1, 0.5])):
        assert run(["phase", "--config", write_cfg(tmp_path, "t.json", cfg)]) == 2
        assert "'table_markov' is not one of" in capsys.readouterr().err

    # p_grid lists the p of each cell; null and [] used to run the model's p
    for p_grid, message in ((None, "None is not of type 'array'"), ([], "[] should be non-empty")):
        cfg = dict(PHASE_CFG, p_grid=p_grid)
        assert run(["phase", "--config", write_cfg(tmp_path, "pg.json", cfg)]) == 2
        assert f"p_grid: {message}" in capsys.readouterr().err

    # project searches the model kernel's grid, so it takes no lo or hi, and
    # it draws nothing, so it takes no seed
    vec = tmp_path / "vec.csv"
    vec.write_text("0.1\n0.6\n")
    for key in ("lo", "hi", "seed"):
        cfg = {"input": str(vec), "model": {"kind": "pc_markov", "p": 0.3}, "b": 2,
               "projector": {"kind": "lagrangian", "alpha": 0.01}, key: 0.0}
        assert run(["project", "--config", write_cfg(tmp_path, "lh.json", cfg)]) == 2
        assert f"'{key}' was unexpected" in capsys.readouterr().err

    # an inline kernel is checked before it is read: a malformed one used to
    # exit 1 with a KeyError
    for row, message in (
        (None, "model/kernel: 'b' is a required property"),
        ({"context": []}, "model/kernel/rows/0: 'probs' is a required property"),
        ({"context": [], "probs": [0.75, 0.25], "weight": 1},
         "model/kernel/rows/0: Additional properties are not allowed ('weight' was unexpected)"),
    ):
        kernel = {} if row is None else {"b": 1, "k": 0, "lo": 0.0, "hi": 1.0, "rows": [row]}
        cfg = dict(INFODIM_CFG, model={"kind": "table_markov", "kernel": kernel})
        assert run(["infodim", "--config", write_cfg(tmp_path, "kn.json", cfg)]) == 2
        assert message in capsys.readouterr().err


# a prior on [0, 0.5): two symbols, 0 and 0.25, at b=2
HALF_TABLE = {"kind": "table_markov", "kernel": {
    "b": 2, "k": 0, "lo": 0.0, "hi": 0.5,
    "rows": [{"context": [], "probs": [0.89, 0.11]}],
}}


def test_table_kernel_grid_is_the_search_space(tmp_path):
    # recover and project search the kernel's own grid, not [0, 1)
    base = {"model": HALF_TABLE, "n": 16, "m": 12, "b": 2, "k": 0, "trials": 1, "seed": 1}
    for name, projector in (("c", {"kind": "constrained"}), ("l", {"kind": "l0", "s": 4})):
        cfg = write_cfg(tmp_path, f"{name}.json", dict(base, projector=projector))
        out = tmp_path / f"{name}.csv"
        assert run(["recover", "--config", cfg, "--out", out, "--jobs", 1]) == 0
    # the path has 4 nonzeros, which an s=4 search of the right grid finds
    header, values = out.read_text().splitlines()[1:]
    row = dict(zip(header.split(","), values.split(",")))
    assert float(row["final_err_quantized"]) == 0.0

    vec = tmp_path / "vec.csv"
    vec.write_text("0.1\n0.6\n0.2\n")
    pcfg = write_cfg(tmp_path, "p.json", {
        "input": str(vec), "model": HALF_TABLE, "b": 2,
        "projector": {"kind": "lagrangian", "alpha": 0.01},
    })
    pout = tmp_path / "p.csv"
    assert run(["project", "--config", pcfg, "--out", pout]) == 0
    values = [float(line.split(",")[2]) for line in pout.read_text().splitlines()[2:]]
    assert set(values) <= {0.0, 0.25}


def table_config_with_lo(lo):
    """configs/recover_table.json with its kernel's lo set to lo."""
    config = json.loads((ROOT / "configs" / "recover_table.json").read_text("utf-8"))
    config["model"]["kernel"]["lo"] = lo
    return config


def test_off_grid_lo_recovers_on_the_grid_it_snaps_to(tmp_path):
    # lo = 0.1 snaps down to the 2-bit cell edge 0.0: the same grid as
    # recover_table's, so the same rows, and the sampled 0.0 is in range
    cfg = write_cfg(tmp_path, "r.json", table_config_with_lo(0.1))
    out = tmp_path / "r.csv"
    assert run(["recover", "--config", cfg, "--out", out, "--jobs", 1]) == 0
    golden = (ROOT / "tests" / "golden" / "recover_table.csv").read_text("utf-8")
    assert out.read_text("utf-8").splitlines()[1:] == golden.splitlines()[1:]


def test_off_grid_lo_validates_on_the_grid_it_snaps_to(tmp_path):
    reports = []
    for lo in (0.1, 0.0):
        entry = {"model": table_config_with_lo(lo)["model"], "n": 64, "k": 1, "b": 2,
                 "epsilon": 0.5, "trials": 200}
        cfg = write_cfg(tmp_path, "v.json", {
            "seed": 3, "suites": {"empirical_deviation": [entry]},
        })
        out = tmp_path / f"v{lo}.json"
        assert run(["validate", "--config", cfg, "--out", out]) == 0
        reports.append(json.loads(out.read_text("utf-8"))["results"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command, cfg, key", [
    ("recover", dict(RECOVER_CFG, projector={"kind": "l0"}), "s"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "lagrangian"}), "alpha"),
    ("recover", dict(RECOVER_CFG, model={"kind": "spike_slab"}), "p"),
    ("phase", dict(PHASE_CFG, model={"kind": "pc_markov"}), "p"),
    ("infodim", dict(INFODIM_CFG, model={"kind": "table_markov"}), "kernel"),
    ("project", dict(PROJECT_CFG, projector={"kind": "constrained"}), "gamma"),
    ("project", dict(PROJECT_CFG, projector={"kind": "lagrangian"}), "alpha"),
])
def test_missing_per_kind_field_is_a_config_error(tmp_path, capsys, command, cfg, key):
    if command == "project":
        vec = tmp_path / "vec.csv"
        vec.write_text("0.1\n0.6\n")
        cfg = dict(cfg, input=str(vec))
    path = write_cfg(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "c.out", "--jobs", 1]) == 2
    assert f"'{key}' is a required property" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("recover", dict(RECOVER_CFG, projector={"kind": "l0", "s": 5, "gamma": 1.0}), "gamma"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "l0", "s": 5, "alpha": 0.1}), "alpha"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "l0", "s": 5, "delta": 0.1}), "delta"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "lagrangian", "alpha": 0.1, "s": 5}), "s"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "lagrangian", "alpha": 0.1,
                                             "gamma": 1.0}), "gamma"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "lagrangian", "alpha": 0.1,
                                             "delta": 0.1}), "delta"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "constrained", "s": 5}), "s"),
    ("recover", dict(RECOVER_CFG, projector={"kind": "constrained", "alpha": 0.1}), "alpha"),
    ("recover", dict(RECOVER_CFG, model={"kind": "spike_slab", "p": 0.05, "path": "x"}), "path"),
    ("recover", dict(RECOVER_CFG, model={"kind": "spike_slab", "p": 0.05, "kernel": {}}),
     "kernel"),
    ("infodim", dict(INFODIM_CFG, model=dict(HALF_TABLE, p=0.1)), "p"),
    ("infodim", dict(INFODIM_CFG, model=dict(HALF_TABLE, path="x")), "path"),
    ("project", dict(PROJECT_CFG, projector={"kind": "constrained", "gamma": 1.0,
                                             "alpha": 0.1}), "alpha"),
    ("project", dict(PROJECT_CFG, projector={"kind": "lagrangian", "alpha": 0.1,
                                             "gamma": 1.0}), "gamma"),
    # a constrained budget in recover and phase comes from delta
    ("recover", dict(RECOVER_CFG, projector={"kind": "constrained", "gamma": 1.0}), "gamma"),
    ("phase", dict(PHASE_CFG, projector={"kind": "constrained", "gamma": 1.0}), "gamma"),
])
def test_key_the_kind_ignores_is_a_config_error(tmp_path, capsys, command, cfg, key):
    if command == "project":
        vec = tmp_path / "vec.csv"
        vec.write_text("0.1\n0.6\n")
        cfg = dict(cfg, input=str(vec))
    path = write_cfg(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "c.out", "--jobs", 1]) == 2
    assert f"'{key}' is not one of" in capsys.readouterr().err


def test_runtime_errors_exit_1(tmp_path, capsys):
    pcfg = write_cfg(tmp_path, "pr.json", {
        "input": str(tmp_path / "missing_vec.csv"),
        "model": {"kind": "pc_markov", "p": 0.3}, "b": 2,
        "projector": {"kind": "lagrangian", "alpha": 0.01},
    })
    assert run(["project", "--config", pcfg, "--out", tmp_path / "x.csv"]) == 1
    assert "error" in capsys.readouterr().err
    # a kernel row that does not sum to 1 names the sum as a number, not as
    # numpy's repr of a scalar
    kernel = {"b": 1, "k": 0, "lo": 0.0, "hi": 1.0,
              "rows": [{"context": [], "probs": [0.5, 0.2]}]}
    icfg = write_cfg(tmp_path, "i.json", dict(INFODIM_CFG, model={"kind": "table_markov",
                                                                  "kernel": kernel}))
    assert run(["infodim", "--config", icfg, "--out", tmp_path / "i.csv"]) == 1
    assert "error: ValueError: row for context () sums to 0.7, not 1" in capsys.readouterr().err


def test_k_differing_from_model_order_exits_1(tmp_path, capsys):
    # k only labels the k column; the solver takes the order from the model
    for command, cfg in (("recover", RECOVER_CFG), ("phase", PHASE_CFG)):
        path = write_cfg(tmp_path, f"{command}_k.json", dict(cfg, k=1))
        assert run([command, "--config", path, "--out", tmp_path / "k.out", "--jobs", 1]) == 1
        err = capsys.readouterr().err
        assert "error: ValueError: config k=1 differs from the model's memory order k=0" in err


@pytest.mark.parametrize("key,value", [("max_iters", 5)])
def test_homotopy_run_with_a_single_schedule_key_exits_1(tmp_path, capsys, key, value):
    for command, cfg in (("recover", RECOVER_CFG), ("phase", PHASE_CFG)):
        path = write_cfg(tmp_path, f"{command}_{key}.json", dict(cfg, **{key: value}))
        assert run([command, "--config", path, "--out", tmp_path / "h.out", "--jobs", 1]) == 1
        err = capsys.readouterr().err
        assert f"error: ValueError: config {key} applies to the single schedule only" in err


@pytest.mark.parametrize("command", ["infodim", "project"])
def test_seed_flag_only_on_commands_that_draw(capsys, command):
    # infodim and project draw nothing, so --seed would change only the
    # provenance line
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", "c.json", "--jobs", 1, "--seed", 5])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_validate_failure_exits_1(tmp_path, monkeypatch):
    import qmap.experiments as experiments

    def broken(config):
        return {"config": config, "results": [], "ok": False}

    monkeypatch.setattr(experiments, "run_validate", broken)
    cfg = write_cfg(tmp_path, "v.json", VALIDATE_CFG)
    assert run(["validate", "--config", cfg, "--out", tmp_path / "v.out"]) == 1


# numpy is the only run-time dependency: with scipy made unimportable, every
# shipped config still runs, and a command that draws nothing leaves
# numpy.random unloaded
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from qmap.cli import main
assert main(sys.argv[1:]) == 0
if sys.argv[1] in ("project", "infodim"):
    assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_config_runs_without_scipy(config, tmp_path):
    argv = [config.stem.split("_")[0], "--config", str(config), "--out", str(tmp_path / "out")]
    src = str(Path(qmap.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", NO_SCIPY, *argv], capture_output=True,
                            text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


def test_validate_refuses_one_gaussian_projection_trial(tmp_path, capsys):
    # one trial has no correlation: it used to write correlation null with a
    # false verdict and exit 1
    cfg = {"seed": 1, "suites": {"gaussian_projection": [{"n": 2, "trials": 1}]}}
    out = tmp_path / "v.json"
    assert run(["validate", "--config", write_cfg(tmp_path, "g.json", cfg), "--out", out]) == 2
    assert "1 is less than the minimum of 2" in capsys.readouterr().err
    assert not out.exists()


def test_validate_default_passes_at_seed_1(tmp_path):
    # one chi_square lower-tail hit at seed 1 used to fail the point
    # comparison estimate <= bound; the binomial test does not reject it
    out = tmp_path / "v.json"
    assert run(["validate", "--config", ROOT / "configs" / "validate_default.json",
                "--seed", 1, "--out", out]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_jobs_1_imports_no_schema_library_or_process_pool(tmp_path):
    # configs are checked in-package, and the process pool is imported only
    # when --jobs > 1: both imports lengthen the start-up of every command
    vec = tmp_path / "vec.csv"
    vec.write_text("0.1\n0.6\n0.62\n")
    runs = [
        ("recover", dict(RECOVER_CFG, n=16, m=8, trials=1)),
        ("phase", dict(PHASE_CFG, n=16, m_over_n=[0.5], trials=1)),
        ("infodim", INFODIM_CFG),
        ("validate", dict(VALIDATE_CFG, suites={"chi_square": [{"m": 2, "tau": 1.0,
                                                                 "trials": 10}]})),
        ("project", {"input": str(vec), "model": {"kind": "pc_markov", "p": 0.3}, "b": 2,
                     "projector": {"kind": "constrained", "gamma": 0.5}}),
    ]
    argvs = [[command, "--config", write_cfg(tmp_path, f"{command}.json", cfg),
              "--out", str(tmp_path / f"{command}.out"), "--jobs", "1"]
             for command, cfg in runs]
    src = str(Path(qmap.__file__).resolve().parents[1])
    code = ("import sys, qmap.cli\n"
            f"assert [qmap.cli.main(argv) for argv in {argvs!r}] == [0] * {len(argvs)}\n"
            "loaded = {'jsonschema', 'referencing', 'concurrent.futures.process'}\n"
            "assert not loaded & sys.modules.keys(), loaded & sys.modules.keys()\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


def test_one_trial_at_jobs_2_runs_in_process(tmp_path):
    # a pool for one item would only add its import and a worker's start-up
    cfg = write_cfg(tmp_path, "r1.json", dict(RECOVER_CFG, trials=1))
    outs = [tmp_path / f"r1_jobs{jobs}.csv" for jobs in (1, 2)]
    argvs = [["recover", "--config", cfg, "--out", str(out), "--jobs", str(jobs)]
             for out, jobs in zip(outs, (1, 2))]
    src = str(Path(qmap.__file__).resolve().parents[1])
    code = ("import sys, qmap.cli\n"
            f"assert [qmap.cli.main(argv) for argv in {argvs!r}] == [0, 0]\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
