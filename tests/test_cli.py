import json
import os
import subprocess
import sys
from pathlib import Path

import qmap
from qmap.cli import main

RECOVER_CFG = {
    "model": {"kind": "spike_slab", "p": 0.05},
    "n": 48, "m": 24, "b": 5, "k": 0,
    "projector": {"kind": "l0", "s": 5},
    "trials": 3, "seed": 21,
}

PHASE_CFG = {
    "model": {"kind": "spike_slab", "p": 0.1},
    "n": 32, "b": 5, "k": 0,
    "projector": {"kind": "l0", "s": 6},
    "m_over_n": [0.25, 0.75],
    "trials": 3, "seed": 13,
}

INFODIM_CFG = {"model": {"kind": "spike_slab", "p": 0.1}, "k": 0, "b_list": [2, 4]}

VALIDATE_CFG = {
    "seed": 4,
    "suites": {"chi_square": [{"m": 10, "tau": 1.0, "trials": 4000}]},
}


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

    missing = dict(RECOVER_CFG)
    del missing["m"]
    assert run(["recover", "--config", write_cfg(tmp_path, "m.json", missing)]) == 2
    err = capsys.readouterr().err
    assert "'m' is a required property" in err

    assert run(["recover", "--config", tmp_path / "absent.json"]) == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    pcfg = write_cfg(tmp_path, "pr.json", {
        "input": str(tmp_path / "missing_vec.csv"),
        "model": {"kind": "pc_markov", "p": 0.3}, "b": 2,
        "projector": {"kind": "lagrangian", "alpha": 0.01},
    })
    assert run(["project", "--config", pcfg, "--out", tmp_path / "x.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_k_differing_from_model_order_exits_1(tmp_path, capsys):
    # k only labels the k column; the solver takes the order from the model
    for command, cfg in (("recover", RECOVER_CFG), ("phase", PHASE_CFG)):
        path = write_cfg(tmp_path, f"{command}_k.json", dict(cfg, k=1))
        assert run([command, "--config", path, "--out", tmp_path / "k.out", "--jobs", 1]) == 1
        err = capsys.readouterr().err
        assert "error: ValueError: config k=1 differs from the model's memory order k=0" in err


def test_validate_failure_exits_1(tmp_path, monkeypatch):
    import qmap.experiments as experiments

    def broken(config):
        return {"config": config, "results": [], "ok": False}

    monkeypatch.setattr(experiments, "run_validate", broken)
    cfg = write_cfg(tmp_path, "v.json", VALIDATE_CFG)
    assert run(["validate", "--config", cfg, "--out", tmp_path / "v.out"]) == 1


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and only the
    # gaussian_projection check needs it, so it is imported there
    src = str(Path(qmap.__file__).resolve().parents[1])
    code = "import sys, qmap.cli; assert 'scipy.stats' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
