"""Byte-identity gate: every example config in configs/ must reproduce the
result file committed under tests/golden/, byte for byte, at --jobs 1 and,
for the commands that use a worker pool, at --jobs 2 and 3 (an uneven split
of the trial blocks over the workers).

Regenerate a golden file only for a change that is meant to move result
bytes, and say why in CHANGES.md:

    PYTHONPATH=src python -m qmap.cli <command> --config configs/<name>.json \\
        --out tests/golden/<name>.<csv|json> --jobs 1
"""

import json
from pathlib import Path

import pytest

from qmap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


def test_every_config_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.iterdir()) == CONFIGS


# recover and phase spread blocks of trials over worker processes; their
# bytes must not depend on how many
RUNS = [pytest.param(name, 1, id=name) for name in CONFIGS] + [
    pytest.param(name, jobs, id=f"{name}-jobs{jobs}")
    for jobs in (2, 3) for name in CONFIGS if name.split("_")[0] in ("recover", "phase")
]


@pytest.mark.parametrize("name, jobs", RUNS)
def test_config_output_matches_golden(name, jobs, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # a config's input path is relative to the repository root
    command = name.split("_")[0]
    expected = next(GOLDEN.glob(f"{name}.*"))
    out = tmp_path / expected.name
    argv = [command, "--config", str(ROOT / "configs" / f"{name}.json"),
            "--out", str(out), "--jobs", str(jobs)]
    assert main(argv) == 0
    if expected.suffix == ".json" and out.read_bytes() != expected.read_bytes():
        # name the values that moved before the byte comparison below
        assert _leaves(json.loads(out.read_text("utf-8"))) == _leaves(
            json.loads(expected.read_text("utf-8")))
    assert out.read_bytes() == expected.read_bytes()


def _leaves(doc, path="") -> dict:
    """A JSON document as {"/results/3/hits": 4838, ...}."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {path: doc}
    return {k: v for key, item in items for k, v in _leaves(item, f"{path}/{key}").items()}
