"""Byte-identity gate: every example config in configs/ must reproduce the
result file committed under tests/golden/, byte for byte.

Regenerate a golden file only for a change that is meant to move result
bytes, and say why in CHANGES.md:

    PYTHONPATH=src python -m qmap.cli <command> --config configs/<name>.json \\
        --out tests/golden/<name>.<csv|json> --jobs 1
"""

from pathlib import Path

import pytest

from qmap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


def test_every_config_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.iterdir()) == CONFIGS


@pytest.mark.parametrize("name", CONFIGS)
def test_config_output_matches_golden(name, tmp_path):
    command = name.split("_")[0]
    expected = next(GOLDEN.glob(f"{name}.*"))
    out = tmp_path / expected.name
    argv = [command, "--config", str(ROOT / "configs" / f"{name}.json"),
            "--out", str(out), "--jobs", "1"]
    assert main(argv) == 0
    assert out.read_bytes() == expected.read_bytes()
