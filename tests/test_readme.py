import os
import re
import subprocess
import sys
from pathlib import Path

import qmap

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    # the README's one python block, run as written with every warning an
    # error; it needs numpy alone
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text("utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    src = str(Path(qmap.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                            capture_output=True, text=True, cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("converged")
