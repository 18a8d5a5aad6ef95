"""One benchmark operation in a fresh interpreter.

    python3 perfbench/op.py <spec.json>

Imports qmap.cli, stamps the set-up time, runs ``qmap.cli.main`` on the
command line the spec names, then stamps the time the result file is
written.  The spec (written by run.py) holds:

- ``argv``: the CLI arguments, or null for a set-up probe that only imports;
- ``stamps``: the file that receives the two timestamps and the exit code;
- ``spans``: optional file for the spans of a traced run (see spans.py);
- ``capture``: optional ``.npy`` file for the estimates ``pgd_solve`` returns,
  so the benchmark can check the solver's output, which no CLI file holds.

Timestamps are ``time.perf_counter()`` values.  On Linux this is the
system-wide CLOCK_MONOTONIC, so the parent subtracts its own spawn time from
them.  Spans and captures are written after the second stamp, outside the
timed interval.
"""

import json
import sys
import time


def main(spec_path: str) -> int:
    import qmap.cli

    t_setup = time.perf_counter()
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    recorder = None
    if spec.get("spans"):
        import spans

        recorder = spans.install()
    captured = []
    if spec.get("capture"):
        import qmap.experiments

        solve = qmap.experiments.pgd_solve

        def capture(*args, **kwargs):
            result = solve(*args, **kwargs)
            captured.append(result[0].copy())
            return result

        qmap.experiments.pgd_solve = capture

    rc = qmap.cli.main(spec["argv"]) if spec.get("argv") else 0
    t_done = time.perf_counter()

    with open(spec["stamps"], "w", encoding="utf-8") as fh:
        json.dump({"setup": t_setup, "done": t_done, "rc": rc}, fh)
    if recorder is not None:
        recorder.dump(spec["spans"])
    if spec.get("capture"):
        import numpy as np

        np.save(spec["capture"], np.array(captured))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
