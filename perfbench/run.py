"""qmap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload recover_l0 --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's CLI operations (see workloads.py), each
in a fresh interpreter with ``--jobs 1`` and BLAS/OpenMP threads pinned to
1, closed loop with one client, until the next round would end after
``--seconds``; at least one round always runs.  Each round is preceded by
the fixed reference job (reference.py).  Every round repeats the same
inputs, made from ``--seed``, so later rounds must write byte-identical
results.  The outputs of the rounds are checked after the timing ends.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced rounds alternate and
it reports the per-layer metrics, including the tracing overhead (traced
minus untraced round wall time).  The line before it, ``info``, holds the
quality figures of the outputs and the rounds' wall time in seconds.  Run
from anywhere; all files are read and written under the checkout that
holds this directory.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUPS = 3  # set-up is timed in every operation; probes top it up to this


@dataclass
class Round:
    dir: Path
    traced: bool
    ref: float = 0.0  # wall time of the reference job run just before
    wall: float = 0.0  # spawn to result file written, summed over the operations
    rss_mb: float = 0.0  # largest peak resident set of its processes
    setups: list[float] = field(default_factory=list)
    failed_ops: list[Op] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(work: Path, tag: str, argv: list[str] | None,
                spans: bool = False, capture: bool = False) -> tuple[int, float, float, float]:
    """Run op.py once; returns (exit code, set-up s, wall s, peak RSS MB)."""
    spec = {
        "argv": argv,
        "stamps": str(work / f"{tag}.stamps.json"),
        "spans": str(work / f"{tag}.spans.json") if spans else None,
        "capture": str(work / f"{tag}.npy") if capture else None,
    }
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"{tag}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "op.py"), str(spec_path)],
                                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0:
        tail = (work / f"{tag}.log").read_text(errors="replace").splitlines()[-5:]
        print(f"{tag}: exit {proc.returncode}: " + " | ".join(tail), file=sys.stderr)
        return proc.returncode, 0.0, 0.0, rss_mb
    stamps = json.loads(Path(spec["stamps"]).read_text(encoding="utf-8"))
    return 0, stamps["setup"] - t0, stamps["done"] - t0, rss_mb


def run_round(ops: list[Op], work: Path, index: int, traced: bool) -> Round:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT, env=child_env(),
                   check=True)
    rnd = Round(dir=work / f"round{index}", traced=traced, ref=time.perf_counter() - t0)
    rnd.dir.mkdir()
    for op in ops:
        rc, setup, wall, rss_mb = run_process(
            rnd.dir, Path(op.out).stem, op.argv(rnd.dir), spans=traced, capture=op.capture
        )
        rnd.rss_mb = max(rnd.rss_mb, rss_mb)
        if rc != 0:
            rnd.failed_ops.append(op)
            continue
        rnd.wall += wall
        rnd.setups.append(setup)
    return rnd


def same_outputs(a: Round, b: Round, ops: list[Op]) -> bool:
    for op in ops:
        names = [op.out] + ([f"{Path(op.out).stem}.npy"] if op.capture else [])
        if any((a.dir / n).read_bytes() != (b.dir / n).read_bytes() for n in names):
            return False
    return True


def declared_metrics(key: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[key]}


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    prepare, check = WORKLOADS[workload]
    ops = prepare(seed, work)
    compileall.compile_dir(str(SRC / "qmap"), quiet=1)  # first run in a checkout

    rounds: list[Round] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(ops, work, len(rounds), traced=trace and len(rounds) % 2 == 1))
        longest = max(longest, time.perf_counter() - t0)
        enough = not trace or len(rounds) >= 2
        if enough and time.perf_counter() - start + longest > seconds:
            break
    setups = [s for r in rounds for s in r.setups]
    while len(setups) < MIN_SETUPS:
        rc, setup, _, _ = run_process(work, f"probe{len(setups)}", None)
        if rc != 0:
            break
        setups.append(setup)

    attempted = sum(op.operations for _ in rounds for op in ops)
    failed = sum(op.operations for r in rounds for op in r.failed_ops)
    good = [r for r in rounds if not r.failed_ops]
    untraced = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    if not untraced or (trace and not traced):
        print(f"{workload}: no {'traced ' if untraced else ''}round succeeded", file=sys.stderr)
        return 1
    failures: list[str] = []
    first = good[0]
    captures = [np.load(first.dir / f"{Path(op.out).stem}.npy") if op.capture else None
                for op in ops]
    quality = check(seed, first.dir, captures, failures)
    for r in good[1:]:
        if not same_outputs(first, r, ops):
            failures.append(f"{r.dir.name} wrote different results than {first.dir.name}")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    # On a shared host a round's wall time drifts by up to 2x in phases of
    # seconds to minutes, and the reference job run just before it drifts
    # with it; wall_ref, their ratio, is what stays steady between runs.
    fastest = min(untraced, key=lambda r: r.wall)
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(r.wall / r.ref for r in untraced),
            "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
        }
        units = declared_metrics("end_to_end")
    else:
        best = min(traced, key=lambda r: r.wall)
        values = layer_metrics([
            json.loads((best.dir / f"{Path(op.out).stem}.spans.json").read_text())
            for op in ops
        ])
        values["trace.wall_s"] = best.wall
        values["trace.overhead_s"] = best.wall - fastest.wall
        units = declared_metrics("per_layer")
    print(f"{workload}: seed {seed}, {len(rounds)} rounds, walls "
          + ", ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in rounds)
          + "; references " + ", ".join(f"{r.ref:.3f}" for r in rounds)
          + "; set-ups " + ", ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
    quality["wall_s"] = (statistics.median(r.wall for r in untraced), "s")
    print("info " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in quality.items()}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmap" / "cli.py").is_file():
        print(f"no qmap sources under {SRC}; run from a qmap checkout", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out"
    work = out / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            out.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
