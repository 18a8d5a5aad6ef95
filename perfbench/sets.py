"""Run sets of benchmark runs and report whether they agree within the
bounds of BENCHMARK.json.

    python3 perfbench/sets.py                      # 2 sets x 10 seeds, all workloads
    python3 perfbench/sets.py --sets 1 --runs 1    # every workload once

Set j runs every workload on seeds j*runs+1 .. (j+1)*runs, one run at a
time, with the command and run length of BENCHMARK.json.  Per workload and
end-to-end metric it prints each set's median and spread (distance between
the first and third quartile as a share of the median).  Two sets agree
when every spread is within the metric's bound, each later set's median
differs from the first set's by at most the bound in either direction,
every run is correct, and the share of failed operations is the same.
Exit code 0 when they agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in names}
    for j in range(args.sets):
        for w in names:
            for seed in range(j * args.runs + 1, (j + 1) * args.runs + 1):
                r = run(bench, w, seed)
                results[w][j].append(r)
                shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in r["metrics"].items())
                print(f"set {j + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {shown}", flush=True)
    if args.runs < 2:
        return 0

    agree = True
    print(f"\n{'workload':<20} {'metric':<12} {'bound':>6} "
          + " ".join(f"{'median' + str(j + 1):>10} {'spread' + str(j + 1):>8}" for j in range(args.sets))
          + "  verdict")
    for w in names:
        sets = results[w]
        if not all(r["correct"] for s in sets for r in s):
            print(f"{w}: a run reported correct=false")
            agree = False
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets}
        if len(shares) > 1:
            print(f"{w}: failed shares differ between sets: {sorted(shares)}")
            agree = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds, spreads = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                meds.append(statistics.median(values))
                spreads.append(spread(values))
            ok = all(sp <= bound for sp in spreads)
            ok = ok and all(abs(m - meds[0]) <= bound * meds[0] for m in meds[1:])
            agree = agree and ok
            print(f"{w:<20} {name:<12} {bound:>6.3f} "
                  + " ".join(f"{m:>10.4f} {sp:>8.4f}" for m, sp in zip(meds, spreads))
                  + ("  ok" if ok else "  DISAGREE"))
    print("sets agree" if agree else "sets disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
