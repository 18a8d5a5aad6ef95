"""The benchmark workloads: inputs made from the workload seed, and the
checks on the program's outputs.

Each workload is one round of CLI operations.  ``prepare`` writes the
configs and input vectors for a seed and returns the round's operations;
``check`` reads the result files of one round for the same seed, appends
what fails to ``failures`` and returns the quality figures.  Checks are
computed here, apart from the program: closed-form entropies and costs, exact chi-square tails, and properties every correct
output has (on the grid, within the budget, truncation error below one grid
step).  Nothing here imports qmap.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``operations`` is what it counts as attempted."""

    command: str
    config: Path
    out: str  # result file name inside the round directory
    operations: int
    capture: bool = False

    def argv(self, round_dir: Path) -> list[str]:
        return [self.command, "--config", str(self.config),
                "--out", str(round_dir / self.out), "--jobs", "1"]


def entropy_per_symbol(p: float, b: int) -> float:
    """H([X]_b) of spike-and-slab, and H([X_2]_b | [X_1]_b) of the
    piecewise-constant chain: one cell of mass 1-p+p 2^-b, 2^b-1 cells of
    mass p 2^-b."""
    q0 = 1.0 - p + p * 2.0 ** -b
    return -q0 * math.log2(q0) + p * (1.0 - 2.0 ** -b) * (b - math.log2(p))


def jump_cost(jumps: float, n: int, p: float, b: int) -> float:
    """Complexity cost of a length-n piecewise-constant-Markov sequence with
    the given number of jumps (acceptance criterion 2): the hold window
    weighs -log2(1-p+p 2^-b), a jump window -log2(p 2^-b)."""
    hold = -math.log2(1.0 - p + p * 2.0 ** -b)
    jump = -math.log2(p * 2.0 ** -b)
    return (jumps * jump + (n - 1 - jumps) * hold) / (n - 1)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def grid_symbols(values: np.ndarray, b: int) -> np.ndarray | None:
    """Symbol indices of values on the b-bit grid of [0, 1), or None."""
    scaled = values * 2.0 ** b
    symbols = np.floor(scaled)
    if not np.array_equal(symbols, scaled) or symbols.min() < 0 or symbols.max() >= 2 ** b:
        return None
    return symbols.astype(np.int64)


# ---------------------------------------------------------------- recover_l0

RECOVER_L0 = {  # acceptance criterion 4
    "model": {"kind": "spike_slab", "p": 0.05},
    "n": 256, "m": 128, "b": 6, "k": 0, "sigma": 0.0,
    "projector": {"kind": "l0", "s": 20},
    "trials": 20,
}


def prepare_recover_l0(seed: int, work: Path) -> list[Op]:
    cfg = write_json(work / "recover_l0.json", dict(RECOVER_L0, seed=seed))
    return [Op("recover", cfg, "recover.csv", RECOVER_L0["trials"])]


def _recover_rows(rows, config, failures) -> tuple[int, float]:
    """Shared recover checks; returns (trials recovered, mean error)."""
    b = config["b"]
    if [int(r["trial"]) for r in rows] != list(range(config["trials"])):
        failures.append(f"expected trials 0..{config['trials'] - 1}, got {len(rows)} rows")
        return 0, math.nan
    err_q = np.array([float(r["final_err_quantized"]) for r in rows])
    return int((err_q <= 2.0 * 2.0 ** -b).sum()), float(err_q.mean())


def check_recover_l0(seed: int, round_dir: Path, captures, failures: list[str]) -> dict:
    rows = read_csv(round_dir / "recover.csv")
    recovered, _ = _recover_rows(rows, RECOVER_L0, failures)
    step = 2.0 ** -RECOVER_L0["b"]
    exact = [r for r in rows if float(r["final_err_quantized"]) == 0.0]
    if len(exact) < 16:
        failures.append(f"exact recovery {len(exact)}/20, need >= 16")
    for r in exact:
        if float(r["residual"]) != 0.0:
            failures.append(f"trial {r['trial']}: exact but residual {r['residual']}")
        if not 0.0 <= float(r["final_err_analog"]) < step:
            failures.append(
                f"trial {r['trial']}: analog error {r['final_err_analog']} "
                f"breaks the truncation bound 2^-b"
            )
    return {"trials_recovered": (recovered, "count")}


# ------------------------------------------------------- recover_constrained

# configs/recover_pc_noisy.json with sigma 0.2 instead of 0.05, and one trial
# per round.  At 0.05 the gradient step often rounds to a feasible sequence,
# which the projector accepts after one Viterbi pass instead of 42, so a
# trial makes 200 to 1260 passes depending on the seed.  At 0.2 every
# projection bisects: 1260 passes per trial on every trial of seeds 1-8.
RECOVER_CONSTRAINED = {
    "model": {"kind": "pc_markov", "p": 0.1},
    "n": 128, "m": 384, "b": 3, "k": 1, "sigma": 0.2,
    "scale": "normalized",
    "projector": {"kind": "constrained", "delta": 0.3},
    "schedule": "single", "max_iters": 30, "trials": 1,
}


def prepare_recover_constrained(seed: int, work: Path) -> list[Op]:
    cfg = write_json(work / "recover_constrained.json", dict(RECOVER_CONSTRAINED, seed=seed))
    return [Op("recover", cfg, "recover.csv", RECOVER_CONSTRAINED["trials"], capture=True)]


def check_recover_constrained(seed: int, round_dir: Path, captures, failures: list[str]) -> dict:
    c = RECOVER_CONSTRAINED
    n, b, p = c["n"], c["b"], c["model"]["p"]
    rows = read_csv(round_dir / "recover.csv")
    recovered, err_mean = _recover_rows(rows, c, failures)
    estimates = captures[0]
    if estimates is None or len(estimates) != c["trials"]:
        failures.append("expected one captured estimate per trial")
        return {}
    gamma = entropy_per_symbol(p, b) + c["projector"]["delta"] * b
    for t, est in enumerate(estimates):
        symbols = grid_symbols(est, b)
        if symbols is None:
            failures.append(f"trial {t}: estimate is off the {b}-bit grid")
            continue
        cost = jump_cost(int(np.count_nonzero(np.diff(symbols))), n, p, b)
        if cost > gamma + 1e-9:
            failures.append(f"trial {t}: cost {cost} > gamma {gamma}")
    return {"trials_recovered": (recovered, "count"), "err_q_mean": (err_mean, "1")}


# ------------------------------------------------------- project_constrained

PROJECT_N = 2048
PROJECT_B = 6
PROJECT_P = 0.1
PROJECT_SIGMA = 0.05


def project_input(seed: int) -> tuple[np.ndarray, float]:
    """A noisy piecewise-constant path and its gamma.  Gamma allows the
    jumps of the quantized clean path plus half a jump, so it binds (the
    nearest-grid sequence of the noisy path jumps almost everywhere) and the
    feasible set is exactly {jumps <= budget}."""
    n = PROJECT_N
    rng = np.random.default_rng([seed, 0])
    values = rng.random(n)
    jumps = rng.random(n) < PROJECT_P
    jumps[0] = True
    clean = values[np.maximum.accumulate(np.where(jumps, np.arange(n), 0))]
    x = clean + PROJECT_SIGMA * rng.standard_normal(n)
    budget = int(np.count_nonzero(np.diff(np.floor(clean * 2 ** PROJECT_B))))
    return x, jump_cost(budget + 0.5, n, PROJECT_P, PROJECT_B)


def prepare_project_constrained(seed: int, work: Path) -> list[Op]:
    x, gamma = project_input(seed)
    vector = work / "project_input.csv"
    vector.write_text("".join(f"{float(v)!r}\n" for v in x), encoding="utf-8")
    cfg = write_json(work / "project.json", {
        "input": str(vector),
        "model": {"kind": "pc_markov", "p": PROJECT_P},
        "b": PROJECT_B,
        "projector": {"kind": "constrained", "gamma": gamma},
    })
    return [Op("project", cfg, "project.csv", 1)]


def check_project_constrained(seed: int, round_dir: Path, captures,
                              failures: list[str]) -> dict:
    x, gamma = project_input(seed)
    rows = read_csv(round_dir / "project.csv")
    if [int(r["i"]) for r in rows] != list(range(PROJECT_N)):
        failures.append(f"expected {PROJECT_N} coordinates")
        return {}
    if not np.array_equal(np.array([float(r["x"]) for r in rows]), x):
        failures.append("echoed input differs from the input vector")
    values = np.array([float(r["value"]) for r in rows])
    symbols = grid_symbols(values, PROJECT_B)
    if symbols is None or not np.array_equal(symbols, [int(r["symbol"]) for r in rows]):
        failures.append("projection is off the grid or symbols mismatch values")
        return {}
    cost = jump_cost(int(np.count_nonzero(np.diff(symbols))), PROJECT_N, PROJECT_P, PROJECT_B)
    if cost > gamma:
        failures.append(f"cost {cost} > gamma {gamma}")
    distortion = float(((values - x) ** 2).sum())
    grid = np.arange(2 ** PROJECT_B) * 2.0 ** -PROJECT_B
    constant = float(((grid[:, None] - x[None, :]) ** 2).sum(axis=1).min())
    if distortion > constant * (1.0 + 1e-12):
        failures.append(
            f"distortion {distortion} exceeds the best constant sequence's {constant}"
        )
    return {"distortion": (distortion, "sq_err")}


# ----------------------------------------------------------- validate_suites

# configs/validate_default.json without the entries whose verdict depends on
# the seed: chi_square m=1000 tau=0.2 (its lower-tail bound 9.4e-6 is below
# one hit in 100000 trials, and P(hit) = 7.8 %), and both gaussian_projection
# entries (a 3-sigma correlation test and a KS test at 0.02 fail on about
# 0.34 % of seeds each).
VALIDATE = {
    "suites": {
        "chi_square": [{"m": 10, "tau": 1.0, "trials": 100000}],
        "inner_product": [
            {"alpha": alpha, "m": m, "tau": 0.45, "trials": 100000}
            for m in (20, 50) for alpha in (-0.5, 0.0, 0.5)
        ],
        "empirical_deviation": [
            {"model": {"kind": "pc_markov", "p": 0.2}, "n": n, "k": 1, "b": 3,
             "epsilon": 0.1, "trials": 2000, "g": 8}
            for n in (256, 1024, 4096)
        ],
        "f_minimax": {"alpha_points": 401, "s_points": 1000},
    },
}


def prepare_validate_suites(seed: int, work: Path) -> list[Op]:
    cfg = write_json(work / "validate_suites.json", dict(VALIDATE, seed=seed))
    suites = VALIDATE["suites"]
    entries = sum(len(v) if isinstance(v, list) else 1 for v in suites.values())
    return [Op("validate", cfg, "validate.json", entries)]


def check_validate_suites(seed: int, round_dir: Path, captures, failures: list[str]) -> dict:
    from scipy.special import gammainc, gammaincc  # exact chi-square tails

    report = json.loads((round_dir / "validate.json").read_text("utf-8"))
    if report.get("ok") is not True:
        failures.append("validate report is not ok")
    results = report["results"]
    suites = VALIDATE["suites"]
    expected = (2 * len(suites["chi_square"]) + len(suites["inner_product"])
                + len(suites["empirical_deviation"]))
    if len(results) != expected:
        failures.append(f"{len(results)} results, expected {expected}")
    for r in results:
        params = r["params"]
        if r["name"] in ("chi_square_upper", "chi_square_lower"):
            m, tau, trials = params["m"], params["tau"], r["trials"]
            if r["name"] == "chi_square_upper":
                exact = float(gammaincc(m / 2, m * (1 + tau) / 2))
            else:
                exact = float(gammainc(m / 2, m * (1 - tau) / 2))
            # binomial standard error, floored at that of one hit in `trials`
            se = math.sqrt(max(exact, 1.0 / trials) * (1.0 - exact) / trials)
            if abs(r["estimate"] - exact) > 4.0 * se:
                failures.append(
                    f"{r['name']} m={m} tau={tau}: estimate {r['estimate']} is more than "
                    f"4 SE from the exact tail {exact}"
                )
        elif r["name"] == "inner_product":
            flat = 2.0 ** (-0.05 * params["m"])
            if r["estimate"] > flat:
                failures.append(
                    f"inner_product alpha={params['alpha']} m={params['m']}: "
                    f"estimate {r['estimate']} > 2^(-0.05 m) = {flat}"
                )
    value = report.get("f_minimax", {}).get("value")
    if value is None or value < 0.05:
        failures.append(f"f-minimax value {value} < 0.05")
    return {}


WORKLOADS = {
    "recover_l0": (prepare_recover_l0, check_recover_l0),
    "recover_constrained": (prepare_recover_constrained, check_recover_constrained),
    "project_constrained": (prepare_project_constrained, check_project_constrained),
    "validate_suites": (prepare_validate_suites, check_validate_suites),
}
