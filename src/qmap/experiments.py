"""Batch experiment drivers: recovery runs, phase sweeps, information
dimension tables, validation suites, and one-shot projections.

Everything here is a pure function of (config, seed): per-trial seeds are
derived with SeedSequence([seed, trial_index]), results are gathered in
trial order, and files are written with locale-free formatting, so outputs
are byte-identical across reruns and across worker-pool sizes.

Recovery protocol.  The convergence theory pairs the step 1/m with unit
Gaussian designs but needs many more measurements than the interesting
desk-scale regime; at m close to n times the information dimension a single
constant-step run either diverges (large mu) or freezes on the quantization
grid (small mu).  The default "homotopy" schedule therefore chains plain
constant-step PGD runs: the sparsity budget grows stepwise at a fine solve
grid (where the quantization dead zone is negligible, and which contains
the target grid), and a short step-size ladder at the target grid snaps the
estimate onto it.  Every stage is an ordinary PGD run warm-started from the
previous stage's output.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.random import SeedSequence

from .empirics import complexity_cost
from .projection import nearest_index
from .quantize import build_alphabet, quantize_vector
from .sensing import gen_gaussian, measure
from .solver import (
    ConstrainedProjector,
    L0Projector,
    LagrangianProjector,
    PgdConfig,
    contraction_fraction,
    contraction_floor,
    default_gamma,
    pgd_solve,
)
from .sources import (
    PiecewiseConstant,
    SourceModel,
    SpikeSlab,
    TableMarkov,
    cond_entropy,
    info_dimension_curve,
    kernel_from_json,
    quantized_kernel,
    sample_path,
    weights_from_kernel,
)
from .validation import (
    chi_square_tail,
    f_minimax,
    gaussian_projection_check,
    inner_product_tail,
    mc_empirical_deviation,
)

HOMOTOPY_SOLVE_B = 12
HOMOTOPY_GROW_MU = 0.5
HOMOTOPY_GROW_ITERS = 300
HOMOTOPY_FINAL_ITERS = 800
HOMOTOPY_POLISH = ((0.7, 60), (1.0, 60))


def trial_seed(seed: int, index: int) -> SeedSequence:
    """Stable per-trial seed stream, independent of scheduling order."""
    return SeedSequence([seed, index])


def build_model(spec: dict) -> SourceModel:
    kind = spec["kind"]
    if kind == "spike_slab":
        return SpikeSlab(float(spec["p"]))
    if kind == "pc_markov":
        return PiecewiseConstant(float(spec["p"]), float(spec.get("f_min", 1.0)))
    if kind == "table_markov":
        if "path" in spec:
            with open(spec["path"], "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = spec["kernel"]
        return TableMarkov(kernel_from_json(doc))
    raise ValueError(f"unknown model kind {kind!r}")


def build_projector(spec: dict, kernel):
    kind = spec["kind"]
    if kind == "l0":
        return L0Projector(int(spec["s"]))
    if kind == "lagrangian":
        return LagrangianProjector(float(spec["alpha"]))
    if kind == "constrained":
        if "gamma" in spec:
            return ConstrainedProjector(float(spec["gamma"]))
        return ConstrainedProjector(default_gamma(kernel, float(spec.get("delta", 0.1))))
    raise ValueError(f"unknown projector kind {kind!r}")


def _homotopy_stages(s_final: int) -> list[tuple[int, float, int]]:
    steps = sorted({max(1, math.ceil(s_final * j / 10)) for j in range(1, 11)})
    stages = [(s, HOMOTOPY_GROW_MU, HOMOTOPY_GROW_ITERS) for s in steps]
    stages.append((s_final, HOMOTOPY_GROW_MU, HOMOTOPY_FINAL_ITERS))
    return stages


def run_recovery_trial(config: dict, index: int) -> dict:
    """One seeded recovery run; returns the result row plus telemetry."""
    n = int(config["n"])
    m = int(config["m"])
    b = int(config["b"])
    k = int(config["k"])
    sigma = float(config.get("sigma", 0.0))
    scale = config.get("scale", "unit")
    model = build_model(config["model"])
    kernel = quantized_kernel(model, b)
    if k != kernel.k:
        raise ValueError(f"config k={k} differs from the model's memory order k={kernel.k}")
    seeds = trial_seed(int(config["seed"]), index).spawn(3)
    seed_x, seed_a, seed_z = (int(s.generate_state(1)[0]) for s in seeds)

    x = sample_path(model, n, seed_x)
    alphabet = build_alphabet(0.0, 1.0, b)
    truth_q = alphabet.values[quantize_vector(x, alphabet)]
    A = gen_gaussian(m, n, scale, seed_a)
    target = truth_q if config.get("measure_quantized", True) else x
    y = measure(A, target, sigma, seed_z)

    w = weights_from_kernel(kernel)
    projector = build_projector(config["projector"], kernel)
    schedule = config.get(
        "schedule", "homotopy" if isinstance(projector, L0Projector) else "single"
    )

    err_path: list[float] = []
    iters = 0

    def run_stage(proj, stage_alphabet, stage_w, mu, max_iters, start, stop_tol=0.0):
        nonlocal iters
        cfg = PgdConfig(
            projector=proj, mu=mu, max_iters=max_iters, stop_tol=stop_tol, start=start,
        )
        est, trace = pgd_solve(A, y, stage_w, stage_alphabet, cfg, truth=x)
        iters += trace.iters
        skip = 1 if err_path else 0  # stage start repeats the previous record
        err_path.extend(trace.err_quantized[skip:])
        return est, trace

    if schedule == "single":
        mu = config.get("mu")
        est, trace = run_stage(
            projector, alphabet, w, None if mu is None else float(mu),
            int(config.get("max_iters", 200)), None,
            stop_tol=float(config.get("stop_tol", 0.0)),
        )
    elif schedule == "homotopy":
        if not isinstance(projector, L0Projector):
            raise ValueError("the homotopy schedule requires the l0 projector")
        solve_b = int(config.get("solve_b", max(b, HOMOTOPY_SOLVE_B)))
        ab_f = build_alphabet(0.0, 1.0, solve_b)
        w_f = weights_from_kernel(quantized_kernel(model, solve_b))
        start = None
        est = None
        for s_j, mu_c, t_j in _homotopy_stages(projector.s):
            est, _ = run_stage(L0Projector(s_j), ab_f, w_f, mu_c / m, t_j, start)
            start = nearest_index(ab_f, est)
        start = nearest_index(alphabet, est)
        for mu_c, t_j in HOMOTOPY_POLISH:
            est, trace = run_stage(projector, alphabet, w, mu_c / m, t_j, start)
            start = nearest_index(alphabet, est)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")

    est_idx = nearest_index(alphabet, est)  # est is on the grid; recover indices
    floor = contraction_floor(
        n, m, b, sigma, cond_entropy(kernel) / b, float(config.get("delta", 0.1)), scale
    )
    row = {
        "trial": index,
        "seed": int(config["seed"]),
        "n": n, "m": m, "b": b, "k": k, "sigma": sigma,
        "iters": iters,
        "final_err_quantized": float(np.linalg.norm(est - truth_q)) / math.sqrt(n),
        "final_err_analog": float(np.linalg.norm(est - x)) / math.sqrt(n),
        "residual": trace.residuals[-1],
    }
    return {
        "row": row,
        "cost": complexity_cost(est_idx, w),
        "err_path": err_path,
        "contraction_floor": floor,
        "contraction_frac": contraction_fraction(err_path, floor),
    }


def _recovery_worker(args) -> dict:
    config, index = args
    return run_recovery_trial(config, index)


def run_recover(config: dict, jobs: int = 1) -> list[dict]:
    """All trials of a recovery config, in trial order."""
    trials = int(config["trials"])
    tasks = [(config, i) for i in range(trials)]
    if jobs <= 1:
        return [run_recovery_trial(config, i) for i in range(trials)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_recovery_worker, tasks, chunksize=1))


RECOVER_COLUMNS = [
    "trial", "seed", "n", "m", "b", "k", "sigma", "iters",
    "final_err_quantized", "final_err_analog", "residual",
]


def _phase_cell_worker(args) -> dict:
    config, m, p, cell_index = args
    cell_cfg = dict(config)
    cell_cfg["m"] = m
    cell_cfg["model"] = dict(config["model"], p=p)
    cell_cfg["seed"] = int(
        trial_seed(int(config["seed"]), cell_index).generate_state(1)[0]
    )
    threshold = float(config.get("success_threshold", 2.0 * 2.0 ** -int(config["b"])))
    trials = int(config["trials"])
    successes = 0
    for i in range(trials):
        result = run_recovery_trial(cell_cfg, i)
        if result["row"]["final_err_quantized"] <= threshold:
            successes += 1
    kernel = quantized_kernel(build_model(cell_cfg["model"]), int(config["b"]))
    return {
        "m_over_n": m / int(config["n"]),
        "m": m,
        "p": p,
        "d_k_ref": cond_entropy(kernel) / int(config["b"]),
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
    }


def run_phase(config: dict, jobs: int = 1) -> list[dict]:
    """Success rate per (m/n, model parameter) cell."""
    n = int(config["n"])
    fracs = list(config["m_over_n"])
    p_grid = list(config.get("p_grid") or [config["model"]["p"]])
    cells = []
    idx = 0
    for p in p_grid:
        for frac in fracs:
            cells.append((config, max(1, round(float(frac) * n)), float(p), idx))
            idx += 1
    if jobs <= 1:
        return [_phase_cell_worker(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_phase_cell_worker, cells, chunksize=1))


PHASE_COLUMNS = ["m_over_n", "m", "p", "d_k_ref", "trials", "successes", "success_rate"]


def run_infodim(config: dict) -> list[dict]:
    model = build_model(config["model"])
    k = int(config["k"])
    curve = info_dimension_curve(model, k, [int(b) for b in config["b_list"]])
    limit = config["model"]["p"] if config["model"]["kind"] == "spike_slab" else ""
    return [
        {"b": b, "ratio": ratio, "k": k, "spike_slab_limit": limit}
        for b, ratio in curve
    ]


INFODIM_COLUMNS = ["b", "ratio", "k", "spike_slab_limit"]


def run_validate(config: dict) -> dict:
    """Run the configured validation suites and aggregate the estimates."""
    seed = int(config["seed"])
    suites = config["suites"]
    results = []
    stream = 0

    def next_seed() -> int:
        nonlocal stream
        stream += 1
        return int(trial_seed(seed, stream).generate_state(1)[0])

    for entry in suites.get("chi_square", []):
        upper, lower = chi_square_tail(
            int(entry["m"]), float(entry["tau"]), int(entry["trials"]), next_seed()
        )
        results.extend([upper, lower])
    for entry in suites.get("inner_product", []):
        results.append(
            inner_product_tail(
                float(entry["alpha"]), int(entry["m"]), float(entry["tau"]),
                int(entry["trials"]), next_seed(),
            )
        )
    for entry in suites.get("empirical_deviation", []):
        results.append(
            mc_empirical_deviation(
                build_model(entry["model"]), int(entry["n"]), int(entry["k"]),
                int(entry["b"]), float(entry["epsilon"]), int(entry["trials"]),
                next_seed(), g=int(entry.get("g", 8)),
            )
        )
    for entry in suites.get("gaussian_projection", []):
        results.append(
            gaussian_projection_check(int(entry["n"]), int(entry["trials"]), next_seed())
        )
    report = {
        "config": config,
        "results": [r.to_json() for r in results],
        "ok": all(r.respects_bound for r in results),
    }
    if "f_minimax" in suites:
        entry = suites["f_minimax"] if isinstance(suites["f_minimax"], dict) else {}
        alpha_grid = np.linspace(
            -0.999, 0.999, int(entry.get("alpha_points", 401))
        )
        s_grid = np.linspace(1e-4, 1.0 - 1e-4, int(entry.get("s_points", 1000)))
        value = f_minimax(alpha_grid, s_grid)
        report["f_minimax"] = {"value": value, "threshold": 0.05}
        report["ok"] = report["ok"] and value >= 0.05
    return report


def run_project(config: dict) -> list[dict]:
    """One-shot projection of a vector read from a single-column CSV."""
    from .projection import project_constrained, project_lagrangian

    x = _read_vector(config["input"])
    b = int(config["b"])
    lo = float(config.get("lo", 0.0))
    hi = float(config.get("hi", 1.0))
    alphabet = build_alphabet(lo, hi, b)
    model = build_model(config["model"])
    kernel = quantized_kernel(model, b)
    if kernel.alphabet.values[0] != alphabet.values[0] or kernel.alphabet.size != alphabet.size:
        raise ValueError("model kernel alphabet does not match the requested lo/hi/b")
    w = weights_from_kernel(kernel)
    proj = config["projector"]
    if proj["kind"] == "lagrangian":
        u = project_lagrangian(x, w, alphabet, float(proj["alpha"]))
    elif proj["kind"] == "constrained":
        u = project_constrained(x, w, alphabet, float(proj["gamma"]))
    else:
        raise ValueError("project supports the lagrangian and constrained projectors")
    return [
        {"i": i, "x": float(x[i]), "value": float(alphabet.values[u[i]]),
         "symbol": int(u[i])}
        for i in range(len(x))
    ]


PROJECT_COLUMNS = ["i", "x", "value", "symbol"]


def _read_vector(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(float(line.split(",")[0]))
    if not values:
        raise ValueError(f"no values found in {path}")
    return np.asarray(values, dtype=float)


def format_value(v) -> str:
    """Locale-free, round-trippable CSV field."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path: str, columns: list[str], rows: list[dict], config: dict) -> None:
    """UTF-8 CSV with a header row; the originating config is embedded as a
    leading comment line so every result file carries its provenance."""
    lines = ["# config=" + canonical_json(config)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(row[c]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
