"""Batch experiment drivers: recovery runs, phase sweeps, information
dimension tables, validation suites, and one-shot projections.

Everything here is a pure function of (config, seed): per-trial seeds are
derived with SeedSequence([seed, trial_index]), results are gathered in
trial order, and files are written with locale-free formatting, so outputs
are byte-identical across reruns and across worker-pool sizes.

Recovery protocol.  Every step is a multiple mu of the step the convergence
theory pairs with the design (SenseMatrix.step_size: 1/m for unit entries,
n/m for 1/n-variance ones), which needs many more measurements than the
desk-scale regime; at m near n times the information dimension a single
constant-step run either cycles (large mu; every iterate is a grid point,
so no run can diverge) or freezes on the quantization grid (small mu).
"single" runs at mu = 1.  The default "homotopy" chains plain PGD runs: the
sparsity budget grows stepwise at mu = 0.5 on a fine solve grid (where the
quantization dead zone is negligible, and which contains the target grid),
then mu = 0.7 and 1.0 on the target grid snap the estimate onto it.  Every
stage is an ordinary PGD run warm-started from the previous stage's output.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np

from .projection import nearest_index, project_constrained, project_l0
from .quantize import build_alphabet, quantize_vector
from .sensing import gen_gaussian, measure
from .solver import PgdConfig, pgd_solve, pgd_solve_stack
from .sources import (
    PiecewiseConstant,
    SourceModel,
    SpikeSlab,
    cond_entropy,
    default_gamma,
    info_dimension_curve,
    kernel_from_json,
    quantized_kernel,
    sample_path,
    weights_from_kernel,
)
from .validation import (
    FLAT_RATE,
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

# A recovery block stacks as many trials as their designs fit in this many
# entries (1 MB), or one trial: each PGD iteration reads a design while it is
# in cache, and a block costs one projector call per iteration, not one a
# trial.  No row depends on the block.
_BLOCK = 2 ** 17


def trial_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Stable per-trial seed stream, independent of scheduling order.

    numpy.random loads on this first use, so a command that draws nothing
    never imports it.
    """
    return np.random.SeedSequence([seed, index])


def build_model(spec: dict) -> SourceModel:
    kind = spec["kind"]
    if kind == "spike_slab":
        return SpikeSlab(float(spec["p"]))
    if kind == "pc_markov":
        return PiecewiseConstant(float(spec["p"]))
    if kind == "table_markov":
        return kernel_from_json(spec["kernel"])
    raise ValueError(f"unknown model kind {kind!r}")


def build_projector(spec: dict, kernel):
    """The projection map of a projector config, from a step vector to
    symbol indices on kernel's grid: project_l0 at budget s, or
    project_constrained on the kernel's weight table at budget gamma, which
    recover and phase derive from delta (default_gamma).  Only the
    constrained projector builds a weight table."""
    kind = spec["kind"]
    if kind == "l0":
        return partial(project_l0, alphabet=kernel.alphabet, s=int(spec["s"]))
    if kind == "constrained":
        if "gamma" in spec:
            gamma = float(spec["gamma"])
        else:
            gamma = default_gamma(kernel, float(spec.get("delta", 0.1)))
        return partial(project_constrained, w=weights_from_kernel(kernel), gamma=gamma)
    raise ValueError(f"unknown projector kind {kind!r}")


def _schedule(config: dict, spec: dict) -> str:
    return config.get("schedule", "homotopy" if spec["kind"] == "l0" else "single")


def _stages(config: dict, spec: dict, projector, kernel) -> list:
    """The PGD runs of one trial, in order, as (alphabet, PgdConfig) pairs;
    each PgdConfig.mu is a multiple of the design's paired step.

    "single" is one run of projector on the target grid, the alphabet of
    kernel, at the paired step (mu = 1).  "homotopy" grows the l0 budget
    s stepwise on the solve grid (the same range at 12 bits, or b if finer),
    then polishes with projector on the target grid at a rising step size."""
    alphabet = kernel.alphabet
    schedule = _schedule(config, spec)
    if schedule == "single":
        return [(alphabet, PgdConfig(projector, max_iters=int(config.get("max_iters", 200))))]
    if schedule != "homotopy":
        raise ValueError(f"unknown schedule {schedule!r}")
    if spec["kind"] != "l0":
        raise ValueError("the homotopy schedule requires the l0 projector")
    if "max_iters" in config:  # the homotopy stages set their own budgets
        raise ValueError("config max_iters applies to the single schedule only, not homotopy")
    fine = build_alphabet(alphabet.lo, alphabet.hi, max(alphabet.b, HOMOTOPY_SOLVE_B))
    s_final = int(spec["s"])
    grow = sorted({max(1, math.ceil(s_final * j / 10)) for j in range(1, 11)})
    budgets = [(s, HOMOTOPY_GROW_ITERS) for s in grow] + [(s_final, HOMOTOPY_FINAL_ITERS)]
    stages = [
        (fine, PgdConfig(partial(project_l0, alphabet=fine, s=s), HOMOTOPY_GROW_MU, iters))
        for s, iters in budgets
    ]
    stages += [(alphabet, PgdConfig(projector, mu, iters)) for mu, iters in HOMOTOPY_POLISH]
    return stages


def _blocks(config: dict) -> list[range]:
    """The trial indices of a recovery config, cut into blocks whose designs
    hold at most _BLOCK entries together (one trial at least)."""
    trials = int(config["trials"])
    size = max(1, _BLOCK // (int(config["m"]) * int(config["n"])))
    return [range(i, min(i + size, trials)) for i in range(0, trials, size)]


def run_recovery_trials(config: dict, indices) -> list[dict]:
    """Seeded recovery runs of the given trial indices; returns their result
    rows, in order.

    A trial's stages run in order, each from the previous one's end, but
    its row reports the end of lowest residual among the stages on the
    target grid (the earlier stage on a tie): a later polish stage can leave
    a good fit for a cycle of worse ones.  The homotopy stages run the
    trials as one stack (pgd_solve_stack); the single schedule solves one
    trial at a time.  Either way a row does not depend on the other trials
    run with it."""
    n = int(config["n"])
    m = int(config["m"])
    b = int(config["b"])
    k = int(config["k"])
    sigma = float(config.get("sigma", 0.0))
    model = build_model(config["model"])
    kernel = quantized_kernel(model, b)
    if k != kernel.k:
        raise ValueError(f"config k={k} differs from the model's memory order k={kernel.k}")
    alphabet = kernel.alphabet
    truths, designs, ys = [], [], []
    for index in indices:
        seeds = trial_seed(int(config["seed"]), index).spawn(3)
        seed_x, seed_a, seed_z = (int(s.generate_state(1)[0]) for s in seeds)
        x = sample_path(model, n, seed_x)
        truth_q = alphabet.values[quantize_vector(x, alphabet)]
        A = gen_gaussian(m, n, config.get("scale", "unit"), seed_a)
        target = truth_q if config.get("measure_quantized", True) else x
        truths.append((x, truth_q))
        designs.append(A)
        ys.append(measure(A, target, sigma, seed_z))
    ys = np.array(ys)

    spec = config["projector"]
    projector = build_projector(spec, kernel)
    stacked = _schedule(config, spec) == "homotopy"
    iters = [0] * len(designs)
    ests = None
    best = [None] * len(designs)  # (residual, estimate) of the best target-grid stage end
    for stage_alphabet, cfg in _stages(config, spec, projector, kernel):
        if ests is not None:
            cfg = replace(cfg, start=nearest_index(stage_alphabet, ests))
        if stacked:
            ests, traces = pgd_solve_stack(designs, ys, stage_alphabet, cfg)
        else:  # one stage; the constrained projector takes one vector at a time
            ests, traces = zip(*(pgd_solve(A, y, stage_alphabet, cfg)
                                 for A, y in zip(designs, ys)))
        for i, trace in enumerate(traces):
            iters[i] += trace.iters
            if stage_alphabet.b == b and (best[i] is None or trace.residuals[-1] < best[i][0]):
                best[i] = (trace.residuals[-1], ests[i])
    rows = []
    for index, (x, truth_q), trial_iters, (residual, est) in zip(indices, truths, iters, best):
        rows.append({
            "trial": index,
            "seed": int(config["seed"]),
            "n": n, "m": m, "b": b, "k": k, "sigma": sigma,
            "iters": trial_iters,
            "final_err_quantized": float(np.linalg.norm(est - truth_q)) / math.sqrt(n),
            "final_err_analog": float(np.linalg.norm(est - x)) / math.sqrt(n),
            "residual": residual,
        })
    return rows


def _map(fn, jobs: int, *sequences) -> list:
    """list(map(fn, *sequences)), spread over at most jobs worker processes
    and no more than there are items; results come back in input order
    either way."""
    jobs = min(jobs, *map(len, sequences))
    if jobs <= 1:
        return list(map(fn, *sequences))
    from concurrent.futures import ProcessPoolExecutor  # imported here: one worker never needs it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *sequences))


def run_recover(config: dict, jobs: int = 1) -> list[dict]:
    """All trials of a recovery config, in trial order; jobs spreads their
    blocks over worker processes."""
    blocks = _map(partial(run_recovery_trials, config), jobs, _blocks(config))
    return [row for rows in blocks for row in rows]


def run_phase(config: dict, jobs: int = 1) -> list[dict]:
    """Success rate per (m/n, model parameter) cell.  The trials of every
    cell run in blocks, and jobs spreads the blocks of all cells over worker
    processes."""
    n = int(config["n"])
    b = int(config["b"])
    p_grid = config.get("p_grid", [config["model"]["p"]])
    cells = []
    for p in p_grid:
        for frac in config["m_over_n"]:
            seed = int(trial_seed(int(config["seed"]), len(cells)).generate_state(1)[0])
            m = max(1, round(float(frac) * n))
            cells.append(dict(config, m=m, model=dict(config["model"], p=float(p)), seed=seed))
    owners, configs, blocks = zip(*[(c, cell, block) for c, cell in enumerate(cells)
                                    for block in _blocks(cell)])
    threshold = 2.0 * 2.0 ** -b
    successes = [0] * len(cells)
    for c, rows in zip(owners, _map(run_recovery_trials, jobs, configs, blocks)):
        successes[c] += sum(row["final_err_quantized"] <= threshold for row in rows)
    rows = []
    for cell, passed in zip(cells, successes):
        trials = int(cell["trials"])
        kernel = quantized_kernel(build_model(cell["model"]), b)
        rows.append({
            "m_over_n": cell["m"] / n,
            "m": cell["m"],
            "p": cell["model"]["p"],
            "d_k_ref": cond_entropy(kernel) / b,
            "trials": trials,
            "successes": passed,
            "success_rate": passed / trials,
        })
    return rows


def run_infodim(config: dict) -> list[dict]:
    model = build_model(config["model"])
    k = int(config["k"])
    curve = info_dimension_curve(model, k, [int(b) for b in config["b_list"]])
    limit = config["model"]["p"] if config["model"]["kind"] == "spike_slab" else ""
    return [
        {"b": b, "ratio": ratio, "k": k, "spike_slab_limit": limit}
        for b, ratio in curve
    ]


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
        entry = suites["f_minimax"]
        value = f_minimax(**{key: int(count) for key, count in entry.items()})
        report["f_minimax"] = {"value": value, "threshold": FLAT_RATE}
        report["ok"] = report["ok"] and value >= FLAT_RATE
    return report


def run_project(config: dict) -> list[dict]:
    """One-shot projection of a vector read from a single-column CSV."""
    x = _read_vector(config["input"])
    kernel = quantized_kernel(build_model(config["model"]), int(config["b"]))
    alphabet = kernel.alphabet
    u = build_projector(config["projector"], kernel)(x)
    return [
        {"i": i, "x": xi, "value": value, "symbol": symbol}
        for i, (xi, value, symbol) in enumerate(
            zip(x.tolist(), alphabet.values[u].tolist(), u.tolist()))
    ]


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
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path: str, rows: list[dict], config: dict) -> None:
    """UTF-8 CSV whose header row is the keys of the rows, in the order of
    the first; the originating config is embedded as a leading comment line
    so every result file carries its provenance."""
    columns = list(rows[0])
    lines = ["# config=" + canonical_json(config), ",".join(columns)]
    lines += [",".join([format_value(row[c]) for c in columns]) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
