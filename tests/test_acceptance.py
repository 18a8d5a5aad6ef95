"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else.  Recovery and phase runs go
through the experiment layer (the same code path as the CLI).
"""

import math
import time
from functools import partial

import numpy as np

from qmap.cli import main as cli_main
from qmap.experiments import run_phase
from qmap.projection import project_constrained, project_lagrangian
from qmap.quantize import build_alphabet, quantize_vector
from qmap.sensing import gen_gaussian
from qmap.solver import PgdConfig, pgd_solve
from qmap.sources import (
    PiecewiseConstant,
    SpikeSlab,
    complexity_cost,
    cond_entropy,
    default_gamma,
    quantized_kernel,
    sample_path,
    weights_from_kernel,
)
from qmap.validation import (
    chi_square_tail,
    f_minimax,
    inner_product_tail,
    mc_empirical_deviation,
)

from conftest import random_kernel, random_weight_table
from oracles import (
    cond_empirical_entropy,
    contraction_floor,
    count_jumps,
    enumerate_sequences,
    k_type,
    kl_divergence,
    lagrangian_objective,
    project_bruteforce,
    qmap_bruteforce,
    recovery_error_paths,
    sequence_costs,
    weight_gap,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{name}]: {status} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_projection_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    max_gap = 0.0
    while checked < 200:
        n = int(rng.integers(3, 9))
        size = int(rng.integers(2, 4))
        k = int(rng.integers(0, 3))
        if n <= k:
            continue
        w = random_weight_table(rng, size, k, inf_frac=0.2)
        x = rng.normal(0.3, 0.6, n)
        alpha = float(rng.exponential(0.5))
        u_dp = project_lagrangian(x, w, alpha)
        u_bf = project_bruteforce(x, w, alpha=alpha)
        gap = abs(
            lagrangian_objective(x, u_dp, w, alpha)
            - lagrangian_objective(x, u_bf, w, alpha)
        )
        max_gap = max(max_gap, gap)
        ok = gap < 1e-12 and np.array_equal(u_dp, u_bf)
        if not ok:
            report(1, "projection oracle equivalence", False,
                   f"instance {checked}: gap={gap}, argmin match={np.array_equal(u_dp, u_bf)}")
        checked += 1
    wall = time.perf_counter() - t0
    report(1, "projection oracle equivalence", wall < 30.0,
           f"200 instances, max objective gap {max_gap:.2e}, wall {wall:.1f}s < 30s")


def test_criterion_02_cost_identities():
    rng = np.random.default_rng(102)
    p_ss, b_ss = 0.23, 4
    w_ss = weights_from_kernel(quantized_kernel(SpikeSlab(p_ss), b_ss))
    gap_ss = weight_gap(p_ss, b_ss)
    const_ss = math.log2(1 - p_ss + p_ss * 2.0 ** -b_ss)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 64))
        u = rng.integers(0, 2 ** b_ss, n)
        lhs = complexity_cost(u, w_ss) + const_ss
        rhs = np.count_nonzero(u) / n * gap_ss
        worst = max(worst, abs(lhs - rhs))
    p_pc, b_pc = 0.4, 3
    w_pc = weights_from_kernel(quantized_kernel(PiecewiseConstant(p_pc), b_pc))
    gap_pc = weight_gap(p_pc, b_pc)
    const_pc = math.log2(1 - p_pc + p_pc * 2.0 ** -b_pc)
    worst_pc = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 64))
        u = rng.integers(0, 2 ** b_pc, n)
        lhs = complexity_cost(u, w_pc)
        rhs = gap_pc * count_jumps(u) / (n - 1) - const_pc
        worst_pc = max(worst_pc, abs(lhs - rhs))
    ok = worst < 1e-10 and worst_pc < 1e-10
    report(2, "cost identities", ok,
           f"spike-slab worst {worst:.2e}, pc-markov worst {worst_pc:.2e}, tol 1e-10")


def test_criterion_03_decomposition_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(0, 3))
        kern = random_kernel(rng, 3, k)
        w = weights_from_kernel(kern)
        n = int(rng.integers(k + 2, 50))
        u = rng.integers(0, 3, n)
        kt = k_type(u, k)
        total = kt.total
        kl_term = 0.0
        for ctx, c_ctx in kt.context_counts().items():
            phat = {a: kt.counts.get(ctx + (a,), 0) / c_ctx for a in range(3)}
            q = {a: kern.cond[ctx][a] for a in range(3)}
            kl_term += (c_ctx / total) * kl_divergence(phat, q)
        gap = abs(complexity_cost(u, w) - cond_empirical_entropy(u, k) - kl_term)
        worst = max(worst, gap)
    report(3, "decomposition identity", worst < 1e-10,
           f"500 pairs, worst gap {worst:.2e}, tol 1e-10")


RECOVER_CONFIG = {
    "model": {"kind": "spike_slab", "p": 0.05},
    "n": 256, "m": 128, "b": 6, "k": 0, "sigma": 0.0,
    "projector": {"kind": "l0", "s": math.ceil(1.5 * 0.05 * 256)},
    "trials": 20, "seed": 20260810,
}

_recover_results = {}


def _criterion4_results():
    if "rows" not in _recover_results:
        t0 = time.perf_counter()
        rows, paths = recovery_error_paths(RECOVER_CONFIG)
        _recover_results.update(rows=rows, err_paths=paths, wall=time.perf_counter() - t0)
    return _recover_results


def test_criterion_04_noiseless_recovery():
    results = _criterion4_results()
    exact = sum(1 for r in results["rows"] if r["final_err_quantized"] == 0.0)
    wall = results["wall"]
    ok = exact >= 16 and wall < 60.0
    report(4, "noiseless recovery", ok,
           f"exact recovery {exact}/20 (need >= 16), wall {wall:.1f}s < 60s")


def test_criterion_05_contraction_telemetry():
    results = _criterion4_results()
    c = RECOVER_CONFIG
    dbar = cond_entropy(quantized_kernel(SpikeSlab(c["model"]["p"]), c["b"])) / c["b"]
    floor = contraction_floor(c["n"], c["m"], c["b"], c["sigma"], dbar, 0.1, "unit")
    good = 0
    total = 0
    for err in results["err_paths"]:
        pairs = [(err[t], err[t + 1]) for t in range(1, len(err) - 1)]
        counted = [p for p in pairs if p[0] > floor]
        if not counted:
            counted = [p for p in pairs if p[0] > 0.0]
        good += sum(1 for e0, e1 in counted if e1 <= 0.9 * e0 + floor)
        total += len(counted)
    frac = good / total if total else 1.0
    report(5, "contraction telemetry", frac >= 0.9,
           f"{good}/{total} iteration pairs within 0.9-contraction + floor "
           f"(floor={floor:.3f}), fraction {frac:.3f} >= 0.9")


def test_criterion_06_phase_direction():
    config = {
        "model": {"kind": "spike_slab", "p": 0.1},
        "n": 128, "b": 6, "k": 0,
        "projector": {"kind": "l0", "s": math.ceil(1.5 * 0.1 * 128)},
        "m_over_n": [0.05, 0.2, 0.35, 0.5],
        "trials": 20, "seed": 424242,
    }
    rows = run_phase(config, jobs=1)
    rates = [r["success_rate"] for r in rows]
    lo_ok = rates[0] <= 0.2
    hi_ok = rates[-1] >= 0.8
    slack = 2.0 * math.sqrt(0.25 * 2 / 20)  # two-proportion binomial noise
    monotone = all(r2 >= r1 - slack for r1, r2 in zip(rates, rates[1:]))
    ok = lo_ok and hi_ok and monotone
    report(6, "phase direction", ok,
           f"success rates {rates} at m/n {config['m_over_n']}; "
           f"<=0.2 at 0.05: {lo_ok}, >=0.8 at 0.5: {hi_ok}, monotone: {monotone}")


def test_criterion_07_information_dimension():
    p = 0.1
    worst = 0.0
    ratios = {}
    for b in (4, 8, 12, 16):
        kern = quantized_kernel(SpikeSlab(p), b)
        h_sum = cond_entropy(kern)  # summation over the exact 2^b-cell pmf
        q0 = (1 - p) + p * 2.0 ** -b
        h_closed = -q0 * math.log2(q0) + p * (1 - 2.0 ** -b) * (b - math.log2(p))
        worst = max(worst, abs(h_sum - h_closed))
        ratios[b] = h_sum / b
    vals = [ratios[b] for b in (4, 8, 12, 16)]
    decreasing = all(a > c for a, c in zip(vals, vals[1:]))
    near_limit = abs(ratios[16] - p) <= 0.05
    ok = worst < 1e-9 and decreasing and near_limit
    report(7, "information dimension", ok,
           f"worst |sum - closed form| {worst:.2e} < 1e-9, decreasing {decreasing}, "
           f"|H/16 - 0.1| = {abs(ratios[16] - 0.1):.4f} <= 0.05")


def test_criterion_08_f_minimax():
    t0 = time.perf_counter()
    value = f_minimax()
    wall = time.perf_counter() - t0
    ok = value >= 0.05 and wall < 60.0
    report(8, "f(alpha,s) minimax", ok,
           f"min-max {value:.4f} >= 0.05, wall {wall:.1f}s < 60s")


def test_criterion_09_concentration_suites():
    failures = []
    upper, lower = chi_square_tail(10, 1.0, 100_000, 901)
    for est in (upper, lower):
        if not (est.estimate <= est.bound or est.bound_vacuous):
            failures.append(f"chi_square m=10: {est.estimate} > {est.bound}")
    upper2, lower2 = chi_square_tail(1000, 0.2, 100_000, 902)
    for est in (upper2, lower2):
        if not (est.estimate <= est.bound or est.bound_vacuous):
            failures.append(f"chi_square m=1000: {est.estimate} > {est.bound}")
    for alpha in (-0.5, 0.0, 0.5):
        for m in (20, 50):
            est = inner_product_tail(alpha, m, 0.45, 100_000, 903)
            if not (est.estimate <= est.bound or est.bound_vacuous):
                failures.append(f"inner_product alpha={alpha} m={m}")
            if est.estimate > 2.0 ** (-0.05 * m):
                failures.append(f"inner_product corollary alpha={alpha} m={m}")
    estimates = []
    for i, n in enumerate((2 ** 8, 2 ** 10, 2 ** 12)):
        est = mc_empirical_deviation(
            PiecewiseConstant(0.2), n, 1, 3, 0.1, 2000, 904 + i, g=8
        )
        if not (est.estimate <= est.bound or est.bound_vacuous):
            failures.append(f"empirical_deviation n={n}")
        estimates.append(est.estimate)
    slack = 3.0 * math.sqrt(0.25 / 2000)
    if not all(a >= b - slack for a, b in zip(estimates, estimates[1:])):
        failures.append(f"empirical deviation not nonincreasing: {estimates}")
    report(9, "concentration suites", not failures,
           f"deviation estimates {estimates}; failures: {failures or 'none'}")


def test_criterion_10_bruteforce_qmap_consistency():
    n, m, b, p = 6, 4, 1, 0.3
    ab = build_alphabet(0, 1, b)
    kern = quantized_kernel(SpikeSlab(p), b)
    w = weights_from_kernel(kern)
    gamma = default_gamma(kern, delta=0.3)
    seqs = enumerate_sequences(ab.size, n)
    costs = sequence_costs(seqs, w) / (n - w.k)
    feasible = costs <= gamma
    projector = partial(project_constrained, w=w, gamma=gamma)
    bad = []
    for i in range(50):
        x = sample_path(SpikeSlab(p), n, 1000 + i)
        A = gen_gaussian(m, n, "unit", 2000 + i)
        y = A.entries @ ab.values[quantize_vector(x, ab)]
        oracle = qmap_bruteforce(A, y, w, gamma)
        r_orc = float(np.linalg.norm(A.entries @ ab.values[oracle] - y))
        resid = np.linalg.norm(ab.values[seqs] @ A.entries.T - y[None, :], axis=1)
        if not np.all(r_orc <= resid[feasible] + 1e-12):
            bad.append(f"oracle beaten at instance {i}")
        cfg = PgdConfig(projector=projector, max_iters=25)
        est, _ = pgd_solve(A, y, ab, cfg)
        idx = quantize_vector(est, ab)
        if complexity_cost(idx, w) > gamma:
            bad.append(f"PGD infeasible at instance {i}")
        if float(np.linalg.norm(A.entries @ est - y)) < r_orc - 1e-12:
            bad.append(f"PGD beat the oracle at instance {i}")
    report(10, "brute-force consistency", not bad,
           f"50 instances full-scan verified; issues: {bad or 'none'}")


def test_criterion_11_cli_determinism(tmp_path):
    import json

    configs = {
        "recover": {
            "model": {"kind": "spike_slab", "p": 0.05},
            "n": 48, "m": 24, "b": 5, "k": 0,
            "projector": {"kind": "l0", "s": 5}, "trials": 4, "seed": 77,
        },
        "phase": {
            "model": {"kind": "spike_slab", "p": 0.1},
            "n": 32, "b": 5, "k": 0, "projector": {"kind": "l0", "s": 6},
            "m_over_n": [0.25, 0.75], "trials": 3, "seed": 78,
        },
        "infodim": {"model": {"kind": "spike_slab", "p": 0.1}, "k": 0,
                    "b_list": [2, 4, 8]},
        "validate": {"seed": 79, "suites": {
            "chi_square": [{"m": 10, "tau": 1.0, "trials": 5000}]}},
        "project": None,  # built below (needs the input file)
    }
    vec = tmp_path / "vec.csv"
    vec.write_text("0.1\n0.4\n0.42\n0.9\n")
    configs["project"] = {
        "input": str(vec), "model": {"kind": "pc_markov", "p": 0.25}, "b": 3,
        "projector": {"kind": "lagrangian", "alpha": 0.01},
    }
    mismatches = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for run_idx, jobs in ((0, 1), (1, 1), (2, 8)):
            out = tmp_path / f"{command}_{run_idx}.out"
            code = cli_main([
                command, "--config", str(cfg_path), "--out", str(out),
                "--jobs", str(jobs),
            ])
            if code != 0:
                mismatches.append(f"{command} exited {code}")
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(f"{command} outputs differ across runs/jobs")
    report(11, "CLI determinism", not mismatches,
           f"5 commands x (repeat, jobs=1 vs 8); issues: {mismatches or 'none'}")
