"""Acceptance suite: the seven gate criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA).
Scales follow the stated desk-scale substitutes: the linear-model benchmark
runs 20 ground truths x 100 runs, the grid reproductions run 5 scenarios x
5 runs per combo.
"""

import os
import time

import numpy as np
import pytest

from ppgen.checks import (
    dr_robustness_check,
    oracle_agreement_check,
    orthonormality_check,
    prop1_check,
    theorem_structural_check,
)
from ppgen.domain import CompositeSample, KernelParams, ScenarioSpec, TRIAL
from ppgen.estimators import (
    EstimatorConfig,
    Target,
    estimate_abc,
    estimate_dr_abc,
    estimate_dr_aom,
    estimate_dr_baseline,
    estimate_ipw,
    estimate_om,
)
from ppgen.grid import combo_id, benchmark_grid, run_scenario_grid, run_table2
from ppgen.regression import ConstantPredictor, legendre_eval, ridge_fit

MASTER_SEED = 7
CHECK_SEED = 3


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def workers():
    return min(8, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def figure3_result(workers):
    return run_scenario_grid(
        benchmark_grid(master_seed=MASTER_SEED), n_scenarios=5, n_runs=5, workers=workers
    )


@pytest.fixture(scope="module")
def noise_result(workers):
    return run_scenario_grid(
        benchmark_grid(master_seed=MASTER_SEED, predictor_kind="iid_noise"),
        n_scenarios=5,
        n_runs=5,
        workers=workers,
    )


def test_criterion_1_table2(workers):
    started = time.time()
    result = run_table2(MASTER_SEED, n_ground_truths=20, n_runs=100, workers=workers)
    runtime = time.time() - started
    vals = {(r["row_id"], r["estimator"], r["order"]): r["mse"] for r in result.table_rows}
    problems = []
    for row in range(1, 7):
        a1, o1 = vals[(row, "abc", 1)], vals[(row, "om", 1)]
        a5, o5 = vals[(row, "abc", 5)], vals[(row, "om", 5)]
        if not a1 < o1:
            problems.append(f"row {row}: abc1 {a1:.4g} !< om1 {o1:.4g}")
        if abs(a5 - o5) > 0.10 * max(a5, o5):
            problems.append(f"row {row}: |abc5-om5| > 10% ({a5:.4g} vs {o5:.4g})")
    r1a, r1o = vals[(1, "abc", 1)], vals[(1, "om", 1)]
    if not 0.0001 / 3 <= r1a <= 0.0001 * 3:
        problems.append(f"row1 abc1 {r1a:.5g} outside factor 3 of .0001")
    if not 0.0092 / 3 <= r1o <= 0.0092 * 3:
        problems.append(f"row1 om1 {r1o:.5g} outside factor 3 of .0092")
    budget = 900.0 * 8 / workers
    if runtime > budget:
        problems.append(f"runtime {runtime:.0f}s over scaled budget {budget:.0f}s")
    report(
        "1 (linear-model benchmark)",
        not problems,
        "; ".join(problems)
        or f"all rows ordered, 5th-order fits identical, row1 = {r1a:.5f}/{r1o:.5f}, {runtime:.0f}s",
    )


def test_criterion_2_figure3(figure3_result):
    res = figure3_result
    problems = []
    # (a) the predictor-assisted estimators beat the trial-only model significantly
    cid = "n1=200;lx=0.2;conf=none"
    gaps = []
    for deg in (1, 3):
        for other in ("abc", "aom"):
            gap, se = res.rmse_gap(cid, "om", other, deg)
            gaps.append(f"om-{other}@{deg}: {gap:+.3f}>{2 * se:.3f}")
            if not gap > 2 * se:
                problems.append(f"gap om-{other} deg {deg}: {gap:.4f} <= 2SE {2 * se:.4f}")
    # (b) predictor-only error grows with hidden confounding
    conf_means = {}
    for conf in ("none", "mid", "strong"):
        vals = [
            r["rmse"]
            for r in res.combo_rows
            if r["estimator"] == "os-om" and f"conf={conf}" in r["combo_id"]
        ]
        conf_means[conf] = float(np.mean(vals))
    if not conf_means["none"] < conf_means["mid"] < conf_means["strong"]:
        problems.append(f"os-om not increasing: {conf_means}")
    # (c) predictor-only error does not depend on the trial size
    v200 = np.mean([r["rmse"] for r in res.combo_rows if r["estimator"] == "os-om" and "n1=200;" in r["combo_id"]])
    v1000 = np.mean([r["rmse"] for r in res.combo_rows if r["estimator"] == "os-om" and "n1=1000;" in r["combo_id"]])
    if abs(v200 - v1000) > 0.10 * max(v200, v1000):
        problems.append(f"os-om differs across n1: {v200:.4f} vs {v1000:.4f}")
    report(
        "2 (grid reproduction)",
        not problems,
        "; ".join(problems)
        or f"{'; '.join(gaps)}; os-om {conf_means['none']:.3f}<{conf_means['mid']:.3f}<{conf_means['strong']:.3f}; n1-invariant",
    )


def test_criterion_3_prop1():
    started = time.time()
    res = prop1_check(seed=CHECK_SEED, n_replications=10_000)
    runtime = time.time() - started
    ok = res.passed and runtime < 120
    report("3 (categorical MSE formula)", ok, f"{res.detail}, {runtime:.1f}s")


def test_criterion_4_theorem_structure():
    details = []
    ok = True
    for which in ("om", "abc", "aom"):
        res = theorem_structural_check(which, seed=CHECK_SEED, n_refits=500)
        ok &= res.passed
        details.append(f"{which}: {'ok' if res.passed else res.detail}")
    report("4 (MSE structure, 500 refits)", ok, "; ".join(details))


def test_criterion_5_double_robustness():
    res = dr_robustness_check(seed=CHECK_SEED, n1=10_000, n0=40_000, n_replications=40)
    report("5 (double robustness at n=50k)", res.passed, res.detail)


def test_criterion_6_noise_robustness(noise_result):
    res = noise_result
    degrees = (1, 3, 5, 7)
    problems = []
    for cid in sorted({r["combo_id"] for r in res.combo_rows}):
        gap, se = res.rmse_gap(cid, "aom", "om", degrees)
        if abs(gap) > 2 * se:
            problems.append(f"{cid}: AOM gap {gap:+.4f} > 2SE {2 * se:.4f}")
        if "n1=200;" in cid:
            abc, _ = res.mean_rmse(cid, "abc", degrees)
            om, _ = res.mean_rmse(cid, "om", degrees)
            if not abc > om:
                problems.append(f"{cid}: ABC {abc:.4f} not degraded vs OM {om:.4f}")
    report(
        "6 (noise-predictor robustness)",
        not problems,
        "; ".join(problems) or "AOM within 2SE of OM on all 12 combos; ABC degraded at n1=200",
    )


def test_criterion_7_numerical_invariants(workers):
    problems = []

    # Legendre orthonormality to 1e-10
    res = orthonormality_check()
    if not res.passed:
        problems.append(res.detail)

    # ridge optimality under coefficient perturbation
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 50)
    y = rng.normal(0, 1, 50)
    fit = ridge_fit(x, y, degree=3, penalty=0.3)
    feats = legendre_eval(x, 3)

    def objective(c):
        r = y - feats @ c
        return r @ r + 0.3 * (c @ c)

    base = objective(fit.coefficients)
    for k in range(4):
        for eps in (1e-3, -1e-3):
            c = fit.coefficients.copy()
            c[k] += eps
            if objective(c) < base:
                problems.append(f"ridge objective decreased by perturbing coef {k}")

    # ABC/OM identity at f == 0, bit-exact through the full CV path
    x1 = rng.uniform(-1, 1, 100)
    y1 = np.sin(2 * x1) + rng.normal(0, 0.2, 100)
    x0 = rng.uniform(-1, 1, 500)
    sample = CompositeSample.cohort(TRIAL, x1, np.zeros(100), np.ones(100, dtype=np.int64), y1)
    zero = ConstantPredictor(0.0)
    target = Target(x0, zero)
    cfg = EstimatorConfig(degree=3, a=1, fold_seed=11)
    if (estimate_abc(sample, zero, cfg, target=target).point_estimate
            != estimate_om(sample, cfg, target=target).point_estimate):
        problems.append("ABC(f=0) != OM bit-for-bit")

    # DR reduction identities to 1e-10
    nuis = ConstantPredictor(0.3)
    ipw = estimate_ipw(sample, nuis, a=1, target=target).point_estimate
    for name, value in [
        ("dr", estimate_dr_baseline(sample, nuis, cfg, outcome_fit=zero, target=target).point_estimate),
        ("dr-abc", estimate_dr_abc(sample, zero, nuis, cfg, bias_fit=zero, target=target).point_estimate),
        ("dr-pa", estimate_dr_aom(sample, zero, nuis, cfg, augmented_fit=zero, target=target).point_estimate),
    ]:
        if abs(value - ipw) > 1e-10 * max(1.0, abs(ipw)):
            problems.append(f"{name} with zero regression != IPW")
    g_fit = ridge_fit(x1, y1, degree=3, penalty=1e-6)
    om_same_fit = float(np.mean(g_fit.predict(x0)))
    dr_no_weights = estimate_dr_baseline(
        sample,
        ConstantPredictor(1 - 1e-12),
        cfg,
        outcome_fit=g_fit,
        target=target,
    ).point_estimate
    if abs(dr_no_weights - om_same_fit) > 1e-6:
        problems.append("DR with vanishing weights != regression average")

    # quadrature vs Monte Carlo oracle agreement
    res = oracle_agreement_check(seed=CHECK_SEED)
    if not res.passed:
        problems.append(res.detail)

    # full-pipeline determinism across parallelism degrees
    mini = [
        ScenarioSpec(
            fom_params=(KernelParams(1.0, 1.0, 0.5, None), KernelParams(1.0, 1.0, 0.2, None)),
            ps_params=KernelParams(10.0, 0.0, 1.0, None),
            pa_params=KernelParams(1.0, 0.0, 1.0, 0.5),
            n1=n1,
            n0=400,
            n_os=2_000,
            master_seed=99,
        )
        for n1 in (60, 120)
    ]
    serial = run_scenario_grid(mini, degrees=(1, 3), n_scenarios=2, n_runs=2, workers=1)
    parallel = run_scenario_grid(mini, degrees=(1, 3), n_scenarios=2, n_runs=2, workers=max(2, workers))
    if serial.combo_csv_text() != parallel.combo_csv_text():
        problems.append("grid CSV differs across parallelism degrees")

    report("7 (numerical invariants)", not problems, "; ".join(problems) or "all invariants hold")
