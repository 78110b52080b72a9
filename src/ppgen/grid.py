"""Monte Carlo runners: the scenario grid and the Table-2 GLM study.

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

A confounding setting changes only the OS treatment surface ``pa``, which only
the OS cohort reads, so one task runs every setting of a scenario at one
length-scale: they share its target draw, true mean and, per trial size and
run, trial draw and nuisance fits, and the estimates that read no OS predictor
f are made once.  Each setting builds its own f.

Both studies redraw trials on a fixed world through one loop, ``_run_trials``.
The estimators take values, not predictors, and the loop evaluates each
function once where they read it.  The target sample and the OS predictor f
are fixed within a world, so each world gets one ``Target`` of the target
covariates and f on them, which every run's estimates read beside that run's
treated ``Arm``: f's values on the target and each fit's design on it are
computed once, however many runs, estimators and degrees read them.  Each
run masks its treated arm once and evaluates f once on it, and each
participation model once on that arm.  A world whose selected estimators
read no f builds none.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import os_predictor, true_mu
from .dgp import World, draw_target, draw_trial, gp_world
from .domain import GenerationError, GlmParams, KernelParams
from .domain import check_names, csv_text, derive_seed, is_degree, reject_repeats
from .estimators import (
    Arm,
    EstimatorConfig,
    Target,
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


@dataclass(frozen=True)
class Estimator:
    """One estimator and what it needs: ``estimate(arm, p1, cfg, target)``
    gets a run's treated ``Arm``, the world's ``Target`` and, if
    ``nuisances``, the values ``p1`` on the arm of the participation model
    fitted at ``cfg.degree``; ``reads_f`` says whether it reads the OS
    predictor's values (``arm.f`` or ``target.f``), and one that is not
    ``per_degree`` runs once, as degree -1."""

    estimate: Callable
    per_degree: bool = True
    nuisances: bool = False
    reads_f: bool = False


# Each entry looks its estimate function up when called, so replacing the
# module-level name (in a test, or to trace it) reaches every caller.
ESTIMATORS = {
    "om": Estimator(lambda arm, p1, cfg, t: estimate_om(arm, cfg, target=t)),
    "os-om": Estimator(lambda arm, p1, cfg, t: estimate_os_om(t), per_degree=False, reads_f=True),
    "abc": Estimator(lambda arm, p1, cfg, t: estimate_abc(arm, cfg, target=t), reads_f=True),
    "aom": Estimator(lambda arm, p1, cfg, t: estimate_aom(arm, cfg, target=t), reads_f=True),
    "ipw": Estimator(lambda arm, p1, cfg, t: estimate_ipw(arm, p1, target=t), nuisances=True),
    "dr": Estimator(lambda arm, p1, cfg, t: estimate_dr_baseline(arm, p1, cfg, target=t), nuisances=True),
    "dr-abc": Estimator(lambda arm, p1, cfg, t: estimate_dr_abc(arm, p1, cfg, target=t), nuisances=True, reads_f=True),
    "dr-pa": Estimator(lambda arm, p1, cfg, t: estimate_dr_aom(arm, p1, cfg, target=t), nuisances=True, reads_f=True),
}
GP_ESTIMATORS = tuple(name for name, e in ESTIMATORS.items() if not e.nuisances)
ALL_ESTIMATORS = tuple(ESTIMATORS)
DEFAULT_DEGREES = (1, 3, 5, 7)


def check_degrees(degrees: Sequence[int]) -> tuple[int, ...]:
    """``degrees`` as a tuple; ValueError unless they are distinct nonnegative
    integers, not bools (-1 labels the estimators that are not fitted per degree)."""
    degrees = tuple(degrees)
    if not degrees or len(set(degrees)) < len(degrees) or not all(map(is_degree, degrees)):
        raise ValueError(f"degrees must be distinct nonnegative integers, got {degrees}")
    return degrees


def _estimator_degrees(name: str, degrees: tuple[int, ...]) -> tuple[int, ...]:
    return degrees if ESTIMATORS[name].per_degree else (-1,)


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


def grid_kernels(l_x: float, conf: str) -> tuple:
    """(outcome kernels, participation kernel, treatment kernel) of the grid
    cell with treated-outcome length-scale ``l_x`` and confounding ``conf``."""
    l_u, alpha_u = CONFOUNDING_SETTINGS[conf]
    fom1 = KernelParams(alpha_x=1.0, alpha_u=1.0, l_x=l_x, l_u=None)
    pa = KernelParams(alpha_x=1.0, alpha_u=alpha_u, l_x=1.0, l_u=l_u)
    return (FOM0_KERNEL, fom1), PS_KERNEL, pa


class Combo(NamedTuple):
    """One grid cell: the trial size, the treated outcome's length-scale and
    the confounding setting."""

    n1: int
    lx: float
    conf: str


def combo_id(combo: Combo) -> str:
    return f"n1={combo.n1};lx={combo.lx};conf={combo.conf}"  # semicolons keep the CSV comma-free


@dataclass(frozen=True)
class Grid:
    """The combos of one grid run, each a ``Combo`` (or a tuple of its
    fields), and what they share: the master seed, the target and OS cohort
    sizes and the OS predictor's kind, "learned" or "iid_noise".  ValueError
    at construction on no combos, a non-positive size, an unknown kind or
    confounding setting, a length-scale that is not positive and finite, or a
    combo listed twice."""

    combos: tuple[Combo, ...]
    master_seed: int
    n0: int
    n_os: int
    predictor_kind: str

    def __post_init__(self):
        combos = tuple(Combo(*combo) for combo in self.combos)
        object.__setattr__(self, "combos", combos)
        if not combos:
            raise ValueError("empty grid")
        if self.predictor_kind not in ("learned", "iid_noise"):
            raise ValueError(f"unknown predictor kind {self.predictor_kind!r}")
        if min(self.n0, self.n_os, *(combo.n1 for combo in combos)) < 1:
            raise ValueError("sample sizes must be positive")
        check_names("confounding", list(dict.fromkeys(combo.conf for combo in combos)), CONFOUNDING_SETTINGS)
        for combo in combos:
            grid_kernels(combo.lx, combo.conf)  # KernelParams checks the length-scale
        reject_repeats("the grid lists a combo", list(combos))


def benchmark_grid(
    master_seed: int,
    n1_values: Sequence[int] = (200, 1000),
    lx_values: Sequence[float] = (0.5, 0.2),
    confounding: Sequence[str] = ("none", "mid", "strong"),
    n0: int = 20_000,
    n_os: int = 50_000,
    predictor_kind: str = "learned",
) -> Grid:
    """The 2 x 2 x 3 benchmark grid: every (n1, lx, conf) of the given
    values, in that order."""
    return Grid(tuple(itertools.product(n1_values, lx_values, confounding)), master_seed, n0, n_os, predictor_kind)


def _combo_fields(combo: Combo) -> dict:
    """The combo id, trial size and kernel settings a grid row reports."""
    l_u, alpha_u = CONFOUNDING_SETTINGS[combo.conf]
    return {"combo_id": combo_id(combo), "n1": combo.n1, "l_x_fom1": combo.lx, "l_u_pa": l_u, "alpha_u_pa": alpha_u}


def _map(fn, tasks: list, workers: int) -> list:
    """``fn`` over ``tasks`` in order, in a process pool when workers > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=1))
    return [fn(t) for t in tasks]


class _MemoPredictor:
    """A predictor passed through unchanged.  No ppgen code builds one: the
    benchmark's tracer wraps it by name, and ROADMAP item 12 deletes it."""

    def __init__(self, base):
        self.base = base

    def predict(self, x) -> np.ndarray:
        return self.base.predict(x)


def world_prologue(worlds: list[World], n0: int, n_os: int, seed_of, predictor_kind: str | None) -> tuple:
    """What every run on ``worlds`` shares, for worlds that differ at most in
    their OS treatment surface, which only the OS cohort reads: one cell
    ``(f, target)`` per world, of the OS predictor ``f`` of ``predictor_kind``
    and the ``Target`` of the shared target cohort and ``f``'s values on it,
    and the true mean ``mu``.  A ``predictor_kind`` of None builds no ``f``: it
    is None, and the ``Target`` holds no values of it."""
    x0 = draw_target(worlds[0], n0, seed_of("target")).x
    cells = []
    for world in worlds:
        f = None if predictor_kind is None else os_predictor(world, n_os, seed_of, predictor_kind)
        cells.append((f, Target(x0, None if f is None else f.predict(x0))))
    return cells, true_mu(worlds[0], a=1).mu_a


def _unless_failed(fn, *args):
    """``fn(*args)``, or None if it fails with a named domain error
    (ValueError, which LinAlgError, PositivityError and IllConditionedError
    are, or GenerationError)."""
    try:
        return fn(*args)
    except (ValueError, GenerationError):
        return None


def _run_trials(world: World, cells: list[tuple], n1: int, n_runs: int, keyed: list[tuple[str, int]],
                penalty_grid: tuple[float, ...], run_seed) -> list[dict[tuple[str, int], np.ndarray]]:
    """The estimates of each (estimator, degree) in ``keyed`` in each cell
    ``(f, target)`` of ``cells``, as ``world_prologue`` makes them, on
    ``n_runs`` fresh trials of size ``n1`` drawn from ``world``, run-aligned;
    ``run_seed(part, run)`` seeds run ``run``'s ``"trial"`` draw and
    ``"folds"`` split.  A run's trial draw and nuisance fits serve every cell,
    and the estimates that read no f are made in the first cell and are the
    same arrays in the others.  A named domain error leaves NaN what it
    stops: a failed draw the whole run, a failed nuisance fit the weighting
    estimators at its degree, a failed estimate itself.  Any other error
    propagates."""
    nuisance_degrees = dict.fromkeys(deg for name, deg in keyed if ESTIMATORS[name].nuisances)
    estimates = [{k: np.full(n_runs, np.nan) for k in keyed} for _ in cells]
    for run in range(n_runs):
        trial = _unless_failed(draw_trial, world, n1, run_seed("trial", run))
        if trial is None:
            continue
        fold_seed = run_seed("folds", run)
        x1, y1 = trial.trial_arm_arrays(1)
        nuisances = {deg: _unless_failed(fit_nuisances, trial.x, cells[0][1], deg) for deg in nuisance_degrees}
        p1 = {deg: None if fit is None else fit.predict(x1) for deg, fit in nuisances.items()}
        for cell, (f, target) in zip(estimates, cells):
            arm = Arm(x1, y1, None if f is None else f.predict(x1))
            for name, deg in keyed:
                entry = ESTIMATORS[name]
                if (cell is not estimates[0] and not entry.reads_f) or (entry.nuisances and p1[deg] is None):
                    continue
                cfg = EstimatorConfig(degree=max(deg, 0), penalty_grid=penalty_grid, fold_seed=fold_seed)
                record = _unless_failed(entry.estimate, arm, p1.get(deg), cfg, target)
                if record is not None:
                    cell[(name, deg)][run] = record.point_estimate
    for cell in estimates[1:]:
        cell.update((key, estimates[0][key]) for key in keyed if not ESTIMATORS[key[0]].reads_f)
    return estimates


@dataclass(frozen=True)
class _ScenarioTask:
    """One scenario at one length-scale: every combo of ``grid`` at ``lx``."""

    scenario: int
    lx: float
    grid: Grid
    estimators: tuple[str, ...]
    degrees: tuple[int, ...]
    n_runs: int

    @property
    def template(self):  # where perfbench's tracer reads the task's lx; ROADMAP item 12(a) deletes it
        return SimpleNamespace(fom_params=grid_kernels(self.lx, "none")[0])


def _run_scenario_task(task: _ScenarioTask) -> list[dict]:
    seed = task.grid.master_seed

    def seed_of(*parts):
        return derive_seed(seed, *parts, task.scenario)

    combos = [combo for combo in task.grid.combos if combo.lx == task.lx]
    # the settings' worlds differ only in pa, and one prologue draws their shared target
    worlds = {conf: gp_world(*grid_kernels(task.lx, conf), seed_of) for conf in dict.fromkeys(c.conf for c in combos)}
    reads_f = any(ESTIMATORS[name].reads_f for name in task.estimators)
    cells, mu = world_prologue(list(worlds.values()), task.grid.n0, task.grid.n_os, seed_of,
                               task.grid.predictor_kind if reads_f else None)
    cell_of = dict(zip(worlds, cells))
    keyed = [(name, deg) for name in task.estimators for deg in _estimator_degrees(name, task.degrees)]
    rows: list[dict] = []
    for n1 in dict.fromkeys(combo.n1 for combo in combos):
        at_n1 = [combo for combo in combos if combo.n1 == n1]
        per_cell = _run_trials(worlds[at_n1[0].conf], [cell_of[combo.conf] for combo in at_n1], n1, task.n_runs,
                               keyed, EstimatorConfig.penalty_grid,
                               lambda part, run: derive_seed(seed, part, n1, task.scenario, run))
        for combo, estimates in zip(at_n1, per_cell):
            fields = _combo_fields(combo)
            for (name, deg), est in estimates.items():
                ok = est[~np.isnan(est)]
                if ok.size:
                    rmse = float(np.sqrt(np.mean((ok - mu) ** 2)))
                    bias = float(np.mean(ok) - mu)
                    var = float(np.var(ok, ddof=1)) if ok.size > 1 else math.nan  # undefined from one run
                else:
                    rmse = bias = var = math.nan
                rows.append({
                    "scenario": task.scenario, "n1": n1, "estimator": name, "degree": deg, "rmse": rmse,
                    "bias": bias, "variance": var, "n_failures": int(np.isnan(est).sum()), "mu": mu,
                    "estimates": est.tolist(),  # run-aligned, NaN where failed
                    **fields,
                })
    return rows


COMBO_COLUMNS = (
    "combo_id", "n1", "l_x_fom1", "l_u_pa", "alpha_u_pa", "estimator", "degree",
    "rmse", "bias_sq", "variance", "n_scenarios", "n_runs", "n_failures", "master_seed",
)


@dataclass(frozen=True)
class GridResult:
    """Per-scenario and per-combo tables for one grid run."""

    scenario_rows: list[dict]
    combo_rows: list[dict]
    master_seed: int

    def combo_csv_text(self) -> str:
        # an inactive length-scale (None) is the infinite-length-scale limit
        return csv_text(COMBO_COLUMNS, [
            {**row, "l_u_pa": math.inf if row["l_u_pa"] is None else row["l_u_pa"],
             "master_seed": self.master_seed}
            for row in self.combo_rows
        ])

    def scenario_values(self, combo: str, estimator: str, degree: int, field: str = "rmse") -> np.ndarray:
        """Per-scenario values for one (combo, estimator, degree), in scenario order."""
        key = (combo, estimator, degree)
        rows = self.scenario_rows
        return np.asarray([r[field] for r in rows if (r["combo_id"], r["estimator"], r["degree"]) == key])

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
        if not len(degrees):
            raise ValueError(f"no degrees given for {combo}, {estimator}")
        per_degree = [
            (self.scenario_values(combo, estimator, d, "estimates"), self.scenario_values(combo, estimator, d, "mu"))
            for d in degrees
        ]
        missing = [(combo, estimator, d) for d, (_, mu) in zip(degrees, per_degree) if not len(mu)]
        if missing:
            raise ValueError(f"no scenario rows for (combo, estimator, degree) {missing[0]}")
        n_scen = len(per_degree[0][1])
        if any(len(mu) != n_scen for _, mu in per_degree):
            raise ValueError("mismatched scenario rows")
        means, var_terms = [], []
        for s in range(n_scen):
            total = 0.0
            influence = None
            for estimates, mu in per_degree:
                e2 = (estimates[s] - mu[s]) ** 2
                # a scenario with no successful run has no RMSE, and its NaN reaches the mean and the SE
                rmse = math.nan if np.isnan(e2).all() else math.sqrt(float(np.nanmean(e2)))
                total += rmse / len(per_degree)
                inf = e2 / (2 * rmse * len(per_degree))
                influence = inf if influence is None else influence + inf
            kept = influence[~np.isnan(influence)]
            means.append(total)
            # fewer than two successful runs leave the variance undefined
            var_terms.append(float(np.var(kept, ddof=1)) / kept.shape[0] if kept.shape[0] >= 2 else math.nan)
        return float(np.mean(means)), math.sqrt(sum(var_terms)) / n_scen

    def rmse_gap(self, combo: str, est_ref: str, est_other: str, degrees) -> tuple[float, float]:
        """Mean-RMSE difference (ref minus other) and the combined MC SE.

        The SE combines the two estimators' own Monte Carlo standard errors
        (no pairing assumed), which never understates the uncertainty of the
        comparison.
        """
        ref, se_ref = self.mean_rmse(combo, est_ref, degrees)
        other, se_other = self.mean_rmse(combo, est_other, degrees)
        return ref - other, math.hypot(se_ref, se_other)


def run_scenario_grid(
    grid: Grid,
    estimators: Sequence[str] = GP_ESTIMATORS,
    degrees: Sequence[int] = DEFAULT_DEGREES,
    n_scenarios: int = 100,
    n_runs: int = 100,
    workers: int = 1,
) -> GridResult:
    """Run every combo of the grid and aggregate RMSE / bias^2 / variance.

    Deterministic for a fixed seed regardless of ``workers``.  No, unknown or
    repeated estimator names, invalid degrees and a non-positive
    ``n_scenarios`` or ``n_runs`` raise ValueError before any world is built.
    """
    if n_scenarios < 1 or n_runs < 1:
        raise ValueError(f"n_scenarios and n_runs must be positive, got {n_scenarios} and {n_runs}")
    estimators, degrees = check_names("estimators", estimators, ESTIMATORS), check_degrees(degrees)
    tasks = [
        _ScenarioTask(scenario=i, lx=lx, grid=grid, estimators=estimators, degrees=degrees, n_runs=n_runs)
        for lx in dict.fromkeys(combo.lx for combo in grid.combos)
        for i in range(n_scenarios)
    ]
    scenario_rows = [row for rows in _map(_run_scenario_task, tasks, workers) for row in rows]
    scenario_rows.sort(key=lambda r: (r["combo_id"], r["estimator"], r["degree"], r["scenario"]))

    seen: dict[tuple, list[dict]] = defaultdict(list)
    for row in scenario_rows:
        seen[(row["combo_id"], row["estimator"], row["degree"])].append(row)
    combo_rows: list[dict] = []
    for combo in grid.combos:
        fields = _combo_fields(combo)
        for name in estimators:
            for deg in _estimator_degrees(name, degrees):
                rows = seen.get((fields["combo_id"], name, deg), [])
                rmse = np.asarray([r["rmse"] for r in rows])
                bias = np.asarray([r["bias"] for r in rows])
                var = np.asarray([r["variance"] for r in rows])
                combo_rows.append(
                    {
                        **fields,
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
    return GridResult(scenario_rows, combo_rows, grid.master_seed)


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
TABLE2_N0, TABLE2_N_OS = 20_000, 50_000  # its target and OS cohorts
TABLE2_RUNS = 100  # trial runs per ground truth
TABLE2_ORDERS = (1, 5)
TABLE2_ESTIMATORS = ("abc", "om")
# Fixed near-zero penalty: the linear-model study fits plain polynomial least
# squares, and an equal tiny penalty on the outcome and bias fits preserves
# the exact fifth-order equivalence of the two estimators.
TABLE2_PENALTY = 1e-6


def _sample_glm_world(row: dict, master_seed: int, ground_truth: int) -> World:
    rng = np.random.default_rng(derive_seed(master_seed, "table2-params", row["row_id"], ground_truth))

    def glm_params(sd: float, gamma: float, scale: float = 1.0, hidden: bool = True) -> GlmParams:
        c0, c_x = float(rng.normal(0, sd)), tuple(rng.normal(0, sd, 5))
        c_u, c_xu = (tuple(rng.normal(0, sd, 5)), tuple(rng.normal(0, sd, 5))) if hidden else ((0.0,) * 5,) * 2
        return GlmParams(c0, c_x, c_u, c_xu, gamma, scale)

    fom1 = glm_params(row["beta_scale"], row["gamma"])
    fom0 = glm_params(row["beta_scale"], row["gamma"])
    # Participation coefficients are drawn at sd 0.5 before the lambda
    # multiplier; unit-sd draws make the trial/target shift so strong that
    # the plain outcome model's error leaves the benchmark's reported range.
    # Participation depends on x alone.
    ps = glm_params(0.5, 0.0, row["lambda_scale"], hidden=False)
    pa = glm_params(1.0, row["gamma"])
    return World("glm", (fom0, fom1), ps, pa, row["sigma"])


@dataclass(frozen=True)
class _Table2Task:
    row: dict
    ground_truth: int
    n_runs: int
    master_seed: int


def _run_table2_task(task: _Table2Task) -> dict[tuple[str, int], float]:
    row, g, seed = task.row, task.ground_truth, task.master_seed

    def seed_of(part, *rest):
        return derive_seed(seed, "table2-" + part, row["row_id"], g, *rest)

    world = _sample_glm_world(row, seed, g)
    cells, mu = world_prologue([world], TABLE2_N0, TABLE2_N_OS, seed_of, "learned")
    keyed = [(name, order) for order in TABLE2_ORDERS for name in TABLE2_ESTIMATORS]
    [estimates] = _run_trials(world, cells, TABLE2_N1, task.n_runs, keyed, (TABLE2_PENALTY,), seed_of)
    # Each (estimator, order)'s MSE, NaN if a named failure left a run NaN.  It
    # squares Python floats (C pow), which can differ from numpy's x*x in the last bit.
    return {key: float(np.mean([(e - mu) ** 2 for e in est.tolist()])) for key, est in estimates.items()}


TABLE2_COLUMNS = ("row_id", "gamma", "sigma", "beta_scale", "lambda_scale", "estimator", "order", "mse")


@dataclass(frozen=True)
class Table2Result:
    table_rows: list[dict]

    def csv_text(self) -> str:
        return csv_text(TABLE2_COLUMNS, self.table_rows)


def run_table2(
    master_seed: int,
    n_ground_truths: int = 100,
    n_runs: int = TABLE2_RUNS,
    workers: int = 1,
    rows: Sequence[dict] = TABLE2_ROWS,
) -> Table2Result:
    """The linear-model benchmark: mean MSE of ABC and OM at orders 1 and 5.
    A non-positive ``n_ground_truths`` or ``n_runs``, no rows and rows that
    repeat a ``row_id`` raise ValueError before any world is built."""
    if n_ground_truths < 1 or n_runs < 1:
        raise ValueError(f"n_ground_truths and n_runs must be positive, got {n_ground_truths} and {n_runs}")
    if not rows:
        raise ValueError("no table2 rows selected")
    reject_repeats("the rows list a row_id", [row["row_id"] for row in rows])
    tasks = [
        _Table2Task(row=row, ground_truth=g, n_runs=n_runs, master_seed=master_seed)
        for row in rows
        for g in range(n_ground_truths)
    ]
    mse: dict[tuple, list[float]] = defaultdict(list)
    for task, by_key in zip(tasks, _map(_run_table2_task, tasks, workers)):
        for (name, order), value in by_key.items():
            mse[(task.row["row_id"], name, order)].append(value)
    table_rows = [
        {**row, "estimator": name, "order": order, "mse": float(np.mean(mse[(row["row_id"], name, order)]))}
        for row in rows
        for name in TABLE2_ESTIMATORS
        for order in TABLE2_ORDERS
    ]
    return Table2Result(table_rows)
