"""Spans and counters recorded around ppgen's layer boundaries.

Everything here lives in the benchmark: ``install`` replaces the names that
ppgen's modules look up at call time (module globals such as
``grid.estimate_om``, and a few class attributes such as
``GridFunction.__call__``) with wrappers that record a span per call.  The
program's own code is unchanged, and an untraced run never imports this
module.

A span is ``[name, start, end, parent, task]``, timed on the process CPU
clock like the pass it belongs to (see child.py); spans stay in memory and
are written out once, when the workload has finished.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter

import numpy as np

ESTIMATORS = {
    "estimate_om": "om",
    "estimate_os_om": "os-om",
    "estimate_abc": "abc",
    "estimate_aom": "aom",
    "estimate_ipw": "ipw",
    "estimate_dr_baseline": "dr",
    "estimate_dr_abc": "dr-abc",
    "estimate_dr_aom": "dr-pa",
}
# Exception types a replication may fail with (PositivityError and
# ValueError are ppgen's named ones, LinAlgError numpy's); any other type is
# counted under "other".
FAILURE_TYPES = ("PositivityError", "ValueError", "LinAlgError")
ACCESSORS = ("x_array", "s_array", "a_array", "y_array", "target_x", "trial_arm_arrays")

# Time in a span is charged to the innermost enclosing span that has one of
# these categories; each share is that charge over the traced pass's CPU time.
CATEGORIES = {
    "os_predictor": ("grid.task_predictor", "regression.flexible_fit", "regression.rff_predict"),
    "trial_side": tuple(f"estimators.{e}" for e in ESTIMATORS.values()) + ("estimators.fit_nuisances",),
    "domain": ("domain.from_records", "domain.array_views"),
    # the quadrature oracle, which dr-check's estimators call as predictors
    "true_outcome_function": ("analysis.true_outcome_function",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.penalties: dict[str, list[float]] = {"ridge_cv": [], "flexible_fit": []}
        self.task = None
        self.replication_marks: list[float] = []

    def wrap(self, name, fn, after=None, task_of=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``after(args, kwargs, result)`` derives counters from the return
        value; ``task_of(args)`` names the task the call starts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            previous_task = tracer.task
            if task_of is not None:
                tracer.task = task_of(args)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.process_time(), None, parent, tracer.task]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            tracer.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name.startswith("estimators."):
                    tracer.failures[type(exc).__name__] += 1
                raise
            finally:
                span[2] = time.process_time()
                tracer.stack.pop()
                tracer.task = previous_task
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- derived numbers ---------------------------------------------------

    def inclusive(self, name: str) -> float:
        """Busy time of ``name``: calls nested in another call of it count once."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def _own(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def self_times(self) -> dict[str, float]:
        out: Counter = Counter()
        for span, t in zip(self.spans, self._own()):
            out[span[0]] += t
        return out

    def category_time(self) -> dict[str, float]:
        """Self time charged to the innermost span of each category."""
        category_of = {n: c for c, names in CATEGORIES.items() for n in names}
        own = self._own()
        charged: Counter = Counter()
        cat = [None] * len(self.spans)
        for i, span in enumerate(self.spans):  # parents precede children
            cat[i] = category_of.get(span[0]) or (cat[span[3]] if span[3] >= 0 else None)
            if cat[i] is not None:
                charged[cat[i]] += own[i]
        return charged

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def replication_times(self) -> list[float]:
        """Each replication runs from its mark to the next, the last to the check's end."""
        ends = [s[2] for s in self.spans if s[0] == "checks.dr_robustness_check"]
        marks = self.replication_marks + ends[-1:]
        return [b - a for a, b in zip(marks, marks[1:])]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"], "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Put wrappers at every import site the three workloads pass through."""
    import scipy.linalg

    from ppgen import analysis, checks, dgp, domain, estimators, grid, regression

    counts = tracer.counts

    def patch_global(module, attr, name, **kw):
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    # regression: the OS predictor and the trial-side fits.
    ridge_signature = inspect.signature(regression.ridge_cv)

    def after_ridge(args, kwargs, fit):
        bound = ridge_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid_ = sorted(bound.arguments["penalty_grid"])
        if len(grid_) > 1:
            counts["regression.ridge_cv.sweeps"] += 1
            tracer.penalties["ridge_cv"].append(float(fit.penalty))
            if fit.penalty in (grid_[0], grid_[-1]):
                counts["regression.ridge_cv.edge_penalty"] += 1

    def after_flexible(args, kwargs, fit):
        tracer.penalties["flexible_fit"].append(float(fit.penalty))

    def after_logistic(args, kwargs, fit):
        if not fit.converged:
            counts["regression.logistic_fit.nonconverged"] += 1

    def after_points(key, position):
        def after(args, kwargs, result):
            counts[key] += int(np.size(args[position]))

        return after

    for module in (grid, estimators, analysis, checks):
        patch_global(module, "ridge_cv", "regression.ridge_cv", after=after_ridge)
        patch_global(module, "flexible_fit", "regression.flexible_fit", after=after_flexible)
    patch_global(estimators, "logistic_fit", "regression.logistic_fit", after=after_logistic)
    for module in (regression, analysis, checks):
        patch_global(module, "legendre_eval", "regression.legendre_eval",
                     after=after_points("regression.legendre_eval.points", 0))
    regression.RandomFeatureFit.predict = tracer.wrap(
        "regression.rff_predict", regression.RandomFeatureFit.predict,
        after=after_points("regression.rff_predict.points", 1))

    class _Linalg:
        """scipy.linalg as regression sees it, with eigh and solve counted."""

        eigh = staticmethod(tracer.count_calls("regression.eigh.calls", scipy.linalg.eigh))
        solve = staticmethod(tracer.count_calls("regression.solve.calls", scipy.linalg.solve))

        def __getattr__(self, attr):
            return getattr(scipy.linalg, attr)

    class _Scipy:
        linalg = _Linalg()

    regression.scipy = _Scipy()

    # estimators: every point estimate, its warnings and its failures.
    def after_estimate(args, kwargs, record):
        if record.warnings:
            counts["estimators.warnings"] += 1

    for module in (grid, checks):
        for attr, short in ESTIMATORS.items():
            patch_global(module, attr, f"estimators.{short}", after=after_estimate)
    patch_global(grid, "fit_nuisances", "estimators.fit_nuisances")

    # domain: the record path.
    def after_records(args, kwargs, sample):
        counts["domain.from_records.records"] += len(sample.records)

    domain.CompositeSample.from_records = staticmethod(
        tracer.wrap("domain.from_records", domain.CompositeSample.from_records, after=after_records))
    for attr in ACCESSORS:
        setattr(domain.CompositeSample, attr,
                tracer.wrap("domain.array_views", getattr(domain.CompositeSample, attr)))
    for module in (grid, dgp, analysis, checks):
        if hasattr(module, "derive_seed"):
            module.derive_seed = tracer.count_calls("domain.derive_seed.calls", module.derive_seed)

    # dgp: cohorts, worlds and the functions they evaluate.
    def after_cohort(args, kwargs, records):
        counts["dgp.cohort.records"] += len(records)

    for module in (grid, analysis, checks):
        for attr in ("draw_trial", "draw_target", "generate_os"):
            patch_global(module, attr, f"dgp.{attr}", after=after_cohort)
        patch_global(module, "sample_gp", "dgp.sample_gp")
        patch_global(module, "os_arm_arrays", "dgp.os_arm_arrays")
    for attr in ("glm_outcome", "glm_logit_prob"):
        patch_global(dgp, attr, "dgp.glm_eval", after=after_points("dgp.glm_eval.points", 1))
    dgp.GridFunction.__call__ = tracer.wrap(
        "dgp.grid_function", dgp.GridFunction.__call__,
        after=after_points("dgp.grid_function.points", 1))

    # analysis: the oracles.
    for module in (grid, checks):
        patch_global(module, "true_mu", "analysis.true_mu")
    patch_global(checks, "true_outcome_function", "analysis.true_outcome_function",
                 after=after_points("analysis.true_outcome_function.points", 2))
    patch_global(checks, "tilted_participation", "analysis.tilted_participation")

    # grid: one task per world (or per table2 ground truth), and the memo.
    patch_global(grid, "_run_scenario_task", "grid.task",
                 task_of=lambda a: ("world", a[0].template.fom_params[1].l_x, a[0].scenario))
    patch_global(grid, "_run_table2_task", "grid.task",
                 task_of=lambda a: ("ground_truth", a[0].row["row_id"], a[0].ground_truth))
    patch_global(grid, "_task_predictor", "grid.task_predictor")

    class _CountedBase:
        """The memo's base predictor; every call through it is a memo miss."""

        def __init__(self, base):
            self.base = base

        def predict(self, x):
            counts["grid.memo.misses"] += 1
            return self.base.predict(x)

    memo_cls = grid._MemoPredictor
    memo_cls.predict = tracer.count_calls("grid.memo.calls", memo_cls.predict)
    grid._MemoPredictor = lambda base, *a, **k: memo_cls(_CountedBase(base), *a, **k)

    # checks: the check itself, with one task per replication.  A replication
    # starts where its trial seed is derived.
    check_seed = checks.derive_seed

    def replication_seed(*parts):
        if parts[1:3] == ("dr", "trial"):
            tracer.task = ("replication", parts[3])
            tracer.replication_marks.append(time.process_time())
        return check_seed(*parts)

    checks.derive_seed = replication_seed
    patch_global(checks, "dr_robustness_check", "checks.dr_robustness_check")


PER_LAYER_TIMES = (
    "regression.flexible_fit", "regression.rff_predict", "regression.ridge_cv",
    "regression.logistic_fit", "regression.legendre_eval", "estimators.fit_nuisances",
    "domain.from_records", "domain.array_views", "dgp.draw_trial", "dgp.draw_target",
    "dgp.generate_os", "dgp.os_arm_arrays", "dgp.glm_eval", "dgp.grid_function",
    "dgp.sample_gp", "analysis.true_outcome_function", "analysis.true_mu",
)
PER_LAYER_COUNTS = (
    "regression.flexible_fit.calls", "regression.rff_predict.points",
    "regression.ridge_cv.calls", "regression.ridge_cv.sweeps",
    "regression.logistic_fit.calls", "regression.legendre_eval.points",
    "regression.eigh.calls", "regression.solve.calls",
    "domain.from_records.records", "domain.derive_seed.calls",
    "dgp.cohort.records", "dgp.glm_eval.points", "dgp.grid_function.points",
    "analysis.true_outcome_function.calls", "analysis.true_outcome_function.points",
    "analysis.true_mu.calls", "grid.memo.calls",
    # outcome counters: a pure performance change leaves these unchanged
    "regression.ridge_cv.edge_penalty", "regression.logistic_fit.nonconverged",
    "estimators.warnings", "estimators.failures",
)


def layer_metrics(tracer: Tracer, cpu_s: float) -> dict[str, float]:
    """Every per-layer metric, 0 where a layer does not run in the workload."""
    out: dict[str, float] = {}
    for name in PER_LAYER_TIMES:
        out[name + ".s"] = tracer.inclusive(name)
    own = tracer.self_times()
    for short in ESTIMATORS.values():
        out[f"estimators.{short}.self_s"] = own.get(f"estimators.{short}", 0.0)
        out[f"estimators.{short}.calls"] = tracer.counts[f"estimators.{short}.calls"]
    counts = dict(tracer.counts)
    counts["estimators.failures"] = sum(tracer.failures.values())
    for name in PER_LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    for kind in FAILURE_TYPES:
        out[f"estimators.failures.{kind}"] = tracer.failures[kind]
    out["estimators.failures.other"] = sum(
        n for kind, n in tracer.failures.items() if kind not in FAILURE_TYPES)
    memo_calls = counts.get("grid.memo.calls", 0)
    out["grid.memo.hit_ratio"] = (memo_calls - counts.get("grid.memo.misses", 0)) / memo_calls if memo_calls else 0.0
    tasks = tracer.durations("grid.task")
    out["grid.task.p50_s"] = statistics.median(tasks) if tasks else 0.0
    out["grid.task.max_s"] = max(tasks, default=0.0)
    out["grid.self_s"] = own.get("grid.task", 0.0)
    reps = tracer.replication_times()
    out["checks.replication.p50_s"] = statistics.median(reps) if reps else 0.0
    out["checks.self_s"] = own.get("checks.dr_robustness_check", 0.0)
    charged = tracer.category_time()
    for cat in CATEGORIES:
        out[f"share.{cat}"] = charged.get(cat, 0.0) / cpu_s
    # Per-world set-up: each grid task up to its first trial draw.  Spans are
    # in start order, so a task's first draw_trial follows it directly.
    world_setup, task_start = 0.0, None
    for span in tracer.spans:
        if span[0] == "grid.task":
            task_start = span[1]
        elif span[0] == "dgp.draw_trial" and task_start is not None:
            world_setup += span[1] - task_start
            task_start = None
    out["share.world_setup"] = world_setup / cpu_s
    return out
