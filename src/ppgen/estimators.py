"""Point estimators of the target-population mean potential outcome.

Regression-based: the trial-only outcome model (OM), the observational
predictor applied directly (OS-OM), additive bias correction (ABC), and the
augmented outcome model (AOM).  Weighting-based: inverse-odds weighting (IPW)
and three doubly-robust combinations (DR, DR-ABC, DR-PA).

Every estimator sees only observed covariates, treatments and outcomes; the
hidden covariate never enters any code path here.

Every estimator is a function of arrays.  It reads only the trial arm of its
sample, the rows of ``sample.trial_arm_arrays(cfg.a)``, and the target
population only through a required ``Target``; n0 is its row count.  The OS
predictor f and the participation model are black boxes that the caller
evaluates: the estimators take f's values on the arm (``f1``) and on the
target (``Target.f``), P(S=1|x) on the arm (``p1``), and a DR estimator's
given fit as the pair ``(on_arm, on_target)`` of its values, each checked
for one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regression  # legendre_eval looked up when called, so replacing it (in a test, or to trace it) counts here
from .domain import TREATMENT_PROB, TRIAL, CompositeSample, EstimateRecord, PositivityError, is_degree
from .regression import DEFAULT_PENALTY_GRID, LogisticFit, RidgeFit, _augment, _penalties, logistic_fit, per_row
from .regression import ridge_cv


@dataclass(frozen=True)
class EstimatorConfig:
    """Trial-side fitting configuration shared by the regression estimators.
    ValueError at construction unless ``degree`` is a fit degree, ``a`` the
    int 0 or 1, and ``penalty_grid`` nonempty and nonnegative."""

    degree: int
    a: int = 1
    penalty_grid: tuple[float, ...] = tuple(DEFAULT_PENALTY_GRID)
    fold_seed: int = 0

    def __post_init__(self):
        if not is_degree(self.degree):
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")
        if not (isinstance(self.a, int) and not isinstance(self.a, bool) and self.a in (0, 1)):
            raise ValueError(f"treatment arm a must be 0 or 1, got {self.a!r}")
        _penalties(self.penalty_grid)


class Target:
    """The target sample as the estimators read it, for one world: their only
    source of it, so n0 is ``len(x)``, which must be at least 1.

    ``x`` holds the target covariates, ``f`` the OS predictor's values on
    them (one per row; needed by OS-OM, ABC and AOM only), and
    ``design(kind, degree)`` the design of trial fit ``kind`` on them: the
    Legendre features up to ``degree``, with ``f`` appended as the last
    column for AOM (OM and ABC share one).  Each design is built on first use
    and kept, so the runs, estimators and degrees of a world share one.
    """

    def __init__(self, x, f=None):
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.x.size:
            raise ValueError("no target records")
        self._f = None if f is None else per_row(f, self.x.shape[0], "the target's f")
        self._designs: dict[tuple[bool, int], np.ndarray] = {}

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            raise ValueError("this target has no values of f")
        return self._f

    def design(self, kind: str, degree: int) -> np.ndarray:
        key = (kind == "aom", degree)
        if key not in self._designs:
            # the same matrix RidgeFit.predict builds, so products with it are bit-identical
            if kind == "aom":
                self._designs[key] = _augment(self.design("om", degree), self.f)
            else:
                self._designs[key] = regression.legendre_eval(self.x, degree)
        return self._designs[key]


def fit_nuisances(sample: CompositeSample, target: Target, degree: int) -> LogisticFit:
    """The participation model P(S=1|X) whose values on the trial arm the
    weighting estimators take: logistic regression, penalized at 1e-6, of the
    trial label on the trial records' covariates (label 1) followed by the
    target's (label 0).  The treatment side is the known randomization
    probability ``TREATMENT_PROB``, not an estimate."""
    x1 = sample.x[sample.s == TRIAL]
    labels = np.concatenate([np.ones(x1.shape[0]), np.zeros(len(target.x))])
    return logistic_fit(np.concatenate([x1, target.x]), labels, degree, 1e-6)


def _response(kind: str, y, f):
    """What variant ``kind`` regresses: ``y``, or for ABC the bias ``f - y``
    of f's values ``f`` on the same rows."""
    return per_row(f, len(y), "f") - y if kind == "abc" else y


def trial_fit(kind: str, x, y, f, cfg: EstimatorConfig) -> RidgeFit:
    """The trial-arm regression of variant ``kind`` ("om", "abc" or "aom"),
    given f's values ``f`` on ``x`` (OM reads none).

    OM fits ``y``; ABC fits the bias ``f - y`` of the predictor; AOM fits
    ``y`` with ``f`` appended to the Legendre design as one more regressor.
    The arm must hold at least degree + 2 records.
    """
    if kind not in ("om", "abc", "aom"):
        raise ValueError(f"unknown trial fit {kind!r}; valid: om, abc, aom")
    if len(y) < cfg.degree + 2:
        raise ValueError(f"trial arm a={cfg.a} has {len(y)} records; need at least degree+2")
    return ridge_cv(
        x,
        _response(kind, y, f),
        cfg.degree,
        penalty_grid=cfg.penalty_grid,
        fold_seed=cfg.fold_seed,
        extra_column=f if kind == "aom" else None,
    )


def target_prediction(kind: str, sample: CompositeSample, f1, cfg: EstimatorConfig,
                      target: Target) -> np.ndarray:
    """What OM, ABC and AOM average over the target: the trial fit of variant
    ``kind`` on each target record; for ABC, ``f`` minus the fitted bias."""
    fit = trial_fit(kind, *sample.trial_arm_arrays(cfg.a), f1, cfg)
    pred = target.design(kind, fit.degree) @ fit.coefficients
    return target.f - pred if kind == "abc" else pred


def _regression_estimate(kind: str, sample: CompositeSample, f1, cfg: EstimatorConfig,
                         target: Target) -> EstimateRecord:
    return EstimateRecord(float(np.mean(target_prediction(kind, sample, f1, cfg, target))))


def estimate_om(sample: CompositeSample, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Outcome model: fit the trial arm, average predictions over the target."""
    return _regression_estimate("om", sample, None, cfg, target)


def estimate_abc(sample: CompositeSample, f1, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Additive bias correction: subtract a trial-fitted bias of the predictor.

    Fits the prediction errors z_i = f(x_i) - y_i on the trial arm, then
    averages f - fitted-bias over the target.
    """
    return _regression_estimate("abc", sample, f1, cfg, target)


def estimate_aom(sample: CompositeSample, f1, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Augmented outcome model: the predictor becomes an extra regressor."""
    return _regression_estimate("aom", sample, f1, cfg, target)


def categorical_point_estimate(target_props: np.ndarray, group_means: np.ndarray) -> float:
    """The categorical outcome-model estimate: sum_k p0(k) * mean_k."""
    return float(np.dot(target_props, group_means))


def estimate_om_categorical(sample: CompositeSample, a: int, *, target: Target) -> EstimateRecord:
    """Outcome model for categorical covariates: target-weighted group means.

    Groups are the distinct covariate values present in the target sample; a
    group with positive target proportion but no trial-arm record is a
    positivity failure.
    """
    x0 = target.x
    x1, y1 = sample.trial_arm_arrays(a)
    groups = np.unique(x0)
    props = np.empty(groups.shape[0])
    means = np.empty(groups.shape[0])
    for i, k in enumerate(groups):
        props[i] = np.mean(x0 == k)
        arm = y1[x1 == k]
        if arm.shape[0] == 0:
            raise PositivityError(f"target group {k} has no trial-arm records")
        means[i] = np.mean(arm)
    return EstimateRecord(categorical_point_estimate(props, means))


def estimate_os_om(target: Target) -> EstimateRecord:
    """Average the observational predictor over the target sample; no trial data."""
    return EstimateRecord(float(np.mean(target.f)))


# -- weighting-based estimators ----------------------------------------------


def _weight_pieces(sample: CompositeSample, target: Target, p1, a: int):
    """Shared scaffolding for the weighted estimators: the trial-arm covariates
    and outcomes, the inverse-odds weights of the participation probabilities
    ``p1`` on that arm, the 1/(n(1-p)) normalizer over the n = n1 + n0 trial
    and target records with p = n1/n their trial share, and any
    extreme-weight warnings."""
    x1, y1 = sample.trial_arm_arrays(a)
    p1 = per_row(p1, x1.shape[0], "p1")
    warnings = ()
    if x1.size and ((p1 <= 1e-3) | (p1 >= 1 - 1e-3)).any():
        warnings = ("extreme participation probabilities in inverse-odds weights",)
    weights = (1.0 - p1) / (p1 * TREATMENT_PROB)
    n = sample.n1 + len(target.x)
    norm = 1.0 / (n * (1.0 - sample.n1 / n))
    return x1, y1, weights, norm, warnings


def estimate_ipw(sample: CompositeSample, p1, a: int = 1, *, target: Target) -> EstimateRecord:
    """Inverse-odds weighting of trial-arm outcomes."""
    _, y1, weights, norm, warns = _weight_pieces(sample, target, p1, a)
    if not y1.size:
        raise ValueError("empty trial arm")
    return EstimateRecord(norm * float(np.sum(weights * y1)), warnings=warns)


def _dr_estimate(kind: str, sample: CompositeSample, f1, p1, cfg: EstimatorConfig, fit,
                 target: Target) -> EstimateRecord:
    """``norm * (sum fit(x0) + sum w * (response - fit(x1)))`` of variant ``kind``
    with ``fit`` the pair (values on the arm, values on the target), or its own
    trial fit when ``fit`` is None; ABC subtracts it from mean f(x0)."""
    x1, y1, weights, norm, warns = _weight_pieces(sample, target, p1, cfg.a)
    if fit is None:
        own = trial_fit(kind, x1, y1, f1, cfg)
        arm_design = regression.legendre_eval(x1, own.degree)
        if kind == "aom":
            arm_design = _augment(arm_design, f1)
        fit = (arm_design @ own.coefficients, target.design(kind, own.degree) @ own.coefficients)
    on_arm, on_target = fit
    fit_x1 = per_row(on_arm, x1.shape[0], "a fit's values on the arm")
    fit_x0 = per_row(on_target, len(target.x), "a fit's values on the target")
    resid = _response(kind, y1, f1) - fit_x1
    est = norm * (float(np.sum(fit_x0)) + float(np.sum(weights * resid)))
    if kind == "abc":
        est = float(np.mean(target.f)) - est
    return EstimateRecord(est, warnings=warns)


def estimate_dr_baseline(sample: CompositeSample, p1, cfg: EstimatorConfig, outcome_fit=None, *,
                         target: Target) -> EstimateRecord:
    """Doubly-robust baseline: outcome-model term plus weighted residuals.

    ``outcome_fit``, the pair (values on the arm, values on the target),
    overrides the internally fitted trial-arm regression (used for the
    robustness checks with deliberately corrupted fits).
    """
    return _dr_estimate("om", sample, None, p1, cfg, outcome_fit, target)


def estimate_dr_abc(sample: CompositeSample, f1, p1, cfg: EstimatorConfig, bias_fit=None, *,
                    target: Target) -> EstimateRecord:
    """Doubly-robust additive bias correction.

    The bias estimate and its weighted residual are *subtracted* from the
    target average of the predictor; this is the sign under which the
    estimator reduces to ABC when the weighted residuals vanish and to IPW
    when both regression components are zero, recovering the identification
    target in both limits.
    """
    return _dr_estimate("abc", sample, f1, p1, cfg, bias_fit, target)


def estimate_dr_aom(sample: CompositeSample, f1, p1, cfg: EstimatorConfig, augmented_fit=None, *,
                    target: Target) -> EstimateRecord:
    """Doubly-robust augmented outcome model (DR-PA)."""
    return _dr_estimate("aom", sample, f1, p1, cfg, augmented_fit, target)
