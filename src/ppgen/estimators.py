"""Point estimators of the target-population mean potential outcome.

Regression-based: the trial-only outcome model (OM), the observational
predictor applied directly (OS-OM), additive bias correction (ABC), and the
augmented outcome model (AOM).  Weighting-based: inverse-odds weighting (IPW)
and three doubly-robust combinations (DR, DR-ABC, DR-PA).

Every estimator sees only observed covariates and outcomes; the hidden
covariate never enters any code path here.

Every estimator is a function of arrays.  It reads the trial only through
one ``Arm``, the covariates and outcomes of one treatment arm, which the
caller chooses (and with it the potential outcome estimated), and the target
population only through a ``Target``; n0 is its row count.  The OS predictor
f and the participation model are black boxes that the caller evaluates: the
estimators take f's values on the arm (``Arm.f``) and on the target
(``Target.f``), P(S=1|x) on the arm (``p1``), and a DR estimator's given fit
as the pair ``(on_arm, on_target)`` of its values, each checked for one
value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regression  # legendre_eval looked up when called, so replacing it (in a test, or to trace it) counts here
from .domain import TREATMENT_PROB, EstimateRecord, PositivityError, is_degree
from .regression import DEFAULT_PENALTY_GRID, LogisticFit, RidgeFit, _augment, _penalties, logistic_fit, per_row
from .regression import ridge_cv


@dataclass(frozen=True)
class EstimatorConfig:
    """Trial-side fitting configuration shared by the regression estimators.
    ValueError at construction unless ``degree`` is a fit degree and
    ``penalty_grid`` nonempty and nonnegative."""

    degree: int
    penalty_grid: tuple[float, ...] = tuple(DEFAULT_PENALTY_GRID)
    fold_seed: int = 0

    def __post_init__(self):
        if not is_degree(self.degree):
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")
        _penalties(self.penalty_grid)


class _Rows:
    """Covariates ``x``, one-dimensional and finite, and the OS predictor's
    values ``f`` on them, one per row, if given (``f`` raises ValueError
    when they were not)."""

    def __init__(self, x, f, what: str):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 1 or not np.isfinite(self.x).all():
            raise ValueError(f"{what}'s covariates must be one-dimensional and finite")
        self._f = None if f is None else per_row(f, self.x.shape[0], f"{what}'s f")
        self._what = what

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            raise ValueError(f"{self._what} has no values of f")
        return self._f


class Arm(_Rows):
    """One trial arm as the estimators read it: the covariates ``x`` and
    outcomes ``y`` of the trial records with one treatment (one value per
    row), and f's values ``f`` on them (needed by ABC, AOM, DR-ABC and DR-PA
    only)."""

    def __init__(self, x, y, f=None):
        super().__init__(x, f, "the arm")
        self.y = per_row(y, self.x.shape[0], "the arm's y")


class Target(_Rows):
    """The target sample as the estimators read it, for one world: their only
    source of it, so n0 is ``len(x)``, which must be at least 1.

    ``x`` holds the target covariates, ``f`` the OS predictor's values on
    them (needed by OS-OM, ABC and AOM only), and ``design(kind, degree)``
    the design of trial fit ``kind`` on them: the Legendre features up to
    ``degree``, with ``f`` appended as the last column for AOM (OM and ABC
    share one).  Each design is built on first use and kept, so the runs,
    estimators and degrees of a world share one.
    """

    def __init__(self, x, f=None):
        super().__init__(x, f, "the target")
        if not self.x.size:
            raise ValueError("no target records")
        self._designs: dict[tuple[bool, int], np.ndarray] = {}

    def design(self, kind: str, degree: int) -> np.ndarray:
        key = (kind == "aom", degree)
        if key not in self._designs:
            # the same matrix RidgeFit.predict builds, so products with it are bit-identical
            if kind == "aom":
                self._designs[key] = _augment(self.design("om", degree), self.f)
            else:
                self._designs[key] = regression.legendre_eval(self.x, degree)
        return self._designs[key]


def fit_nuisances(x_trial, target: Target, degree: int) -> LogisticFit:
    """The participation model P(S=1|X) whose values on the trial arm the
    weighting estimators take: logistic regression, penalized at 1e-6, of the
    trial label on the covariates ``x_trial`` of every trial record (label 1)
    followed by the target's (label 0).  The treatment side is the known
    randomization probability ``TREATMENT_PROB``, not an estimate."""
    labels = np.concatenate([np.ones(len(x_trial)), np.zeros(len(target.x))])
    return logistic_fit(np.concatenate([x_trial, target.x]), labels, degree, 1e-6)


def _response(kind: str, arm: Arm) -> np.ndarray:
    """What variant ``kind`` regresses on ``arm``: its outcomes, or for ABC
    the bias ``f - y`` of f's values on it."""
    return arm.f - arm.y if kind == "abc" else arm.y


def trial_fit(kind: str, arm: Arm, cfg: EstimatorConfig) -> RidgeFit:
    """The regression of variant ``kind`` ("om", "abc" or "aom") on ``arm``.

    OM fits ``y``; ABC fits the bias ``f - y`` of the predictor; AOM fits
    ``y`` with ``f`` appended to the Legendre design as one more regressor.
    The arm must hold at least degree + 2 records.
    """
    if kind not in ("om", "abc", "aom"):
        raise ValueError(f"unknown trial fit {kind!r}; valid: om, abc, aom")
    if len(arm.y) < cfg.degree + 2:
        raise ValueError(f"the trial arm has {len(arm.y)} records; need at least degree+2")
    return ridge_cv(
        arm.x,
        _response(kind, arm),
        cfg.degree,
        penalty_grid=cfg.penalty_grid,
        fold_seed=cfg.fold_seed,
        extra_column=arm.f if kind == "aom" else None,
    )


def target_prediction(kind: str, arm: Arm, cfg: EstimatorConfig, target: Target) -> np.ndarray:
    """What OM, ABC and AOM average over the target: the trial fit of variant
    ``kind`` on each target record; for ABC, ``f`` minus the fitted bias."""
    fit = trial_fit(kind, arm, cfg)
    pred = target.design(kind, fit.degree) @ fit.coefficients
    return target.f - pred if kind == "abc" else pred


def _regression_estimate(kind: str, arm: Arm, cfg: EstimatorConfig, target: Target) -> EstimateRecord:
    return EstimateRecord(float(np.mean(target_prediction(kind, arm, cfg, target))))


def estimate_om(arm: Arm, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Outcome model: fit the trial arm, average predictions over the target."""
    return _regression_estimate("om", arm, cfg, target)


def estimate_abc(arm: Arm, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Additive bias correction: subtract a trial-fitted bias of the predictor.

    Fits the prediction errors z_i = f(x_i) - y_i on the trial arm, then
    averages f - fitted-bias over the target.
    """
    return _regression_estimate("abc", arm, cfg, target)


def estimate_aom(arm: Arm, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Augmented outcome model: the predictor becomes an extra regressor."""
    return _regression_estimate("aom", arm, cfg, target)


def categorical_point_estimate(target_props: np.ndarray, group_means: np.ndarray) -> float:
    """The categorical outcome-model estimate: sum_k p0(k) * mean_k."""
    return float(np.dot(target_props, group_means))


def estimate_om_categorical(arm: Arm, *, target: Target) -> EstimateRecord:
    """Outcome model for categorical covariates: target-weighted group means.

    Groups are the distinct covariate values present in the target sample; a
    group with positive target proportion but no trial-arm record is a
    positivity failure.
    """
    x0 = target.x
    groups = np.unique(x0)
    props = np.empty(groups.shape[0])
    means = np.empty(groups.shape[0])
    for i, k in enumerate(groups):
        props[i] = np.mean(x0 == k)
        in_group = arm.y[arm.x == k]
        if in_group.shape[0] == 0:
            raise PositivityError(f"target group {k} has no trial-arm records")
        means[i] = np.mean(in_group)
    return EstimateRecord(categorical_point_estimate(props, means))


def estimate_os_om(target: Target) -> EstimateRecord:
    """Average the observational predictor over the target sample; no trial data."""
    return EstimateRecord(float(np.mean(target.f)))


# -- weighting-based estimators ----------------------------------------------


def _weights(arm: Arm, p1):
    """The inverse-odds weights of the participation probabilities ``p1`` on
    ``arm``, and any extreme-weight warnings.  The weighted sums they enter
    are normalized by 1/n0."""
    p1 = per_row(p1, len(arm.y), "p1")
    warnings = ()
    if p1.size and ((p1 <= 1e-3) | (p1 >= 1 - 1e-3)).any():
        warnings = ("extreme participation probabilities in inverse-odds weights",)
    return (1.0 - p1) / (p1 * TREATMENT_PROB), warnings


def estimate_ipw(arm: Arm, p1, *, target: Target) -> EstimateRecord:
    """Inverse-odds weighting of trial-arm outcomes."""
    weights, warns = _weights(arm, p1)
    if not arm.y.size:
        raise ValueError("empty trial arm")
    return EstimateRecord((1.0 / len(target.x)) * float(np.sum(weights * arm.y)), warnings=warns)


def _dr_estimate(kind: str, arm: Arm, p1, cfg: EstimatorConfig, fit, target: Target) -> EstimateRecord:
    """``(sum fit(x0) + sum w * (response - fit(x1))) / n0`` of variant ``kind``
    with ``fit`` the pair (values on the arm, values on the target), or its own
    trial fit when ``fit`` is None; ABC subtracts it from mean f(x0)."""
    weights, warns = _weights(arm, p1)
    if fit is None:
        own = trial_fit(kind, arm, cfg)
        arm_design = regression.legendre_eval(arm.x, own.degree)
        if kind == "aom":
            arm_design = _augment(arm_design, arm.f)
        fit = (arm_design @ own.coefficients, target.design(kind, own.degree) @ own.coefficients)
    on_arm, on_target = fit
    fit_x1 = per_row(on_arm, len(arm.y), "a fit's values on the arm")
    fit_x0 = per_row(on_target, len(target.x), "a fit's values on the target")
    resid = _response(kind, arm) - fit_x1
    est = (1.0 / len(target.x)) * (float(np.sum(fit_x0)) + float(np.sum(weights * resid)))
    if kind == "abc":
        est = float(np.mean(target.f)) - est
    return EstimateRecord(est, warnings=warns)


def estimate_dr_baseline(arm: Arm, p1, cfg: EstimatorConfig, outcome_fit=None, *,
                         target: Target) -> EstimateRecord:
    """Doubly-robust baseline: outcome-model term plus weighted residuals.

    ``outcome_fit``, the pair (values on the arm, values on the target),
    overrides the internally fitted trial-arm regression (used for the
    robustness checks with deliberately corrupted fits).
    """
    return _dr_estimate("om", arm, p1, cfg, outcome_fit, target)


def estimate_dr_abc(arm: Arm, p1, cfg: EstimatorConfig, bias_fit=None, *, target: Target) -> EstimateRecord:
    """Doubly-robust additive bias correction.

    The bias estimate and its weighted residual are *subtracted* from the
    target average of the predictor; this is the sign under which the
    estimator reduces to ABC when the weighted residuals vanish and to IPW
    when both regression components are zero, recovering the identification
    target in both limits.
    """
    return _dr_estimate("abc", arm, p1, cfg, bias_fit, target)


def estimate_dr_aom(arm: Arm, p1, cfg: EstimatorConfig, augmented_fit=None, *,
                    target: Target) -> EstimateRecord:
    """Doubly-robust augmented outcome model (DR-PA)."""
    return _dr_estimate("aom", arm, p1, cfg, augmented_fit, target)
