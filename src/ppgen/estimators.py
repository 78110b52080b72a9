"""Point estimators of the target-population mean potential outcome.

Regression-based: the trial-only outcome model (OM), the observational
predictor applied directly (OS-OM), additive bias correction (ABC), and the
augmented outcome model (AOM).  Weighting-based: inverse-odds weighting (IPW)
and three doubly-robust combinations (DR, DR-ABC, DR-PA).

Every estimator sees only observed covariates, treatments and outcomes; the
hidden covariate never enters any code path here.

Every estimator reads only the trial records of its sample, and the target
population only through a required ``Target``: its covariates, the OS
predictor's values on them and each fit's design on them, each computed once
however many estimates read them.  n0 is the target's row count; a sample's
own target rows, if any, are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import TREATMENT_PROB, TRIAL, CompositeSample, EstimateRecord, PositivityError, is_degree
from .regression import DEFAULT_PENALTY_GRID, LogisticFit, RidgeFit, _augment, _design, logistic_fit, ridge_cv


@dataclass(frozen=True)
class EstimatorConfig:
    """Trial-side fitting configuration shared by the regression estimators."""

    degree: int
    a: int = 1
    penalty_grid: tuple[float, ...] = tuple(DEFAULT_PENALTY_GRID)
    fold_seed: int = 0

    def __post_init__(self):
        if not is_degree(self.degree):
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")


class Target:
    """The target sample as the estimators read it, for one world: their only
    source of it, so n0 is ``len(x)``, which must be at least 1.

    ``x`` holds the target covariates, ``f`` the OS predictor's values on
    them, and ``design(kind, degree)`` the design of trial fit ``kind`` on
    them: the Legendre features up to ``degree``, with ``f`` appended as the
    last column for AOM (OM and ABC share one).  Each piece is computed on
    first use and kept, so the runs, estimators and degrees of a world share
    one evaluation.  ``predictor`` must be the OS predictor the estimators are
    given, or agree with it on ``x``.
    """

    def __init__(self, x, predictor=None):
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.x.size:
            raise ValueError("no target records")
        self._predictor = predictor
        self._designs: dict[tuple[bool, int], np.ndarray] = {}

    @cached_property
    def f(self) -> np.ndarray:
        if self._predictor is None:
            raise ValueError("this target has no predictor")
        return self._predictor.predict(self.x)

    def design(self, kind: str, degree: int) -> np.ndarray:
        key = (kind == "aom", degree)
        if key not in self._designs:
            # the same matrix RidgeFit.predict builds, so products with it are bit-identical
            if kind == "aom":
                self._designs[key] = _augment(self.design("om", degree), self.f)
            else:
                self._designs[key] = _design(self.x, degree, None)
        return self._designs[key]


def fit_nuisances(sample: CompositeSample, target: Target, degree: int) -> LogisticFit:
    """The participation model P(S=1|X) that the weighting estimators take:
    logistic regression, penalized at 1e-6, of the trial label on the trial
    records' covariates (label 1) followed by the target's (label 0).  The
    treatment side is the known randomization probability ``TREATMENT_PROB``,
    not an estimate."""
    x1 = sample.x[sample.s == TRIAL]
    labels = np.concatenate([np.ones(x1.shape[0]), np.zeros(len(target.x))])
    return logistic_fit(np.concatenate([x1, target.x]), labels, degree, 1e-6)


def _response(kind: str, x, y, f_a):
    """What variant ``kind`` regresses: ``y``, or for ABC the bias ``f(x) - y``."""
    return f_a.predict(x) - y if kind == "abc" else y


def trial_fit(kind: str, x, y, f_a, cfg: EstimatorConfig) -> RidgeFit:
    """The trial-arm regression of variant ``kind`` ("om", "abc" or "aom").

    OM fits ``y``; ABC fits the bias ``f(x) - y`` of the predictor; AOM fits
    ``y`` with ``f`` appended to the Legendre design as one more regressor.
    """
    if kind not in ("om", "abc", "aom"):
        raise ValueError(f"unknown trial fit {kind!r}; valid: om, abc, aom")
    return ridge_cv(
        x,
        _response(kind, x, y, f_a),
        cfg.degree,
        penalty_grid=cfg.penalty_grid,
        fold_seed=cfg.fold_seed,
        extra_column=f_a if kind == "aom" else None,
    )


def _sample_fit(kind: str, sample: CompositeSample, f_a, cfg: EstimatorConfig) -> RidgeFit:
    x, y = sample.trial_arm_arrays(cfg.a)
    if x.shape[0] < cfg.degree + 2:
        raise ValueError(
            f"trial arm a={cfg.a} has {x.shape[0]} records; need at least degree+2"
        )
    return trial_fit(kind, x, y, f_a, cfg)


def target_prediction(kind: str, sample: CompositeSample, f_a, cfg: EstimatorConfig,
                      target: Target) -> np.ndarray:
    """What OM, ABC and AOM average over the target: the trial fit of variant
    ``kind`` on each target record; for ABC, ``f`` minus the fitted bias."""
    fit = _sample_fit(kind, sample, f_a, cfg)
    pred = target.design(kind, fit.degree) @ fit.coefficients
    return target.f - pred if kind == "abc" else pred


def _regression_estimate(kind: str, sample: CompositeSample, f_a, cfg: EstimatorConfig,
                         target: Target) -> EstimateRecord:
    return EstimateRecord(float(np.mean(target_prediction(kind, sample, f_a, cfg, target))))


def estimate_om(sample: CompositeSample, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Outcome model: fit the trial arm, average predictions over the target."""
    return _regression_estimate("om", sample, None, cfg, target)


def estimate_abc(sample: CompositeSample, f_a, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Additive bias correction: subtract a trial-fitted bias of the predictor.

    Fits the prediction errors z_i = f(x_i) - y_i on the trial arm, then
    averages f - fitted-bias over the target.
    """
    return _regression_estimate("abc", sample, f_a, cfg, target)


def estimate_aom(sample: CompositeSample, f_a, cfg: EstimatorConfig, *, target: Target) -> EstimateRecord:
    """Augmented outcome model: the predictor becomes an extra regressor."""
    return _regression_estimate("aom", sample, f_a, cfg, target)


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


def _weight_pieces(sample: CompositeSample, target: Target, p_hat, a: int):
    """Shared scaffolding for the weighted estimators: the trial-arm covariates
    and outcomes, the inverse-odds weights of participation model ``p_hat``
    (any ``predict(x) -> P(S=1 | x)``) on the trial arm, the 1/(n(1-p))
    normalizer over the n = n1 + n0 trial and target records with p = n1/n
    their trial share, and any extreme-weight warnings."""
    x1, y1 = sample.trial_arm_arrays(a)
    p_x = np.asarray(p_hat.predict(x1), dtype=float)
    warnings = ()
    if x1.size and ((p_x <= 1e-3) | (p_x >= 1 - 1e-3)).any():
        warnings = ("extreme participation probabilities in inverse-odds weights",)
    weights = (1.0 - p_x) / (p_x * TREATMENT_PROB)
    n = sample.n1 + len(target.x)
    norm = 1.0 / (n * (1.0 - sample.n1 / n))
    return x1, y1, weights, norm, warnings


def estimate_ipw(sample: CompositeSample, p_hat, a: int = 1, *, target: Target) -> EstimateRecord:
    """Inverse-odds weighting of trial-arm outcomes."""
    _, y1, weights, norm, warns = _weight_pieces(sample, target, p_hat, a)
    if not y1.size:
        raise ValueError("empty trial arm")
    return EstimateRecord(norm * float(np.sum(weights * y1)), warnings=warns)


def _dr_estimate(kind: str, sample: CompositeSample, f_a, p_hat, cfg: EstimatorConfig, fit,
                 target: Target) -> EstimateRecord:
    """``norm * (sum fit(x0) + sum w * (response - fit(x1)))`` of variant ``kind``
    (its own trial fit when ``fit`` is None); ABC subtracts it from mean f(x0).
    Only its own fit is read through the target's design; a given fit predicts."""
    if fit is None:
        fit = _sample_fit(kind, sample, f_a, cfg)
        fit_x0 = target.design(kind, fit.degree) @ fit.coefficients
    else:
        fit_x0 = fit.predict(target.x)
    x1, y1, weights, norm, warns = _weight_pieces(sample, target, p_hat, cfg.a)
    resid = _response(kind, x1, y1, f_a) - fit.predict(x1)
    est = norm * (float(np.sum(fit_x0)) + float(np.sum(weights * resid)))
    if kind == "abc":
        est = float(np.mean(target.f)) - est
    return EstimateRecord(est, warnings=warns)


def estimate_dr_baseline(
    sample: CompositeSample,
    p_hat,
    cfg: EstimatorConfig,
    outcome_fit=None,
    *,
    target: Target,
) -> EstimateRecord:
    """Doubly-robust baseline: outcome-model term plus weighted residuals.

    ``outcome_fit`` overrides the internally fitted trial-arm regression
    (used for the robustness checks with deliberately corrupted fits).
    """
    return _dr_estimate("om", sample, None, p_hat, cfg, outcome_fit, target)


def estimate_dr_abc(
    sample: CompositeSample,
    f_a,
    p_hat,
    cfg: EstimatorConfig,
    bias_fit=None,
    *,
    target: Target,
) -> EstimateRecord:
    """Doubly-robust additive bias correction.

    The bias estimate and its weighted residual are *subtracted* from the
    target average of the predictor; this is the sign under which the
    estimator reduces to ABC when the weighted residuals vanish and to IPW
    when both regression components are zero, recovering the identification
    target in both limits.
    """
    return _dr_estimate("abc", sample, f_a, p_hat, cfg, bias_fit, target)


def estimate_dr_aom(
    sample: CompositeSample,
    f_a,
    p_hat,
    cfg: EstimatorConfig,
    augmented_fit=None,
    *,
    target: Target,
) -> EstimateRecord:
    """Doubly-robust augmented outcome model (DR-PA)."""
    return _dr_estimate("aom", sample, f_a, p_hat, cfg, augmented_fit, target)
