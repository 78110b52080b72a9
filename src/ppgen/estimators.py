"""Point estimators of the target-population mean potential outcome.

Regression-based: the trial-only outcome model (OM), the observational
predictor applied directly (OS-OM), additive bias correction (ABC), and the
augmented outcome model (AOM).  Weighting-based: inverse-odds weighting (IPW)
and three doubly-robust combinations (DR, DR-ABC, DR-PA).

Every estimator sees only observed covariates, treatments and outcomes; the
hidden covariate never enters any code path here.

The regression estimators and their DR versions read the target sample only
through a ``Target``, which computes the OS predictor's values and each fit's
design on it once.  A caller that estimates many times on one target sample
passes one as ``target=``; without it, each estimate builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import TREATMENT_PROB, CompositeSample, EstimateRecord, PositivityError
from .regression import DEFAULT_PENALTY_GRID, RidgeFit, _augment, _design, logistic_fit, ridge_cv


@dataclass(frozen=True)
class EstimatorConfig:
    """Trial-side fitting configuration shared by the regression estimators."""

    degree: int
    a: int = 1
    penalty_grid: tuple[float, ...] = tuple(DEFAULT_PENALTY_GRID)
    fold_seed: int = 0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")


@dataclass(frozen=True)
class NuisanceSet:
    """Trial-participation nuisances for weighting; the treatment side is the
    known randomization probability ``TREATMENT_PROB``, not an estimate.

    ``p_hat`` must expose predict(x) -> P(S=1 | x) over the composite
    (trial + target) sample.
    """

    p_hat_marginal: float
    p_hat: object

    def __post_init__(self):
        if not 0.0 < self.p_hat_marginal < 1.0:
            raise ValueError("marginal participation probability must lie in (0,1)")


def fit_nuisances(sample: CompositeSample, degree: int) -> NuisanceSet:
    """Fit P(S=1|X) by logistic regression, penalized at 1e-6, on the trial
    and target records of the composite sample."""
    fit = logistic_fit(*sample.participation, degree, 1e-6)
    return NuisanceSet(p_hat_marginal=sample.n1 / (sample.n1 + sample.n0), p_hat=fit)


class Target:
    """The target sample as the estimators read it, for one world.

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


def _target_of(sample: CompositeSample, f_a, target: Target | None) -> Target:
    return Target(sample.target_x(), f_a) if target is None else target


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
    if sample.n0 < 1:
        raise ValueError("no target records")
    return trial_fit(kind, x, y, f_a, cfg)


def _regression_estimate(
    kind: str, sample: CompositeSample, f_a, cfg: EstimatorConfig, target: Target | None
) -> EstimateRecord:
    """The target average of the trial fit; for ABC, of ``f`` minus the fitted bias."""
    fit = _sample_fit(kind, sample, f_a, cfg)
    target = _target_of(sample, f_a, target)
    pred = target.design(kind, fit.degree) @ fit.coefficients
    if kind == "abc":
        pred = target.f - pred
    return EstimateRecord(float(np.mean(pred)))


def estimate_om(sample: CompositeSample, cfg: EstimatorConfig, *, target: Target | None = None) -> EstimateRecord:
    """Outcome model: fit the trial arm, average predictions over the target."""
    return _regression_estimate("om", sample, None, cfg, target)


def estimate_abc(sample: CompositeSample, f_a, cfg: EstimatorConfig, *, target: Target | None = None) -> EstimateRecord:
    """Additive bias correction: subtract a trial-fitted bias of the predictor.

    Fits the prediction errors z_i = f(x_i) - y_i on the trial arm, then
    averages f - fitted-bias over the target.
    """
    return _regression_estimate("abc", sample, f_a, cfg, target)


def estimate_aom(sample: CompositeSample, f_a, cfg: EstimatorConfig, *, target: Target | None = None) -> EstimateRecord:
    """Augmented outcome model: the predictor becomes an extra regressor."""
    return _regression_estimate("aom", sample, f_a, cfg, target)


def categorical_point_estimate(target_props: np.ndarray, group_means: np.ndarray) -> float:
    """The categorical outcome-model estimate: sum_k p0(k) * mean_k."""
    return float(np.dot(target_props, group_means))


def estimate_om_categorical(sample: CompositeSample, a: int) -> EstimateRecord:
    """Outcome model for categorical covariates: target-weighted group means.

    Groups are the distinct covariate values present in the target sample; a
    group with positive target proportion but no trial-arm record is a
    positivity failure.
    """
    x0 = sample.target_x()
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


def estimate_os_om(sample: CompositeSample, f_a, *, target: Target | None = None) -> EstimateRecord:
    """Average the observational predictor over the target sample; no trial data."""
    if sample.n0 < 1:
        raise ValueError("no target records")
    return EstimateRecord(float(np.mean(_target_of(sample, f_a, target).f)))


# -- weighting-based estimators ----------------------------------------------


def _weight_pieces(sample: CompositeSample, nuis: NuisanceSet, a: int):
    """Shared scaffolding for the weighted estimators: the trial-arm covariates
    and outcomes, the inverse-odds weights on the trial arm, the 1/(n(1-p))
    normalizer over the n trial and target records, and any extreme-weight
    warnings."""
    x1, y1 = sample.trial_arm_arrays(a)
    p_x = np.asarray(nuis.p_hat.predict(x1), dtype=float)
    warnings = ()
    if x1.size and ((p_x <= 1e-3) | (p_x >= 1 - 1e-3)).any():
        warnings = ("extreme participation probabilities in inverse-odds weights",)
    weights = (1.0 - p_x) / (p_x * TREATMENT_PROB)
    norm = 1.0 / ((sample.n1 + sample.n0) * (1.0 - nuis.p_hat_marginal))
    return x1, y1, weights, norm, warnings


def estimate_ipw(sample: CompositeSample, nuis: NuisanceSet, a: int = 1) -> EstimateRecord:
    """Inverse-odds weighting of trial-arm outcomes."""
    _, y1, weights, norm, warns = _weight_pieces(sample, nuis, a)
    if not y1.size:
        raise ValueError("empty trial arm")
    return EstimateRecord(norm * float(np.sum(weights * y1)), warnings=warns)


def _dr_estimate(
    kind: str, sample: CompositeSample, f_a, nuis: NuisanceSet, cfg: EstimatorConfig, fit, target: Target | None
) -> EstimateRecord:
    """``norm * (sum fit(x0) + sum w * (response - fit(x1)))`` of variant ``kind``
    (its own trial fit when ``fit`` is None); ABC subtracts it from mean f(x0).
    Only its own fit is read through the target's design; a given fit predicts."""
    target = _target_of(sample, f_a, target)
    if fit is None:
        fit = _sample_fit(kind, sample, f_a, cfg)
        fit_x0 = target.design(kind, fit.degree) @ fit.coefficients
    else:
        fit_x0 = fit.predict(target.x)
    x1, y1, weights, norm, warns = _weight_pieces(sample, nuis, cfg.a)
    resid = _response(kind, x1, y1, f_a) - fit.predict(x1)
    est = norm * (float(np.sum(fit_x0)) + float(np.sum(weights * resid)))
    if kind == "abc":
        est = float(np.mean(target.f)) - est
    return EstimateRecord(est, warnings=warns)


def estimate_dr_baseline(
    sample: CompositeSample,
    nuis: NuisanceSet,
    cfg: EstimatorConfig,
    outcome_fit=None,
    *,
    target: Target | None = None,
) -> EstimateRecord:
    """Doubly-robust baseline: outcome-model term plus weighted residuals.

    ``outcome_fit`` overrides the internally fitted trial-arm regression
    (used for the robustness checks with deliberately corrupted fits).
    """
    return _dr_estimate("om", sample, None, nuis, cfg, outcome_fit, target)


def estimate_dr_abc(
    sample: CompositeSample,
    f_a,
    nuis: NuisanceSet,
    cfg: EstimatorConfig,
    bias_fit=None,
    *,
    target: Target | None = None,
) -> EstimateRecord:
    """Doubly-robust additive bias correction.

    The bias estimate and its weighted residual are *subtracted* from the
    target average of the predictor; this is the sign under which the
    estimator reduces to ABC when the weighted residuals vanish and to IPW
    when both regression components are zero, recovering the identification
    target in both limits.
    """
    return _dr_estimate("abc", sample, f_a, nuis, cfg, bias_fit, target)


def estimate_dr_aom(
    sample: CompositeSample,
    f_a,
    nuis: NuisanceSet,
    cfg: EstimatorConfig,
    augmented_fit=None,
    *,
    target: Target | None = None,
) -> EstimateRecord:
    """Doubly-robust augmented outcome model (DR-PA)."""
    return _dr_estimate("aom", sample, f_a, nuis, cfg, augmented_fit, target)
