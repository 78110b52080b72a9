"""Ground-truth oracles and Monte Carlo analysis.

The oracles integrate the realized world functions (not the ideal GP law) by
tensor Gauss-Legendre quadrature, with node-doubling error estimates.  The
Monte Carlo decomposition fixes a world and a large target sample and redraws
only the trial sample, which is the large-target regime the MSE
approximations are stated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .domain import CompositeSample, DecompositionReport, GenerationError, ScenarioSpec, derive_seed
from .dgp import (
    World,
    draw_target,
    draw_trial,
    generate_os,
    noise_predictor,
    os_arm_arrays,
    world_from_spec,
)
from .regression import flexible_fit, legendre_eval, ridge_cv


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class OracleResult:
    mu_a: float
    method: str  # "quadrature" | "monte_carlo"
    error_bound: float


def _target_weighted_integral(world: World, a: int, order: int) -> float:
    nodes, weights = gauss_legendre_nodes(order)
    xg, ug = nodes[:, None], nodes[None, :]
    w2 = weights[:, None] * weights[None, :]
    density = 1.0 - world.participation_prob(xg, ug)
    fom = world.outcome(a, xg, ug)
    return float(np.sum(w2 * density * fom) / np.sum(w2 * density))


def true_mu(world: World, a: int = 1, order: int = 64) -> OracleResult:
    """True mean potential outcome in the target population, by quadrature."""
    coarse = _target_weighted_integral(world, a, order)
    fine = _target_weighted_integral(world, a, 2 * order)
    return OracleResult(fine, "quadrature", abs(fine - coarse))


def true_mu_monte_carlo(world: World, a: int = 1, n_draws: int = 1_000_000, seed: int = 0) -> OracleResult:
    """Monte Carlo cross-check of the quadrature oracle (importance-weighted)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n_draws)
    u = rng.uniform(-1.0, 1.0, n_draws)
    w = 1.0 - world.participation_prob(x, u)
    values = world.outcome(a, x, u)
    mu = float(np.sum(w * values) / np.sum(w))
    # Standard error of the ratio estimator by the delta method.
    resid = w * (values - mu)
    se = float(np.std(resid, ddof=1) / (np.mean(w) * np.sqrt(n_draws)))
    return OracleResult(mu, "monte_carlo", se)


def true_outcome_function(world: World, a: int, xs: np.ndarray, order: int = 64) -> np.ndarray:
    """E[Y | X=x, S=1, A=a]: the trial-population conditional mean at each x.

    The hidden covariate is integrated against its conditional density given
    trial participation, which is proportional to the participation
    probability at (x, u).
    """
    nodes, weights = gauss_legendre_nodes(order)
    xg = np.atleast_1d(np.asarray(xs, dtype=float))[:, None]
    weighted_ps = weights[None, :] * world.participation_prob(xg, nodes[None, :])
    fom = world.outcome(a, xg, nodes[None, :])
    return np.sum(weighted_ps * fom, axis=1) / np.sum(weighted_ps, axis=1)


def tilted_participation(world: World, n1: int, n0: int, order: int = 64) -> Callable[[np.ndarray], np.ndarray]:
    """P(S=1 | X) in a composite sample drawn with exact counts n1, n0.

    Conditioning the two cohorts on their sizes reweights the marginal
    participation probability by (n1/P(S=1)) against (n0/P(S=0)); the
    weighting estimators are consistent with *this* propensity, not the raw
    one, so the oracle-weight checks must use it.
    """
    nodes, weights = gauss_legendre_nodes(order)
    p_grid = world.participation_prob(nodes[:, None], nodes[None, :])
    w2 = weights[:, None] * weights[None, :]
    p_marg = float(np.sum(w2 * p_grid) / np.sum(w2))

    def p_of_x(x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ps = world.participation_prob(x[:, None], nodes[None, :])
        p_x = np.sum(weights[None, :] * ps, axis=1) / np.sum(weights)
        lift1 = n1 / p_marg
        lift0 = n0 / (1.0 - p_marg)
        return lift1 * p_x / (lift1 * p_x + lift0 * (1.0 - p_x))

    return p_of_x


# -- Monte Carlo MSE decomposition -------------------------------------------


def os_predictor(world: World, n_os: int, seed_of: Callable[[str], int],
                 predictor_kind: str = "learned", n_features: int = 500):
    """Build the observational predictor f of treated outcomes.

    "learned" fits the treated arm of an n_os-record observational cohort:
    the flexible regressor (GP worlds) or a degree-5 ridge (GLM worlds).
    "iid_noise" returns the fixed pseudo-noise function and skips the cohort,
    since nothing would consume it.  ``seed_of(part)`` seeds the parts "os"
    (the cohort), "fpred" (the fit) and "noisef" (the noise function).
    """
    if predictor_kind == "iid_noise":
        return noise_predictor(seed_of("noisef"))
    os_cohort = generate_os(world, n_os, seed_of("os"))
    x, y = os_arm_arrays(os_cohort, a=1)
    if world.kind == "gp":
        return flexible_fit(x, y, n_features=n_features, seed=seed_of("fpred"))
    return ridge_cv(x, y, degree=5, fold_seed=seed_of("fpred"))


def decompose_mse(
    spec: ScenarioSpec,
    estimator: Callable[[CompositeSample, object], float],
    n_replications: int,
    seed_tag: object = "decomp",
) -> DecompositionReport:
    """Bias / variance / MSE of an estimator over trial redraws on one world.

    The world, the target sample, and the predictor are fixed; each
    replication redraws the trial sample only.  ``estimator`` receives the
    composite sample and the predictor and returns a point estimate.  A
    replication that raises ValueError (PositivityError, IllConditionedError
    and numpy's LinAlgError included) or GenerationError is excluded and
    counted; any other exception propagates.  Fewer than two successful
    replications leave the variance undefined and raise ValueError.
    """
    if n_replications < 2:
        raise ValueError("need at least 2 replications")
    seed_of = partial(derive_seed, spec.master_seed, seed_tag)
    world = world_from_spec(spec, seed_tag)
    target = draw_target(world, spec.n0, seed_of("target"))
    # the noise function's seed part is "noise-predictor" here, "noisef" in the grid
    predictor = os_predictor(
        world, spec.n_os, lambda part: seed_of("noise-predictor" if part == "noisef" else part),
        spec.predictor_kind,
    )
    mu = true_mu(world, a=1).mu_a
    estimates = []
    failures = 0
    for rep in range(n_replications):
        trial = draw_trial(world, spec.n1, seed_of("trial", rep))
        sample = CompositeSample.concat(trial, target)
        try:
            estimates.append(estimator(sample, predictor))
        except (ValueError, GenerationError):
            failures += 1
    est = np.asarray(estimates)
    r = est.shape[0]
    if r < 2:
        raise ValueError(f"only {r} of {n_replications} replications succeeded; need at least 2")
    bias = float(np.mean(est) - mu)
    variance = float(np.var(est, ddof=1))
    mse = float(np.mean((est - mu) ** 2))
    # Exact finite-sample identity, kept as a construction-time sanity check.
    assert abs(mse - bias**2 - variance * (r - 1) / r) < 1e-12 * max(1.0, mse)
    return DecompositionReport(bias, variance, mse, r, failures)


def prop1_formula(target_props, group_vars, group_counts) -> float:
    """Approximate MSE of the categorical outcome model: sum p0(k)^2 s2_k / n_k."""
    p = np.asarray(target_props, dtype=float)
    v = np.asarray(group_vars, dtype=float)
    n = np.asarray(group_counts, dtype=float)
    if np.any(n < 1):
        raise ValueError("every group needs at least one trial-arm record")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("target proportions must sum to 1")
    return float(np.sum(p**2 * v / n))


# -- Legendre spectra and risk bounds ----------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Coefficients of a function in the orthonormal Legendre basis."""

    coeffs: np.ndarray

    def tail_mass(self, d_prime: int) -> float:
        """Sum of squared coefficients above degree d_prime."""
        return float(np.sum(self.coeffs[d_prime + 1 :] ** 2))


def spectrum(f: Callable[[np.ndarray], np.ndarray], d_max: int, order: int = 128) -> Spectrum:
    """Legendre coefficients <f, phi_k> for k = 0..d_max, by quadrature."""
    nodes, weights = gauss_legendre_nodes(order)
    values = np.asarray(f(nodes), dtype=float)
    basis = legendre_eval(nodes, d_max)
    return Spectrum(basis.T @ (weights * values))


def empirical_excess_risk(fit, truth: Callable[[np.ndarray], np.ndarray], xs) -> float:
    """Mean squared distance between a fit and the truth over given points."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.shape[0] == 0:
        raise ValueError("need at least one evaluation point")
    return float(np.mean((fit.predict(xs) - np.asarray(truth(xs), dtype=float)) ** 2))


@dataclass(frozen=True)
class RiskReport:
    """An empirical excess risk next to its oracle upper bound."""

    empirical_risk: float
    bound: float

    def __post_init__(self):
        if self.bound < 0 or (not np.isnan(self.empirical_risk) and self.empirical_risk < 0):
            raise ValueError("risks must be nonnegative")


def lemma2_bounds(
    sigma2: float,
    d_prime: int,
    n1: int,
    spectrum_g: Spectrum,
    spectrum_b: Spectrum,
    risk_g: float = np.nan,
    risk_b: float = np.nan,
) -> tuple[RiskReport, RiskReport]:
    """Oracle excess-risk bounds sigma^2 d'/n1 + tail mass, for both fits.

    Only the ordering of the two bounds is meaningful for our cross-validated
    fits; the constants assume an oracle-chosen penalty.
    """
    if d_prime >= spectrum_g.coeffs.shape[0] or d_prime >= spectrum_b.coeffs.shape[0]:
        raise ValueError("d_prime must be below the spectrum length")
    stat = sigma2 * d_prime / n1
    return (
        RiskReport(risk_g, stat + spectrum_g.tail_mass(d_prime)),
        RiskReport(risk_b, stat + spectrum_b.tail_mass(d_prime)),
    )
