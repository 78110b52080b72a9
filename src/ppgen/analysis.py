"""Ground-truth oracles, the observational predictor and the theory's closed forms.

The oracles integrate the realized world functions (not the ideal GP law) by
tensor Gauss-Legendre quadrature, with node-doubling error estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .dgp import NoisePredictor, World, generate_os, os_arm_arrays
from .regression import flexible_fit, legendre_eval, ridge_cv

# Gauss-Legendre nodes per axis of the oracles' quadrature; true_mu bounds its
# error against twice as many.
ORACLE_ORDER = 64


@cache
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights, computed once per n and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class OracleResult:
    mu_a: float
    error_bound: float


def _target_weighted_integral(world: World, a: int, order: int) -> float:
    nodes, weights = gauss_legendre_nodes(order)
    xg, ug = nodes[:, None], nodes[None, :]
    w2 = weights[:, None] * weights[None, :]
    density = 1.0 - world.participation_prob(xg, ug)
    fom = world.outcome(a, xg, ug)
    return float(np.sum(w2 * density * fom) / np.sum(w2 * density))


def true_mu(world: World, a: int = 1) -> OracleResult:
    """True mean potential outcome in the target population, by quadrature."""
    coarse = _target_weighted_integral(world, a, ORACLE_ORDER)
    fine = _target_weighted_integral(world, a, 2 * ORACLE_ORDER)
    return OracleResult(fine, abs(fine - coarse))


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
    return OracleResult(mu, se)


# Points per block of the quadrature oracle.  A block is evaluated into
# (1024 x ORACLE_ORDER)-double buffers, 512 KiB each, so its work stays in cache
# instead of streaming every (points x nodes) array through main memory.
ORACLE_BLOCK = 1024


def _by_blocks(row_fn: Callable[..., np.ndarray], xs, n_buffers: int) -> np.ndarray:
    """``row_fn(x, *buffers)`` applied to ``xs`` in blocks of ORACLE_BLOCK points, into one output.

    ``row_fn`` maps a block of points to one value per point, each computed
    from its own point alone, so the output does not depend on the block size.
    It may write into its ``n_buffers`` (points x ORACLE_ORDER) buffers, the
    leading rows of buffers allocated once per call: fresh 512 KiB temporaries
    per block would be returned to the kernel between blocks and fault their
    pages in again.  The buffers are allocated before the output, which the
    caller keeps, so that once freed they lie below it on the heap, where the
    next call reuses their pages, rather than at its top, which is trimmed.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = xs.shape[0]
    buffers = [np.empty((min(ORACLE_BLOCK, n), ORACLE_ORDER)) for _ in range(n_buffers)]
    out = np.empty(n)
    for start in range(0, n, ORACLE_BLOCK):
        x = xs[start : start + ORACLE_BLOCK]
        out[start : start + ORACLE_BLOCK] = row_fn(x, *(buf[: x.shape[0]] for buf in buffers))
    return out


def true_outcome_function(world: World, a: int, xs: np.ndarray) -> np.ndarray:
    """E[Y | X=x, S=1, A=a]: the trial-population conditional mean at each x.

    The hidden covariate is integrated against its conditional density given
    trial participation, which is proportional to the participation
    probability at (x, u).  The points are evaluated in blocks of
    ORACLE_BLOCK against all nodes at once.
    """
    nodes, weights = gauss_legendre_nodes(ORACLE_ORDER)

    def block(x: np.ndarray, ps: np.ndarray, fom: np.ndarray) -> np.ndarray:
        xg = x[:, None]
        ps = world.participation_prob(xg, nodes[None, :], out=ps)
        ps *= weights
        fom = world.outcome(a, xg, nodes[None, :], out=fom)
        fom *= ps
        return np.sum(fom, axis=1) / np.sum(ps, axis=1)

    return _by_blocks(block, xs, 2)


def tilted_participation(world: World, n1: int, n0: int) -> Callable[[np.ndarray], np.ndarray]:
    """P(S=1 | X) in a composite sample drawn with exact counts n1, n0.

    Conditioning the two cohorts on their sizes reweights the marginal
    participation probability by (n1/P(S=1)) against (n0/P(S=0)); the
    weighting estimators are consistent with *this* propensity, not the raw
    one, so the oracle-weight checks must use it.
    """
    nodes, weights = gauss_legendre_nodes(ORACLE_ORDER)
    p_grid = world.participation_prob(nodes[:, None], nodes[None, :])
    w2 = weights[:, None] * weights[None, :]
    p_marg = float(np.sum(w2 * p_grid) / np.sum(w2))

    def marginal_block(x: np.ndarray, ps: np.ndarray) -> np.ndarray:
        ps = world.participation_prob(x[:, None], nodes[None, :], out=ps)
        ps *= weights
        return np.sum(ps, axis=1) / np.sum(weights)

    def p_of_x(x: np.ndarray) -> np.ndarray:
        p_x = _by_blocks(marginal_block, x, 1)
        lift1 = n1 / p_marg
        lift0 = n0 / (1.0 - p_marg)
        return lift1 * p_x / (lift1 * p_x + lift0 * (1.0 - p_x))

    return p_of_x


# -- the observational predictor ---------------------------------------------


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
        return NoisePredictor(seed_of("noisef"))
    os_cohort = generate_os(world, n_os, seed_of("os"))
    x, y = os_arm_arrays(os_cohort, a=1)
    if world.kind == "gp":
        return flexible_fit(x, y, n_features=n_features, seed=seed_of("fpred"))
    return ridge_cv(x, y, degree=5, fold_seed=seed_of("fpred"))


# -- categorical MSE formula -------------------------------------------------


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


# -- Legendre spectra and excess risk ----------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Coefficients of a function in the orthonormal Legendre basis."""

    coeffs: np.ndarray

    def tail_mass(self, d_prime: int) -> float:
        """Sum of squared coefficients above degree d_prime."""
        return float(np.sum(self.coeffs[d_prime + 1 :] ** 2))


def spectrum(f: Callable[[np.ndarray], np.ndarray], d_max: int) -> Spectrum:
    """Legendre coefficients <f, phi_k> for k = 0..d_max, by 128-node quadrature."""
    nodes, weights = gauss_legendre_nodes(128)
    values = np.asarray(f(nodes), dtype=float)
    basis = legendre_eval(nodes, d_max)
    return Spectrum(basis.T @ (weights * values))


def empirical_excess_risk(fit_values, truth_values) -> float:
    """Mean squared distance between a fit's values and the truth's at the
    same points; ValueError unless both hold one value per point, at least one."""
    fit_values, truth_values = np.asarray(fit_values, dtype=float), np.asarray(truth_values, dtype=float)
    if fit_values.shape != truth_values.shape or not fit_values.size:
        raise ValueError(f"need values at the same points, at least one; got {fit_values.shape}, {truth_values.shape}")
    return float(np.mean((fit_values - truth_values) ** 2))
