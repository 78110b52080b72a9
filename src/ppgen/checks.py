"""Theory checks, each reduced to a PASS/FAIL line with a stated tolerance.

These are the executable counterparts of the analytical statements the
estimators rest on: the categorical MSE formula, the bias/variance structure
of the three regression estimators, the excess-risk ordering that favors
fitting the predictor's bias over the outcome itself, orthonormality of the
basis, oracle agreement, and double robustness of the weighted estimators.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .analysis import (
    empirical_excess_risk,
    gauss_legendre_nodes,
    os_predictor,
    prop1_formula,
    spectrum,
    tilted_participation,
    true_mu,
    true_mu_monte_carlo,
    true_outcome_function,
)
from .dgp import World, draw_target, draw_trial, gp_world
from .domain import TRIAL, CompositeSample, check_names, derive_seed
from .estimators import (
    EstimatorConfig,
    Target,
    categorical_point_estimate,
    estimate_dr_abc,
    estimate_dr_aom,
    estimate_dr_baseline,
    estimate_om_categorical,
    trial_fit,
)
from .grid import grid_kernels
from .regression import CallablePredictor, ConstantPredictor, legendre_eval


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


# -- orthonormality -----------------------------------------------------------


def orthonormality_check(basis=legendre_eval) -> CheckResult:
    """Quadrature Gram matrix of the basis up to degree 8 must be the identity to 1e-10."""
    max_degree, tol = 8, 1e-10
    nodes, weights = gauss_legendre_nodes(64)
    feats = basis(nodes, max_degree)
    gram = feats.T @ (weights[:, None] * feats)
    err = float(np.max(np.abs(gram - np.eye(max_degree + 1))))
    return CheckResult(
        "orthonormality", err < tol, f"max |<phi_i, phi_j> - delta_ij| = {err:.3e} (tol {tol:g})"
    )


# -- categorical MSE formula ----------------------------------------------------

_PROP1_GROUPS = {
    "props": np.array([0.4, 0.3, 0.2, 0.1]),
    "means": np.array([0.5, -0.2, 1.0, 0.3]),
    "sds": np.array([1.0, 0.8, 1.2, 0.6]),
    "counts": np.array([30, 25, 40, 20]),
}


def _categorical_trial_and_target(rng, props, means, sds, counts, n0) -> tuple[CompositeSample, Target]:
    """A categorical trial cohort and a target of ``n0`` records."""
    groups = np.arange(1.0, props.shape[0] + 1)
    y1 = np.concatenate([rng.normal(m, sd, c) for m, sd, c in zip(means, sds, counts)])
    x0 = groups[rng.choice(props.shape[0], size=n0, p=props)]
    n1 = y1.shape[0]
    return CompositeSample.cohort(TRIAL, np.repeat(groups, counts), np.zeros(n1), np.ones(n1, int), y1), Target(x0)


def prop1_check(seed: int = 0, n_replications: int = 10_000) -> CheckResult:
    """Monte Carlo MSE of the categorical outcome model vs the closed formula,
    with target proportions from 20,000 draws, to a relative 0.10.

    The replication loop draws the group means and target proportions from
    their exact sampling distributions and applies the same point-estimate
    kernel as estimate_om_categorical; a handful of full object-level
    replications are cross-checked against the kernel to tie the two paths.
    """
    g, n0, rel_tol = _PROP1_GROUPS, 20_000, 0.10
    rng = np.random.default_rng(derive_seed(seed, "prop1"))
    mu = float(np.dot(g["props"], g["means"]))
    formula = prop1_formula(g["props"], g["sds"] ** 2, g["counts"])

    k = g["props"].shape[0]
    means_hat = np.empty((n_replications, k))
    for j in range(k):
        draws = rng.normal(g["means"][j], g["sds"][j], size=(n_replications, g["counts"][j]))
        means_hat[:, j] = draws.mean(axis=1)
    props_hat = rng.multinomial(n0, g["props"], size=n_replications) / n0
    estimates = np.einsum("rk,rk->r", props_hat, means_hat)
    mc_mse = float(np.mean((estimates - mu) ** 2))

    # Object-level bridge: the estimator agrees with the kernel exactly.
    for _ in range(3):
        trial, target = _categorical_trial_and_target(rng, g["props"], g["means"], g["sds"], g["counts"], 2_000)
        x1, y1 = trial.trial_arm_arrays(1)
        groups = np.unique(target.x)
        props = np.array([np.mean(target.x == v) for v in groups])
        gmeans = np.array([np.mean(y1[x1 == v]) for v in groups])
        direct = estimate_om_categorical(trial, a=1, target=target).point_estimate
        if abs(direct - categorical_point_estimate(props, gmeans)) > 1e-12:
            return CheckResult("prop1", False, "object-level estimator diverged from kernel")

    rel = abs(mc_mse - formula) / formula
    return CheckResult(
        "prop1",
        rel < rel_tol,
        f"MC mse {mc_mse:.6g} vs formula {formula:.6g}, rel diff {rel:.3f} (tol {rel_tol})",
    )


# -- MSE structure of the regression estimators --------------------------------

# The trial size and fit degree of the theorem and lemma2 checks.
_N1, _DEGREE = 200, 3


def _check_world(master_seed: int, lx: float = 0.5, conf: str = "mid") -> World:
    return gp_world(*grid_kernels(lx, conf), lambda part, *arm: derive_seed(master_seed, "check-" + part, *arm))


def theorem_structural_check(
    which: str,
    seed: int = 0,
    n_refits: int = 500,
    n0: int = 20_000,
    n_os: int = 50_000,
) -> CheckResult:
    """Simulated MSE vs integrated-bias^2 + refit variance, within 4 MC SEs.

    ``which`` selects the estimator: "om", "abc" or "aom".  The world and a
    large target draw are fixed; the trial sample is refit n_refits times.
    The squared-bias term integrates the pointwise refit-averaged deviation
    from the true outcome function over the target draw, the variance term
    is the refit variance of the target-averaged prediction: exactly the two
    terms of the MSE approximations.  The refit variance needs at least two
    refits; fewer raise ValueError.
    """
    if which not in ("om", "abc", "aom"):
        raise ValueError("which must be om, abc or aom")
    if n_refits < 2:
        raise ValueError("need at least 2 refits for a refit variance")
    seed_of = partial(derive_seed, seed, "thm", which)
    world = _check_world(seed_of())
    target_x = draw_target(world, n0, seed_of("target")).x_array()
    mu = true_mu(world, a=1).mu_a
    g_true = true_outcome_function(world, 1, target_x)
    f = os_predictor(world, n_os, seed_of) if which in ("abc", "aom") else None
    target = Target(target_x, f)  # the fit's design on the target, built once rather than per refit

    m = np.empty(n_refits)
    pointwise_sum = np.zeros(target_x.shape[0])
    for r in range(n_refits):
        trial = draw_trial(world, _N1, seed_of("trial", r))
        x1, y1 = trial.trial_arm_arrays(1)
        fit = trial_fit(which, x1, y1, f, EstimatorConfig(_DEGREE, fold_seed=seed_of("folds", r)))
        pred = target.design(which, _DEGREE) @ fit.coefficients
        if which == "abc":
            pred = target.f - pred
        m[r] = float(np.mean(pred))
        pointwise_sum += pred

    deviation = pointwise_sum / n_refits - g_true
    bias_plug = float(np.mean(deviation))
    var_plug = float(np.var(m, ddof=1))
    mse_sim = float(np.mean((m - mu) ** 2))
    delta = abs(mse_sim - bias_plug**2 - var_plug)

    se_mse = float(np.std((m - mu) ** 2, ddof=1) / np.sqrt(n_refits))
    se_bias = math.sqrt(var_plug / n_refits + np.var(deviation, ddof=1) / target_x.shape[0])
    se_var = var_plug * math.sqrt(2.0 / (n_refits - 1))
    # The simulated MSE is anchored to the population mean while the bias term
    # integrates over the fixed target draw; the gap between the two is the
    # finite-target effect, of size sd(g)/sqrt(n0), and belongs in the band.
    se_target = float(np.std(g_true, ddof=1)) / math.sqrt(target_x.shape[0])
    combined = math.sqrt(
        se_mse**2
        + (2 * abs(bias_plug) * se_bias) ** 2
        + se_var**2
        + (2 * abs(bias_plug) * se_target) ** 2
        + (2 * se_target**2) ** 2
    )
    return CheckResult(
        f"theorem-{which}",
        delta <= 4 * combined,
        f"|mse - bias^2 - var| = {delta:.3e} vs 4*SE = {4 * combined:.3e} "
        f"(mse {mse_sim:.4e}, bias^2 {bias_plug**2:.4e}, var {var_plug:.4e})",
    )


# -- excess-risk ordering --------------------------------------------------------


def lemma2_check(seed: int = 0, n_worlds: int = 100, n_os: int = 20_000, n_features: int = 250) -> CheckResult:
    """Where the bias function has less spectral tail (in the first 17
    Legendre coefficients) than the outcome function, its fit must have lower
    mean empirical excess risk."""
    risks_g, risks_b = [], []
    for w in range(n_worlds):
        world_seed = derive_seed(seed, "lemma2", w)
        world = _check_world(world_seed, lx=0.2, conf="none")
        f = os_predictor(world, n_os, lambda part: derive_seed(world_seed, part), n_features=n_features)

        def g_fn(x):
            return true_outcome_function(world, 1, x)

        def b_fn(x):
            return f.predict(x) - g_fn(x)

        spec_g = spectrum(g_fn, 16)
        spec_b = spectrum(b_fn, 16)
        if spec_b.tail_mass(_DEGREE) >= spec_g.tail_mass(_DEGREE):
            continue
        trial = draw_trial(world, _N1, derive_seed(world_seed, "trial"))
        x1, y1 = trial.trial_arm_arrays(1)
        cfg = EstimatorConfig(_DEGREE, fold_seed=derive_seed(world_seed, "folds"))
        g_fit, b_fit = (trial_fit(kind, x1, y1, f, cfg) for kind in ("om", "abc"))
        risks_g.append(empirical_excess_risk(g_fit, g_fn, x1))
        risks_b.append(empirical_excess_risk(b_fit, b_fn, x1))
    if len(risks_g) < max(3, n_worlds // 10):
        return CheckResult(
            "lemma2", False, f"only {len(risks_g)}/{n_worlds} worlds met the tail condition"
        )
    mean_g, mean_b = float(np.mean(risks_g)), float(np.mean(risks_b))
    return CheckResult(
        "lemma2",
        mean_b < mean_g,
        f"mean excess risk: bias fit {mean_b:.4e} < outcome fit {mean_g:.4e} "
        f"over {len(risks_g)} qualifying worlds",
    )


# -- oracle agreement ----------------------------------------------------------


def oracle_agreement_check(seed: int = 0, n_draws: int = 1_000_000) -> CheckResult:
    """Quadrature and Monte Carlo oracles agree within 4 combined errors."""
    worst = 0.0
    for i, (lx, conf) in enumerate([(0.5, "none"), (0.2, "mid"), (0.5, "strong")]):
        world = _check_world(derive_seed(seed, "oracle", i), lx=lx, conf=conf)
        quad = true_mu(world, a=1)
        mc = true_mu_monte_carlo(world, a=1, n_draws=n_draws, seed=derive_seed(seed, "oracle-mc", i))
        combined = 4 * math.sqrt(mc.error_bound**2 + quad.error_bound**2)
        if combined == 0:
            combined = 1e-12
        worst = max(worst, abs(quad.mu_a - mc.mu_a) / combined)
    return CheckResult(
        "oracle", worst <= 1.0, f"worst |quad - mc| / (4*combined SE) = {worst:.3f}"
    )


# -- double robustness ----------------------------------------------------------


def dr_robustness_check(
    seed: int = 0,
    n1: int = 10_000,
    n0: int = 40_000,
    n_replications: int = 40,
) -> CheckResult:
    """Each DR estimator stays within 3 MC standard errors of the oracle when
    exactly one nuisance side is deliberately corrupted.  The standard error
    needs at least two replications; fewer raise ValueError."""
    if n_replications < 2:
        raise ValueError("need at least 2 replications for a standard error")
    world = _check_world(derive_seed(seed, "dr"), lx=0.5, conf="none")
    mu = true_mu(world, a=1).mu_a
    b_fn = CallablePredictor(lambda x: 0.3 + 0.5 * x)  # the exact bias of f below
    q = tilted_participation(world, n1, n0)
    p_bad = ConstantPredictor(0.5)
    plus_one = lambda fn: CallablePredictor(lambda x: fn.predict(x) + 1.0)
    cfg = EstimatorConfig(degree=3, a=1)
    estimates = defaultdict(list)
    for rep in range(n_replications):
        trial = draw_trial(world, n1, derive_seed(seed, "dr", "trial", rep))
        x0 = draw_target(world, n0, derive_seed(seed, "dr", "target", rep)).x
        # the estimators evaluate their fits only on the target and on the trial
        # arm, and the weights the participation only on the trial arm: each is
        # computed once and served to all six cases by array identity
        x1, _ = trial.trial_arm_arrays(cfg.a)
        truth_on = {id(x): true_outcome_function(world, 1, x) for x in (x0, x1)}
        g_hat = CallablePredictor(lambda x: truth_on[id(x)])
        q_on = {id(x1): q(x1)}
        p_good = CallablePredictor(lambda x: q_on[id(x)])
        f = CallablePredictor(lambda x: g_hat.predict(x) + 0.3 + 0.5 * x)  # distorted but fixed
        target = Target(x0, f)  # the target and f on it, shared by all six cases
        # each DR estimator with its exact regression component, corrupted or kept
        trio = (
            ("dr", lambda p, fit: estimate_dr_baseline(trial, p, cfg, outcome_fit=fit, target=target), g_hat),
            ("dr-abc", lambda p, fit: estimate_dr_abc(trial, f, p, cfg, bias_fit=fit, target=target), b_fn),
            ("dr-pa", lambda p, fit: estimate_dr_aom(trial, f, p, cfg, augmented_fit=fit, target=target), g_hat),
        )
        for name, estimate, exact in trio:
            estimates[name, "bad-outcome"].append(estimate(p_good, plus_one(exact)).point_estimate)
            estimates[name, "bad-weights"].append(estimate(p_bad, exact).point_estimate)
    details = []
    passed = True
    for key, vals in estimates.items():
        vals = np.asarray(vals)
        se = float(np.std(vals, ddof=1) / np.sqrt(n_replications))
        gap = abs(float(np.mean(vals)) - mu)
        ok = gap <= 3 * se
        passed &= ok
        details.append(f"{key[0]}/{key[1]}: |mean-mu|={gap:.2e} vs 3SE={3 * se:.2e}")
    return CheckResult("dr-robustness", passed, "; ".join(details))


# -- registry -------------------------------------------------------------------


# Each check is run as check(master seed, scaled(n, floor) -> count).
CHECKS: dict[str, Callable[[int, Callable[[int, int], int]], CheckResult]] = {
    "orthonormality": lambda seed, scaled: orthonormality_check(),
    "prop1": lambda seed, scaled: prop1_check(seed=seed, n_replications=scaled(10_000, 200)),
    "theorem1": lambda seed, scaled: theorem_structural_check("om", seed=seed, n_refits=scaled(500, 50)),
    "theorem2": lambda seed, scaled: theorem_structural_check("abc", seed=seed, n_refits=scaled(500, 50)),
    "theorem3": lambda seed, scaled: theorem_structural_check("aom", seed=seed, n_refits=scaled(500, 50)),
    "lemma2": lambda seed, scaled: lemma2_check(seed=seed, n_worlds=scaled(100, 10)),
    "oracle": lambda seed, scaled: oracle_agreement_check(seed=seed, n_draws=scaled(1_000_000, 10_000)),
    "dr": lambda seed, scaled: dr_robustness_check(seed=seed, n_replications=scaled(40, 10)),
}
DEFAULT_CHECKS = ("orthonormality", "prop1", "theorem1", "theorem2", "theorem3", "lemma2")


def run_checks(
    names: Sequence[str] | None = None, seed: int = 0, scale: float = 1.0
) -> list[CheckResult]:
    """Run the named checks (default: the full suite) at a given scale."""

    def scaled(n: int, floor: int) -> int:
        return max(floor, math.ceil(n * scale))

    selected = DEFAULT_CHECKS if names is None else check_names("checks", names, CHECKS)
    return [CHECKS[n](seed, scaled) for n in selected]
