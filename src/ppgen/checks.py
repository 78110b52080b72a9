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
from .domain import check_names, derive_seed
from .estimators import (
    Arm,
    EstimatorConfig,
    Target,
    categorical_point_estimate,
    estimate_dr_abc,
    estimate_dr_aom,
    estimate_dr_baseline,
    estimate_om_categorical,
    target_prediction,
    trial_fit,
)
from .grid import grid_kernels, world_prologue
from .regression import legendre_eval


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


def _categorical_arm_and_target(rng, props, means, sds, counts, n0) -> tuple[Arm, Target]:
    """A categorical trial arm and a target of ``n0`` records."""
    groups = np.arange(1.0, props.shape[0] + 1)
    y1 = np.concatenate([rng.normal(m, sd, c) for m, sd, c in zip(means, sds, counts)])
    x0 = groups[rng.choice(props.shape[0], size=n0, p=props)]
    return Arm(np.repeat(groups, counts), y1), Target(x0)


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
        arm, target = _categorical_arm_and_target(rng, g["props"], g["means"], g["sds"], g["counts"], 2_000)
        groups = np.unique(target.x)
        props = np.array([np.mean(target.x == v) for v in groups])
        gmeans = np.array([np.mean(arm.y[arm.x == v]) for v in groups])
        direct = estimate_om_categorical(arm, target=target).point_estimate
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
    # the grid's prologue: the fit's design on the target is built once rather than per refit
    f, target, mu = world_prologue(world, n0, n_os, seed_of, "learned" if which in ("abc", "aom") else None)
    g_true = true_outcome_function(world, 1, target.x)

    m = np.empty(n_refits)
    pointwise_sum = np.zeros(target.x.shape[0])
    for r in range(n_refits):
        x1, y1 = draw_trial(world, _N1, seed_of("trial", r)).trial_arm_arrays(1)
        arm = Arm(x1, y1, None if f is None else f.predict(x1))
        pred = target_prediction(which, arm, EstimatorConfig(_DEGREE, fold_seed=seed_of("folds", r)), target)
        m[r] = float(np.mean(pred))
        pointwise_sum += pred

    deviation = pointwise_sum / n_refits - g_true
    bias_plug = float(np.mean(deviation))
    var_plug = float(np.var(m, ddof=1))
    mse_sim = float(np.mean((m - mu) ** 2))
    delta = abs(mse_sim - bias_plug**2 - var_plug)

    se_mse = float(np.std((m - mu) ** 2, ddof=1) / np.sqrt(n_refits))
    se_bias = math.sqrt(var_plug / n_refits + np.var(deviation, ddof=1) / target.x.shape[0])
    se_var = var_plug * math.sqrt(2.0 / (n_refits - 1))
    # The simulated MSE is anchored to the population mean while the bias term
    # integrates over the fixed target draw; the gap between the two is the
    # finite-target effect, of size sd(g)/sqrt(n0), and belongs in the band.
    se_target = float(np.std(g_true, ddof=1)) / math.sqrt(target.x.shape[0])
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
        x1, y1 = draw_trial(world, _N1, derive_seed(world_seed, "trial")).trial_arm_arrays(1)
        arm, g1 = Arm(x1, y1, f.predict(x1)), g_fn(x1)
        cfg = EstimatorConfig(_DEGREE, fold_seed=derive_seed(world_seed, "folds"))
        g_fit, b_fit = trial_fit("om", arm, cfg), trial_fit("abc", arm, cfg)
        risks_g.append(empirical_excess_risk(g_fit.predict(x1), g1))
        risks_b.append(empirical_excess_risk(b_fit.predict(x1), arm.f - g1))
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
    q = tilted_participation(world, n1, n0)
    cfg = EstimatorConfig(degree=3)
    estimates = defaultdict(list)
    for rep in range(n_replications):
        trial = draw_trial(world, n1, derive_seed(seed, "dr", "trial", rep))
        x0 = draw_target(world, n0, derive_seed(seed, "dr", "target", rep)).x
        x1, y1 = trial.trial_arm_arrays(1)
        # the estimators read each function only on the trial arm and on the
        # target, so each is evaluated there once and shared by the cases that
        # read it: the truth g (on the target first: the check's page faults
        # follow the order of its allocations), the distorted but fixed
        # predictor f = g + b with bias b = 0.3 + 0.5 x, and the participation
        g0 = true_outcome_function(world, 1, x0)
        g1 = true_outcome_function(world, 1, x1)
        f1, f0 = g1 + 0.3 + 0.5 * x1, g0 + 0.3 + 0.5 * x0
        p_good, p_bad = q(x1), np.full(x1.shape[0], 0.5)
        arm, target = Arm(x1, y1, f1), Target(x0, f0)
        # each DR estimator with its exact regression component (on the arm, on
        # the target), corrupted or kept; b is built only while its cases run
        trio = (
            ("dr", lambda p, fit: estimate_dr_baseline(arm, p, cfg, outcome_fit=fit, target=target),
             lambda: (g1, g0)),
            ("dr-abc", lambda p, fit: estimate_dr_abc(arm, p, cfg, bias_fit=fit, target=target),
             lambda: (0.3 + 0.5 * x1, 0.3 + 0.5 * x0)),
            ("dr-pa", lambda p, fit: estimate_dr_aom(arm, p, cfg, augmented_fit=fit, target=target),
             lambda: (g1, g0)),
        )
        for name, estimate, exact_values in trio:
            exact = exact_values()
            estimates[name, "bad-outcome"].append(estimate(p_good, tuple(v + 1.0 for v in exact)).point_estimate)
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
