"""Causal-effect generalization from a trial to a covariates-only target population.

Estimate mean potential outcomes in a covariates-only target population by
combining a small randomized trial with a predictor trained on large
observational data, and reproduce the synthetic benchmarks that justify the
estimators at desk scale.
"""

from .domain import (
    OS,
    TARGET,
    TRIAL,
    CompositeSample,
    EstimateRecord,
    GlmParams,
    KernelParams,
    derive_seed,
)
from .dgp import (
    GridFunction,
    NoisePredictor,
    World,
    draw_target,
    draw_trial,
    generate_os,
    glm_logit_prob,
    glm_outcome,
    sample_gp,
)
from .regression import (
    LogisticFit,
    RandomFeatureFit,
    RidgeFit,
    flexible_fit,
    legendre_eval,
    logistic_fit,
    ridge_cv,
)
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
    estimate_om_categorical,
    estimate_os_om,
    fit_nuisances,
)
from .analysis import (
    OracleResult,
    Spectrum,
    empirical_excess_risk,
    prop1_formula,
    spectrum,
    true_mu,
    true_mu_monte_carlo,
    true_outcome_function,
)
from .grid import benchmark_grid, run_scenario_grid, run_table2

__all__ = [name for name in dir() if not name.startswith("_")]
