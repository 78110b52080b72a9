from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgen import estimators, grid
from ppgen.analysis import tilted_participation, true_mu
from ppgen.dgp import draw_target, draw_trial, generate_os, gp_world
from ppgen.domain import (
    TARGET,
    TRIAL,
    CompositeSample,
    TREATMENT_PROB,
    PositivityError,
    derive_seed,
)
from ppgen.estimators import (
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
from ppgen.regression import DEFAULT_PENALTY_GRID, LogisticFit


def build_arm(x1, y1, x0, f=None):
    """The ``Arm`` of ``x1`` and ``y1`` and the ``Target`` of ``x0``, each
    with the values of function ``f`` on its covariates."""
    def values(x):
        return None if f is None else f(np.asarray(x, dtype=float))

    return Arm(x1, y1, values(x1)), Target(x0, values(x0))


def const(value, x):
    """A constant function's values on ``x``."""
    return np.full(np.shape(x)[0], value)


def tiny_cfg(degree, penalty=1e-8, fold_seed=0):
    return EstimatorConfig(degree=degree, penalty_grid=(penalty,), fold_seed=fold_seed)


def seeded_world(seed=21):
    """The benchmark's lx=0.5, conf=none world, its surfaces seeded from (seed, "estimator-tests")."""
    return gp_world(*grid.grid_kernels(0.5, "none"), partial(derive_seed, seed, "estimator-tests"))


# The identity tests below are properties of the estimators' arrays, drawn
# over arm sizes, degrees, seeds and one-penalty and full grids.
_identity_cases = st.fixed_dictionaries({
    "n1": st.integers(8, 60),
    "n0": st.integers(1, 200),
    "degree": st.integers(0, 5),
    "seed": st.integers(0, 2**32 - 1),
    "penalty_grid": st.sampled_from([(1e-8,), (1e-3,), (1.0,), tuple(DEFAULT_PENALTY_GRID)]),
})


def _identity_draw(case):
    """A trial arm's covariates and outcomes, a target's covariates, a config,
    and participation values on the arm."""
    rng = np.random.default_rng(case["seed"])
    x1, x0 = rng.uniform(-1, 1, case["n1"]), rng.uniform(-1, 1, case["n0"])
    y1 = np.sin(3 * x1) + rng.normal(0, 0.5, case["n1"])
    cfg = EstimatorConfig(case["degree"], penalty_grid=case["penalty_grid"], fold_seed=case["seed"] % 1000)
    return x1, y1, x0, cfg, rng.uniform(0.05, 0.95, case["n1"])


# -- outcome model ------------------------------------------------------------


def test_om_constant_fit():
    rng = np.random.default_rng(0)
    arm, target = build_arm(rng.uniform(-1, 1, 30), np.full(30, 2.0), rng.uniform(-1, 1, 40))
    rec = estimate_om(arm, tiny_cfg(degree=0, penalty=0.0), target=target)
    assert rec.point_estimate == pytest.approx(2.0, abs=1e-12)


def test_om_recovers_linear_truth():
    rng = np.random.default_rng(1)
    x1 = rng.uniform(-1, 1, 100)
    x0 = 0.2 + np.concatenate([-rng.uniform(0, 0.5, 500), rng.uniform(0, 0.5, 500)])
    arm, target = build_arm(x1, x1, x0)  # y = x exactly
    rec = estimate_om(arm, tiny_cfg(degree=1), target=target)
    assert rec.point_estimate == pytest.approx(float(np.mean(x0)), abs=1e-8)


def test_om_requires_enough_arm_records():
    arm, target = build_arm([0.1, 0.2], [1.0, 2.0], [0.0, 0.5])
    with pytest.raises(ValueError, match="the trial arm has 2 records"):
        estimate_om(arm, tiny_cfg(degree=3), target=target)


def test_om_matches_categorical_on_saturated_basis():
    rng = np.random.default_rng(2)
    x1 = rng.choice([-0.5, 0.5], 60)
    y1 = np.where(x1 > 0, 2.0, 1.0) + rng.normal(0, 0.3, 60)
    x0 = rng.choice([-0.5, 0.5], 200, p=[0.3, 0.7])
    arm, target = build_arm(x1, y1, x0)
    om = estimate_om(arm, tiny_cfg(degree=1, penalty=1e-12), target=target)
    cat = estimate_om_categorical(arm, target=target)
    assert om.point_estimate == pytest.approx(cat.point_estimate, abs=1e-10)


# -- categorical outcome model ---------------------------------------------------


def test_categorical_weighted_average():
    x1 = [1.0] * 10 + [2.0] * 10
    y1 = [1.0] * 10 + [2.0] * 10
    x0 = [1.0] * 30 + [2.0] * 70
    arm, target = build_arm(x1, y1, x0)
    rec = estimate_om_categorical(arm, target=target)
    assert rec.point_estimate == pytest.approx(1.7)


def test_categorical_single_group():
    arm, target = build_arm([1.0] * 5, [2, 4, 6, 0, 3], [1.0] * 9)
    rec = estimate_om_categorical(arm, target=target)
    assert rec.point_estimate == pytest.approx(3.0)


def test_categorical_positivity_error():
    arm, target = build_arm([1.0] * 5, [1.0] * 5, [1.0, 2.0])
    with pytest.raises(PositivityError):
        estimate_om_categorical(arm, target=target)


# -- OS-OM ----------------------------------------------------------------------


def test_os_om_constant_predictor():
    rec = estimate_os_om(Target([0.2, 0.4, -0.6], const(5.0, [0.2, 0.4, -0.6])))
    assert rec.point_estimate == 5.0


def test_os_om_identity_predictor_matches_target_mean():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, 5_000)
    rec = estimate_os_om(Target(x0, x0))
    assert rec.point_estimate == pytest.approx(float(np.mean(x0)), abs=1e-12)


def test_os_om_ignores_trial_records():
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, 100)
    target = Target(x0, x0**2)
    os_om = grid.ESTIMATORS["os-om"].estimate  # as the grid calls it, with each run's arm
    a = os_om(Arm([0.1], [1.0], [0.01]), None, tiny_cfg(0), target)
    b = os_om(Arm([0.9, -0.9], [7.0, -7.0], [0.81, 0.81]), None, tiny_cfg(0), target)
    assert a.point_estimate == b.point_estimate == float(np.mean(x0**2))


# -- ABC --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_identity_cases)
def test_abc_zero_bias_predictor(case):
    """f exact on the arm has a fitted bias of exactly 0, so ABC is f's target mean."""
    x1, y1, x0, cfg, _ = _identity_draw(case)
    f0 = np.cos(2 * x0)
    abc = estimate_abc(Arm(x1, y1, y1), cfg, target=Target(x0, f0))
    assert abc.point_estimate == float(np.mean(f0))


@settings(max_examples=60, deadline=None)
@given(_identity_cases)
def test_abc_zero_predictor_equals_om_bitwise(case):
    """f = 0 makes ABC fit -y, the mirror image of OM's fit, through the CV sweep too."""
    x1, y1, x0, cfg, _ = _identity_draw(case)
    om = estimate_om(Arm(x1, y1), cfg, target=Target(x0))
    abc = estimate_abc(Arm(x1, y1, np.zeros_like(x1)), cfg, target=Target(x0, np.zeros_like(x0)))
    assert abc.point_estimate.hex() == om.point_estimate.hex()


def test_abc_constant_offset_predictor():
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-1, 1, 200)
    g = lambda x: np.sin(2 * x)
    f = lambda x: g(x) + 0.5
    x0 = rng.uniform(-1, 1, 2_000)
    arm, target = build_arm(x1, g(x1), x0, f)
    abc = estimate_abc(arm, tiny_cfg(degree=0), target=target)
    assert abc.point_estimate == pytest.approx(float(np.mean(g(x0))), abs=2e-2)


def test_abc_equals_os_om_minus_mean_bias_fit():
    rng = np.random.default_rng(8)
    x1 = rng.uniform(-1, 1, 90)
    y1 = np.cos(x1) + rng.normal(0, 0.1, 90)
    x0 = rng.uniform(-1, 1, 500)
    arm, target = build_arm(x1, y1, x0, lambda x: x)
    cfg = EstimatorConfig(degree=2, fold_seed=5)
    abc = estimate_abc(arm, cfg, target=target)
    # reconstruct the two pieces with the same fit
    from ppgen.regression import ridge_cv

    bias_fit = ridge_cv(x1, x1 - y1, 2, penalty_grid=cfg.penalty_grid, fold_seed=5)
    expected = np.mean(x0 - bias_fit.predict(x0))
    assert abc.point_estimate == pytest.approx(float(expected), abs=1e-12)


def test_trial_fit_variants_are_the_three_regressions():
    from ppgen.estimators import trial_fit
    from ppgen.regression import ridge_cv

    rng = np.random.default_rng(12)
    x1 = rng.uniform(-1, 1, 80)
    y1 = np.sin(2 * x1) + rng.normal(0, 0.1, 80)
    f1 = x1**3
    cfg = EstimatorConfig(degree=2, fold_seed=3)
    expected = {
        "om": ridge_cv(x1, y1, 2, fold_seed=3),
        "abc": ridge_cv(x1, f1 - y1, 2, fold_seed=3),
        "aom": ridge_cv(x1, y1, 2, fold_seed=3, extra_column=f1),
    }
    for kind, want in expected.items():
        got = trial_fit(kind, Arm(x1, y1, f1), cfg)
        assert got.penalty == want.penalty
        assert np.array_equal(got.coefficients, want.coefficients)
    with pytest.raises(ValueError, match="ipw"):
        trial_fit("ipw", Arm(x1, y1, f1), cfg)
    # OM reads no f; ABC and AOM need it
    assert np.array_equal(trial_fit("om", Arm(x1, y1), cfg).coefficients, expected["om"].coefficients)
    for kind in ("abc", "aom"):
        with pytest.raises(ValueError, match="the arm has no values of f"):
            trial_fit(kind, Arm(x1, y1), cfg)


# -- AOM --------------------------------------------------------------------------


def test_aom_in_class_predictor():
    rng = np.random.default_rng(9)
    x1 = rng.uniform(-1, 1, 150)
    f = lambda x: np.sin(4 * x)  # independent of polynomial columns
    x0 = rng.uniform(-1, 1, 800)
    arm, target = build_arm(x1, f(x1), x0, f)  # y = f exactly
    rec = estimate_aom(arm, tiny_cfg(degree=1, penalty=1e-10), target=target)
    assert rec.point_estimate == pytest.approx(estimate_os_om(target).point_estimate, abs=1e-6)


def test_aom_constant_predictor_equals_om():
    rng = np.random.default_rng(10)
    x1 = rng.uniform(-1, 1, 100)
    y1 = x1**2 + rng.normal(0, 0.1, 100)
    x0 = rng.uniform(-1, 1, 400)
    arm, target = build_arm(x1, y1, x0, partial(const, 2.0))
    aom = estimate_aom(arm, tiny_cfg(degree=2), target=target)
    om = estimate_om(arm, tiny_cfg(degree=2), target=target)
    assert aom.point_estimate == pytest.approx(om.point_estimate, abs=1e-6)


def test_aom_noise_predictor_tracks_om():
    from ppgen.dgp import NoisePredictor

    world = seeded_world(seed=31)
    f = NoisePredictor(7)
    x0 = draw_target(world, 2_000, seed=1).x
    target = Target(x0, f.predict(x0))
    mu = true_mu(world, a=1).mu_a
    diffs, oms = [], []
    for rep in range(100):
        x1, y1 = draw_trial(world, 200, seed=derive_seed("aom-noise", rep)).trial_arm_arrays(1)
        arm = Arm(x1, y1, f.predict(x1))
        cfg = EstimatorConfig(degree=3, fold_seed=rep)
        om = estimate_om(arm, cfg, target=target).point_estimate
        aom = estimate_aom(arm, cfg, target=target).point_estimate
        oms.append(om)
        diffs.append(aom - om)
    rmse_om = np.sqrt(np.mean((np.asarray(oms) - mu) ** 2))
    rmse_aom = np.sqrt(np.mean((np.asarray(oms) + np.asarray(diffs) - mu) ** 2))
    se = np.std(np.asarray(diffs), ddof=1) / np.sqrt(100)
    assert abs(rmse_aom - rmse_om) <= 2 * max(se, 1e-3)


# -- weighting estimators -----------------------------------------------------------


def test_ipw_constant_participation_reduces_to_scaled_arm_mean():
    rng = np.random.default_rng(11)
    x1 = rng.uniform(-1, 1, 50)
    y1 = rng.normal(1.0, 0.5, 50)
    x0 = rng.uniform(-1, 1, 150)
    arm, target = build_arm(x1, y1, x0)
    p_m = 50 / 200
    rec = estimate_ipw(arm, const(p_m, x1), target=target)
    assert rec.point_estimate == pytest.approx(2 * np.sum(y1) / 50, abs=1e-10)


def test_ipw_single_record_unit_weight():
    arm, target = build_arm([0.3], [4.2], [0.1])
    rec = estimate_ipw(arm, [2.0 / 3.0], target=target)
    assert rec.point_estimate == pytest.approx(4.2, abs=1e-12)


def test_ipw_consistent_on_homogeneous_world():
    world = seeded_world(seed=41)
    # overwrite outcomes with a constant
    trial = draw_trial(world, 25_000, seed=2)
    target = Target(draw_target(world, 25_000, seed=3).x)
    sample = replace(trial, y=np.full(len(trial), 3.0))
    nuis = fit_nuisances(sample.x, target, degree=3)
    x1, y1 = sample.trial_arm_arrays(1)
    rec = estimate_ipw(Arm(x1, y1), nuis.predict(x1), target=target)
    assert rec.point_estimate == pytest.approx(3.0, abs=0.03)


def test_ipw_extreme_weight_warning():
    arm, target = build_arm([0.3], [4.2], [0.1])
    rec = estimate_ipw(arm, [1e-4], target=target)
    assert rec.warnings


@settings(max_examples=60, deadline=None)
@given(_identity_cases)
def test_ipw_is_the_weighted_arm_sum_over_n0(case):
    """The weights' normalizer is 1/n0, n0 the Target's row count, whatever the arm's size."""
    x1, y1, x0, _, p1 = _identity_draw(case)
    w = (1.0 - p1) / (p1 * TREATMENT_PROB)
    assert estimate_ipw(Arm(x1, y1), p1, target=Target(x0)).point_estimate == (1.0 / len(x0)) * float(np.sum(w * y1))


@settings(max_examples=60, deadline=None)
@given(_identity_cases)
def test_dr_zero_outcome_fit_is_ipw(case):
    """With zero regression components every DR form is IPW."""
    x1, y1, x0, cfg, p1 = _identity_draw(case)
    arm, target = Arm(x1, y1, np.zeros_like(x1)), Target(x0, np.zeros_like(x0))  # f = 0, for DR-ABC
    zero = (np.zeros_like(x1), np.zeros_like(x0))
    ipw = estimate_ipw(arm, p1, target=target).point_estimate
    for dr in (estimate_dr_baseline(arm, p1, cfg, zero, target=target),
               estimate_dr_abc(arm, p1, cfg, zero, target=target),
               estimate_dr_aom(arm, p1, cfg, zero, target=target)):
        assert dr.point_estimate == pytest.approx(ipw, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(_identity_cases)
def test_dr_exact_fit_noise_free_equals_om_average(case):
    """A fit exact on the arm leaves no residual to weight: DR is the fit's target mean."""
    x1, y1, x0, cfg, p1 = _identity_draw(case)
    fit_x0 = np.sin(3 * x0) + 0.25
    dr = estimate_dr_baseline(Arm(x1, y1), p1, cfg, (y1, fit_x0), target=Target(x0))
    assert dr.point_estimate == pytest.approx(float(np.mean(fit_x0)), rel=1e-10, abs=1e-10)


def test_dr_abc_reductions():
    # the IPW limit is test_dr_zero_outcome_fit_is_ipw; here the weighted
    # residuals vanish (an exact bias fit of f with a known offset) -> ABC
    rng = np.random.default_rng(14)
    x1 = rng.uniform(-1, 1, 60)
    x0 = rng.uniform(-1, 1, 200)
    f = lambda x: x + 0.25
    arm, target = build_arm(x1, x1, x0, f)  # y = x so the bias of f is exactly 0.25
    bias = (const(0.25, x1), const(0.25, x0))
    dr_abc = estimate_dr_abc(arm, const(0.35, x1), tiny_cfg(0), bias_fit=bias, target=target)
    assert dr_abc.point_estimate == pytest.approx(float(np.mean(f(x0)) - 0.25), abs=1e-12)


def test_dr_aom_reductions():
    rng = np.random.default_rng(15)
    x1 = rng.uniform(-1, 1, 60)
    y1 = rng.normal(0, 1, 60)
    x0 = rng.uniform(-1, 1, 200)
    zero = (const(0.0, x1), const(0.0, x0))
    arm, target = build_arm(x1, y1, x0, partial(const, 0.0))
    nuis = const(0.35, x1)
    ipw = estimate_ipw(arm, nuis, target=target)
    dr_pa = estimate_dr_aom(arm, nuis, tiny_cfg(2), augmented_fit=zero, target=target)
    assert dr_pa.point_estimate == pytest.approx(ipw.point_estimate, abs=1e-12)


def test_dr_double_robustness_small():
    world = seeded_world(seed=51)
    mu = true_mu(world, a=1).mu_a
    from ppgen.analysis import true_outcome_function

    q = tilted_participation(world, 5_000, 15_000)
    ests_bad_outcome, ests_bad_weights = [], []
    for rep in range(12):
        trial = draw_trial(world, 5_000, seed=derive_seed("dr-small", "t", rep))
        target = Target(draw_target(world, 15_000, seed=derive_seed("dr-small", "c", rep)).x)
        arm = Arm(*trial.trial_arm_arrays(1))
        g = tuple(true_outcome_function(world, 1, x) for x in (arm.x, target.x))
        g_wrong = tuple(v + 1.0 for v in g)
        ests_bad_outcome.append(
            estimate_dr_baseline(arm, q(arm.x), tiny_cfg(3), outcome_fit=g_wrong, target=target).point_estimate
        )
        ests_bad_weights.append(
            estimate_dr_baseline(arm, const(0.5, arm.x), tiny_cfg(3), outcome_fit=g, target=target).point_estimate
        )
    for ests in (ests_bad_outcome, ests_bad_weights):
        arr = np.asarray(ests)
        se = arr.std(ddof=1) / np.sqrt(arr.size)
        assert abs(arr.mean() - mu) <= 3 * se


# -- shared invariants ---------------------------------------------------------------


def test_translation_equivariance():
    rng = np.random.default_rng(16)
    x1 = rng.uniform(-1, 1, 80)
    y1 = np.sin(2 * x1) + rng.normal(0, 0.1, 80)
    x0 = rng.uniform(-1, 1, 300)
    f = lambda x: np.sin(2 * x)
    shift = 3.7
    f_shift = lambda x: np.sin(2 * x) + shift
    base, target = build_arm(x1, y1, x0, f)
    shifted, target_shift = build_arm(x1, y1 + shift, x0, f_shift)
    cfg = tiny_cfg(degree=3, penalty=1e-8, fold_seed=3)
    for estimate in (estimate_om, estimate_abc, estimate_aom):
        moved = (estimate(shifted, cfg, target=target_shift).point_estimate
                 - estimate(base, cfg, target=target).point_estimate)
        assert moved == pytest.approx(shift, abs=1e-5)


def test_estimators_deterministic():
    rng = np.random.default_rng(17)
    x1 = rng.uniform(-1, 1, 90)
    y1 = rng.normal(0, 1, 90)
    x0 = rng.uniform(-1, 1, 200)
    arm, target = build_arm(x1, y1, x0, lambda x: x**3)
    cfg = EstimatorConfig(degree=3, fold_seed=9)
    for estimate in (estimate_om, estimate_abc, estimate_aom):
        assert estimate(arm, cfg, target=target).point_estimate == estimate(arm, cfg, target=target).point_estimate


def test_estimators_blind_to_hidden_covariate():
    world = seeded_world(seed=61)
    sample = draw_trial(world, 300, seed=4)
    cfg = EstimatorConfig(degree=3, fold_seed=2)
    x0 = draw_target(world, 1_000, seed=5).x
    target = Target(x0, x0)  # f is the identity; neither an Arm nor a Target holds the hidden covariate
    pub = replace(sample, u=np.full(len(sample), np.nan))
    (x1, y1), (x1_pub, y1_pub) = sample.trial_arm_arrays(1), pub.trial_arm_arrays(1)
    arm, arm_pub = Arm(x1, y1, x1), Arm(x1_pub, y1_pub, x1_pub)
    assert (estimate_om(arm, cfg, target=target).point_estimate
            == estimate_om(arm_pub, cfg, target=target).point_estimate)
    assert (estimate_abc(arm, cfg, target=target).point_estimate
            == estimate_abc(arm_pub, cfg, target=target).point_estimate)
    nuis, nuis_pub = fit_nuisances(sample.x, target, 3), fit_nuisances(pub.x, target, 3)
    assert (estimate_ipw(arm, nuis.predict(x1), target=target).point_estimate
            == estimate_ipw(arm_pub, nuis_pub.predict(x1_pub), target=target).point_estimate)


def test_fit_nuisances_is_the_participation_model():
    world = seeded_world(seed=71)
    p_hat = fit_nuisances(draw_trial(world, 120, seed=6).x, Target(draw_target(world, 480, seed=7).x), degree=2)
    assert isinstance(p_hat, LogisticFit) and p_hat.degree == 2
    p = p_hat.predict(np.linspace(-1, 1, 50))
    assert np.all((p > 0) & (p < 1))


def test_weighting_estimators_need_target_records():
    # the weights' normalizer divides by the target share n0 / (n1 + n0), and
    # every estimator reads n0 off its Target, which needs a record
    for x0 in ([], np.empty(0)):
        with pytest.raises(ValueError, match="no target records"):
            Target(x0, x0)


def test_fit_nuisances_stacks_trial_then_target_rows(monkeypatch):
    seen = []
    monkeypatch.setattr(estimators, "logistic_fit", lambda x, labels, degree, penalty: seen.append((x, labels)))
    fit_nuisances(np.array([0.1, 0.2]), Target([0.3, -0.4]), 2)  # both arms' trial records
    (x, labels), = seen
    assert x.tolist() == [0.1, 0.2, 0.3, -0.4] and labels.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert x.dtype == labels.dtype == np.float64


def test_estimates_ignore_the_samples_own_target_rows():
    """Every estimator gives the same bits on the arm and trial records of a
    composite sample as on those of its trial cohort alone, given the same
    Target: it reads the target population from the Target, and the sample's
    target and OS rows enter neither the arm nor the nuisance fit."""
    world = seeded_world(seed=81)
    trial = draw_trial(world, 300, seed=8)
    f = lambda x: np.sin(3 * x)
    x0 = draw_target(world, 900, seed=9).x
    target = Target(x0, f(x0))
    composite = CompositeSample.concat(trial, draw_target(world, 400, seed=10), generate_os(world, 200, seed=11))
    for name, estimator in grid.ESTIMATORS.items():
        for degree in grid._estimator_degrees(name, (1, 3)):
            cfg = EstimatorConfig(degree=max(degree, 0), fold_seed=5)
            values = []
            for sample in (trial, composite):
                x1, y1 = sample.trial_arm_arrays(1)
                x_trial = sample.x[sample.s == TRIAL]
                p1 = fit_nuisances(x_trial, target, max(degree, 0)).predict(x1) if estimator.nuisances else None
                values.append(estimator.estimate(Arm(x1, y1, f(x1)), p1, cfg, target).point_estimate.hex())
            assert values[0] == values[1], (name, degree)
    trial = CompositeSample.cohort(TRIAL, [1.0, 2.0, 2.0], np.zeros(3), np.ones(3, int), [1.0, 3.0, 5.0])
    composite = CompositeSample.concat(trial, CompositeSample.cohort(TARGET, [1.0] * 5, np.zeros(5)))
    target = Target([1.0, 2.0, 2.0, 2.0])
    assert (estimate_om_categorical(Arm(*trial.trial_arm_arrays(1)), target=target).point_estimate
            == estimate_om_categorical(Arm(*composite.trial_arm_arrays(1)), target=target).point_estimate
            == 0.25 + 0.75 * 4.0)


@pytest.mark.parametrize("degree", [-1, True, False, 2.5, 3.0, "3", None])
def test_estimator_config_degree_is_a_nonnegative_int(degree):
    """The one degree rule that grid.check_degrees applies to each degree."""
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        EstimatorConfig(degree=degree)
    with pytest.raises(ValueError, match="degrees must be distinct nonnegative integers"):
        grid.check_degrees((1, degree))
    assert EstimatorConfig(degree=0).degree == 0 and grid.check_degrees((0, 2)) == (0, 2)


@pytest.mark.parametrize("a", [2, -1, True, False, 1.0, "1", None])
def test_estimator_config_arm_is_0_or_1(a):
    """The estimators' arm is chosen where it is masked, not in their config:
    EstimatorConfig takes no arm, and trial_arm_arrays takes the int 0 or 1 only."""
    with pytest.raises(TypeError):
        EstimatorConfig(degree=1, a=a)
    sample = CompositeSample.cohort(TRIAL, [0.1, 0.2], [0.0, 0.0], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="treatment arm a must be 0 or 1"):
        sample.trial_arm_arrays(a)
    assert [v.tolist() for v in sample.trial_arm_arrays(0) + sample.trial_arm_arrays(1)] == [[0.1], [1.0], [0.2], [2.0]]


@pytest.mark.parametrize("penalty_grid, message", [((), "nonempty"), ([], "nonempty"),
                                                   ((1.0, -0.5), "nonnegative"), ((-1e-9,), "nonnegative"),
                                                   ((np.nan,), "finite"), ((1.0, np.nan), "finite"),
                                                   ((2.0, np.nan, 1.0), "finite"), ((np.inf,), "finite")])
def test_estimator_config_rejects_a_grid_no_fit_could_use(penalty_grid, message):
    with pytest.raises(ValueError, match=message):
        EstimatorConfig(degree=1, penalty_grid=penalty_grid)
    assert EstimatorConfig(degree=1, penalty_grid=(0.0,)).penalty_grid == (0.0,)


# -- the values the estimators take: one per row -------------------------------

_MISSHAPEN = {"short": lambda v: v[:-1], "long": lambda v: np.append(v, v[:1]), "2-d": lambda v: v[:, None]}


@pytest.mark.parametrize("misshapen", _MISSHAPEN)
def test_target_takes_one_value_of_f_per_row(misshapen):
    x0 = np.linspace(-1, 1, 30)
    with pytest.raises(ValueError, match="one value per row"):
        Target(x0, _MISSHAPEN[misshapen](np.sin(x0)))


@pytest.mark.parametrize("misshapen", _MISSHAPEN)
def test_arm_takes_one_outcome_per_row(misshapen):
    x1 = np.linspace(-1, 1, 20)
    with pytest.raises(ValueError, match="the arm's y must hold one value per row"):
        Arm(x1, _MISSHAPEN[misshapen](np.sin(x1)))


@pytest.mark.parametrize("x", [np.ones((3, 1)), [np.nan], [0.1, np.inf, 0.2], 0.5],
                         ids=["2-d", "nan", "inf", "scalar"])
def test_arm_and_target_take_one_dimensional_finite_covariates(x):
    with pytest.raises(ValueError, match="the target's covariates must be one-dimensional and finite"):
        Target(x)
    with pytest.raises(ValueError, match="the arm's covariates must be one-dimensional and finite"):
        Arm(x, np.zeros(np.size(x)))


# (estimator, the values that are misshapen); a given fit is (on the arm, on the target)
_READS = [("abc", "f1"), ("aom", "f1"), ("ipw", "p1"), ("dr", "p1"), ("dr", "fit-arm"), ("dr", "fit-target")] + [
    (name, arg) for name in ("dr-abc", "dr-pa") for arg in ("f1", "p1", "fit-arm", "fit-target")]


@pytest.mark.parametrize("misshapen", _MISSHAPEN)
@pytest.mark.parametrize("name, arg", _READS)
def test_estimators_take_one_value_per_row(name, arg, misshapen):
    """f1 is checked once, where the arm is built; p1 and a given fit's values
    by the estimate."""
    rng = np.random.default_rng(18)
    x1, x0 = rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 30)
    y1, target = rng.normal(0, 1, 20), Target(x0, np.sin(x0))
    cfg = tiny_cfg(degree=2)
    estimate = {
        "abc": lambda f1, p1, fit: estimate_abc(Arm(x1, y1, f1), cfg, target=target),
        "aom": lambda f1, p1, fit: estimate_aom(Arm(x1, y1, f1), cfg, target=target),
        "ipw": lambda f1, p1, fit: estimate_ipw(Arm(x1, y1, f1), p1, target=target),
        "dr": lambda f1, p1, fit: estimate_dr_baseline(Arm(x1, y1, f1), p1, cfg, fit, target=target),
        "dr-abc": lambda f1, p1, fit: estimate_dr_abc(Arm(x1, y1, f1), p1, cfg, fit, target=target),
        "dr-pa": lambda f1, p1, fit: estimate_dr_aom(Arm(x1, y1, f1), p1, cfg, fit, target=target),
    }[name]
    values = {"f1": np.sin(x1), "p1": np.full(20, 0.4), "fit-arm": np.zeros(20), "fit-target": np.zeros(30)}
    assert np.isfinite(estimate(values["f1"], values["p1"], (values["fit-arm"], values["fit-target"])).point_estimate)
    values[arg] = _MISSHAPEN[misshapen](values[arg])
    with pytest.raises(ValueError, match="one value per row"):
        estimate(values["f1"], values["p1"], (values["fit-arm"], values["fit-target"]))
