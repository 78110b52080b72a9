from dataclasses import replace

import numpy as np
import pytest

from ppgen import estimators, grid
from ppgen.analysis import tilted_participation, true_mu
from ppgen.dgp import draw_target, draw_trial, generate_os, world_from_spec
from ppgen.domain import (
    OS,
    TARGET,
    TRIAL,
    CompositeSample,
    KernelParams,
    PositivityError,
    ScenarioSpec,
    derive_seed,
)
from ppgen.estimators import (
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
from ppgen.regression import CallablePredictor, ConstantPredictor, LogisticFit


def build_sample(x1, y1, x0, f=None, a=1):
    """A trial cohort of arm ``a`` and the ``Target`` of ``x0`` with predictor ``f``."""
    n1 = len(x1)
    return CompositeSample.cohort(TRIAL, x1, np.zeros(n1), np.full(n1, a), y1), Target(x0, f)


def tiny_cfg(degree, penalty=1e-8, fold_seed=0):
    return EstimatorConfig(degree=degree, a=1, penalty_grid=(penalty,), fold_seed=fold_seed)


def seeded_world(seed=21, lx=0.5, alpha_u_pa=0.0, l_u_pa=None):
    spec = ScenarioSpec(
        fom_params=(KernelParams(1.0, 1.0, 0.5, None), KernelParams(1.0, 1.0, lx, None)),
        ps_params=KernelParams(10.0, 0.0, 1.0, None),
        pa_params=KernelParams(1.0, alpha_u_pa, 1.0, l_u_pa),
        n1=200,
        n0=2_000,
        n_os=2_000,
        master_seed=seed,
    )
    return world_from_spec(spec, "estimator-tests")


# -- outcome model ------------------------------------------------------------


def test_om_constant_fit():
    rng = np.random.default_rng(0)
    sample, target = build_sample(rng.uniform(-1, 1, 30), np.full(30, 2.0), rng.uniform(-1, 1, 40))
    rec = estimate_om(sample, tiny_cfg(degree=0, penalty=0.0), target=target)
    assert rec.point_estimate == pytest.approx(2.0, abs=1e-12)


def test_om_recovers_linear_truth():
    rng = np.random.default_rng(1)
    x1 = rng.uniform(-1, 1, 100)
    x0 = 0.2 + np.concatenate([-rng.uniform(0, 0.5, 500), rng.uniform(0, 0.5, 500)])
    sample, target = build_sample(x1, x1, x0)  # y = x exactly
    rec = estimate_om(sample, tiny_cfg(degree=1), target=target)
    assert rec.point_estimate == pytest.approx(float(np.mean(x0)), abs=1e-8)


def test_om_requires_enough_arm_records():
    sample, target = build_sample([0.1, 0.2], [1.0, 2.0], [0.0, 0.5])
    with pytest.raises(ValueError):
        estimate_om(sample, tiny_cfg(degree=3), target=target)


def test_om_matches_categorical_on_saturated_basis():
    rng = np.random.default_rng(2)
    x1 = rng.choice([-0.5, 0.5], 60)
    y1 = np.where(x1 > 0, 2.0, 1.0) + rng.normal(0, 0.3, 60)
    x0 = rng.choice([-0.5, 0.5], 200, p=[0.3, 0.7])
    sample, target = build_sample(x1, y1, x0)
    om = estimate_om(sample, tiny_cfg(degree=1, penalty=1e-12), target=target)
    cat = estimate_om_categorical(sample, a=1, target=target)
    assert om.point_estimate == pytest.approx(cat.point_estimate, abs=1e-10)


# -- categorical outcome model ---------------------------------------------------


def test_categorical_weighted_average():
    x1 = [1.0] * 10 + [2.0] * 10
    y1 = [1.0] * 10 + [2.0] * 10
    x0 = [1.0] * 30 + [2.0] * 70
    sample, target = build_sample(x1, y1, x0)
    rec = estimate_om_categorical(sample, a=1, target=target)
    assert rec.point_estimate == pytest.approx(1.7)


def test_categorical_single_group():
    sample, target = build_sample([1.0] * 5, [2, 4, 6, 0, 3], [1.0] * 9)
    rec = estimate_om_categorical(sample, a=1, target=target)
    assert rec.point_estimate == pytest.approx(3.0)


def test_categorical_positivity_error():
    sample, target = build_sample([1.0] * 5, [1.0] * 5, [1.0, 2.0])
    with pytest.raises(PositivityError):
        estimate_om_categorical(sample, a=1, target=target)


# -- OS-OM ----------------------------------------------------------------------


def test_os_om_constant_predictor():
    rec = estimate_os_om(Target([0.2, 0.4, -0.6], ConstantPredictor(5.0)))
    assert rec.point_estimate == 5.0


def test_os_om_identity_predictor_matches_target_mean():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, 5_000)
    rec = estimate_os_om(Target(x0, CallablePredictor(lambda x: x)))
    assert rec.point_estimate == pytest.approx(float(np.mean(x0)), abs=1e-12)


def test_os_om_ignores_trial_records():
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, 100)
    f = CallablePredictor(lambda x: x**2)
    target = Target(x0, f)
    os_om = grid.ESTIMATORS["os-om"].estimate  # as the grid calls it, with each run's trial
    a = os_om(build_sample([0.1], [1.0], x0)[0], f, None, tiny_cfg(0), target)
    b = os_om(build_sample([0.9, -0.9], [7.0, -7.0], x0)[0], f, None, tiny_cfg(0), target)
    assert a.point_estimate == b.point_estimate == float(np.mean(x0**2))


# -- ABC --------------------------------------------------------------------------


def test_abc_zero_bias_predictor():
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-1, 1, 80)
    x0 = rng.uniform(-1, 1, 300)
    f = CallablePredictor(lambda x: 1.5 * x - 0.3)
    sample, target = build_sample(x1, 1.5 * x1 - 0.3, x0, f)  # y = f exactly
    abc = estimate_abc(sample, f, tiny_cfg(degree=3), target=target)
    os_om = estimate_os_om(target)
    assert abc.point_estimate == pytest.approx(os_om.point_estimate, abs=1e-8)


def test_abc_zero_predictor_equals_om_bitwise():
    rng = np.random.default_rng(6)
    x1 = rng.uniform(-1, 1, 120)
    y1 = np.sin(2 * x1) + rng.normal(0, 0.2, 120)
    x0 = rng.uniform(-1, 1, 400)
    zero = ConstantPredictor(0.0)
    sample, target = build_sample(x1, y1, x0, zero)
    cfg = EstimatorConfig(degree=3, a=1, fold_seed=42)  # full grid and CV path
    om = estimate_om(sample, cfg, target=target)
    abc = estimate_abc(sample, zero, cfg, target=target)
    assert abc.point_estimate == om.point_estimate  # bit-for-bit


def test_abc_constant_offset_predictor():
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-1, 1, 200)
    g = lambda x: np.sin(2 * x)
    f = CallablePredictor(lambda x: g(x) + 0.5)
    x0 = rng.uniform(-1, 1, 2_000)
    sample, target = build_sample(x1, g(x1), x0, f)
    abc = estimate_abc(sample, f, tiny_cfg(degree=0), target=target)
    assert abc.point_estimate == pytest.approx(float(np.mean(g(x0))), abs=2e-2)


def test_abc_equals_os_om_minus_mean_bias_fit():
    rng = np.random.default_rng(8)
    x1 = rng.uniform(-1, 1, 90)
    y1 = np.cos(x1) + rng.normal(0, 0.1, 90)
    x0 = rng.uniform(-1, 1, 500)
    f = CallablePredictor(lambda x: x)
    sample, target = build_sample(x1, y1, x0, f)
    cfg = EstimatorConfig(degree=2, a=1, fold_seed=5)
    abc = estimate_abc(sample, f, cfg, target=target)
    # reconstruct the two pieces with the same fit
    from ppgen.regression import ridge_cv

    bias_fit = ridge_cv(x1, f.predict(x1) - y1, 2, penalty_grid=cfg.penalty_grid, fold_seed=5)
    expected = np.mean(f.predict(x0) - bias_fit.predict(x0))
    assert abc.point_estimate == pytest.approx(float(expected), abs=1e-12)


def test_trial_fit_variants_are_the_three_regressions():
    from ppgen.estimators import trial_fit
    from ppgen.regression import ridge_cv

    rng = np.random.default_rng(12)
    x1 = rng.uniform(-1, 1, 80)
    y1 = np.sin(2 * x1) + rng.normal(0, 0.1, 80)
    f = CallablePredictor(lambda x: x**3)
    cfg = EstimatorConfig(degree=2, fold_seed=3)
    expected = {
        "om": ridge_cv(x1, y1, 2, fold_seed=3),
        "abc": ridge_cv(x1, f.predict(x1) - y1, 2, fold_seed=3),
        "aom": ridge_cv(x1, y1, 2, fold_seed=3, extra_column=f),
    }
    for kind, want in expected.items():
        got = trial_fit(kind, x1, y1, f, cfg)
        assert got.penalty == want.penalty
        assert np.array_equal(got.coefficients, want.coefficients)
    with pytest.raises(ValueError, match="ipw"):
        trial_fit("ipw", x1, y1, f, cfg)


# -- AOM --------------------------------------------------------------------------


def test_aom_in_class_predictor():
    rng = np.random.default_rng(9)
    x1 = rng.uniform(-1, 1, 150)
    f = CallablePredictor(lambda x: np.sin(4 * x))  # independent of polynomial columns
    x0 = rng.uniform(-1, 1, 800)
    sample, target = build_sample(x1, f.predict(x1), x0, f)  # y = f exactly
    rec = estimate_aom(sample, f, tiny_cfg(degree=1, penalty=1e-10), target=target)
    assert rec.point_estimate == pytest.approx(estimate_os_om(target).point_estimate, abs=1e-6)


def test_aom_constant_predictor_equals_om():
    rng = np.random.default_rng(10)
    x1 = rng.uniform(-1, 1, 100)
    y1 = x1**2 + rng.normal(0, 0.1, 100)
    x0 = rng.uniform(-1, 1, 400)
    f = ConstantPredictor(2.0)
    sample, target = build_sample(x1, y1, x0, f)
    aom = estimate_aom(sample, f, tiny_cfg(degree=2), target=target)
    om = estimate_om(sample, tiny_cfg(degree=2), target=target)
    assert aom.point_estimate == pytest.approx(om.point_estimate, abs=1e-6)


def test_aom_noise_predictor_tracks_om():
    from ppgen.dgp import NoisePredictor

    world = seeded_world(seed=31)
    f = NoisePredictor(7)
    target = Target(draw_target(world, 2_000, seed=1).x, f)
    mu = true_mu(world, a=1).mu_a
    diffs, oms = [], []
    for rep in range(100):
        trial = draw_trial(world, 200, seed=derive_seed("aom-noise", rep))
        cfg = EstimatorConfig(degree=3, a=1, fold_seed=rep)
        om = estimate_om(trial, cfg, target=target).point_estimate
        aom = estimate_aom(trial, f, cfg, target=target).point_estimate
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
    sample, target = build_sample(x1, y1, x0)
    p_m = 50 / 200
    nuis = ConstantPredictor(p_m)
    rec = estimate_ipw(sample, nuis, a=1, target=target)
    assert rec.point_estimate == pytest.approx(2 * np.sum(y1) / 50, abs=1e-10)


def test_ipw_single_record_unit_weight():
    sample, target = build_sample([0.3], [4.2], [0.1])
    nuis = ConstantPredictor(2.0 / 3.0)
    rec = estimate_ipw(sample, nuis, a=1, target=target)
    assert rec.point_estimate == pytest.approx(4.2, abs=1e-12)


def test_ipw_consistent_on_homogeneous_world():
    world = seeded_world(seed=41)
    # overwrite outcomes with a constant
    trial = draw_trial(world, 25_000, seed=2)
    target = Target(draw_target(world, 25_000, seed=3).x)
    sample = replace(trial, y=np.full(len(trial), 3.0))
    nuis = fit_nuisances(sample, target, degree=3)
    rec = estimate_ipw(sample, nuis, a=1, target=target)
    assert rec.point_estimate == pytest.approx(3.0, abs=0.03)


def test_ipw_extreme_weight_warning():
    sample, target = build_sample([0.3], [4.2], [0.1])
    nuis = ConstantPredictor(1e-4)
    rec = estimate_ipw(sample, nuis, a=1, target=target)
    assert rec.warnings


def test_dr_zero_outcome_fit_is_ipw():
    rng = np.random.default_rng(12)
    x1 = rng.uniform(-1, 1, 60)
    y1 = rng.normal(0, 1, 60)
    x0 = rng.uniform(-1, 1, 240)
    sample, target = build_sample(x1, y1, x0)
    nuis = ConstantPredictor(0.3)
    ipw = estimate_ipw(sample, nuis, a=1, target=target)
    dr = estimate_dr_baseline(sample, nuis, tiny_cfg(3), outcome_fit=ConstantPredictor(0.0), target=target)
    assert dr.point_estimate == pytest.approx(ipw.point_estimate, abs=1e-12)


def test_dr_exact_fit_noise_free_equals_om_average():
    rng = np.random.default_rng(13)
    x1 = rng.uniform(-1, 1, 70)
    x0 = rng.uniform(-1, 1, 300)
    g = CallablePredictor(lambda x: 0.7 * x + 0.1)
    sample, target = build_sample(x1, g.predict(x1), x0)  # residuals identically zero
    nuis = ConstantPredictor(0.4)
    dr = estimate_dr_baseline(sample, nuis, tiny_cfg(1), outcome_fit=g, target=target)
    assert dr.point_estimate == pytest.approx(float(np.mean(g.predict(x0))), rel=1e-10)


def test_dr_abc_reductions():
    rng = np.random.default_rng(14)
    x1 = rng.uniform(-1, 1, 60)
    y1 = rng.normal(0, 1, 60)
    x0 = rng.uniform(-1, 1, 200)
    nuis = ConstantPredictor(0.35)
    zero = ConstantPredictor(0.0)
    sample, target = build_sample(x1, y1, x0, zero)
    # regression components zeroed -> IPW
    ipw = estimate_ipw(sample, nuis, a=1, target=target)
    dr_abc = estimate_dr_abc(sample, zero, nuis, tiny_cfg(2), bias_fit=zero, target=target)
    assert dr_abc.point_estimate == pytest.approx(ipw.point_estimate, abs=1e-12)
    # weighted residuals zeroed (exact bias fit, f with known offset) -> ABC
    f = CallablePredictor(lambda x: x + 0.25)
    sample2, target2 = build_sample(x1, x1, x0, f)  # y = x so the bias of f is exactly 0.25
    bias = ConstantPredictor(0.25)
    dr_abc2 = estimate_dr_abc(sample2, f, nuis, tiny_cfg(0), bias_fit=bias, target=target2)
    expected = np.mean(f.predict(x0)) - 0.25
    assert dr_abc2.point_estimate == pytest.approx(float(expected), abs=1e-12)


def test_dr_aom_reductions():
    rng = np.random.default_rng(15)
    x1 = rng.uniform(-1, 1, 60)
    y1 = rng.normal(0, 1, 60)
    x0 = rng.uniform(-1, 1, 200)
    zero = ConstantPredictor(0.0)
    sample, target = build_sample(x1, y1, x0, zero)
    nuis = ConstantPredictor(0.35)
    ipw = estimate_ipw(sample, nuis, a=1, target=target)
    dr_pa = estimate_dr_aom(sample, zero, nuis, tiny_cfg(2), augmented_fit=zero, target=target)
    assert dr_pa.point_estimate == pytest.approx(ipw.point_estimate, abs=1e-12)


def test_dr_double_robustness_small():
    world = seeded_world(seed=51)
    mu = true_mu(world, a=1).mu_a
    from ppgen.analysis import true_outcome_function

    g = CallablePredictor(lambda x: true_outcome_function(world, 1, x))
    g_wrong = CallablePredictor(lambda x: true_outcome_function(world, 1, x) + 1.0)
    q = tilted_participation(world, 5_000, 15_000)
    nuis_good = CallablePredictor(q)
    nuis_bad = ConstantPredictor(0.5)
    ests_bad_outcome, ests_bad_weights = [], []
    for rep in range(12):
        trial = draw_trial(world, 5_000, seed=derive_seed("dr-small", "t", rep))
        target = Target(draw_target(world, 15_000, seed=derive_seed("dr-small", "c", rep)).x)
        ests_bad_outcome.append(
            estimate_dr_baseline(trial, nuis_good, tiny_cfg(3), outcome_fit=g_wrong, target=target).point_estimate
        )
        ests_bad_weights.append(
            estimate_dr_baseline(trial, nuis_bad, tiny_cfg(3), outcome_fit=g, target=target).point_estimate
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
    f = CallablePredictor(lambda x: np.sin(2 * x))
    shift = 3.7
    f_shift = CallablePredictor(lambda x: np.sin(2 * x) + shift)
    base, target = build_sample(x1, y1, x0, f)
    shifted, target_shift = build_sample(x1, y1 + shift, x0, f_shift)
    cfg = tiny_cfg(degree=3, penalty=1e-8, fold_seed=3)
    for estimate in (lambda s, g, t: estimate_om(s, cfg, target=t),
                     lambda s, g, t: estimate_abc(s, g, cfg, target=t),
                     lambda s, g, t: estimate_aom(s, g, cfg, target=t)):
        moved = estimate(shifted, f_shift, target_shift).point_estimate - estimate(base, f, target).point_estimate
        assert moved == pytest.approx(shift, abs=1e-5)


def test_estimators_deterministic():
    rng = np.random.default_rng(17)
    x1 = rng.uniform(-1, 1, 90)
    y1 = rng.normal(0, 1, 90)
    x0 = rng.uniform(-1, 1, 200)
    f = CallablePredictor(lambda x: x**3)
    sample, target = build_sample(x1, y1, x0, f)
    cfg = EstimatorConfig(degree=3, a=1, fold_seed=9)
    for fn in (
        lambda: estimate_om(sample, cfg, target=target).point_estimate,
        lambda: estimate_abc(sample, f, cfg, target=target).point_estimate,
        lambda: estimate_aom(sample, f, cfg, target=target).point_estimate,
    ):
        assert fn() == fn()


def test_estimators_blind_to_hidden_covariate():
    world = seeded_world(seed=61)
    sample = draw_trial(world, 300, seed=4)
    cfg = EstimatorConfig(degree=3, a=1, fold_seed=2)
    f = CallablePredictor(lambda x: x)
    target = Target(draw_target(world, 1_000, seed=5).x, f)  # a Target holds no hidden covariate
    pub = sample.public()
    assert (estimate_om(sample, cfg, target=target).point_estimate
            == estimate_om(pub, cfg, target=target).point_estimate)
    assert (estimate_abc(sample, f, cfg, target=target).point_estimate
            == estimate_abc(pub, f, cfg, target=target).point_estimate)
    nuis, nuis_pub = fit_nuisances(sample, target, 3), fit_nuisances(pub, target, 3)
    assert (estimate_ipw(sample, nuis, 1, target=target).point_estimate
            == estimate_ipw(pub, nuis_pub, 1, target=target).point_estimate)


def test_fit_nuisances_is_the_participation_model():
    world = seeded_world(seed=71)
    p_hat = fit_nuisances(draw_trial(world, 120, seed=6), Target(draw_target(world, 480, seed=7).x), degree=2)
    assert isinstance(p_hat, LogisticFit) and p_hat.degree == 2
    p = p_hat.predict(np.linspace(-1, 1, 50))
    assert np.all((p > 0) & (p < 1))


def test_weighting_estimators_need_target_records():
    # the weights' normalizer divides by the target share n0 / (n1 + n0), and
    # every estimator reads n0 off its Target, which needs a record
    for x0 in ([], np.empty(0)):
        with pytest.raises(ValueError, match="no target records"):
            Target(x0, ConstantPredictor(0.5))


def test_fit_nuisances_stacks_trial_then_target_rows(monkeypatch):
    seen = []
    monkeypatch.setattr(estimators, "logistic_fit", lambda x, labels, degree, penalty: seen.append((x, labels)))
    trial = CompositeSample.cohort(TRIAL, [0.1, 0.2], [0.0, 0.0], [1, 0], [1.0, 2.0])
    os_rows = CompositeSample.cohort(OS, [0.5], [0.0], [1], [3.0])
    own_target = CompositeSample.cohort(TARGET, [0.9], [0.5])
    fit_nuisances(CompositeSample.concat(trial, os_rows, own_target), Target([0.3, -0.4]), 2)
    (x, labels), = seen
    assert x.tolist() == [0.1, 0.2, 0.3, -0.4] and labels.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert x.dtype == labels.dtype == np.float64


def test_estimates_ignore_the_samples_own_target_rows():
    """Every estimator gives the same bits on a composite sample as on its
    trial cohort alone, given the same Target: it reads the target population
    from the Target, and skips the sample's target and OS rows."""
    world = seeded_world(seed=81)
    trial = draw_trial(world, 300, seed=8)
    f = CallablePredictor(lambda x: np.sin(3 * x))
    target = Target(draw_target(world, 900, seed=9).x, f)
    composite = CompositeSample.concat(trial, draw_target(world, 400, seed=10), generate_os(world, 200, seed=11))
    for name, estimator in grid.ESTIMATORS.items():
        for degree in grid._estimator_degrees(name, (1, 3)):
            cfg = EstimatorConfig(degree=max(degree, 0), fold_seed=5)
            values = []
            for sample in (trial, composite):
                p_hat = fit_nuisances(sample, target, max(degree, 0)) if estimator.nuisances else None
                values.append(estimator.estimate(sample, f, p_hat, cfg, target).point_estimate.hex())
            assert values[0] == values[1], (name, degree)
    trial, target = build_sample([1.0, 2.0, 2.0], [1.0, 3.0, 5.0], [1.0, 2.0, 2.0, 2.0])
    composite = CompositeSample.concat(trial, CompositeSample.cohort(TARGET, [1.0] * 5, np.zeros(5)))
    assert (estimate_om_categorical(trial, 1, target=target).point_estimate
            == estimate_om_categorical(composite, 1, target=target).point_estimate == 0.25 + 0.75 * 4.0)


@pytest.mark.parametrize("degree", [-1, True, False, 2.5, 3.0, "3", None])
def test_estimator_config_degree_is_a_nonnegative_int(degree):
    """The one degree rule that grid.check_degrees applies to each degree."""
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        EstimatorConfig(degree=degree)
    with pytest.raises(ValueError, match="degrees must be distinct nonnegative integers"):
        grid.check_degrees((1, degree))
    assert EstimatorConfig(degree=0).degree == 0 and grid.check_degrees((0, 2)) == (0, 2)
