import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import chi2_contingency

from ppgen.dgp import (
    GridFunction,
    NoisePredictor,
    World,
    _glm_poly,
    draw_target,
    draw_trial,
    generate_os,
    glm_logit_prob,
    glm_outcome,
    sample_gp,
    world_from_spec,
)
from ppgen.domain import (
    OS,
    TARGET,
    TREATMENT_PROB,
    TRIAL,
    CompositeSample,
    GlmParams,
    KernelParams,
    ScenarioSpec,
    derive_seed,
)
from ppgen.grid import TABLE2_ROWS, _sample_glm_world

SE_ONLY = KernelParams(0.0, 0.0, 0.5, None)


def constant_grid(value, grid_size=21):
    return GridFunction(np.full((grid_size, grid_size), float(value)))


def flat_world(fom1=2.0, fom0=0.0, ps_logit=0.0, pa_logit=0.0, noise=0.0):
    return World(
        "gp",
        (constant_grid(fom0), constant_grid(fom1)),
        constant_grid(ps_logit),
        constant_grid(pa_logit),
        noise,
    )


# -- kernel ---------------------------------------------------------------------


def kernel_eval(params: KernelParams, p: tuple[float, float], q: tuple[float, float]) -> float:
    """Composite linear + squared-exponential kernel between two (x, u) points:
    the reference covariance that sample_gp's draws are checked against."""
    x, u = p
    xq, uq = q
    exponent = 0.0
    if params.l_x is not None:
        exponent += (x - xq) ** 2 / (2.0 * params.l_x**2)
    if params.l_u is not None:
        exponent += (u - uq) ** 2 / (2.0 * params.l_u**2)
    return params.alpha_x * x * xq + params.alpha_u * u * uq + float(np.exp(-exponent))


def test_kernel_zero_distance():
    params = KernelParams(10.0, 0.0, 1.0, None)
    assert kernel_eval(params, (0.5, 0.3), (0.5, 0.3)) == pytest.approx(3.5)


def test_kernel_se_term():
    params = KernelParams(0.0, 0.0, 1.0, None)
    assert kernel_eval(params, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(np.exp(-0.5))


def test_kernel_participation_params_ignore_u():
    params = KernelParams(10.0, 0.0, 1.0, None)  # the trial-participation kernel
    base = kernel_eval(params, (0.3, -0.8), (0.7, 0.2))
    for u, uq in [(0.0, 0.0), (1.0, -1.0), (-0.5, 0.9)]:
        assert kernel_eval(params, (0.3, u), (0.7, uq)) == pytest.approx(base)


# -- GP sampling ------------------------------------------------------------------


def test_sample_gp_deterministic():
    a = sample_gp(SE_ONLY, grid_size=21, seed=42)
    b = sample_gp(SE_ONLY, grid_size=21, seed=42)
    assert np.array_equal(a.values, b.values)


def test_sample_gp_marginal_moments():
    values = np.array(
        [sample_gp(SE_ONLY, grid_size=21, seed=s).values[10, 10] for s in range(10_000)]
    )
    k_pp = kernel_eval(SE_ONLY, (0.0, 0.0), (0.0, 0.0))
    assert abs(values.mean()) < 3 * values.std() / 100
    assert abs(values.var() - k_pp) < 0.05 * k_pp


def test_sample_gp_inactive_u_axis_constant():
    grid = sample_gp(KernelParams(1.0, 0.0, 0.5, None), grid_size=31, seed=3)
    assert np.max(np.ptp(grid.values, axis=1)) < 1e-9


def test_sample_gp_grid_size_bounds():
    with pytest.raises(ValueError):
        sample_gp(SE_ONLY, grid_size=20)


def test_grid_function_interpolation():
    g = np.linspace(-1, 1, 21)
    values = g[:, None] * 2 + 0.5 * g[None, :]  # bilinear surface: interp is exact
    fn = GridFunction(values)
    assert fn(g[3], g[7])[0] == pytest.approx(values[3, 7])
    assert fn(0.05, -0.13)[0] == pytest.approx(2 * 0.05 + 0.5 * -0.13)


@pytest.mark.parametrize("with_out", [False, True], ids=["allocating", "into-out"])
@pytest.mark.parametrize("outer", [False, True], ids=["paired", "outer-grid"])
@pytest.mark.parametrize("bad", ["x", "u"])
def test_grid_function_rejects_nan(bad, outer, with_out):
    """NaN has no lattice cell, so it raises instead of reaching the index cast."""
    x, u = np.array([0.1, 0.2, 0.3]), np.array([-0.5, 0.0, 0.5])
    (x if bad == "x" else u)[1] = np.nan
    if outer:
        x, u = x[:, None], u[None, :]
    out = np.empty(np.broadcast_shapes(x.shape, u.shape)) if with_out else None
    with pytest.raises(ValueError, match="NaN"):
        constant_grid(1.0)(x, u, out)


def test_grid_function_clamps_infinite_coordinates_to_the_edge():
    g = np.linspace(-1, 1, 21)
    fn = GridFunction(g[:, None] * 2 + 0.5 * g[None, :])
    inf = np.array([np.inf, -np.inf])
    assert fn(inf, inf[::-1]).tobytes() == fn(np.array([1.0, -1.0]), np.array([-1.0, 1.0])).tobytes()


# -- evaluation into a caller's array ----------------------------------------------


@functools.cache
def _out_worlds():
    return {"gp": world_from_spec(_gp_spec(), "out-test"), "glm": _sample_glm_world(TABLE2_ROWS[1], 7, 0)}


def _evaluations(world):
    """Each evaluation that takes ``out``, as a function of (x, u, out)."""
    evaluations = [world.participation_prob, functools.partial(world.outcome, 0), functools.partial(world.outcome, 1)]
    if world.kind == "gp":
        evaluations += [world.fom[1], world.ps_logit]
    return evaluations


_coords = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["gp", "glm"]), st.booleans(), st.lists(_coords, min_size=1, max_size=20),
       st.lists(_coords, min_size=1, max_size=20), st.integers(0, 3))
def test_evaluation_into_out_returns_it_holding_the_allocating_bits(kind, outer, xs, us, spare):
    """``out`` may be the leading rows of a larger buffer, as the oracle's
    blocks pass it; the rows past it stay untouched."""
    if outer:
        x, u = np.array(xs)[:, None], np.array(us)[None, :]
    else:
        n = min(len(xs), len(us))
        x, u = np.array(xs[:n]), np.array(us[:n])
    shape = np.broadcast_shapes(x.shape, u.shape)
    for evaluate in _evaluations(_out_worlds()[kind]):
        want = evaluate(x, u)
        buf = np.full((shape[0] + spare, *shape[1:]), np.nan)
        out = buf[: shape[0]]
        assert evaluate(x, u, out) is out
        assert out.tobytes() == want.tobytes() and np.isnan(buf[shape[0]:]).all()


@pytest.mark.parametrize("kind", ["gp", "glm"])
@pytest.mark.parametrize("outer", [False, True], ids=["paired", "outer-grid"])
def test_out_of_another_shape_raises_instead_of_broadcasting(kind, outer):
    x, u = np.linspace(-0.9, 0.9, 3), np.linspace(-0.5, 0.5, 4)
    if outer:
        x, u = x[:, None], u[None, :]
    else:
        u = u[:3]
    shape = np.broadcast_shapes(x.shape, u.shape)
    for evaluate in _evaluations(_out_worlds()[kind]):
        for wrong in ((2, *shape), (shape[0] + 1, *shape[1:]), shape[::-1] + (1,)):
            with pytest.raises(ValueError):
                evaluate(x, u, np.empty(wrong))


# -- participation probability ----------------------------------------------------


def test_participation_prob_examples():
    assert flat_world(ps_logit=0.0).participation_prob(0.0, 0.0)[0] == pytest.approx(0.5)
    assert flat_world(ps_logit=10.0).participation_prob(0.0, 0.0)[0] == pytest.approx(0.9)
    assert flat_world(ps_logit=-2.1972).participation_prob(0.0, 0.0)[0] == pytest.approx(0.1, abs=1e-4)


def test_participation_prob_always_clipped():
    world = world_from_spec(_gp_spec(), "clip-test")
    rng = np.random.default_rng(0)
    p = world.participation_prob(rng.uniform(-1, 1, 10_000), rng.uniform(-1, 1, 10_000))
    assert p.min() >= 0.1 and p.max() <= 0.9


# -- cohort generation --------------------------------------------------------------


def _gp_spec(n1=200, n0=500, n_os=500, seed=5):
    return ScenarioSpec(
        fom_params=(KernelParams(1.0, 1.0, 0.5, None), KernelParams(1.0, 1.0, 0.5, None)),
        ps_params=KernelParams(10.0, 0.0, 1.0, None),
        pa_params=KernelParams(1.0, 0.0, 1.0, 0.5),
        n1=n1,
        n0=n0,
        n_os=n_os,
        master_seed=seed,
    )


def trial_target(world, n1, n0, seed):
    """A composite sample of exactly n1 trial and n0 target records."""
    return CompositeSample.concat(
        draw_trial(world, n1, derive_seed(seed, "trial")), draw_target(world, n0, derive_seed(seed, "target"))
    )


def test_exact_cohort_sizes():
    world = world_from_spec(_gp_spec(), "sizes")
    sample = trial_target(world, 200, 20_000, seed=1)
    assert (np.count_nonzero(sample.s == TRIAL), np.count_nonzero(sample.s == TARGET)) == (200, 20_000)


def test_constant_world_outcomes():
    sample = trial_target(flat_world(fom1=2.0), 50, 10, seed=2)
    treated = (sample.s_array() == 1) & (sample.a_array() == 1)
    for y in sample.y_array()[treated]:
        assert y == pytest.approx(2.0, abs=1e-12)


def test_trial_treatment_fraction_clt_band():
    world = flat_world()
    trial = draw_trial(world, 10_000, seed=3)
    frac = np.mean(trial.a_array())
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 10_000)


def test_trial_treats_at_the_probability_the_weights_divide_by():
    # the inverse-odds weights divide by TREATMENT_PROB; draw_trial must randomize at it
    world = world_from_spec(_gp_spec(), "randomization")
    n1 = 40_000
    share = np.mean(draw_trial(world, n1, seed=12).a)
    assert abs(share - TREATMENT_PROB) < 4 * math.sqrt(TREATMENT_PROB * (1 - TREATMENT_PROB) / n1)


def test_noise_free_consistency():
    world = world_from_spec(_gp_spec(), "consistency")
    trial = draw_trial(world, 500, seed=4)
    rows = zip(trial.x_array(), trial.u, trial.a_array(), trial.y_array())
    for x, u, a, y in rows:
        assert y == pytest.approx(float(world.outcome(a, x, u)[0]), abs=1e-12)


def test_trial_randomization_chi_square():
    world = world_from_spec(_gp_spec(), "chi2")
    trial = draw_trial(world, 50_000, seed=6)
    x = trial.x_array()
    a = trial.a_array()
    bins = np.digitize(x, np.linspace(-1, 1, 11)[1:-1])
    table = np.array([[np.sum((bins == b) & (a == t)) for t in (0, 1)] for b in range(10)])
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


def test_os_counts_and_balanced_treatment():
    cohort = generate_os(flat_world(pa_logit=0.0), 50_000, seed=7)
    assert len(cohort) == 50_000
    assert all(cohort.s_array() == OS)
    frac = np.mean(cohort.a_array())
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 50_000)


def test_os_treatment_independent_of_u_without_confounding():
    world = world_from_spec(_gp_spec(), "no-conf")  # pa has alpha_u=0... override below
    spec = _gp_spec()
    spec = ScenarioSpec(
        fom_params=spec.fom_params,
        ps_params=spec.ps_params,
        pa_params=KernelParams(1.0, 0.0, 1.0, None),  # no u dependence at all
        n1=200,
        n0=500,
        n_os=50_000,
        master_seed=5,
    )
    world = world_from_spec(spec, "no-conf")
    cohort = generate_os(world, 50_000, seed=8)
    u = cohort.u
    a = cohort.a_array()
    lo, hi = a[u < 0], a[u >= 0]
    se = np.sqrt(lo.var() / lo.size + hi.var() / hi.size)
    assert abs(lo.mean() - hi.mean()) < 3 * se


def test_target_records_carry_no_outcome():
    target = draw_target(flat_world(), 100, seed=9)
    assert all(target.a_array() == -1) and all(np.isnan(target.y_array()))


# -- GLM variant -----------------------------------------------------------------


def test_glm_outcome_gamma_zero_ignores_u():
    params = GlmParams(0.3, (1, 0, 2, 0, 0), (5, 5, 5, 5, 5), (1, 1, 1, 1, 1), gamma=0.0)
    x = np.linspace(-1, 1, 11)
    for u in (-1.0, 0.0, 0.7):
        assert np.allclose(glm_outcome(params, x, np.full(11, u)), glm_outcome(params, x, np.zeros(11)))


def _glm_outcome_full(params, x, u):
    """The surface with the hidden terms always evaluated, times gamma."""
    x, u = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(u, dtype=float))
    return (params.scale * (params.c0 + _glm_poly(x, params.c_x))
            + params.gamma * (_glm_poly(u, params.c_u) + _glm_poly(x * u, params.c_xu)))


def _glm_logit_prob_full(params, x, u):
    x, u = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(u, dtype=float))
    lin = params.scale * (params.c0 + _glm_poly(x, params.c_x)) + params.gamma * (
        _glm_poly(u, params.c_u) + _glm_poly(x * u, params.c_xu))
    return expit(-lin)


@pytest.mark.parametrize("gamma", [0.0, 0.7, 2.5])
@pytest.mark.parametrize("seed", range(3))
def test_glm_surfaces_equal_the_full_formula_bitwise(gamma, seed):
    """Skipping the hidden terms at gamma 0 changes no bit, and keeps the
    broadcast shape of x and u; an outcome is at scale 1, and the logit's
    probability is expit of minus the outcome surface of the same parameters."""
    rng = np.random.default_rng(seed)
    coefs = (float(rng.normal()), *(tuple(rng.normal(size=5)) for _ in range(3)))
    out = GlmParams(*coefs, gamma=gamma)
    logit = GlmParams(*coefs, gamma=gamma, scale=float(rng.uniform(0.5, 2.0)))
    x, u = rng.uniform(-1.2, 1.2, 500), rng.uniform(-1.2, 1.2, 500)
    for xs, us in ((x, u), (x[:40, None], u[None, :30]), (x[None, :30], u[:40, None]), (x[0], u[0])):
        for fn, full, params in ((glm_outcome, _glm_outcome_full, out),
                                 (glm_outcome, _glm_outcome_full, logit),
                                 (glm_logit_prob, _glm_logit_prob_full, logit)):
            got, want = fn(params, xs, us), full(params, xs, us)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for params in (out, logit):
            assert glm_logit_prob(params, xs, us).tobytes() == expit(-glm_outcome(params, xs, us)).tobytes()


@pytest.mark.parametrize("change, message", [
    ({"c_x": (1.0,) * 4}, "length 5"),
    ({"c_u": (1.0,) * 6}, "length 5"),
    ({"c_xu": ()}, "length 5"),
    ({"gamma": -0.1}, "gamma must be nonnegative"),
    ({"scale": 0.0}, "scale must be positive"),
    ({"scale": -1.0}, "scale must be positive"),
    ({"scale": math.nan}, "scale must be positive"),
    ({"c0": math.nan}, "coefficients must be finite"),
    ({"c_x": (0.0, 0.0, math.inf, 0.0, 0.0)}, "coefficients must be finite"),
    ({"c_u": (0.0, 0.0, 0.0, 0.0, -math.inf)}, "coefficients must be finite"),
    ({"c_xu": (math.nan, 0.0, 0.0, 0.0, 0.0)}, "coefficients must be finite"),
    ({"gamma": math.nan}, "gamma must be nonnegative and finite"),
    ({"gamma": math.inf}, "gamma must be nonnegative and finite"),
    ({"scale": math.inf}, "scale must be positive and finite"),
])
def test_glm_params_rejects_bad_coefficients_gamma_and_scale(change, message):
    fields = {"c0": 0.1, "c_x": (0.0,) * 5, "c_u": (0.0,) * 5, "c_xu": (0.0,) * 5, "gamma": 0.5, **change}
    with pytest.raises(ValueError, match=message):
        GlmParams(**fields)


def test_glm_outcome_zero_params():
    params = GlmParams(0.0, (0,) * 5, (0,) * 5, (0,) * 5, gamma=1.0)
    assert glm_outcome(params, 0.3, -0.7)[0] == 0.0


def test_glm_outcome_hand_value():
    params = GlmParams(1.0, (2, 0, 0, 0, 0), (0,) * 5, (0,) * 5, gamma=0.0)
    assert glm_outcome(params, 0.5, 0.0)[0] == pytest.approx(2.0)


def test_glm_logit_prob_zero_coefficients():
    params = GlmParams(0.0, (0,) * 5, (0,) * 5, (0,) * 5, gamma=0.0, scale=1.0)
    assert glm_logit_prob(params, 0.3, 0.3)[0] == pytest.approx(0.5)


def test_glm_logit_prob_plus_sign_convention():
    params = GlmParams(1.0, (0,) * 5, (0,) * 5, (0,) * 5, gamma=0.0, scale=1.0)
    assert glm_logit_prob(params, 0.0, 0.0)[0] == pytest.approx(1 / (1 + np.e))


def test_glm_logit_prob_scale_sharpens():
    params1 = GlmParams(0.4, (0.5, -0.2, 0.1, 0.0, 0.3), (0,) * 5, (0,) * 5, 0.0, scale=1.0)
    params2 = GlmParams(0.4, (0.5, -0.2, 0.1, 0.0, 0.3), (0,) * 5, (0,) * 5, 0.0, scale=2.0)
    x = np.linspace(-1, 1, 41)
    p1 = glm_logit_prob(params1, x, np.zeros(41))
    p2 = glm_logit_prob(params2, x, np.zeros(41))
    assert np.all(np.abs(p2 - 0.5) >= np.abs(p1 - 0.5) - 1e-12)


# -- noise predictor ---------------------------------------------------------------


def test_noise_predictor_is_a_function():
    f = NoisePredictor(seed=13)
    x = np.array([0.123456789, -0.5, 0.123456789])
    vals = f.predict(x)
    assert vals[0] == vals[2]
    assert np.array_equal(vals, f.predict(x))


def test_noise_predictor_moments():
    f = NoisePredictor(seed=14)
    x = np.linspace(-1, 1, 10_000)
    vals = f.predict(x)
    assert abs(vals.mean()) < 3 / np.sqrt(10_000)
    assert abs(vals.var() - 1.0) < 0.1


def test_noise_predictor_uncorrelated_with_smooth_functions():
    f = NoisePredictor(seed=15)
    x = np.linspace(-1, 1, 10_000)
    vals = f.predict(x)
    for g in (np.sin(3 * x), x**2, np.exp(x)):
        corr = np.corrcoef(vals, g)[0, 1]
        assert abs(corr) < 0.05


# -- full-pipeline determinism -------------------------------------------------------


def test_pipeline_determinism():
    spec = _gp_spec(seed=77)
    world_a = world_from_spec(spec, "det")
    world_b = world_from_spec(spec, "det")
    sample_a = trial_target(world_a, spec.n1, spec.n0, seed=spec.master_seed)
    sample_b = trial_target(world_b, spec.n1, spec.n0, seed=spec.master_seed)
    assert sample_a == sample_b
    os_a = generate_os(world_a, spec.n_os, seed=spec.master_seed)
    os_b = generate_os(world_b, spec.n_os, seed=spec.master_seed)
    assert os_a == os_b


# -- cohort draws against stored values -------------------------------------------

# First value and float.hex of the exact (math.fsum) sum of each column, as
# drawn by the per-record implementation these cohorts replaced: (trial 150,
# seed 11), (target 400, seed 12), (OS 600, seed 13).  Target y is all NaN.
_GOLDEN = {
    "gp": {
        "trial": {
            "x": ("-0x1.7c5817bf76fcep-1", "-0x1.658610a707a86p+2"),
            "u": ("-0x1.780df32c57844p-1", "0x1.2fca699736059p+2"),
            "s": (1, "0x1.2c00000000000p+7"),
            "a": (1, "0x1.2400000000000p+6"),
            "y": ("0x1.7d9399b2abd95p+0", "-0x1.db64f30387837p+4"),
        },
        "target": {
            "x": ("-0x1.fe4fbf1b1931cp-2", "-0x1.000afe167ed3ap+0"),
            "u": ("-0x1.fa3e126058fb6p-1", "-0x1.c0183212ea203p+3"),
            "s": (0, "0x0.0p+0"),
            "a": (-1, "-0x1.9000000000000p+8"),
        },
        "os": {
            "x": ("0x1.758d7fa79574cp-1", "-0x1.3fb74802e6b03p+3"),
            "u": ("0x1.2098c5782c4b4p-1", "0x1.3a31691e8c392p+3"),
            "s": (2, "0x1.2c00000000000p+10"),
            "a": (1, "0x1.f200000000000p+7"),
            "y": ("-0x1.a8dfbc98b676cp+0", "-0x1.537ef880c8295p+5"),
        },
    },
    "glm": {
        "trial": {
            "x": ("-0x1.7c5817bf76fcep-1", "-0x1.3251d906b9d47p+5"),
            "u": ("-0x1.780df32c57844p-1", "0x1.c0a2800d23f7ep+2"),
            "s": (1, "0x1.2c00000000000p+7"),
            "a": (1, "0x1.2400000000000p+6"),
            "y": ("0x1.e751394ab0cfap-4", "0x1.119732e81ba00p+6"),
        },
        "target": {
            "x": ("-0x1.fe4fbf1b1931cp-2", "0x1.c9af6666a1904p+6"),
            "u": ("-0x1.fa3e126058fb6p-1", "-0x1.89661f8d3d9afp+1"),
            "s": (0, "0x0.0p+0"),
            "a": (-1, "-0x1.9000000000000p+8"),
        },
        "os": {
            "x": ("0x1.758d7fa79574cp-1", "-0x1.3fb74802e6b03p+3"),
            "u": ("0x1.2098c5782c4b4p-1", "0x1.3a31691e8c392p+3"),
            "s": (2, "0x1.2c00000000000p+10"),
            "a": (1, "0x1.7400000000000p+8"),
            "y": ("0x1.18b6576e42cacp+0", "0x1.f451af726a405p+7"),
        },
    },
}


def _golden_worlds():
    from ppgen.grid import TABLE2_ROWS, _sample_glm_world, benchmark_grid

    spec = benchmark_grid(7, n1_values=(200,), lx_values=(0.2,), confounding=("mid",), n_os=3000)[0]
    return {"gp": world_from_spec(spec), "glm": _sample_glm_world(TABLE2_ROWS[1], 7, 0)}


@pytest.mark.parametrize("kind", ["gp", "glm"])
def test_cohort_draws_match_stored_values(kind):
    """GP draws are bit-exact; GLM surfaces may move by polynomial rounding only."""
    world = _golden_worlds()[kind]
    cohorts = {
        "trial": draw_trial(world, 150, seed=11),
        "target": draw_target(world, 400, seed=12),
        "os": generate_os(world, 600, seed=13),
    }
    assert [len(c) for c in cohorts.values()] == [150, 400, 600]
    assert np.isnan(cohorts["target"].y_array()).all()
    rel = 0.0 if kind == "gp" else 1e-12
    for name, stored in _GOLDEN[kind].items():
        c = cohorts[name]
        columns = {"x": c.x_array(), "u": c.u, "s": c.s_array(),
                   "a": c.a_array(), "y": c.y_array()}
        for col, (first, total) in stored.items():
            values = columns[col]
            if isinstance(first, int):
                assert values[0] == first
            else:
                assert float(values[0]) == pytest.approx(float.fromhex(first), rel=rel, abs=0)
            got = math.fsum(values.astype(float).tolist())
            assert got == pytest.approx(float.fromhex(total), rel=rel, abs=0), (name, col)
