import numpy as np
import pytest

from ppgen.analysis import (
    empirical_excess_risk,
    gauss_legendre_nodes,
    prop1_formula,
    spectrum,
    tilted_participation,
    true_mu,
    true_mu_monte_carlo,
    true_outcome_function,
)
from ppgen.dgp import GridFunction, World
from ppgen.regression import legendre_eval, ridge_cv


def lattice_world(fom1_fn, ps_logit_fn, grid_size=201):
    g = np.linspace(-1, 1, grid_size)
    xg, ug = np.meshgrid(g, g, indexing="ij")

    def grid_of(fn):
        return GridFunction(fn(xg, ug))

    zero = GridFunction(np.zeros((grid_size, grid_size)))
    return World("gp", (zero, grid_of(fom1_fn)), grid_of(ps_logit_fn), zero, 0.0)


# -- oracle ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [64, 128])
def test_gauss_legendre_nodes_are_leggauss_once_and_read_only(n):
    nodes, weights = gauss_legendre_nodes(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == want_nodes.tobytes() and weights.tobytes() == want_weights.tobytes()
    again = gauss_legendre_nodes(n)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_true_mu_odd_function_balanced_selection():
    world = lattice_world(lambda x, u: x, lambda x, u: np.zeros_like(x))
    assert true_mu(world, a=1).mu_a == pytest.approx(0.0, abs=1e-12)


def test_true_mu_second_moment():
    world = lattice_world(lambda x, u: x**2, lambda x, u: np.zeros_like(x))
    assert true_mu(world, a=1).mu_a == pytest.approx(1 / 3, abs=1e-3)


def test_true_mu_tilted_selection_negative_and_matches_mc():
    world = lattice_world(lambda x, u: x, lambda x, u: 10 * x)
    quad = true_mu(world, a=1)
    mc = true_mu_monte_carlo(world, a=1, n_draws=1_000_000, seed=1)
    assert quad.mu_a < 0
    assert abs(quad.mu_a - mc.mu_a) <= 3 * mc.error_bound + quad.error_bound


def test_true_outcome_function_weights_by_participation():
    # outcome = u and participation higher for positive u: trial mean over u > 0
    world = lattice_world(lambda x, u: u, lambda x, u: 2 * u)
    g = true_outcome_function(world, 1, np.array([0.0, 0.5]))
    assert np.all(g > 0.05)
    flat = lattice_world(lambda x, u: u, lambda x, u: np.zeros_like(u))
    g0 = true_outcome_function(flat, 1, np.array([0.0, 0.5]))
    assert np.allclose(g0, 0.0, atol=1e-12)


def test_tilted_participation_tilts_toward_trial_count():
    world = lattice_world(lambda x, u: x, lambda x, u: 10 * x)
    q_even = tilted_participation(world, 1000, 1000)
    q_trial_heavy = tilted_participation(world, 10_000, 1000)
    xs = np.linspace(-1, 1, 21)
    assert np.all(q_trial_heavy(xs) > q_even(xs))
    assert np.all((q_even(xs) > 0) & (q_even(xs) < 1))


def test_oracles_on_no_points_return_an_empty_array():
    world = lattice_world(lambda x, u: u, lambda x, u: 2 * u)
    for values in (true_outcome_function(world, 1, np.empty(0)), tilted_participation(world, 10, 30)(np.empty(0))):
        assert values.shape == (0,) and values.dtype == np.float64


# -- categorical MSE formula ---------------------------------------------------------


def test_prop1_formula_two_groups():
    assert prop1_formula([0.3, 0.7], [1.0, 1.0], [10, 10]) == pytest.approx(0.058)


def test_prop1_formula_single_group():
    assert prop1_formula([1.0], [4.0], [16]) == pytest.approx(0.25)


def test_prop1_formula_zero_variance():
    assert prop1_formula([0.5, 0.5], [0.0, 0.0], [5, 5]) == 0.0


def test_prop1_formula_zero_count_rejected():
    with pytest.raises(ValueError):
        prop1_formula([0.5, 0.5], [1.0, 1.0], [0, 10])


# -- spectra ----------------------------------------------------------------------------


def test_spectrum_of_basis_function():
    spec = spectrum(lambda x: legendre_eval(x, 5)[:, 3], d_max=6)
    expected = np.zeros(7)
    expected[3] = 1.0
    assert np.max(np.abs(spec.coeffs - expected)) < 1e-9


def test_spectrum_of_identity():
    spec = spectrum(lambda x: x, d_max=4)
    assert spec.coeffs[1] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    assert np.max(np.abs(np.delete(spec.coeffs, 1))) < 1e-12


def test_spectrum_additivity():
    f = lambda x: np.sin(3 * x)
    g = lambda x: x**2
    sum_spec = spectrum(lambda x: f(x) + g(x), d_max=8)
    parts = spectrum(f, d_max=8).coeffs + spectrum(g, d_max=8).coeffs
    assert np.max(np.abs(sum_spec.coeffs - parts)) < 1e-9


def test_tail_mass_monotone():
    spec = spectrum(lambda x: np.sin(5 * x) + x**3, d_max=12)
    tails = [spec.tail_mass(d) for d in range(12)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


def test_spectrum_mass_bounded_by_norm():
    f = lambda x: np.sin(5 * x) + x**3
    spec = spectrum(f, d_max=16)
    nodes, weights = np.polynomial.legendre.leggauss(128)
    norm_sq = float(np.sum(weights * f(nodes) ** 2))
    assert np.sum(spec.coeffs**2) <= norm_sq + 1e-9


# -- excess risk -----------------------------------------------------------------------


def test_excess_risk_zero_for_exact_fit():
    truth = 0.3 * np.linspace(-1, 1, 20)
    assert empirical_excess_risk(truth, truth) == 0.0


def test_excess_risk_constant_offset():
    truth = 0.3 * np.linspace(-1, 1, 20)
    assert empirical_excess_risk(truth + 0.1, truth) == pytest.approx(0.01)


@pytest.mark.parametrize("fit_values, truth_values", [(np.zeros(3), np.zeros(4)), (np.zeros((2, 2)), np.zeros(4)),
                                                      (np.zeros(0), np.zeros(0))],
                         ids=["lengths", "shapes", "empty"])
def test_excess_risk_needs_values_at_the_same_points(fit_values, truth_values):
    with pytest.raises(ValueError, match="same points"):
        empirical_excess_risk(fit_values, truth_values)


def test_excess_risk_decreases_with_sample_size():
    rng = np.random.default_rng(2)
    truth = lambda x: 0.8 * x - 0.2
    risks = {n: [] for n in (200, 2_000)}
    for n in risks:
        for rep in range(50):
            x = rng.uniform(-1, 1, n)
            y = truth(x) + rng.normal(0, 0.5, n)
            fit = ridge_cv(x, y, degree=1, penalty_grid=(1e-8,))
            risks[n].append(empirical_excess_risk(fit.predict(x), truth(x)))
    assert np.mean(risks[2_000]) < np.mean(risks[200])
