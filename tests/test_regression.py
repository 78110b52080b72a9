import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgen import regression
from ppgen.regression import (
    ROW_BLOCK,
    CallablePredictor,
    ConstantPredictor,
    IllConditionedError,
    cv_fold_indices,
    flexible_fit,
    legendre_eval,
    logistic_fit,
    ridge_cv,
    ridge_fit,
    ridge_solve,
)


# -- Legendre basis -----------------------------------------------------------


def test_legendre_degree_zero():
    assert legendre_eval(0.3, 0) == pytest.approx([0.70711], abs=1e-5)


def test_legendre_at_one():
    assert legendre_eval(1.0, 1) == pytest.approx([0.70711, 1.22474], abs=1e-5)


def test_legendre_recurrence_degree_two():
    assert legendre_eval(0.0, 2) == pytest.approx([0.70711, 0.0, -0.79057], abs=1e-5)


def test_legendre_negative_degree_rejected():
    with pytest.raises(ValueError):
        legendre_eval(0.0, -1)


def test_legendre_orthonormality_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    feats = legendre_eval(nodes, 8)
    gram = feats.T @ (weights[:, None] * feats)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10


def test_legendre_clamps_tiny_overshoot():
    assert np.allclose(legendre_eval(1.0 + 1e-13, 3), legendre_eval(1.0, 3))
    with pytest.raises(ValueError):
        legendre_eval(1.1, 3)


# -- ridge --------------------------------------------------------------------


def test_ridge_exact_interpolation():
    fit = ridge_fit([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], degree=1, penalty=0.0)
    assert fit.predict(np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-10)


def test_ridge_single_feature_closed_form():
    coefs = ridge_solve(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), penalty=1.0)
    assert coefs[0] == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_ridge_infinite_shrinkage():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 50)
    fit = ridge_fit(x, rng.normal(0, 1, 50), degree=3, penalty=1e12)
    assert np.max(np.abs(fit.coefficients)) < 1e-6


def test_ridge_zero_penalty_singular_raises():
    x = np.zeros(10)  # constant inputs make higher columns collinear
    with pytest.raises(IllConditionedError):
        ridge_fit(x, np.ones(10), degree=2, penalty=0.0)


def test_ridge_optimality_perturbation():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 40)
    y = rng.normal(0, 1, 40)
    penalty = 0.7
    fit = ridge_fit(x, y, degree=3, penalty=penalty)
    feats = legendre_eval(x, 3)

    def objective(c):
        resid = y - feats @ c
        return resid @ resid + penalty * (c @ c)

    base = objective(fit.coefficients)
    for k in range(4):
        for eps in (1e-3, -1e-3):
            c = fit.coefficients.copy()
            c[k] += eps
            assert objective(c) >= base


def test_ridge_cv_prefers_no_shrinkage_on_clean_data():
    x = np.linspace(-1, 1, 30)
    fit = ridge_cv(x, 2 * x, degree=1, penalty_grid=(1e-8, 1.0, 100.0), fold_seed=5)
    assert fit.penalty == 1e-8


def test_ridge_cv_pure_noise_matches_fold_oracle():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 60)
    y = rng.normal(0, 1, 60)
    grid = (1e-8, 1e4)
    fit = ridge_cv(x, y, degree=3, penalty_grid=grid, fold_seed=11)

    # independent fold-by-fold computation of the held-out error
    feats = legendre_eval(x, 3)
    errors = {}
    for lam in grid:
        sse = 0.0
        for idx in cv_fold_indices(60, 5, fold_seed=11):
            mask = np.ones(60, dtype=bool)
            mask[idx] = False
            f_tr, y_tr = feats[mask], y[mask]
            coefs = np.linalg.solve(f_tr.T @ f_tr + lam * np.eye(4), f_tr.T @ y_tr)
            sse += np.sum((y[idx] - feats[idx] @ coefs) ** 2)
        errors[lam] = sse / 60
    assert errors[1e4] < errors[1e-8]
    assert fit.penalty == 1e4


def test_ridge_cv_ties_break_toward_larger_penalty():
    rng = np.random.default_rng(20)
    x = rng.uniform(-1, 1, 30)
    y = np.zeros(30)  # every penalty fits exactly: held-out errors tie at zero
    fit = ridge_cv(x, y, degree=2, penalty_grid=(1e-6, 1.0, 50.0), fold_seed=2)
    assert fit.penalty == 50.0


def _reference_cv_errors(feats, y, penalties, n_folds, fold_seed):
    """Pooled held-out squared error per penalty, each fold solved on its own
    training rows by np.linalg.solve."""
    n, p = feats.shape
    errors = np.zeros(len(penalties))
    for idx in cv_fold_indices(n, n_folds, fold_seed):
        train = np.ones(n, dtype=bool)
        train[idx] = False
        f_tr, y_tr = feats[train], y[train]
        for i, lam in enumerate(penalties):
            coefs = np.linalg.solve(f_tr.T @ f_tr + lam * np.eye(p), f_tr.T @ y_tr)
            errors[i] += np.sum((y[idx] - feats[idx] @ coefs) ** 2)
    return errors / n


@settings(max_examples=25, deadline=None)
@given(
    fold=st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1]),
    degree=st.integers(0, 6),
    noise=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cv_sweep_picks_the_reference_penalty(fold, degree, noise, seed):
    rng = np.random.default_rng(seed)
    n = 5 * fold  # five folds of exactly `fold` held-out rows
    x = rng.uniform(-1, 1, n)
    feats = legendre_eval(x, degree)
    y = feats @ rng.normal(0, 1, degree + 1) + noise * rng.standard_normal(n)
    grid = (1e-2, 1.0, 30.0, 1e3, 3e4, 1e6)
    ref = _reference_cv_errors(feats, y, grid, 5, seed)
    gram, rhs = feats.T @ feats, feats.T @ y
    assert np.allclose(regression._cv_errors(feats, y, gram, rhs, grid, 5, seed), ref, rtol=1e-9, atol=0)
    chosen = grid.index(ridge_cv(x, y, degree, penalty_grid=grid, fold_seed=seed).penalty)
    # the reference's winner, or, where the reference itself ties to 1e-9, one of its tied penalties
    near = np.flatnonzero(ref <= ref.min() * (1 + 1e-9))
    if len(near) == 1:
        assert chosen == near[0]
    else:
        assert chosen in near


def test_all_zero_targets_tie_to_the_largest_penalty_across_blocks():
    n = 5 * ROW_BLOCK + 3  # every fold spans two blocks
    x = np.random.default_rng(21).uniform(-1, 1, n)
    grid = (1e-6, 1.0, 50.0)
    assert ridge_cv(x, np.zeros(n), degree=3, penalty_grid=grid, fold_seed=1).penalty == 50.0
    assert flexible_fit(x, np.zeros(n), penalty_grid=grid, seed=1).penalty == 50.0


def test_ridge_cv_singular_at_penalty_zero_raises():
    x = np.zeros(40)  # constant inputs make higher columns collinear in every fold
    with pytest.raises(IllConditionedError):
        ridge_cv(x, np.ones(40), degree=2, penalty_grid=(0.0, 1.0))
    assert ridge_cv(x, np.ones(40), degree=2, penalty_grid=(1e-3, 1.0)).penalty in (1e-3, 1.0)


def test_ridge_cv_singleton_grid_equals_ridge_fit():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 25)
    y = rng.normal(0, 1, 25)
    a = ridge_cv(x, y, degree=2, penalty_grid=(0.37,), fold_seed=1)
    b = ridge_fit(x, y, degree=2, penalty=0.37)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_ridge_cv_too_few_samples():
    with pytest.raises(ValueError):
        ridge_cv([0.1, 0.2, 0.3], [1, 2, 3], degree=1, penalty_grid=(1.0,), n_folds=5)


def _no_sweep(*args):
    raise AssertionError("the grid must be checked before any sweep")


@pytest.mark.parametrize("grid, message", [((), "nonempty"), ((1.0, -0.5, 2.0), "nonnegative")])
def test_ridge_cv_rejects_bad_grid_up_front(monkeypatch, grid, message):
    monkeypatch.setattr(regression, "_fold_penalty_sweep", _no_sweep)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=message):
        ridge_cv(rng.uniform(-1, 1, 40), rng.normal(0, 1, 40), degree=2, penalty_grid=grid)


def test_ridge_prediction_is_pure():
    rng = np.random.default_rng(4)
    fit = ridge_fit(rng.uniform(-1, 1, 20), rng.normal(0, 1, 20), degree=2, penalty=0.1)
    x = np.array([0.25, -0.75])
    assert np.array_equal(fit.predict(x), fit.predict(x))


# -- flexible random-feature fit ----------------------------------------------


def test_flexible_fit_constant_targets():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 200)
    fit = flexible_fit(x, np.full(200, 3.0), seed=1)
    grid = np.linspace(-1, 1, 101)
    assert np.max(np.abs(fit.predict(grid) - 3.0)) < 1e-3


def test_flexible_fit_recovers_sine():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 50_000)
    y = np.sin(6 * x)
    fit = flexible_fit(x, y, seed=2)
    grid = np.linspace(-1, 1, 500)
    rmse = np.sqrt(np.mean((fit.predict(grid) - np.sin(6 * grid)) ** 2))
    assert rmse < 0.05


def test_flexible_fit_deterministic():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 300)
    y = np.sin(3 * x) + rng.normal(0, 0.1, 300)
    a = flexible_fit(x, y, seed=9)
    b = flexible_fit(x, y, seed=9)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.frequencies, b.frequencies)


def test_flexible_fit_degenerate_inputs():
    fit = flexible_fit(np.zeros(60), np.linspace(0, 1, 60), seed=0)
    assert fit.predict(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)


def test_flexible_fit_training_mse_bounded_by_variance():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 400)
    y = rng.normal(0, 1, 400)  # pure noise: heavy shrinkage expected
    fit = flexible_fit(x, y, seed=3)
    assert np.mean((fit.predict(x) - y) ** 2) <= np.var(y) + 1e-12


def test_flexible_fit_needs_50_points():
    with pytest.raises(ValueError):
        flexible_fit(np.linspace(-1, 1, 49), np.zeros(49))


@pytest.mark.parametrize("grid, message", [((), "nonempty"), ((1.0, -0.5, 2.0), "nonnegative")])
def test_flexible_fit_rejects_bad_grid_up_front(monkeypatch, grid, message):
    monkeypatch.setattr(regression, "_fold_penalty_sweep", _no_sweep)
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match=message):
        flexible_fit(rng.uniform(-1, 1, 200), rng.normal(0, 1, 200), penalty_grid=grid)


# -- logistic fit ---------------------------------------------------------------


def test_logistic_intercept_only():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, 10_000)
    labels = (rng.random(10_000) < 0.37).astype(float)
    fit = logistic_fit(x, labels, degree=0, ridge_penalty=1e-8)
    assert fit.converged
    assert fit.predict(np.array([0.0]))[0] == pytest.approx(labels.mean(), abs=0.01)


def test_logistic_recovers_generating_model():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 20_000)
    p = 1 / (1 + np.exp(-2 * x))
    labels = (rng.random(20_000) < p).astype(float)
    fit = logistic_fit(x, labels, degree=1, ridge_penalty=1e-8)
    assert fit.predict(np.array([0.5]))[0] == pytest.approx(1 / (1 + np.exp(-1.0)), abs=0.03)


def test_logistic_perfect_separation_stays_finite():
    x = np.concatenate([np.linspace(-1, -0.1, 20), np.linspace(0.1, 1, 20)])
    labels = (x > 0).astype(float)
    fit = logistic_fit(x, labels, degree=1, ridge_penalty=0.5)
    assert np.all(np.isfinite(fit.coefficients))


def test_logistic_gradient_small_at_convergence():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, 5_000)
    labels = (rng.random(5_000) < 0.5).astype(float)
    fit = logistic_fit(x, labels, degree=2, ridge_penalty=1e-4)
    assert fit.converged
    feats = legendre_eval(x, 2)
    probs = 1 / (1 + np.exp(-feats @ fit.coefficients))
    grad = feats.T @ (probs - labels) + 1e-4 * fit.coefficients
    assert np.max(np.abs(grad)) < 1e-6


def test_logistic_one_class_rejected():
    with pytest.raises(ValueError):
        logistic_fit([0.1, 0.2], [1, 1], degree=0, ridge_penalty=0.1)


def test_predictor_helpers():
    c = ConstantPredictor(2.5)
    assert np.array_equal(c.predict([0.0, 1.0]), [2.5, 2.5])
    f = CallablePredictor(lambda x: 2 * x)
    assert np.array_equal(f.predict([0.5]), [1.0])
