import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ppgen import regression
from ppgen.regression import (
    ROW_BLOCK,
    IllConditionedError,
    cv_fold_indices,
    flexible_fit,
    legendre_eval,
    logistic_fit,
    ridge_cv,
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
    for bad in (1.1, 1.0 + 2e-12, -1.0 - 2e-12, [0.0, 1.5], np.nan, [0.2, np.nan], [np.nan, 2.0]):
        with pytest.raises(ValueError):
            legendre_eval(bad, 3)


def _legendre_reference(x, degree):
    """The recurrence as it was written before it ran in place: a fresh array
    per operation, the same operations in the same order."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(np.abs(x) > 1 + 1e-12):
        raise ValueError("inputs must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    out = np.empty((x.shape[0], degree + 1))
    p_prev = np.ones_like(x)
    out[:, 0] = p_prev * np.sqrt(0.5)
    if degree >= 1:
        p_cur = x.copy()
        out[:, 1] = p_cur * np.sqrt(1.5)
        for k in range(1, degree):
            p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
            out[:, k + 1] = p_next * np.sqrt((2 * k + 3) / 2)
            p_prev, p_cur = p_cur, p_next
    return out[0] if scalar else out


EDGES = (1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 0.0, -0.0)


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(0, 16),
    x=st.one_of(
        st.floats(-1.0 - 1e-12, 1.0 + 1e-12),  # a scalar
        st.sampled_from(EDGES),
        st.lists(st.one_of(st.floats(-1.0 - 1e-12, 1.0 + 1e-12), st.sampled_from(EDGES)), max_size=40),
    ),
)
@example(degree=16, x=[])
@example(degree=16, x=[0.3])
@example(degree=16, x=1.0 + 1e-12)
@example(degree=16, x=list(EDGES))
def test_legendre_eval_is_the_reference_recurrence_byte_for_byte(degree, x):
    x = x if isinstance(x, float) else np.asarray(x, dtype=float)  # lists cover n = 0 and n = 1
    got, want = legendre_eval(x, degree), _legendre_reference(x, degree)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(0, 16), n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_legendre_eval_leading_columns_are_the_lower_degrees(degree, n, seed):
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    full = legendre_eval(x, degree)
    for k in range(degree + 1):
        assert full[:, :k + 1].tobytes() == legendre_eval(x, k).tobytes()


# -- ridge --------------------------------------------------------------------


def test_ridge_exact_interpolation():
    fit = ridge_cv([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], degree=1, penalty_grid=(0.0,))
    assert fit.predict(np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-10)


def test_ridge_single_feature_closed_form():
    # degree 0: one feature phi_0 = sqrt(1/2), so c = phi_0 * sum(y) / (n * phi_0^2 + penalty)
    coefs = ridge_cv([0.1, 0.2], [1.0, 2.0], degree=0, penalty_grid=(1.0,)).coefficients
    assert coefs[0] == pytest.approx(np.sqrt(0.5) * 3.0 / 2.0, abs=1e-12)


def test_ridge_infinite_shrinkage():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 50)
    fit = ridge_cv(x, rng.normal(0, 1, 50), degree=3, penalty_grid=(1e12,))
    assert np.max(np.abs(fit.coefficients)) < 1e-6


def _spd_system(rng, p):
    f = rng.standard_normal((p + int(rng.integers(1, 200)), p))
    if rng.random() < 0.5:  # a Gram plus a penalty, exactly symmetric
        a = f.T @ f + 10.0 ** float(rng.integers(-6, 3)) * np.eye(p)
    else:  # a Newton Hessian's weighted product, which need not be exactly symmetric
        a = (f * rng.random(f.shape[0])[:, None]).T @ f + 1e-6 * np.eye(p)
    return a, f.T @ rng.standard_normal(f.shape[0])


def test_direct_solve_is_scipys_positive_definite_solve_bit_for_bit():
    rng = np.random.default_rng(2024)
    for p in [*range(1, 10)] * 40 + [500]:
        a, b = _spd_system(rng, p)
        want = scipy.linalg.solve(a, b, assume_a="pos")
        assert regression._solve_pos(a, b).tobytes() == want.tobytes(), p


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_direct_solve_rejects_non_finite_input(bad, where):
    a, b = _spd_system(np.random.default_rng(1), 4)
    if where == "matrix":
        a[1, 0] = bad  # below the diagonal, which posv does not read
    else:
        b[1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        regression._solve_pos(a, b)


def test_direct_solve_rejects_a_matrix_that_is_not_positive_definite():
    for a in (np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(3), np.zeros((1, 1))):
        for solve in (regression._solve_pos, lambda a, b: scipy.linalg.solve(a, b, assume_a="pos")):
            with pytest.raises(np.linalg.LinAlgError):
                solve(a, np.ones(a.shape[0]))
    with pytest.raises(IllConditionedError):  # penalty 0 on a singular Gram is refused before any solve
        regression._solve_gram(np.ones((3, 3)), np.ones(3), 0.0)


def test_ridge_zero_penalty_singular_raises():
    x = np.zeros(10)  # constant inputs make higher columns collinear
    with pytest.raises(IllConditionedError):
        ridge_cv(x, np.ones(10), degree=2, penalty_grid=(0.0,))


def test_ridge_optimality_perturbation():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 40)
    y = rng.normal(0, 1, 40)
    penalty = 0.7
    fit = ridge_cv(x, y, degree=3, penalty_grid=(penalty,))
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
        gram, rhs = f_tr.T @ f_tr, f_tr.T @ y_tr
        for i, lam in enumerate(penalties):
            coefs = np.linalg.solve(gram + lam * np.eye(p), rhs)
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


# The range sweep against the per-fold solves: over every shape below (40 seeds
# of the Legendre designs, 12 of the cosine ones) the pooled errors differed
# by at most 6.3e-10 relative, at the smallest penalty of the default grid.
RANGE_SWEEP_RTOL = 1e-8


@settings(max_examples=16, deadline=None)
@given(
    fold=st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]),
    width=st.sampled_from([*range(1, 10), 200, 500]),
    seed=st.integers(0, 2**32 - 1),
)
@example(fold=3 * ROW_BLOCK + 7, width=500, seed=0)  # the OS predictor's shape: rank far below width
@example(fold=ROW_BLOCK, width=500, seed=3)  # the largest drift measured
@example(fold=ROW_BLOCK + 1, width=9, seed=1)  # a full-rank design keeps every direction
def test_cv_errors_match_the_per_fold_solves(fold, width, seed):
    rng = np.random.default_rng(seed)
    n = 5 * fold  # five folds of exactly `fold` held-out rows
    x = rng.uniform(-1, 1, n)
    if width <= 9:
        feats = legendre_eval(x, width - 1)
    else:  # random cosine features, as the OS predictor fits them
        feats = regression._cosine_features(x, rng.standard_normal(width) * 3, rng.uniform(0, 2 * np.pi, width))
    y = np.sin(3 * x) + rng.normal(0, 0.5, n)
    grid = regression.DEFAULT_PENALTY_GRID
    got = regression._cv_errors(feats, y, feats.T @ feats, feats.T @ y, grid, 5, seed)
    ref = _reference_cv_errors(feats, y, grid, 5, seed)
    assert np.allclose(got, ref, rtol=RANGE_SWEEP_RTOL, atol=0)
    if np.sort(ref)[1] > ref.min() * (1 + 2 * RANGE_SWEEP_RTOL):  # a winner the drift cannot unseat
        assert regression._cv_ridge(feats, y, list(grid), 5, seed)[1] == grid[np.argmin(ref)]


def _two_pass_cv_errors(feats, y, gram_all, rhs_all, penalties, n_folds, fold_seed):
    """The range sweep that gathered and rotated every held-out block a second
    time to score the folds' solutions."""
    vals, vecs = np.linalg.eigh(gram_all)
    keep = vals > np.finfo(float).eps * vals[-1]
    vecs = vecs[:, keep]
    folds = cv_fold_indices(feats.shape[0], n_folds, fold_seed)
    grams = np.repeat(np.diag(vals[keep])[None], len(folds), axis=0)
    rhs = np.repeat((rhs_all @ vecs)[None], len(folds), axis=0)
    for k, idx in enumerate(folds):
        for z_rows, y_rows in regression._held_out_blocks(feats, y, idx, vecs):
            grams[k] -= z_rows.T @ z_rows
            rhs[k] -= y_rows @ z_rows
    coefs = regression._fold_penalty_sweep(grams, rhs, penalties)
    sse = np.zeros(len(penalties))
    for k, idx in enumerate(folds):
        for z_rows, y_rows in regression._held_out_blocks(feats, y, idx, vecs):
            resid = coefs[k] @ z_rows.T
            resid -= y_rows
            sse += np.add.reduce(np.square(resid, out=resid), axis=1)
    return sse / feats.shape[0]


@settings(max_examples=30, deadline=None)
@given(
    fold=st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]),
    width=st.sampled_from([*range(1, 10), 200, 500]),
    seed=st.integers(0, 2**32 - 1),
)
@example(fold=3 * ROW_BLOCK + 7, width=500, seed=0)
@example(fold=ROW_BLOCK + 1, width=9, seed=1)
def test_cv_errors_are_the_two_pass_sweep_bit_for_bit(fold, width, seed):
    rng = np.random.default_rng(seed)
    n = 5 * fold
    x = rng.uniform(-1, 1, n)
    if width <= 9:
        feats = legendre_eval(x, width - 1)
    else:
        feats = regression._cosine_features(x, rng.standard_normal(width) * 3, rng.uniform(0, 2 * np.pi, width))
    y = np.sin(3 * x) + rng.normal(0, 0.5, n)
    args = (feats, y, feats.T @ feats, feats.T @ y, regression.DEFAULT_PENALTY_GRID, 5, seed)
    assert regression._cv_errors(*args).tobytes() == _two_pass_cv_errors(*args).tobytes()


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


def test_ridge_cv_too_few_samples():
    """A grid of several penalties needs a sample per fold; one penalty makes no folds."""
    with pytest.raises(ValueError, match="one per fold"):
        ridge_cv([0.1, 0.2, 0.3], [1, 2, 3], degree=1, penalty_grid=(1.0, 2.0))
    assert ridge_cv([0.1, 0.2, 0.3], [1, 2, 3], degree=1, penalty_grid=(1.0,)).penalty == 1.0


@pytest.mark.parametrize("x, y", [([0.1, 0.2, 0.3], [1.0, 2.0]), ([0.1], [1.0, 2.0]), ([], [])],
                         ids=["longer-inputs", "longer-targets", "empty"])
@pytest.mark.parametrize("grid", [(1.0,), (1.0, 2.0)], ids=["one-penalty", "two-penalties"])
def test_ridge_cv_rejects_mismatched_or_empty_inputs(x, y, grid):
    with pytest.raises(ValueError, match="same nonzero length"):
        ridge_cv(x, y, degree=1, penalty_grid=grid)


@pytest.mark.parametrize("column", [np.zeros(19), np.zeros(21), np.zeros((20, 1)), 0.0],
                         ids=["shorter", "longer", "2-d", "scalar"])
@pytest.mark.parametrize("grid", [(1.0,), (1.0, 2.0)], ids=["one-penalty", "two-penalties"])
def test_ridge_cv_rejects_an_extra_column_that_does_not_match_the_inputs(column, grid):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="extra_column must hold one value per row"):
        ridge_cv(rng.uniform(-1, 1, 20), rng.normal(0, 1, 20), degree=2, penalty_grid=grid, extra_column=column)


def test_ridge_cv_appends_the_extra_column_as_the_last_regressor():
    rng = np.random.default_rng(7)
    x, column = rng.uniform(-1, 1, 30), rng.normal(0, 1, 30)
    fit = ridge_cv(x, 2.0 * column, degree=1, penalty_grid=(1e-12,), extra_column=column)
    assert fit.coefficients.shape == (3,)
    assert fit.coefficients[-1] == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(fit.coefficients[:-1], 0.0, atol=1e-9)


def _no_sweep(*args):
    raise AssertionError("the grid must be checked before any sweep")


@pytest.mark.parametrize("grid, message", [((), "nonempty"), ((1.0, -0.5, 2.0), "nonnegative"),
                                           ((np.nan,), "finite"), ((1.0, np.nan), "finite"), ((np.inf,), "finite")])
def test_ridge_cv_rejects_bad_grid_up_front(monkeypatch, grid, message):
    monkeypatch.setattr(regression, "_fold_penalty_sweep", _no_sweep)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=message):
        ridge_cv(rng.uniform(-1, 1, 40), rng.normal(0, 1, 40), degree=2, penalty_grid=grid)


def test_ridge_prediction_is_pure():
    rng = np.random.default_rng(4)
    fit = ridge_cv(rng.uniform(-1, 1, 20), rng.normal(0, 1, 20), degree=2, penalty_grid=(0.1,))
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


@pytest.mark.parametrize("grid, message", [((), "nonempty"), ((1.0, -0.5, 2.0), "nonnegative"),
                                           ((np.nan,), "finite"), ((1.0, np.nan), "finite"), ((np.inf,), "finite")])
def test_flexible_fit_rejects_bad_grid_up_front(monkeypatch, grid, message):
    monkeypatch.setattr(regression, "_fold_penalty_sweep", _no_sweep)
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match=message):
        flexible_fit(rng.uniform(-1, 1, 200), rng.normal(0, 1, 200), penalty_grid=grid)


def _median_bandwidth_reference(x, rng):
    """The full-distance-matrix form that ``_median_bandwidth`` replaced."""
    sub = x if x.shape[0] <= 1000 else rng.choice(x, size=1000, replace=False)
    dists = np.abs(sub[:, None] - sub[None, :])
    return float(np.median(dists[np.triu_indices(sub.shape[0], k=1)]))


@pytest.mark.parametrize("n", [2, 3, 50, 999, 1000, 1001, 2500])
def test_median_bandwidth_matches_the_distance_matrix(n):
    rng = np.random.default_rng(n)
    for x in (rng.uniform(-1, 1, n), rng.normal(0, 3, n), np.round(rng.uniform(-1, 1, n), 1),
              rng.integers(0, 4, n).astype(float)):  # continuous draws, and draws with many ties
        seed = int(rng.integers(2**32))
        got = regression._median_bandwidth(x, np.random.default_rng(seed))
        assert got == _median_bandwidth_reference(x, np.random.default_rng(seed))


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


def _reference_logistic_fit(x, y, degree, ridge_penalty):
    """The Newton loop that allocated its row-sized temporaries afresh in
    every step: (coefficients, converged, Newton steps taken)."""
    feats = legendre_eval(x, degree)
    p_dim = feats.shape[1]
    coefs = np.zeros(p_dim)

    def objective(c):
        logits = feats @ c
        nll = np.sum(np.logaddexp(0.0, logits) - y * logits)
        return nll + 0.5 * ridge_penalty * float(c @ c), logits

    obj, logits = objective(coefs)
    converged, steps = False, 0
    for _ in range(100):
        probs = expit(logits)
        grad = feats.T @ (probs - y) + ridge_penalty * coefs
        if np.max(np.abs(grad)) < 1e-8:
            converged = True
            break
        w = probs * (1.0 - probs)
        hess = (feats * w[:, None]).T @ feats + ridge_penalty * np.eye(p_dim)
        step = regression._solve_pos(hess, grad)
        steps += 1
        scale = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        for _ in range(30):
            new_coefs = coefs - scale * step
            new_obj, new_logits = objective(new_coefs)
            if new_obj < obj + slack:
                break
            scale *= 0.5
        else:
            break
        coefs, obj, logits = new_coefs, new_obj, new_logits
    else:
        probs = expit(logits)
        grad = feats.T @ (probs - y) + ridge_penalty * coefs
        converged = bool(np.max(np.abs(grad)) < 1e-8)
    return coefs, converged, steps


def _newton_outcome(fit):
    """(coefficient bytes, converged, Newton steps) of ``fit()``, or the type
    of the error it raised; ``fit`` returns (fit, steps) or (coefficients,
    converged, steps)."""
    try:
        with np.errstate(all="ignore"):  # a nearly collinear design can drive the logits to overflow
            out = fit()
    except ValueError as err:  # LinAlgError included
        return type(err)
    if len(out) == 2:
        out = (out[0].coefficients, out[0].converged, out[1])
    return out[0].tobytes(), out[1], out[2]


def _newton_sample(n, labels, seed):
    """Inputs and 0/1 labels for the Newton loop's reference test."""
    rng = np.random.default_rng(seed)
    if labels == "narrow":  # within [0.99, 1], where the Legendre columns are nearly collinear
        x = rng.uniform(0.99, 1.0, n)
        y = (x > np.median(x)).astype(float)  # separated but for the two labels set below
    else:
        x = rng.uniform(-1, 1, n)
        x[:2] = (-0.5, 0.5)
        if labels == "separated":
            return x, (x > 0).astype(float)
        y = (rng.random(n) < 1 / (1 + np.exp(-2 * x))).astype(float)
    y[:2] = (0.0, 1.0)
    return x, y


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3000),
    degree=st.integers(0, 7),
    penalty=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 0.5, 10.0]),
    labels=st.sampled_from(["logistic", "separated", "narrow"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=21_000, degree=7, penalty=1e-4, labels="logistic", seed=1)  # a nuisance fit's size
@example(n=3000, degree=2, penalty=0.0, labels="narrow", seed=0)  # 100 steps, not converged
@example(n=300, degree=2, penalty=0.0, labels="narrow", seed=0)  # no acceptable step
@example(n=300, degree=3, penalty=0.0, labels="narrow", seed=0)  # a singular Hessian
def test_logistic_fit_is_the_reference_newton_loop_bit_for_bit(n, degree, penalty, labels, seed):
    x, y = _newton_sample(n, labels, seed)
    steps = []
    solve = regression._solve_pos

    def counted_fit():
        with pytest.MonkeyPatch.context() as mp:  # one solve per Newton step
            mp.setattr(regression, "_solve_pos", lambda a, b: steps.append(1) or solve(a, b))
            return logistic_fit(x, y, degree, penalty), len(steps)

    got = _newton_outcome(counted_fit)
    assert got == _newton_outcome(lambda: _reference_logistic_fit(x, y, degree, penalty))


def test_logistic_one_class_rejected():
    with pytest.raises(ValueError):
        logistic_fit([0.1, 0.2], [1, 1], degree=0, ridge_penalty=0.1)


@pytest.mark.parametrize("labels", [[0.0, 2.0], [0.5, 1.0], [0.0, -1.0]],
                         ids=["zero-or-two", "half-or-one", "minus-one"])
def test_logistic_fit_rejects_labels_other_than_zero_or_one(labels):
    x = np.linspace(-1, 1, 60)
    y = np.resize(np.asarray(labels), 60)
    with pytest.raises(ValueError, match="0 or 1"):
        logistic_fit(x, y, degree=1, ridge_penalty=1e-6)


# -- malformed input, refused at entry by every public fit ------------------------


def _malformed(case):
    """80 inputs and 0/1 targets, which every public fit accepts, made malformed as ``case`` says."""
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1, 1, 80), (rng.random(80) < 0.5).astype(float)
    y[:2] = (0.0, 1.0)
    if case == "2-d":
        return x.reshape(40, 2), y.reshape(40, 2)
    if case == "longer-targets":
        return x, np.append(y, 1.0)
    what, bad = case.split("-")
    (x if what == "input" else y)[7] = float(bad)
    return x, y


FITS = {
    "ridge_cv": lambda x, y: ridge_cv(x, y, degree=2),
    "flexible_fit": lambda x, y: flexible_fit(x, y, n_features=20),
    "logistic_fit": lambda x, y: logistic_fit(x, y, degree=2, ridge_penalty=1e-6),
}


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("case, message", [
    ("target-nan", "finite"), ("target-inf", "finite"), ("input-nan", "finite"), ("input-inf", "finite"),
    ("2-d", "1-D"), ("longer-targets", "same nonzero length"),
])
def test_fits_reject_malformed_input_at_entry(fit, case, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=message):
            FITS[fit](*_malformed(case))


@pytest.mark.parametrize("fit", FITS)
def test_the_malformed_input_tests_start_from_a_sample_every_fit_accepts(fit):
    FITS[fit](*_malformed("target-0"))  # setting one 0/1 target to 0 leaves it well formed


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ridge_cv_rejects_a_non_finite_extra_column(bad):
    rng = np.random.default_rng(8)
    column = rng.normal(0, 1, 30)
    column[4] = bad
    with pytest.raises(ValueError, match="extra_column must be finite"):
        ridge_cv(rng.uniform(-1, 1, 30), rng.normal(0, 1, 30), degree=1, extra_column=column)
