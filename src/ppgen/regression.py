"""Function fitting on [-1, 1].

Everything the estimators fit lives here: the orthonormal Legendre basis,
ridge regression on that basis (with 5-fold cross-validation over a penalty
grid), a random-cosine-features regressor that plays the role of the flexible
observational predictor, and penalized logistic regression for participation
probabilities.

All fits penalize every coefficient, the constant term included, and are
deterministic given their explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.special import expit

DEFAULT_PENALTY_GRID = tuple(np.logspace(-6, 2, 10))
# Rows per block when the CV sweep gathers held-out rows and when the random
# features are evaluated for prediction: a 1024 x 500 block is 4 MiB.  Block
# boundaries at multiples of BLAS's row groups keep predictions bit-identical
# to one product over all rows.
ROW_BLOCK = 1024


class IllConditionedError(ValueError):
    """Unpenalized normal equations are numerically singular."""


def legendre_eval(x, degree: int) -> np.ndarray:
    """Evaluate the normalized Legendre polynomials phi_0..phi_degree.

    phi_k(x) = sqrt((2k+1)/2) * P_k(x), so that the phi_k are orthonormal
    under the plain (unweighted) inner product on [-1, 1].  Scalar input
    yields shape (degree+1,); an array of shape (n,) yields (n, degree+1).
    Inputs may exceed [-1, 1] by at most 1e-12 and are clamped.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
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


def ridge_solve(features: np.ndarray, targets: np.ndarray, penalty: float) -> np.ndarray:
    """Solve (F'F + penalty I) c = F'y.  Raises if penalty=0 and F'F is singular."""
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")
    gram = features.T @ features
    rhs = features.T @ targets
    return _solve_gram(gram, rhs, penalty)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, penalty: float) -> np.ndarray:
    p = gram.shape[0]
    if penalty == 0.0:
        eigvals = scipy.linalg.eigvalsh(gram)
        if eigvals[0] <= eigvals[-1] * 1e-12:
            raise IllConditionedError(
                "normal equations are singular at penalty 0; use a positive penalty"
            )
    return scipy.linalg.solve(gram + penalty * np.eye(p), rhs, assume_a="pos")


@dataclass(frozen=True)
class RidgeFit:
    """Ridge regression on the normalized Legendre basis.

    ``extra_column`` optionally appends one raw regressor (a fitted
    prediction column) after the polynomial features; it is the augmented
    design used by the augmented outcome model.
    """

    degree: int
    coefficients: np.ndarray
    penalty: float
    extra_column: object | None = None  # Predictor appended as a final feature

    def features(self, x) -> np.ndarray:
        return _design(np.atleast_1d(np.asarray(x, dtype=float)), self.degree, self.extra_column)

    def predict(self, x) -> np.ndarray:
        return self.features(x) @ self.coefficients


def _design(x: np.ndarray, degree: int, extra: object | None) -> np.ndarray:
    feats = legendre_eval(x, degree)
    return feats if extra is None else _augment(feats, extra.predict(x))


def _augment(feats: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The Legendre features with ``column`` appended as the last regressor."""
    return np.column_stack([feats, column])


def ridge_fit(
    inputs, targets, degree: int, penalty: float, extra_column: object | None = None
) -> RidgeFit:
    """Penalized least squares of ``targets`` on Legendre features of ``inputs``."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("inputs and targets must have the same nonzero length")
    coefs = ridge_solve(_design(x, degree, extra_column), y, penalty)
    return RidgeFit(degree, coefs, penalty, extra_column)


def cv_fold_indices(n: int, n_folds: int, fold_seed: int) -> list[np.ndarray]:
    """Contiguous folds of a seeded permutation of range(n)."""
    perm = np.random.default_rng(fold_seed).permutation(n)
    return np.array_split(perm, n_folds)


def ridge_cv(
    inputs,
    targets,
    degree: int,
    penalty_grid: Sequence[float] = DEFAULT_PENALTY_GRID,
    n_folds: int = 5,
    fold_seed: int = 0,
    extra_column: object | None = None,
) -> RidgeFit:
    """Ridge fit with the penalty chosen by k-fold cross-validation.

    Held-out squared error is pooled over all points (each is held out
    exactly once); exact ties go to the larger penalty.  The winner is
    refit on all the data, so a one-element grid reproduces ridge_fit.
    An empty grid or a negative penalty raises ValueError.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    penalties = _penalties(penalty_grid)
    if x.shape[0] < n_folds or n_folds < 2:
        raise ValueError("need at least n_folds samples and n_folds >= 2")
    coefs, penalty = _cv_ridge(_design(x, degree, extra_column), y, penalties, n_folds, fold_seed)
    return RidgeFit(degree, coefs, penalty, extra_column)


def _penalties(penalty_grid: Sequence[float]) -> list[float]:
    """The grid in ascending order; ValueError if it is empty or has a negative penalty."""
    penalties = sorted(penalty_grid)
    if not penalties:
        raise ValueError("penalty grid must be nonempty")
    if penalties[0] < 0:
        raise ValueError("penalty must be nonnegative")
    return penalties


def _cv_ridge(
    feats: np.ndarray, y: np.ndarray, penalties: list[float], n_folds: int, fold_seed: int
) -> tuple[np.ndarray, float]:
    """Coefficients at the cross-validated penalty, and that penalty.

    The full-design Gram and right-hand side are formed once; the folds
    subtract their held-out rows from them and the winner is solved from them.
    """
    gram = feats.T @ feats
    rhs = feats.T @ y
    best = 0  # a one-element grid needs no sweep
    if len(penalties) > 1:
        errors = _cv_errors(feats, y, gram, rhs, penalties, n_folds, fold_seed)
        best = max(np.flatnonzero(errors == errors.min()))  # ties -> larger penalty
    return _solve_gram(gram, rhs, penalties[best]), penalties[best]


def _cv_errors(
    feats: np.ndarray, y: np.ndarray, gram_all: np.ndarray, rhs_all: np.ndarray,
    penalties: Sequence[float], n_folds: int, fold_seed: int,
) -> np.ndarray:
    """Pooled held-out squared error per penalty.

    Every fold's training Gram and right-hand side are the full ones minus the
    products of its held-out rows; one stacked eigendecomposition solves all
    folds at all penalties; a second pass scores the held-out rows.  Both
    passes gather the held-out rows ``ROW_BLOCK`` at a time into one buffer,
    so no fold's rows are ever copied whole.
    """
    folds = cv_fold_indices(feats.shape[0], n_folds, fold_seed)
    coefs = _fold_penalty_sweep(*_training_grams(feats, y, folds, gram_all, rhs_all), penalties)
    sse = np.zeros(len(penalties))
    for k, rows, y_rows in _held_out_blocks(feats, y, folds):
        resid = y_rows[:, None] - rows @ coefs[k].T
        sse += np.sum(resid**2, axis=0)
    return sse / feats.shape[0]


def _training_grams(
    feats: np.ndarray, y: np.ndarray, folds: list[np.ndarray], gram_all: np.ndarray, rhs_all: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every fold's training Gram and right-hand side, stacked: the full ones
    minus the products of the fold's held-out blocks."""
    grams = np.repeat(gram_all[None], len(folds), axis=0)
    rhs = np.repeat(rhs_all[None], len(folds), axis=0)
    for k, rows, y_rows in _held_out_blocks(feats, y, folds):
        grams[k] -= rows.T @ rows
        rhs[k] -= rows.T @ y_rows
    return grams, rhs


def _held_out_blocks(feats: np.ndarray, y: np.ndarray, folds: list[np.ndarray]):
    """(fold number, held-out rows, their targets) for each block of at most
    ``ROW_BLOCK`` rows of each fold.  The rows are gathered into one buffer
    and hold only until the next block."""
    buf = np.empty((min(ROW_BLOCK, max(idx.shape[0] for idx in folds)), feats.shape[1]))
    for k, idx in enumerate(folds):
        for start in range(0, idx.shape[0], ROW_BLOCK):
            part = idx[start:start + ROW_BLOCK]
            # mode="clip" lets take write straight into out= (the indices are in range)
            yield k, np.take(feats, part, axis=0, out=buf[:part.shape[0]], mode="clip"), y[part]


def _fold_penalty_sweep(grams: np.ndarray, rhs: np.ndarray, penalties: Sequence[float]) -> np.ndarray:
    """Coefficients of every fold at every penalty, shape (folds, penalties,
    features), from one stacked eigendecomposition of the folds' Grams."""
    vals, vecs = np.linalg.eigh(grams)
    lams = np.asarray(penalties, dtype=float)
    if np.any(lams == 0.0) and np.any(vals[:, 0] <= vals[:, -1] * 1e-12):
        raise IllConditionedError(
            "normal equations are singular at penalty 0; use a positive penalty"
        )
    proj = np.matmul(rhs[:, None, :], vecs)  # (folds, 1, features): vecs' rhs
    return (proj / (vals[:, None, :] + lams[None, :, None])) @ vecs.transpose(0, 2, 1)


def _cosine_features(
    x: np.ndarray, freqs: np.ndarray, phases: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Random cosine features sqrt(2/m) cos(x w + b), built in one buffer
    (``out`` when given)."""
    out = np.multiply(x[:, None], freqs[None, :], out=out)
    out += phases[None, :]
    np.cos(out, out=out)
    out *= np.sqrt(2.0 / freqs.shape[0])
    return out


@dataclass(frozen=True)
class RandomFeatureFit:
    """Ridge regression on random cosine features of a scalar input.

    Approximates a squared-exponential kernel machine; the flexible
    stand-in for a black-box predictor trained on a large sample.
    """

    frequencies: np.ndarray
    phases: np.ndarray
    coefficients: np.ndarray
    intercept: float
    bandwidth: float
    penalty: float
    seed: int

    def predict(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.coefficients.size == 0:  # degenerate constant fallback
            return np.full(x.shape[0], self.intercept)
        # ROW_BLOCK rows of features at a time, each block's products written into the output
        out = np.empty(x.shape[0])
        feats = np.empty((min(ROW_BLOCK + 1, x.shape[0]), self.frequencies.shape[0]))
        for start, stop in _row_blocks(x.shape[0]):
            rows = _cosine_features(x[start:stop], self.frequencies, self.phases, out=feats[:stop - start])
            np.matmul(rows, self.coefficients, out=out[start:stop])
        out += self.intercept
        return out


def _row_blocks(n: int):
    """(start, stop) of consecutive blocks of ``ROW_BLOCK`` rows out of ``n``.
    A last block of one row joins the block before it: numpy forms a one-row
    product as a dot product, whose sum can differ in the last bit from the
    matrix-vector kernel's."""
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _median_bandwidth(x: np.ndarray, rng: np.random.Generator) -> float:
    sub = x if x.shape[0] <= 1000 else rng.choice(x, size=1000, replace=False)
    dists = np.abs(sub[:, None] - sub[None, :])
    med = float(np.median(dists[np.triu_indices(sub.shape[0], k=1)]))
    return med


def flexible_fit(
    inputs,
    targets,
    n_features: int = 500,
    penalty_grid: Sequence[float] = DEFAULT_PENALTY_GRID,
    seed: int = 0,
    n_folds: int = 5,
) -> RandomFeatureFit:
    """Fit the flexible predictor: random cosine features + cross-validated ridge.

    Requires at least 50 training points.  Targets are centered so the
    intercept is not penalized; training MSE therefore never exceeds the
    target variance.  All-identical inputs fall back to the target mean.
    An empty grid or a negative penalty raises ValueError.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    penalties = _penalties(penalty_grid)
    if x.shape[0] < 50:
        raise ValueError("flexible fit needs at least 50 training points")
    rng = np.random.default_rng(seed)
    bandwidth = _median_bandwidth(x, rng)
    if bandwidth == 0.0:  # degenerate: a single distinct input value
        return RandomFeatureFit(
            frequencies=np.empty(0),
            phases=np.empty(0),
            coefficients=np.empty(0),
            intercept=float(np.mean(y)),
            bandwidth=1.0,
            penalty=0.0,
            seed=seed,
        )
    freqs = rng.standard_normal(n_features) / bandwidth
    phases = rng.uniform(0.0, 2.0 * np.pi, n_features)
    fold_seed = int(rng.integers(2**63))
    y_mean = float(np.mean(y))
    coefs, penalty = _cv_ridge(_cosine_features(x, freqs, phases), y - y_mean, penalties, n_folds, fold_seed)
    return RandomFeatureFit(freqs, phases, coefs, y_mean, bandwidth, penalty, seed)


@dataclass(frozen=True)
class LogisticFit:
    """Ridge-penalized logistic regression on the Legendre basis."""

    degree: int
    coefficients: np.ndarray
    penalty: float
    converged: bool

    def predict(self, x) -> np.ndarray:
        """Predicted probabilities, strictly inside (0, 1)."""
        logits = legendre_eval(np.atleast_1d(np.asarray(x, dtype=float)), self.degree) @ self.coefficients
        return np.clip(expit(logits), 1e-12, 1 - 1e-12)


def logistic_fit(
    inputs,
    labels,
    degree: int,
    ridge_penalty: float,
    max_iter: int = 100,
    grad_tol: float = 1e-8,
) -> LogisticFit:
    """Maximize the penalized Bernoulli log-likelihood by damped Newton steps.

    Both classes must be present.  Convergence means the gradient max-norm
    dropped below ``grad_tol``; otherwise the last iterate is returned with
    ``converged=False``.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    feats = legendre_eval(x, degree)
    p_dim = feats.shape[1]
    coefs = np.zeros(p_dim)
    weighted = np.empty_like(feats)  # feats * w[:, None], one buffer for every Newton step

    def objective(c):
        """The penalized objective at ``c``, and the logits it was computed from."""
        logits = feats @ c
        # log(1 + exp(logits)) - y*logits, computed stably
        nll = np.sum(np.logaddexp(0.0, logits) - y * logits)
        return nll + 0.5 * ridge_penalty * float(c @ c), logits

    obj, logits = objective(coefs)
    converged = False
    for _ in range(max_iter):
        probs = expit(logits)
        grad = feats.T @ (probs - y) + ridge_penalty * coefs
        if np.max(np.abs(grad)) < grad_tol:
            converged = True
            break
        w = probs * (1.0 - probs)
        hess = np.multiply(feats, w[:, None], out=weighted).T @ feats + ridge_penalty * np.eye(p_dim)
        step = scipy.linalg.solve(hess, grad, assume_a="pos")
        # Halve the step until the objective decreases (up to float resolution;
        # near the optimum the true decrease falls below machine precision).
        scale = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        for _ in range(30):
            new_coefs = coefs - scale * step
            new_obj, new_logits = objective(new_coefs)
            if new_obj < obj + slack:
                break
            scale *= 0.5
        else:
            break  # no acceptable step; stop with the current iterate
        coefs, obj, logits = new_coefs, new_obj, new_logits
    else:
        probs = expit(logits)
        grad = feats.T @ (probs - y) + ridge_penalty * coefs
        converged = bool(np.max(np.abs(grad)) < grad_tol)
    return LogisticFit(degree, coefs, ridge_penalty, converged)


@dataclass(frozen=True)
class ConstantPredictor:
    """A fixed constant as a predictor; handy as a zero or offset function."""

    value: float

    def predict(self, x) -> np.ndarray:
        return np.full(np.atleast_1d(np.asarray(x, dtype=float)).shape[0], self.value)


@dataclass(frozen=True)
class CallablePredictor:
    """Wrap a plain vectorized function as a predictor."""

    fn: object

    def predict(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_1d(np.asarray(x, dtype=float))), dtype=float)
