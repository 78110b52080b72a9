"""Function fitting on [-1, 1].

Everything the estimators fit lives here: the orthonormal Legendre basis,
ridge regression on that basis (with 5-fold cross-validation over a penalty
grid), a random-cosine-features regressor that plays the role of the flexible
observational predictor, and penalized logistic regression for participation
probabilities.  Each takes arrays: a column appended to a ridge design is
given as its values on the inputs, not as a function to evaluate.

All fits penalize every coefficient, the constant term included, and are
deterministic given their explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.special import expit

DEFAULT_PENALTY_GRID = tuple(np.logspace(-6, 2, 10))
N_FOLDS = 5  # folds of every cross-validated fit
# Rows per block when the random features are evaluated for prediction: a
# 1024 x 500 block is 4 MiB.  Block boundaries at multiples of BLAS's row
# groups keep predictions bit-identical to one product over all rows.
ROW_BLOCK = 1024


class IllConditionedError(ValueError):
    """Unpenalized normal equations are numerically singular."""


def legendre_eval(x, degree: int) -> np.ndarray:
    """Evaluate the normalized Legendre polynomials phi_0..phi_degree.

    phi_k(x) = sqrt((2k+1)/2) * P_k(x), so that the phi_k are orthonormal
    under the plain (unweighted) inner product on [-1, 1].  Scalar input
    yields shape (degree+1,); an array of shape (n,) yields (n, degree+1).
    Inputs may exceed [-1, 1] by at most 1e-12 and are clamped.  The
    recurrence P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1) runs in place in
    three rotating vectors; a degree's columns lead every higher degree's.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if x.size:
        lo, hi = x.min(), x.max()
        if not (lo >= -1 - 1e-12 and hi <= 1 + 1e-12):  # a NaN fails both
            raise ValueError("inputs must lie in [-1, 1]")
        if lo < -1.0 or hi > 1.0:
            x = np.clip(x, -1.0, 1.0)
    out = np.empty((x.shape[0], degree + 1))
    out[:, 0] = np.sqrt(0.5)
    if degree >= 1:
        np.multiply(x, np.sqrt(1.5), out=out[:, 1])
        prev, cur, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
        for k in range(1, degree):
            np.multiply(x, 2 * k + 1, out=nxt)
            nxt *= cur
            prev *= k
            nxt -= prev
            nxt /= k + 1
            np.multiply(nxt, np.sqrt((2 * k + 3) / 2), out=out[:, k + 1])
            prev, cur, nxt = cur, nxt, prev
    return out[0] if scalar else out


def _reject_singular(eigvals: np.ndarray) -> None:
    """IllConditionedError if a Gram, or one of a stack, whose ascending eigenvalues are ``eigvals`` is singular."""
    if np.any(eigvals[..., 0] <= eigvals[..., -1] * 1e-12):
        raise IllConditionedError("normal equations are singular at penalty 0; use a positive penalty")


def _solve_pos(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve(a, b, assume_a="pos")`` bit for bit (LAPACK posv on
    the upper triangle; a 1 x 1 system as b / a) without its condition
    estimate and warning: ValueError on non-finite input, LinAlgError (a
    ValueError) if ``a`` is not positive definite."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if a.shape[0] == 1:
        if a[0, 0] == 0.0:
            raise np.linalg.LinAlgError("A singular matrix detected.")
        return b / a[0]
    _, x, info = scipy.linalg.lapack.dposv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("the matrix is not positive definite")
    return x


@dataclass(frozen=True)
class RidgeFit:
    """Ridge regression on the normalized Legendre basis.  A fit with an
    ``extra_column`` has one coefficient more than the basis, for that
    column, whose values ``predict`` does not have."""

    degree: int
    coefficients: np.ndarray
    penalty: float

    def predict(self, x) -> np.ndarray:
        return legendre_eval(np.atleast_1d(np.asarray(x, dtype=float)), self.degree) @ self.coefficients


def _augment(feats: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The Legendre features with ``column`` appended as the last regressor."""
    return np.column_stack([feats, column])


def per_row(values, n: int, what: str) -> np.ndarray:
    """``values`` as a float array; ValueError unless it is 1-D with one value
    for each of ``n`` rows."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{what} must hold one value per row, {n} in all; got shape {values.shape}")
    return values


def _sample(inputs, targets, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``inputs`` and ``targets`` as float arrays; ValueError unless both are
    one-dimensional and finite, of the same nonzero length."""
    x, y = np.asarray(inputs, dtype=float), np.asarray(targets, dtype=float)
    if x.ndim != 1 or y.shape != x.shape or x.size == 0:
        raise ValueError(f"inputs and {what} must be 1-D of the same nonzero length, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"inputs and {what} must be finite")
    return x, y


@lru_cache(maxsize=1)
def _fold_split(n: int, fold_seed: int) -> tuple[np.ndarray, ...]:
    """``N_FOLDS`` contiguous folds of a seeded permutation of range(n),
    read-only, kept for the next call: every trial fit of a run shares the
    arm size and the fold seed."""
    perm = np.random.default_rng(fold_seed).permutation(n)
    perm.flags.writeable = False
    return tuple(np.array_split(perm, N_FOLDS))


def ridge_cv(
    inputs,
    targets,
    degree: int,
    penalty_grid: Sequence[float] = DEFAULT_PENALTY_GRID,
    fold_seed: int = 0,
    extra_column=None,
) -> RidgeFit:
    """Ridge fit with the penalty chosen by ``N_FOLDS``-fold cross-validation.

    Penalized least squares of ``targets`` on the design F of ``inputs``:
    (F'F + penalty I) c = F'y, which raises if penalty=0 and F'F is singular.
    Held-out squared error is pooled over all points (each is held out
    exactly once); exact ties go to the larger penalty.  The winner is
    refit on all the data; a one-element grid makes no folds and is that
    one solve.  F is the Legendre design, with ``extra_column`` (one value
    per input) appended as the last regressor when given.  Inputs, targets
    and ``extra_column`` that are not one-dimensional and finite, of one
    nonzero length, too few samples for the folds, an empty grid or a
    negative or non-finite penalty raise ValueError.
    """
    x, y = _sample(inputs, targets, "targets")
    penalties = _penalties(penalty_grid)
    if len(penalties) > 1 and x.shape[0] < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} samples, one per fold")
    feats = legendre_eval(x, degree)
    if extra_column is not None:
        column = per_row(extra_column, x.shape[0], "extra_column")
        if not np.isfinite(column).all():
            raise ValueError("extra_column must be finite")
        feats = _augment(feats, column)
    coefs, penalty = _cv_ridge(feats, y, penalties, fold_seed)
    return RidgeFit(degree, coefs, penalty)


def _penalties(penalty_grid: Sequence[float]) -> list[float]:
    """The grid in ascending order; ValueError if it is empty or a penalty is negative or not finite."""
    penalties = sorted(penalty_grid)
    if not penalties:
        raise ValueError("penalty grid must be nonempty")
    if not all(0.0 <= p < np.inf for p in penalties):  # a NaN fails both
        raise ValueError(f"penalty must be nonnegative and finite, got {penalty_grid}")
    return penalties


def _cv_ridge(feats: np.ndarray, y: np.ndarray, penalties: list[float], fold_seed: int) -> tuple[np.ndarray, float]:
    """Coefficients at the cross-validated penalty of the ascending
    ``penalties``, and that penalty.

    The full-design Gram and right-hand side are formed once; the sweep
    works in the Gram's range and the winner is solved from them, so the
    coefficients depend on the sweep only through the penalty it picks.
    Penalty 0 needs a nonsingular full Gram, checked before any sweep: a
    singular one makes every fold's singular, even where its range is not.
    """
    gram = feats.T @ feats
    rhs = feats.T @ y
    if penalties[0] == 0.0:
        _reject_singular(scipy.linalg.eigvalsh(gram))
    best = 0  # a one-element grid needs no sweep
    if len(penalties) > 1:
        errors = _cv_errors(feats, y, gram, rhs, penalties, fold_seed)
        best = max(np.flatnonzero(errors == errors.min()))  # ties -> larger penalty
    return _solve_pos(gram + penalties[best] * np.eye(gram.shape[0]), rhs), penalties[best]


def _cv_errors(
    feats: np.ndarray, y: np.ndarray, gram_all: np.ndarray, rhs_all: np.ndarray,
    penalties: Sequence[float], fold_seed: int,
) -> np.ndarray:
    """Pooled held-out squared error per penalty, in the range V of the full
    Gram: its eigenvectors above float precision times its top eigenvalue (the
    rest are rounding; the OS predictor's 500 features keep 14-18, a full-rank
    design all).  The design is rotated once, z = F V, and each fold's held-out
    rows z_k, y_k are read once, for the moments z_k'z_k, z_k'y_k and y_k'y_k.
    Fold k solves diag(eigenvalues) - z_k'z_k against V'F'y - z_k'y_k, one
    stacked eigendecomposition for every fold at every penalty, and its
    solution c scores y_k'y_k - 2 c'z_k'y_k + c'z_k'z_k c."""
    vals, vecs = np.linalg.eigh(gram_all)
    keep = vals > np.finfo(float).eps * vals[-1]
    vecs = vecs[:, keep]
    z = feats @ vecs
    moments = []
    for idx in _fold_split(feats.shape[0], fold_seed):
        z_k, y_k = z[idx], y[idx]
        moments.append((z_k.T @ z_k, y_k @ z_k, y_k @ y_k))
    zz, zy, yy = (np.array(m) for m in zip(*moments))
    coefs = _fold_penalty_sweep(np.diag(vals[keep]) - zz, rhs_all @ vecs - zy, penalties)
    # per (fold, penalty): c'(z'z c - 2 z'y), summed over folds beside the y'y
    sse = np.sum(coefs * (coefs @ zz - 2.0 * zy[:, None, :]), axis=(0, 2)) + yy.sum()
    return sse / feats.shape[0]


def _fold_penalty_sweep(grams: np.ndarray, rhs: np.ndarray, penalties: Sequence[float]) -> np.ndarray:
    """Coefficients of every fold at every penalty, shape (folds, penalties,
    unknowns), from one stacked eigendecomposition of the folds' Grams."""
    vals, vecs = np.linalg.eigh(grams)
    lams = np.asarray(penalties, dtype=float)
    if 0.0 in penalties:
        _reject_singular(vals)
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
    penalty: float

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
    """The median pairwise distance of (a 1000-point subsample of) ``x``, taken
    row by row so that no n x n distance matrix is formed."""
    sub = x if x.shape[0] <= 1000 else rng.choice(x, size=1000, replace=False)
    return float(np.median(np.concatenate([np.abs(sub[i + 1:] - sub[i]) for i in range(sub.shape[0] - 1)])))


def flexible_fit(
    inputs,
    targets,
    n_features: int = 500,
    penalty_grid: Sequence[float] = DEFAULT_PENALTY_GRID,
    seed: int = 0,
) -> RandomFeatureFit:
    """Fit the flexible predictor: random cosine features + cross-validated ridge.

    Requires at least 50 training points.  Targets are centered so the
    intercept is not penalized; training MSE therefore never exceeds the
    target variance.  All-identical inputs fall back to the target mean.
    Inputs and targets that are not one-dimensional and finite, of one
    length, an empty grid or a negative or non-finite penalty raise ValueError.
    """
    x, y = _sample(inputs, targets, "targets")
    penalties = _penalties(penalty_grid)
    if x.shape[0] < 50:
        raise ValueError("flexible fit needs at least 50 training points")
    rng = np.random.default_rng(seed)
    bandwidth = _median_bandwidth(x, rng)
    if bandwidth == 0.0:  # degenerate: a single distinct input value
        return RandomFeatureFit(np.empty(0), np.empty(0), np.empty(0), float(np.mean(y)), 0.0)
    freqs = rng.standard_normal(n_features) / bandwidth
    phases = rng.uniform(0.0, 2.0 * np.pi, n_features)
    fold_seed = int(rng.integers(2**63))
    y_mean = float(np.mean(y))
    coefs, penalty = _cv_ridge(_cosine_features(x, freqs, phases), y - y_mean, penalties, fold_seed)
    return RandomFeatureFit(freqs, phases, coefs, y_mean, penalty)


@dataclass(frozen=True)
class LogisticFit:
    """Ridge-penalized logistic regression on the Legendre basis."""

    degree: int
    coefficients: np.ndarray
    converged: bool

    def predict(self, x) -> np.ndarray:
        """Predicted probabilities, strictly inside (0, 1)."""
        logits = legendre_eval(np.atleast_1d(np.asarray(x, dtype=float)), self.degree) @ self.coefficients
        return np.clip(expit(logits), 1e-12, 1 - 1e-12)


def logistic_fit(inputs, labels, degree: int, ridge_penalty: float) -> LogisticFit:
    """Maximize the penalized Bernoulli log-likelihood by damped Newton steps.

    Inputs must be 1-D and finite, with one label, 0 or 1, each and both
    classes present (else ValueError).  Convergence means the gradient
    max-norm dropped below ``grad_tol`` = 1e-8 within 100 steps; otherwise
    the last iterate is returned with ``converged=False``.
    """
    grad_tol = 1e-8
    x, y = _sample(inputs, labels, "labels")
    if not ((y == 0.0) | (y == 1.0)).all() or y.min() == y.max():
        raise ValueError("labels must be 0 or 1, and both classes must be present")
    feats = legendre_eval(x, degree)

    def objective(c):
        """The penalized objective at ``c`` and its logits z, with log(1 + e^z) computed stably."""
        z = feats @ c
        nll = np.sum(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z)
        return nll + 0.5 * ridge_penalty * float(c @ c), z

    coefs = np.zeros(feats.shape[1])
    obj, logits = objective(coefs)
    for newton_step in range(101):  # 100 steps, then the last iterate's gradient
        probs = expit(logits)
        grad = feats.T @ (probs - y) + ridge_penalty * coefs
        if np.max(np.abs(grad)) < grad_tol or newton_step == 100:
            break
        w = probs * (1.0 - probs)
        hess = (feats * w[:, None]).T @ feats + ridge_penalty * np.eye(coefs.size)
        step = _solve_pos(hess, grad)
        # Halve the step until the objective decreases (up to float resolution;
        # near the optimum the true decrease falls below machine precision).
        slack = 1e-12 * (1.0 + abs(obj))
        for halvings in range(30):
            new_coefs = coefs - 0.5**halvings * step
            new_obj, new_logits = objective(new_coefs)
            if new_obj < obj + slack:
                break
        if not new_obj < obj + slack:
            break  # no acceptable step; stop with the current iterate
        coefs, obj, logits = new_coefs, new_obj, new_logits
    return LogisticFit(degree, coefs, bool(np.max(np.abs(grad)) < grad_tol))
