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
# Rows per block when the CV sweep gathers held-out rows and when the random
# features are evaluated for prediction: a 1024 x 500 block is 4 MiB.  Block
# boundaries at multiples of BLAS's row groups keep predictions bit-identical
# to one product over all rows.
ROW_BLOCK = 1024
EIGH_BYTES = 2**20  # fold Grams per eigh call of the CV sweep: all trial-side folds, one OS fold


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


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, penalty: float) -> np.ndarray:
    p = gram.shape[0]
    if penalty == 0.0:
        eigvals = scipy.linalg.eigvalsh(gram)
        if eigvals[0] <= eigvals[-1] * 1e-12:
            raise IllConditionedError(
                "normal equations are singular at penalty 0; use a positive penalty"
            )
    return _solve_pos(gram + penalty * np.eye(p), rhs)


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


def cv_fold_indices(n: int, n_folds: int, fold_seed: int) -> list[np.ndarray]:
    """Contiguous folds of a seeded permutation of range(n), read-only."""
    return list(_fold_split(n, n_folds, fold_seed))


@lru_cache(maxsize=1)
def _fold_split(n: int, n_folds: int, fold_seed: int) -> tuple[np.ndarray, ...]:
    """The folds of ``cv_fold_indices``, kept for the next call: every trial
    fit of a run shares the arm size and the fold seed."""
    perm = np.random.default_rng(fold_seed).permutation(n)
    perm.flags.writeable = False
    return tuple(np.array_split(perm, n_folds))


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
    per input) appended as the last regressor when given.  Inputs and
    targets of different or zero length, an ``extra_column`` that does not
    match the inputs, too few samples for the folds, an empty grid or a
    negative penalty raise ValueError.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("inputs and targets must have the same nonzero length")
    penalties = _penalties(penalty_grid)
    if len(penalties) > 1 and x.shape[0] < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} samples, one per fold")
    feats = legendre_eval(x, degree)
    if extra_column is not None:
        feats = _augment(feats, per_row(extra_column, x.shape[0], "extra_column"))
    coefs, penalty = _cv_ridge(feats, y, penalties, N_FOLDS, fold_seed)
    return RidgeFit(degree, coefs, penalty)


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

    The folds go in order, as many at a time as keep their Grams within
    ``EIGH_BYTES``.  A fold's training Gram and right-hand side are the full
    ones minus the products of its held-out rows, ``ROW_BLOCK`` at a time; one
    stacked eigendecomposition solves the folds at every penalty, and a second
    pass over the same blocks scores them before the next folds start.
    """
    folds = _fold_split(feats.shape[0], n_folds, fold_seed)
    step = min(n_folds, max(1, EIGH_BYTES // gram_all.nbytes))
    grams, rhs = np.empty((step, *gram_all.shape)), np.empty((step, rhs_all.shape[0]))
    sse = np.zeros(len(penalties))
    for first in range(0, len(folds), step):
        group = folds[first:first + step]
        grams[:], rhs[:] = gram_all, rhs_all
        for k, idx in enumerate(group):
            for rows, y_rows in _held_out_blocks(feats, y, idx):
                grams[k] -= rows.T @ rows
                rhs[k] -= rows.T @ y_rows
        del rows, y_rows  # no block of rows outlives its pass
        coefs = _fold_penalty_sweep(grams[:len(group)], rhs[:len(group)], penalties)
        for k, idx in enumerate(group):
            for rows, y_rows in _held_out_blocks(feats, y, idx):
                resid = y_rows[:, None] - rows @ coefs[k].T
                sse += np.add.reduce(np.square(resid, out=resid), axis=0)
        del rows, y_rows
    return sse / feats.shape[0]


def _held_out_blocks(feats: np.ndarray, y: np.ndarray, idx: np.ndarray):
    """The held-out rows of fold ``idx`` and their targets, ``ROW_BLOCK`` rows
    at a time; every block after the first is gathered into the first's array."""
    rows = None
    for start in range(0, idx.shape[0], ROW_BLOCK):
        part = idx[start:start + ROW_BLOCK]
        # mode="clip": the indices are in range, so take can write straight into out=
        rows = feats.take(part, axis=0, out=None if rows is None else rows[:part.shape[0]], mode="clip")
        yield rows, y[part]


def _fold_penalty_sweep(grams: np.ndarray, rhs: np.ndarray, penalties: Sequence[float]) -> np.ndarray:
    """Coefficients of every fold at every penalty, shape (folds, penalties,
    features), from one stacked eigendecomposition of the folds' Grams."""
    vals, vecs = np.linalg.eigh(grams)
    lams = np.asarray(penalties, dtype=float)
    if 0.0 in penalties and np.any(vals[:, 0] <= vals[:, -1] * 1e-12):
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
        return RandomFeatureFit(np.empty(0), np.empty(0), np.empty(0), float(np.mean(y)), 0.0)
    freqs = rng.standard_normal(n_features) / bandwidth
    phases = rng.uniform(0.0, 2.0 * np.pi, n_features)
    fold_seed = int(rng.integers(2**63))
    y_mean = float(np.mean(y))
    coefs, penalty = _cv_ridge(_cosine_features(x, freqs, phases), y - y_mean, penalties, N_FOLDS, fold_seed)
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

    Both classes must be present.  Convergence means the gradient max-norm
    dropped below ``grad_tol`` = 1e-8 within 100 steps; otherwise the last iterate
    is returned with ``converged=False``.
    """
    grad_tol = 1e-8
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    feats = legendre_eval(x, degree)
    p_dim = feats.shape[1]
    coefs = np.zeros(p_dim)
    # row-sized buffers for every Newton step: logits, a candidate's logits, two work vectors
    logits, new_logits, work, resid = (np.empty(feats.shape[0]) for _ in range(4))
    weighted = np.empty_like(feats)  # the Hessian's weighted design

    def objective(c, out):
        """The penalized objective at ``c``; the logits it was computed from go to ``out``."""
        np.matmul(feats, c, out=out)
        # log(1 + exp(logits)) - y*logits, computed stably
        losses = np.subtract(np.logaddexp(0.0, out, out=work), np.multiply(y, out, out=resid), out=work)
        return np.sum(losses) + 0.5 * ridge_penalty * float(c @ c)

    def gradient(c, logits):
        """The gradient at ``c`` from its ``logits``; ``work`` keeps the probabilities."""
        probs = expit(logits, out=work)
        return feats.T @ np.subtract(probs, y, out=resid) + ridge_penalty * c

    obj = objective(coefs, logits)
    converged = False
    for _ in range(100):
        grad = gradient(coefs, logits)
        if np.max(np.abs(grad)) < grad_tol:
            converged = True
            break
        w = np.multiply(work, np.subtract(1.0, work, out=resid), out=resid)  # p(1 - p)
        hess = np.einsum("ij,i->ij", feats, w, out=weighted).T @ feats + ridge_penalty * np.eye(p_dim)
        step = _solve_pos(hess, grad)
        # Halve the step until the objective decreases (up to float resolution;
        # near the optimum the true decrease falls below machine precision).
        scale = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        for _ in range(30):
            new_coefs = coefs - scale * step
            new_obj = objective(new_coefs, new_logits)
            if new_obj < obj + slack:
                break
            scale *= 0.5
        else:
            break  # no acceptable step; stop with the current iterate
        coefs, obj = new_coefs, new_obj
        logits, new_logits = new_logits, logits
    else:
        converged = bool(np.max(np.abs(gradient(coefs, logits))) < grad_tol)
    return LogisticFit(degree, coefs, converged)
