"""Synthetic data generation.

A *world* is one fully specified data-generating process: an outcome surface
per treatment arm, a trial-participation logit, and an observational
treatment-assignment logit, each either a Gaussian-process draw realized on a
lattice or a degree-5 polynomial (the GLM variant).

GP surfaces use the composite kernel

    k((x,u),(x',u')) = a_x x x' + a_u u u' + exp(-(x-x')^2 / (2 l_x^2)
                                                -(u-u')^2 / (2 l_u^2)),

where an inactive length-scale makes the corresponding SE factor identically
one.  Because the kernel is a linear part plus a separable SE product, a draw
decomposes into a random linear trend plus a Kronecker-factorized SE field;
this costs one Cholesky per axis (O(G^3) on the G-point lattice) instead of a
factorization of the full G^2 x G^2 covariance, and is exact in distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit, ndtri

from .domain import (
    OS,
    TARGET,
    TREATMENT_PROB,
    TRIAL,
    CompositeSample,
    GenerationError,
    GlmParams,
    KernelParams,
)

PROB_CLIP = (0.1, 0.9)  # positivity floor/ceiling for GP-drawn probabilities


@dataclass(frozen=True)
class GridFunction:
    """A function on [-1,1]^2 stored as lattice values with bilinear interpolation."""

    values: np.ndarray  # shape (G, G); values[i, j] = f(x_i, u_j)

    @property
    def grid_size(self) -> int:
        return self.values.shape[0]

    def __call__(self, x, u, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear values at (x, u) in their broadcast shape, written into and
        returned as ``out`` when that is given, which must have the shape.
        Coordinates outside [-1, 1] clamp to the edge; NaN raises ValueError."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        g = self.grid_size - 1
        tx = np.clip((x + 1.0) * 0.5 * g, 0.0, g)
        tu = np.clip((u + 1.0) * 0.5 * g, 0.0, g)
        if np.isnan(tx).any() or np.isnan(tu).any():
            raise ValueError("GridFunction cannot evaluate at NaN")
        ix = np.minimum(tx.astype(np.int64), g - 1)
        iu = np.minimum(tu.astype(np.int64), g - 1)
        fx = tx - ix
        fu = tu - iu
        gx, gu = 1 - fx, 1 - fu
        if x.ndim == 2 and u.ndim == 2 and x.shape[1] == 1 and u.shape[0] == 1:
            # An outer grid of n x rows by m u columns: the lattice columns at
            # the m u indices are gathered once into two (G, m) tables, and
            # each corner takes whole rows of one by the x index.
            rows, tables = ix[:, 0], (self.values[:, iu[0]], self.values[:, iu[0] + 1])

            def corner(i, j, out):
                return tables[j].take(rows + i, axis=0, out=out, mode="clip")
        else:
            # values[ix + i, iu + j] is the row-major lattice at k + i*G + j.
            k, flat = ix * self.grid_size + iu, self.values.ravel()

            def corner(i, j, out):
                return flat[i * self.grid_size + j :].take(k, out=out, mode="clip")
        # The four corner terms are formed and summed in place, in the order of
        # v00*gx*gu + v10*fx*gu + v01*gx*fu + v11*fx*fu, so both paths give the
        # same values.  Without NaN every index is in range, so the gathers run
        # in "clip" mode, which numpy, unlike the default mode, does not buffer
        # when it writes into an ``out``; an ``out`` of another shape raises
        # ValueError.
        out = corner(0, 0, out)
        out *= gx
        out *= gu
        term = np.empty_like(out)
        for i, j, wx, wu in ((1, 0, fx, gu), (0, 1, gx, fu), (1, 1, fx, fu)):
            corner(i, j, term)
            term *= wx
            term *= wu
            out += term
        return out


def _se_factor_cholesky(lattice: np.ndarray, length_scale: float | None) -> np.ndarray:
    """Cholesky factor of one SE axis kernel; a ones column when inactive."""
    if length_scale is None:
        return np.ones((lattice.shape[0], 1))
    diff = lattice[:, None] - lattice[None, :]
    k = np.exp(-(diff**2) / (2.0 * length_scale**2))
    jitter = 1e-8
    while jitter <= 1e-4:
        try:
            return np.linalg.cholesky(k + jitter * np.eye(lattice.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise GenerationError("SE kernel factorization failed even at jitter 1e-4")


def sample_gp(params: KernelParams, grid_size: int = 101, seed: int = 0) -> GridFunction:
    """Draw one zero-mean GP surface with the composite kernel on the lattice.

    The linear kernel part is a random plane sqrt(a_x) A x + sqrt(a_u) B u
    with A, B standard normal; the SE part is L_x Z L_u' with Z standard
    normal, which realizes the separable SE covariance exactly.
    """
    if not 21 <= grid_size <= 301:
        raise ValueError("grid_size must lie in [21, 301]")
    rng = np.random.default_rng(seed)
    lattice = np.linspace(-1.0, 1.0, grid_size)
    a, b = rng.standard_normal(2)
    latent = rng.standard_normal((grid_size, grid_size))
    lx = _se_factor_cholesky(lattice, params.l_x)
    lu = _se_factor_cholesky(lattice, params.l_u)
    se_part = lx @ latent[: lx.shape[1], : lu.shape[1]] @ lu.T
    linear = (
        np.sqrt(params.alpha_x) * a * lattice[:, None]
        + np.sqrt(params.alpha_u) * b * lattice[None, :]
    )
    return GridFunction(linear + se_part)


def _glm_poly(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """sum_j coefs[j-1] x^j (no constant term), by Horner's rule."""
    out = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        out *= x
        out += c
    out *= x
    return out


def _plus_hidden(base: np.ndarray, gamma: float, x: np.ndarray, u: np.ndarray,
                 coefs_u: tuple[float, ...], coefs_xu: tuple[float, ...]) -> np.ndarray:
    """base + gamma * (sum_j coefs_u[j-1] u^j + sum_j coefs_xu[j-1] (xu)^j).

    At gamma 0 the hidden-covariate terms are skipped rather than multiplied
    by zero; adding that zero would change no value (for finite terms) except
    the sign of a base that is exactly -0.0.  The result takes the broadcast
    shape of x and u either way.
    """
    if gamma == 0.0:
        shape = np.broadcast_shapes(x.shape, u.shape)
        return base if base.shape == shape else np.broadcast_to(base, shape).copy()
    return base + gamma * (_glm_poly(u, coefs_u) + _glm_poly(x * u, coefs_xu))


def _glm_surface(params: GlmParams, x, u) -> np.ndarray:
    """scale*(c0 + sum c_x x^j) + gamma*(u and xu terms), formed in place in
    the x polynomial's array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    base = _glm_poly(x, params.c_x)
    base += params.c0
    base *= params.scale
    return _plus_hidden(base, params.gamma, x, u, params.c_u, params.c_xu)


def glm_outcome(params: GlmParams, x, u) -> np.ndarray:
    """Degree-5 polynomial outcome surface with confounding multiplier gamma."""
    return _glm_surface(params, x, u)


def glm_logit_prob(params: GlmParams, x, u) -> np.ndarray:
    """1 / (1 + exp(surface)): the surface enters with a plus sign inside the
    exponential, so larger values mean lower probability; no clipping is
    applied here."""
    return expit(-_glm_surface(params, x, u))


@dataclass(frozen=True)
class World:
    """A fully realized data-generating process."""

    kind: str  # "gp" | "glm"
    fom: tuple  # (arm 0, arm 1), each GridFunction | GlmParams
    ps_logit: object  # GridFunction | GlmParams
    pa_logit: object  # GridFunction | GlmParams
    noise_sigma: float

    def outcome(self, a: int, x, u, out: np.ndarray | None = None) -> np.ndarray:
        """Arm a's outcome surface at (x, u), written into ``out`` when given,
        as GridFunction does."""
        fom = self.fom[a]
        if self.kind == "gp":
            return fom(x, u, out)
        return _into(out, glm_outcome(fom, x, u))

    def participation_prob(self, x, u, out: np.ndarray | None = None) -> np.ndarray:
        """P(S=1 | x, u): the median of sigmoid(L_PS), 0.1 and 0.9 for GP
        worlds; written into ``out`` when given, as GridFunction does."""
        if self.kind == "gp":
            return _clipped_expit(self.ps_logit(x, u, out))
        return _into(out, glm_logit_prob(self.ps_logit, x, u))

    def treatment_prob(self, x, u) -> np.ndarray:
        if self.kind == "gp":
            return _clipped_expit(self.pa_logit(x, u))
        return glm_logit_prob(self.pa_logit, x, u)


def _into(out: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """``values``, or ``out`` holding a copy of them; ``out`` must have their
    shape, so that it never receives a broadcast."""
    if out is None:
        return values
    if out.shape != values.shape:
        raise ValueError(f"out has shape {out.shape}, the values {values.shape}")
    out[...] = values
    return out


def _clipped_expit(logit: np.ndarray) -> np.ndarray:
    """sigmoid(logit) clipped to PROB_CLIP, computed in place in ``logit``,
    the array a GridFunction wrote."""
    expit(logit, out=logit)
    return np.clip(logit, *PROB_CLIP, out=logit)


def gp_world(fom_params: tuple, ps_params: KernelParams, pa_params: KernelParams,
             seed_of: Callable[..., int]) -> World:
    """Draw a noise-free GP world from its kernels; ``seed_of(part, *arm)``
    seeds each surface, called as ("fom", 0), ("fom", 1), ("ps",) and ("pa",)."""
    fom = tuple(sample_gp(fom_params[a], seed=seed_of("fom", a)) for a in (0, 1))
    ps = sample_gp(ps_params, seed=seed_of("ps"))
    pa = sample_gp(pa_params, seed=seed_of("pa"))
    return World("gp", fom, ps, pa, 0.0)


# -- cohort sampling ---------------------------------------------------------


def _draw_conditional(world: World, n: int, s_value: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (x, u) pairs from P(x, u | S=s) by rejection on uniform draws,
    in at most 10,000 batches."""
    xs: list[np.ndarray] = []
    us: list[np.ndarray] = []
    got = 0
    batch = max(4096, 2 * n)
    for _ in range(10_000):
        x = rng.uniform(-1.0, 1.0, batch)
        u = rng.uniform(-1.0, 1.0, batch)
        p = world.participation_prob(x, u)
        s = rng.random(batch) < p
        keep = s if s_value == TRIAL else ~s
        xs.append(x[keep])
        us.append(u[keep])
        got += int(keep.sum())
        if got >= n:
            x_all = np.concatenate(xs)[:n]
            u_all = np.concatenate(us)[:n]
            return x_all, u_all
    raise GenerationError(f"rejection sampling did not reach {n} draws for s={s_value}")


def _arm_outcomes(world: World, a: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each record's outcome under its own treatment; each arm's surface is
    evaluated on that arm's records only (the surfaces are pointwise, so a
    record's value does not depend on which others are evaluated with it)."""
    y = np.empty(x.shape[0])
    for arm in (0, 1):
        rows = a == arm
        y[rows] = world.outcome(arm, x[rows], u[rows])
    return y


def draw_trial(world: World, n1: int, seed: int) -> CompositeSample:
    """Trial cohort: P(x,u | S=1) covariates, Bernoulli(TREATMENT_PROB) treatment, noisy outcome."""
    if n1 < 1:
        raise ValueError("n1 must be positive")
    rng = np.random.default_rng(seed)
    x, u = _draw_conditional(world, n1, TRIAL, rng)
    a = (rng.random(n1) < TREATMENT_PROB).astype(np.int64)
    eps = rng.standard_normal(n1) * world.noise_sigma
    y = _arm_outcomes(world, a, x, u) + eps
    return CompositeSample.cohort(TRIAL, x, u, a, y)


def draw_target(world: World, n0: int, seed: int) -> CompositeSample:
    """Target cohort: P(x,u | S=0) covariates only."""
    if n0 < 1:
        raise ValueError("n0 must be positive")
    rng = np.random.default_rng(seed)
    x, u = _draw_conditional(world, n0, TARGET, rng)
    return CompositeSample.cohort(TARGET, x, u)


def generate_os(world: World, n_os: int, seed: int) -> CompositeSample:
    """Observational cohort: uniform covariates, confounded treatment, noisy outcome."""
    if n_os < 1:
        raise ValueError("n_os must be positive")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n_os)
    u = rng.uniform(-1.0, 1.0, n_os)
    pa = world.treatment_prob(x, u)
    a = (rng.random(n_os) < pa).astype(np.int64)
    eps = rng.standard_normal(n_os) * world.noise_sigma
    y = _arm_outcomes(world, a, x, u) + eps
    return CompositeSample.cohort(OS, x, u, a, y)


def os_arm_arrays(cohort: CompositeSample, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and outcomes of the observational records under treatment a."""
    mask = cohort.a == a
    return cohort.x[mask], cohort.y[mask]


# -- i.i.d.-noise predictor --------------------------------------------------


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic is modular by design here
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class NoisePredictor:
    """A fixed function whose values look like i.i.d. standard normals across x.

    Each value is keyed by a hash of (seed, x quantized at 1e-9), so repeated
    evaluation at the same point returns the same number: this is a genuine
    function, just a useless one as a predictor.
    """

    seed: int

    def predict(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        quantized = np.round(x / 1e-9).astype(np.int64).view(np.uint64)
        seed_key = _splitmix64(np.array(self.seed & (2**64 - 1), dtype=np.uint64))
        mixed = _splitmix64(quantized ^ seed_key)
        uniform = (np.right_shift(mixed, np.uint64(11)).astype(np.float64) + 0.5) / 2**53
        return ndtri(uniform)


# -- world export ------------------------------------------------------------


def world_lattice_table(world: World) -> dict[str, np.ndarray]:
    """Flattened 101 x 101 lattice columns (x, u, fom0, fom1, ps, pa) for external plotting."""
    g = np.linspace(-1.0, 1.0, 101)
    xg, ug = np.meshgrid(g, g, indexing="ij")
    x, u = xg.ravel(), ug.ravel()
    return {
        "x": x,
        "u": u,
        "fom0": world.outcome(0, x, u),
        "fom1": world.outcome(1, x, u),
        "ps": world.participation_prob(x, u),
        "pa": world.treatment_prob(x, u),
    }
