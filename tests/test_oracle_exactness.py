"""Bit-exactness pins for the quadrature-oracle path.

The digests and hex floats below were computed at commit
7e5467d28bf43a317ee044c385d55e81046fcb33, before the oracle was rewritten to
broadcast over its quadrature nodes, to evaluate the truth once per
double-robustness replication and to interpolate through one flat index, and
before it was evaluated in point blocks with outer grids interpolated by row
gathers.  Equal sha256 digests of the float64 bytes mean bit-identical arrays.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from ppgen import checks
from ppgen.analysis import ORACLE_BLOCK, gauss_legendre_nodes, tilted_participation, true_outcome_function
from ppgen.dgp import world_from_spec
from ppgen.grid import TABLE2_ROWS, _sample_glm_world, benchmark_grid


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@functools.cache
def _worlds():
    spec = benchmark_grid(7, n1_values=(200,), lx_values=(0.2,), confounding=("mid",), n_os=3000)[0]
    return {"gp": world_from_spec(spec), "glm": _sample_glm_world(TABLE2_ROWS[1], 7, 0)}


def _points():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-1.1, 1.1, 20_000)
    u = rng.uniform(-1.1, 1.1, 20_000)
    return x, u


def grid_function_values() -> dict[str, np.ndarray]:
    """GridFunction on random points (some outside [-1,1]), on every lattice
    point plus just inside and outside each edge, and on broadcast shapes."""
    g = _worlds()["gp"].fom[1]
    x, u = _points()
    lattice = np.linspace(-1.0, 1.0, g.grid_size)
    edges = np.concatenate([
        lattice,
        [-1.5, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0),
         np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.5],
    ])
    nodes, _ = gauss_legendre_nodes(64)
    return {
        "random": g(x, u),
        "lattice_edges": g(edges[:, None], edges[None, :]),
        "broadcast_nodes": g(x[:500, None], nodes[None, :]),
        "broadcast_row": g(x[None, :300], u[:40, None]),
        "scalar": g(0.123, -0.456),
    }


def oracle_values(kind: str) -> dict[str, np.ndarray]:
    world = _worlds()[kind]
    x, _ = _points()
    xs = np.concatenate([[-1.0, 1.0], x[:3000].clip(-1.0, 1.0)])
    return {
        "g1": true_outcome_function(world, 1, xs),
        "g0": true_outcome_function(world, 0, xs),
        "tilted": tilted_participation(world, 2_000, 6_000)(xs),
    }


_GRID_FUNCTION = {
    "random": "18913b28eef4320e1c24ab3f09438eaaedabb61943419cbe301c40e1f39352ac",
    "lattice_edges": "deb19327437bc7c8022eafafd5e14f434435cf8389768a2f8e2e166772f3ec54",
    "broadcast_nodes": "afd90fd451617f4fddfba722a304a156fb85f712c13072e665594057a49cd398",
    "broadcast_row": "b2eaee978038f4983f1c0d988d39354981b372197732ec3c4b5ce1ac8b7f697a",
    "scalar": "dbd1be148ad2a38705401c12aedc5e11cc897044a1131bb4d5004c6468761796",
}

_ORACLE = {
    "gp": {
        "g1": "cf5e68f26cee9fc5afa2375e6b0959566735b6cf1f2cd85700963af956671875",
        "g0": "5ecc79f37fc5b22a90a87f79814a0e20e22b134f6005802179b0ce6b02d7d161",
        "tilted": "897603f7da0bdb6359d71f1742846dd08022759a699633a44c16ad10c203a6e0",
    },
    "glm": {
        "g1": "bdf9f011e73f093dd58e82ebb54082957b41b1be2a325b83eb04ffdabf5c8c5f",
        "g0": "17d06714f2420b44baac8da830ac5093fbdac89c7c1c31b9a43b40eff86daffb",
        "tilted": "f236a25d3e978316b515bd128dd7c6762f5f78d9272951b48f5e55c275061ef1",
    },
}

# dr_robustness_check(seed=5, n1=2_000, n0=6_000, n_replications=3): the raw
# point estimates in call order (per replication, the six cases in table order)
_DR_ESTIMATES = [
    "0x1.0f0d52509d264p-1",
    "0x1.0cac39745d65dp-1",
    "0x1.10faa236209cfp-1",
    "0x1.0cac39745d65ep-1",
    "0x1.0f0d52509d264p-1",
    "0x1.0cac39745d65dp-1",
    "0x1.0d53ca7e4cbd3p-1",
    "0x1.149dd22294c63p-1",
    "0x1.15933592d76f8p-1",
    "0x1.149dd22294c63p-1",
    "0x1.0d53ca7e4cbd3p-1",
    "0x1.149dd22294c63p-1",
    "0x1.0f976cbbef75cp-1",
    "0x1.0f83a2dfa1c36p-1",
    "0x1.146ccc0a1a17dp-1",
    "0x1.0f83a2dfa1c38p-1",
    "0x1.0f976cbbef75cp-1",
    "0x1.0f83a2dfa1c36p-1",
]


def test_grid_function_matches_stored_values():
    values = grid_function_values()
    assert {k: v.shape for k, v in values.items()} == {
        "random": (20_000,), "lattice_edges": (107, 107), "broadcast_nodes": (500, 64),
        "broadcast_row": (40, 300), "scalar": (1,),
    }
    assert {k: _digest(v) for k, v in values.items()} == _GRID_FUNCTION


@pytest.mark.parametrize("kind", ["gp", "glm"])
def test_oracle_matches_stored_values(kind):
    assert {k: _digest(v) for k, v in oracle_values(kind).items()} == _ORACLE[kind]


def recorded_dr_estimates(monkeypatch) -> list[float]:
    """Run the small double-robustness check, recording every point estimate
    through the estimators the check calls by module global."""
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            rec = fn(*args, **kwargs)
            seen.append(rec.point_estimate)
            return rec
        return wrapper

    for name in ("estimate_dr_baseline", "estimate_dr_abc", "estimate_dr_aom"):
        monkeypatch.setattr(checks, name, recording(getattr(checks, name)))
    checks.dr_robustness_check(seed=5, n1=2_000, n0=6_000, n_replications=3)
    return seen


def test_dr_check_estimates_match_stored_values(monkeypatch):
    assert [float(v).hex() for v in recorded_dr_estimates(monkeypatch)] == _DR_ESTIMATES


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["gp", "glm"]), st.integers(0, 1),
       st.lists(_unit, min_size=1, max_size=60), st.lists(_unit, min_size=1, max_size=60))
def test_oracle_rows_do_not_depend_on_the_batch(kind, a, head, tail):
    world = _worlds()[kind]
    whole = true_outcome_function(world, a, np.array(head + tail))
    parts = np.concatenate([true_outcome_function(world, a, np.array(p)) for p in (head, tail)])
    assert _digest(whole) == _digest(parts)
    p_of_x = tilted_participation(world, 200, 800)
    parts = np.concatenate([p_of_x(np.array(p)) for p in (head, tail)])
    assert _digest(p_of_x(np.array(head + tail))) == _digest(parts)


def _unblocked_outcome_function(world, a, xs, order=64):
    """The oracle as one (points x nodes) evaluation, with no blocks."""
    nodes, weights = gauss_legendre_nodes(order)
    xg = np.atleast_1d(np.asarray(xs, dtype=float))[:, None]
    weighted_ps = weights[None, :] * world.participation_prob(xg, nodes[None, :])
    fom = world.outcome(a, xg, nodes[None, :])
    return np.sum(weighted_ps * fom, axis=1) / np.sum(weighted_ps, axis=1)


def _unblocked_tilted_participation(world, n1, n0, xs, order=64):
    nodes, weights = gauss_legendre_nodes(order)
    p_grid = world.participation_prob(nodes[:, None], nodes[None, :])
    w2 = weights[:, None] * weights[None, :]
    p_marg = float(np.sum(w2 * p_grid) / np.sum(w2))
    ps = world.participation_prob(np.asarray(xs, dtype=float)[:, None], nodes[None, :])
    p_x = np.sum(weights[None, :] * ps, axis=1) / np.sum(weights)
    lift1, lift0 = n1 / p_marg, n0 / (1.0 - p_marg)
    return lift1 * p_x / (lift1 * p_x + lift0 * (1.0 - p_x))


@pytest.mark.parametrize("kind", ["gp", "glm"])
@pytest.mark.parametrize("n", [1, ORACLE_BLOCK - 1, ORACLE_BLOCK, ORACLE_BLOCK + 1, 3 * ORACLE_BLOCK + 5])
def test_blocked_oracle_equals_the_unblocked_evaluation(kind, n):
    world = _worlds()[kind]
    xs = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    for a in (0, 1):
        got = true_outcome_function(world, a, xs)
        assert got.shape == (n,) and _digest(got) == _digest(_unblocked_outcome_function(world, a, xs))
    got = tilted_participation(world, 300, 900)(xs)
    assert got.shape == (n,) and _digest(got) == _digest(_unblocked_tilted_participation(world, 300, 900, xs))


_LATTICE = np.linspace(-1.0, 1.0, 101)
_EDGES = [-1.5, float(np.nextafter(-1.0, -2.0)), float(np.nextafter(-1.0, 0.0)),
          float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)), 1.5]
_edgy = st.one_of(
    st.floats(-1.5, 1.5, allow_nan=False),
    st.integers(0, _LATTICE.shape[0] - 1).map(lambda i: float(_LATTICE[i])),
    st.sampled_from(_EDGES),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_edgy, min_size=1, max_size=40), st.lists(_edgy, min_size=1, max_size=40))
def test_outer_grid_path_equals_the_flat_path(xs, us):
    """An (n, 1) x (1, m) call gathers rows; flattened pairs index the lattice
    point by point.  Both give the same bits, on lattice edges and outside it."""
    g = _worlds()["gp"].fom[1]
    assert g.grid_size == _LATTICE.shape[0]
    x, u = np.array(xs), np.array(us)
    grid = g(x[:, None], u[None, :])
    flat = g(np.repeat(x, u.shape[0]), np.tile(u, x.shape[0])).reshape(x.shape[0], u.shape[0])
    assert grid.shape == flat.shape and _digest(grid) == _digest(flat)
