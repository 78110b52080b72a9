"""Bit-exactness pins for the OS predictor and the trial-side ridge fits, the
OS predictor's prediction in row blocks, the grid's one evaluation of the OS
predictor per input, the estimators' reads of the target through one
``Target`` per world, and the decompositions a CV sweep makes.

The digests and hex floats below were computed at commit
b000459dd1e302c7709eb21d712fbf5a8196fe95, before the cross-validated fits
solved their chosen penalty from the Gram matrix of the CV sweep, before the
cosine design was built in one buffer, before the grid evaluated the OS
predictor once per run, before the CV sweep and ``predict`` worked in blocks
of ``ROW_BLOCK`` rows and before the sweep worked in the full Gram's range.
Equal sha256 digests of the float64 bytes mean bit-identical arrays.  A
multithreaded BLAS may split the OS Gram's sums differently, and a
matrix-vector product's rows at other boundaries than the blocks' (3,077
rows on two threads moved predictions by 1 ulp), so the fits and the
blocked-versus-one-shot predictions run in a subprocess with one BLAS
thread.  The ``Target`` tests compare two paths within one process, so they
run in it.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ppgen import estimators, grid, regression
from ppgen.analysis import os_predictor
from ppgen.dgp import draw_target, draw_trial, gp_world
from ppgen.domain import derive_seed
from ppgen.estimators import Arm, EstimatorConfig, Target, fit_nuisances, trial_fit
from ppgen.grid import benchmark_grid, grid_kernels, run_scenario_grid

ROOT = Path(__file__).resolve().parents[1]


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


FOLD_SEED = derive_seed(7, "fit-exactness", "folds")


def _gp_world():
    """The benchmark's lx=0.5, conf=mid world, its surfaces seeded from (7, "world")."""
    return gp_world(*grid_kernels(0.5, "mid"), partial(derive_seed, 7, "world"))


@functools.cache
def _world():
    """A seed-7 GP world at the grid's default sizes (50k OS records, n0 = 20k),
    its fitted OS predictor, its target cohort and one trial cohort."""
    world = _gp_world()
    f = os_predictor(world, 50_000, lambda part: derive_seed(7, "fit-exactness", part))
    target = draw_target(world, 20_000, derive_seed(7, "fit-exactness", "target"))
    trial = draw_trial(world, 1000, derive_seed(7, "fit-exactness", "trial"))
    return f, target, trial


def flexible_fit_values() -> dict:
    f, target, _ = _world()
    return {
        "penalty": float(f.penalty).hex(),
        "coefficients": _digest(f.coefficients),
        "intercept": float(f.intercept).hex(),
        "predict_target": _digest(f.predict(target.x)),
    }


def ridge_cv_values() -> dict:
    f, _, trial = _world()
    x1, y1 = trial.trial_arm_arrays(1)
    arm = Arm(x1, y1, f.predict(x1))
    fold_seed = FOLD_SEED
    out = {}
    for kind in ("om", "abc", "aom"):
        for degree in (1, 3, 5, 7):
            fit = trial_fit(kind, arm, EstimatorConfig(degree=degree, fold_seed=fold_seed))
            out[f"{kind}/{degree}"] = [float(fit.penalty).hex(), _digest(fit.coefficients)]
    return out


def _one_shot_predict(fit, x) -> np.ndarray:
    """RandomFeatureFit.predict as one product of the whole cosine design."""
    feats = x[:, None] * fit.frequencies[None, :]
    feats += fit.phases[None, :]
    np.cos(feats, out=feats)
    feats *= np.sqrt(2.0 / fit.frequencies.shape[0])
    return feats @ fit.coefficients + fit.intercept


def blocked_predict_values() -> dict:
    """Digests of the blocked and the one-shot prediction at sizes around the row block."""
    f, target, _ = _world()
    block = regression.ROW_BLOCK
    return {str(n): [_digest(f.predict(target.x[:n])), _digest(_one_shot_predict(f, target.x[:n]))]
            for n in (1, block - 1, block, block + 1, 3 * block + 1, 3 * block + 5)}


FLEXIBLE_FIT = {
    "penalty": "0x1.ab08a305b6da7p+0",
    "coefficients": "e8063ddca0f7122103432a6a4b2d1dc1d8f414de27febe4c334315848443007c",
    "intercept": "0x1.191c6a5794b85p-1",
    "predict_target": "172e9b4928c6f2280decf9c6debd0bddee178947b179bf0947e47b6d19e8d736",
}

RIDGE_CV = {
    "om/1": ["0x1.b93a6cec0b3acp-3", "d23f149eec474760f29601ec01f6e1b1c76fa18bec74ffa5b77d12b51a639a8c"],
    "om/3": ["0x1.b93a6cec0b3acp-3", "211b0d905a2c013e155641f9b5a31526a200b18f604219e2ab7b4aef7d7f031b"],
    "om/5": ["0x1.0c6f7a0b5ed8dp-20", "8b64bde20a0a40bcf03f9c1fb500675a8f5696b497cc5f98714ab40c8ed2ef31"],
    "om/7": ["0x1.b93a6cec0b3acp-3", "e2e9b30e4d9c6b5a5c98f846e259c872d4ce600157cb06cc2cf7be5fdf056f4f"],
    "abc/1": ["0x1.9d4bbfa17f939p+3", "80288a8d8d95cad904d6c6165bc277330d9e91b2523c0c0a8222279575a5dae0"],
    "abc/3": ["0x1.9d4bbfa17f939p+3", "95f4ac1a5567058b5f51cc5fe48d3e7dfa862ce71b17df8c18458a2426ad267f"],
    "abc/5": ["0x1.9d4bbfa17f939p+3", "1e6dc82967da6b5ac28f1b84a1dbc52985d52e12fa32310d7a2dd59e8db17012"],
    "abc/7": ["0x1.9d4bbfa17f939p+3", "791e7e86829483f51951988c93bbe87227c7bb3589ab887c73bf2c3bd10021b3"],
    "aom/1": ["0x1.ab08a305b6da7p+0", "5efd1c660e81d106cf99fadb2f075363f6890a22aaf5d93cda957e06feedffd0"],
    "aom/3": ["0x1.9d4bbfa17f939p+3", "7dc85b7f233b22df95f992bf10aee39ae90e76bf3702081963b01cb2212a7723"],
    "aom/5": ["0x1.c7e5001442ab4p-6", "7330f6ccf96d6bf67075ee89a1a99854ab399a1e61901c0b91266af4ce08fc23"],
    "aom/7": ["0x1.ab08a305b6da7p+0", "f40ae73806d4a7d5926695c6ca9fe98172a85cd6c4f4d91a96b94f8670e5d703"],
}

SCRIPT = """
import json, sys
sys.path[:0] = ["src", "tests"]
import test_fit_exactness as t
print(json.dumps({"flexible_fit": t.flexible_fit_values(), "ridge_cv": t.ridge_cv_values(),
                  "blocked_predict": t.blocked_predict_values()}))
"""


@pytest.fixture(scope="module")
def pinned():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_flexible_fit_is_bit_identical(pinned):
    assert pinned["flexible_fit"] == FLEXIBLE_FIT


def test_ridge_cv_is_bit_identical(pinned):
    assert pinned["ridge_cv"] == RIDGE_CV


def test_blocked_predict_equals_one_shot_predict(pinned):
    assert len(pinned["blocked_predict"]) == 6
    for n, (blocked, one_shot) in pinned["blocked_predict"].items():
        assert blocked == one_shot, n


class _Counting:
    """A predictor that records the length of every input it evaluates."""

    def __init__(self, base, sizes):
        self.base, self.sizes = base, sizes

    def predict(self, x):
        self.sizes.append(np.atleast_1d(x).shape[0])
        return self.base.predict(x)


def _small_grid():
    return benchmark_grid(11, n1_values=(60, 120), lx_values=(0.5,), confounding=("none",), n0=400, n_os=2_000)


def test_grid_evaluates_the_predictor_once_per_input(monkeypatch):
    sizes = []
    real_predictor = grid.os_predictor
    monkeypatch.setattr(grid, "os_predictor", lambda *a, **k: _Counting(real_predictor(*a, **k), sizes))
    run_scenario_grid(_small_grid(), estimators=grid.ALL_ESTIMATORS, degrees=(1, 3), n_scenarios=2, n_runs=3)
    # one target evaluation per world, then one trial-arm evaluation per (n1, run)
    n_worlds, per_world = 2, 1 + 2 * 3
    assert len(sizes) == n_worlds * per_world
    for world in range(n_worlds):
        first, *arms = sizes[world * per_world:(world + 1) * per_world]
        assert first == 400 and all(0 < n <= 120 for n in arms)


def test_target_design_reproduces_predict():
    f, target, trial = _world()
    x1, y1 = trial.trial_arm_arrays(1)
    arm = Arm(x1, y1, f.predict(x1))
    f0 = f.predict(target.x)
    shared = Target(target.x, f0)
    for kind in ("om", "abc", "aom"):
        for degree in (1, 3, 5, 7):
            fit = trial_fit(kind, arm, EstimatorConfig(degree=degree, fold_seed=FOLD_SEED))
            # an AOM fit's design has f's values appended, which RidgeFit.predict cannot build
            want = (np.column_stack([regression.legendre_eval(target.x, degree), f0]) @ fit.coefficients
                    if kind == "aom" else fit.predict(target.x))
            assert _digest(shared.design(kind, degree) @ fit.coefficients) == _digest(want), (kind, degree)


def test_estimates_do_not_depend_on_sharing_the_target():
    f, target, trial = _world()
    x1, y1 = trial.trial_arm_arrays(1)
    f0, arm = f.predict(target.x), Arm(x1, y1, f.predict(x1))
    shared = Target(target.x, f0)
    p1 = {d: fit_nuisances(trial.x, shared, d).predict(x1) for d in grid.DEFAULT_DEGREES}
    for name, estimator in grid.ESTIMATORS.items():
        for degree in grid._estimator_degrees(name, grid.DEFAULT_DEGREES):
            cfg = EstimatorConfig(degree=max(degree, 0), fold_seed=FOLD_SEED)
            alone, with_shared = (estimator.estimate(arm, p1.get(degree), cfg, t).point_estimate
                                  for t in (Target(target.x, f0), shared))
            assert alone.hex() == with_shared.hex(), (name, degree)


def test_grid_builds_each_target_design_once_per_world(monkeypatch):
    built = []  # the row count of every Legendre design and every appended f column
    legendre, augment = regression.legendre_eval, estimators._augment

    def phi(x, degree):
        built.append(("phi", len(x), degree))
        return legendre(x, degree)

    def with_f(feats, column):
        built.append(("f", len(column)))
        return augment(feats, column)

    monkeypatch.setattr(regression, "legendre_eval", phi)
    monkeypatch.setattr(estimators, "_augment", with_f)  # the target's AOM column

    def run():
        built.clear()
        rows = run_scenario_grid(_small_grid(), estimators=grid.ALL_ESTIMATORS, degrees=(1, 3),
                                 n_scenarios=2, n_runs=3).scenario_rows
        return rows, [b for b in built if b[1] == 400]  # n0 = 400; no trial arm or sample has 400 rows

    shared, on_target = run()
    # per world, one Legendre design per degree (OM and ABC share it) and one AOM column per degree
    n_worlds = 2
    assert sorted(on_target) == sorted([("phi", 400, d) for d in (1, 3)] * n_worlds + [("f", 400)] * 2 * n_worlds)
    for name, entry in list(grid.ESTIMATORS.items()):  # every estimate builds its own Target
        fresh = lambda arm, p1, cfg, t, entry=entry: entry.estimate(arm, p1, cfg, Target(t.x, t.f))
        monkeypatch.setitem(grid.ESTIMATORS, name, replace(entry, estimate=fresh))
    alone, rebuilt = run()
    assert json.dumps(shared) == json.dumps(alone)
    assert len(rebuilt) > len(on_target)


def test_cv_sweeps_decompose_the_full_gram_and_one_stack_in_its_range(monkeypatch, record_property):
    world = _gp_world()  # the world of _world(), built before eigh is counted
    shapes, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    os_predictor(world, 50_000, lambda part: derive_seed(7, "fit-exactness", part))
    # the 500 x 500 full Gram, then the five folds' r x r systems in its range:
    # r read 18 at one BLAS thread and 17 at two
    assert len(shapes) == 2 and shapes[0] == (500, 500)
    r = shapes[1][1]
    record_property("os_range_rank", r)
    assert shapes[1] == (5, r, r) and 10 <= r <= 40
    _, _, trial = _world()
    x1, y1 = trial.trial_arm_arrays(1)
    shapes.clear()
    regression.ridge_cv(x1, y1, 5, fold_seed=FOLD_SEED)
    assert shapes == [(6, 6), (5, 6, 6)]  # a full-rank trial design keeps every direction
