"""Golden outputs: every CLI command at a fixed seed and scale, compared by bytes.

The files in tests/golden were written by commit
ab6bcb08dc70e623f4299213c2a2908c1241a575 with

    export PYTHONPATH=src
    for cmd in figure3 ipwdr noise-robustness; do
        python -m ppgen.cli $cmd --seed 7 --scale 0.01 --workers 1 \
            --combo lx=0.5,conf=mid --out tests/golden
    done
    python -m ppgen.cli table2 --seed 7 --scale 0.01 --workers 1 --out tests/golden
    python -m ppgen.cli checks --check orthonormality,prop1,oracle \
        --seed 7 --scale 0.01 --workers 1 --out tests/golden
    python -m ppgen.cli export-world --seed 7 --scale 0.01 --workers 1 --out tests/golden
    (cd tests/golden && sha256sum world_grid.csv > world_grid.csv.sha256)

keeping the CSVs, and of the 1 MB lattice only its digest.  The theory
checks were pinned by commit d5d3de66529314c2307f5bac35b1077a974da987 with

    python -m ppgen.cli checks --check theorem1,theorem2,theorem3,lemma2 \
        --seed 7 --scale 0.01 --workers 1 --out tests/golden
    mv tests/golden/checks.csv tests/golden/theory_checks.csv

and world_fits.csv was written again by the export-world command above once
numpy scalars were written as plain numbers (every cell equals the old cell
without its ``np.float64(...)`` wrapper).  figure3.csv, ipwdr.csv and
noise_robustness.csv were written again by the grid commands above once a
scenario with a single successful run reported its variance as undefined:
each of their variance cells went from 0.0 to nan, and every other cell is
unchanged (checked by script).  JSON payloads carry a run time and a
peak memory, so they are not stored; every one written is parsed strictly
instead (no NaN or Infinity tokens) and must carry both and the run's
``environment`` (cores, workers, BLAS thread variables, library versions).

The OS predictor's fit and the GP draws go through BLAS, whose sums split
differently with the number of threads, so the last bits of some cells depend
on it.  Each command therefore runs in a subprocess with one BLAS thread, and
figure3.csv, ipwdr.csv, world_fits.csv and world_grid.csv.sha256 were written
again by the commands above with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=
MKL_NUM_THREADS=1 (they had been written with two threads).  A script checked
that header, row count and every id, label and count cell are unchanged and
that every changed cell is a float:

- figure3.csv: 36 cells (18 rmse, 18 bias_sq), max rel 6.4e-12;
- ipwdr.csv: 68 cells (34 rmse, 34 bias_sq), max rel 6.4e-12;
- world_fits.csv: the 201 f1 and the 201 b_hat cells, max abs 1.5e-8;
- world_grid.csv: 61 pa cells, max rel 3.1e-16, so its digest changed.

The other goldens are the same at one and at two threads.

The grid commands' goldens hold only conf=mid.  grid_cells.sha256 pins all
three confounding settings through ``run_scenario_grid``: each line is the
sha256 of a run's combo CSV followed by ``json.dumps(scenario_rows,
sort_keys=True)``, for the runs in ``GRID_CELLS_SCRIPT``.  It was written at
commit b32f7242e8507d814e328f0a3635dd5c9f5d1163, before one task ran every
confounding setting of a scenario, with one BLAS thread.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMON = ["--seed", "7", "--scale", "0.01", "--workers", "1"]
COMBO = ["--combo", "lx=0.5,conf=mid"]
# What the goldens' last bits were written under, as the JSON ``environment``
# reports it: OpenBLAS's SkylakeX kernels at one thread in numpy and scipy, and
# numpy's CPU targets on that AVX-512 machine.  A byte comparison that fails
# prints it beside the environment of the run that failed.
GOLDEN_ENVIRONMENT = {
    "numpy_openblas": {"threads": 1, "core": "SkylakeX"},
    "scipy_openblas": {"threads": 1, "core": "SkylakeX"},
    "numpy_cpu": {"baseline": ["X86_V2"], "dispatched": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]},
}

# command -> (arguments, {file written: golden file})
RUNS = {
    "figure3": (["figure3", *COMBO], {"figure3.csv": "figure3.csv"}),
    "ipwdr": (["ipwdr", *COMBO], {"ipwdr.csv": "ipwdr.csv"}),
    "noise-robustness": (["noise-robustness", *COMBO], {"noise_robustness.csv": "noise_robustness.csv"}),
    "table2": (["table2"], {"table2.csv": "table2.csv"}),
    "checks": (["checks", "--check", "orthonormality,prop1,oracle"], {"checks.csv": "checks.csv"}),
    "theory-checks": (["checks", "--check", "theorem1,theorem2,theorem3,lemma2"],
                      {"checks.csv": "theory_checks.csv"}),
    "export-world": (["export-world"], {"world_fits.csv": "world_fits.csv"}),
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _cells(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _run_cli(argv: list[str]) -> None:
    """``ppgen <argv>`` in a subprocess with one BLAS thread."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "ppgen.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", sorted(RUNS))
def test_golden_outputs(command, tmp_path):
    argv, files = RUNS[command]
    _run_cli([*argv, *COMMON, "--out", str(tmp_path)])
    payloads = {path.name: json.loads(path.read_text(), parse_constant=_reject_constant)
                for path in tmp_path.glob("*.json")}
    assert payloads
    run_env = next(iter(payloads.values()))["environment"]
    differs = (f"differs from its golden; goldens written under {GOLDEN_ENVIRONMENT}, "
               f"this run under { {key: run_env.get(key) for key in GOLDEN_ENVIRONMENT} }")
    for name, golden in files.items():
        got, want = (tmp_path / name).read_text(), (GOLDEN / golden).read_text()
        if name == "checks.csv":
            # quoted only where CSV needs it; the cells are unchanged
            assert _cells(got) == _cells(want), f"{name} {differs}"
        else:
            assert got == want, f"{name} {differs}"
    if command == "export-world":
        digest = hashlib.sha256((tmp_path / "world_grid.csv").read_bytes()).hexdigest()
        assert f"{digest}  world_grid.csv" == (GOLDEN / "world_grid.csv.sha256").read_text().strip(), \
            f"world_grid.csv {differs}"
    for payload in payloads.values():
        assert payload["runtime_seconds"] >= 0 and payload["peak_rss_mb"] > 0
        # the setting a run's speed and last bits depend on, as the command saw it
        env = payload["environment"]
        assert env["cpu_count"] == os.cpu_count() and env["workers"] == 1
        assert all(env[name] == "1" for name in ONE_BLAS_THREAD)
        assert {"python", "numpy", "scipy"} <= env.keys()
        assert all(isinstance(env[name], str) and env[name] for name in ("python", "numpy", "scipy"))
    if command == "noise-robustness":
        # one run per scenario leaves the Monte Carlo SE of the AOM-OM gap undefined
        entries = payloads["noise_robustness.json"]["robustness_report"]["entries"]
        assert entries and all(e["se"] is None and e["within_2se"] is None for e in entries)


GRID_CELLS_SCRIPT = """
import hashlib, json, sys
from dataclasses import replace
from ppgen.grid import ALL_ESTIMATORS, benchmark_grid, run_scenario_grid

seed11 = benchmark_grid(11, n0=2_000, n_os=5_000)
RUNS = {  # name -> (grid, degrees, n_scenarios, n_runs)
    "learned": (benchmark_grid(7, n0=2_000, n_os=5_000), (1, 3), 2, 3),
    "iid_noise": (benchmark_grid(7, n0=2_000, n_os=5_000, predictor_kind="iid_noise"), (1, 3), 2, 3),
    # not a product of axes, as a union of --combo filters selects it
    "subset": (replace(seed11, combos=[c for c in seed11.combos
                                       if (c.n1, c.conf) in {(200, "none"), (200, "mid"), (1000, "strong")}]),
               (1,), 1, 2),
}
grid, degrees, n_scenarios, n_runs = RUNS[sys.argv[1]]
result = run_scenario_grid(grid, estimators=ALL_ESTIMATORS, degrees=degrees, n_scenarios=n_scenarios, n_runs=n_runs)
text = result.combo_csv_text() + json.dumps(result.scenario_rows, sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


@pytest.mark.parametrize("run", ["learned", "iid_noise", "subset"])
def test_grid_cells_match_their_digests(run):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", GRID_CELLS_SCRIPT, run], cwd=ROOT,
                          env={**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    digests = dict(line.split()[::-1] for line in (GOLDEN / "grid_cells.sha256").read_text().splitlines())
    assert done.stdout.strip() == digests[run]
