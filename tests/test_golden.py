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
unchanged (checked by script).  JSON payloads carry a run time, so
they are not stored; every one written is parsed strictly instead (no NaN or
Infinity tokens).
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from ppgen.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMON = ["--seed", "7", "--scale", "0.01", "--workers", "1"]
COMBO = ["--combo", "lx=0.5,conf=mid"]

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


@pytest.mark.parametrize("command", sorted(RUNS))
def test_golden_outputs(command, tmp_path):
    argv, files = RUNS[command]
    assert main([*argv, *COMMON, "--out", str(tmp_path)]) == 0
    for name, golden in files.items():
        got, want = (tmp_path / name).read_text(), (GOLDEN / golden).read_text()
        if name == "checks.csv":
            # quoted only where CSV needs it; the cells are unchanged
            assert _cells(got) == _cells(want)
        else:
            assert got == want, name
    if command == "export-world":
        digest = hashlib.sha256((tmp_path / "world_grid.csv").read_bytes()).hexdigest()
        assert f"{digest}  world_grid.csv" == (GOLDEN / "world_grid.csv.sha256").read_text().strip()
    payloads = {path.name: json.loads(path.read_text(), parse_constant=_reject_constant)
                for path in tmp_path.glob("*.json")}
    assert payloads
    if command == "noise-robustness":
        # one run per scenario leaves the Monte Carlo SE of the AOM-OM gap undefined
        entries = payloads["noise_robustness.json"]["robustness_report"]["entries"]
        assert entries and all(e["se"] is None and e["within_2se"] is None for e in entries)
