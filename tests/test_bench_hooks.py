"""The names the benchmark's tracer wraps still carry the work.

perfbench/tracing.py rebinds module globals of ppgen (estimators as the grid
sees them, ridge_cv where the OS predictor is fitted, the grid's memo); a
refactor that moves a call away from those names leaves its spans empty
without failing anything else.  The tracer patches stay inside a
subprocess, so they cannot leak into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import tracing
from ppgen import grid

tracer = tracing.Tracer()
tracing.install(tracer)
grid.run_table2(7, n_ground_truths=1, n_runs=2)
os_penalties = len(tracer.penalties["ridge_cv"])
specs = grid.benchmark_grid(7, n1_values=(60,), lx_values=(0.5,), confounding=("mid",),
                            n0=400, n_os=2_000, predictor_kind="iid_noise")
before = tracer.counts["regression.ridge_cv.calls"]
grid.run_scenario_grid(specs, estimators=grid.ALL_ESTIMATORS, degrees=(1, 3), n_scenarios=1, n_runs=2)
print(json.dumps({
    "trial_ridge_calls": tracer.counts["regression.ridge_cv.calls"] - before,
    "estimator_spans": sorted({s[0] for s in tracer.spans if s[0].startswith("estimators.")}),
    "os_penalties": os_penalties,
    "memo_calls": tracer.counts["grid.memo.calls"],
}))
"""


def test_tracer_hooks_see_the_work():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["estimator_spans"] == sorted(
        ["estimators.om", "estimators.abc", "estimators.os-om", "estimators.aom", "estimators.ipw",
         "estimators.dr", "estimators.dr-abc", "estimators.dr-pa", "estimators.fit_nuisances"])
    assert seen["os_penalties"] == 6  # one CV-chosen OS-predictor penalty per table2 row
    assert seen["memo_calls"] > 0
    # One trial fit per run x {om, abc, aom, dr, dr-abc, dr-pa} x degree (the
    # i.i.d.-noise predictor fits nothing).  perfbench's references compare
    # the CV-chosen penalties in call order, so a DR estimator that reused its
    # regression twin's fit would shift every later penalty; that sharing waits
    # for references keyed by (world, n1, run, estimator, degree).
    assert seen["trial_ridge_calls"] == 2 * 6 * 2
