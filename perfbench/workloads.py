"""The benchmark's three workloads and the checks on their outputs.

Each workload calls ppgen's public entry points with ``workers=1`` on inputs
made from the seed alone.  ``prepare(seed, world)`` builds the inputs and
returns the call; the call returns the outputs as plain JSON data.  Pass ``p``
of a run works on world ``p % WORLDS[workload]``: gp-grid draws a new GP world
for each of its first eight passes, because one world's treated OS count sets
much of the pass's cost and memory; table2 and dr-check repeat one input.

- gp-grid: the figure3/ipwdr path.  Per-world set-up (OS predictor fit and
  predict, OS and target cohorts) and per-run trial-side fitting each take
  about half the time, so a change to either side shows, and the trace tells
  them apart.
- table2: the acceptance-criterion-1 path.  The record path (CompositeSample
  construction and array views) and the GLM surfaces dominate; it never calls
  flexible_fit and its trial-side ridge fits take the one-penalty path, so it
  is the bypass for OS-predictor and CV-sweep changes.
- dr-check: the acceptance-criterion-5 path.  Almost all of it is the
  quadrature oracle evaluated through GridFunction; it fits nothing, so it is
  the bypass for trial-side and OS-predictor changes.
"""

from __future__ import annotations

import math

# Sizes are cut from the acceptance runs so that one pass takes 3.5-5.5 s
# and a run holds several passes.  gp-grid: the two conf=mid combos with
# lx = 0.5, i.e. one world shared by n1 = 200 and n1 = 1000, at the default
# 50k OS cohort, with three trial runs.  Its world's treated OS count
# (14k-35k over seeds 1-40) sets the OS predictor's design size, so each pass
# draws another world and run.py averages over worlds.
# dr-check: two replications are the fewest that give a standard error.
GP_LX = (0.5,)
GP_RUNS = 3
GP_WORLDS = 8
TABLE2_RUNS = 15
DR_N1, DR_N0, DR_REPLICATIONS = 5_000, 20_000, 2
REL_TOL = 1e-9


def _gp_grid(seed: int, world: int):
    from ppgen import grid
    from ppgen.domain import derive_seed

    master_seed = seed if world == 0 else derive_seed(seed, "perfbench-world", world)
    specs = grid.benchmark_grid(master_seed, lx_values=GP_LX, confounding=("mid",))

    def run():
        result = grid.run_scenario_grid(
            specs, estimators=grid.ALL_ESTIMATORS, n_scenarios=1,
            n_runs=GP_RUNS, workers=1,
        )
        return {"combo_csv": _cells(result.combo_csv_text()), "scenario_rows": result.scenario_rows}

    return run


def _table2(seed: int, world: int):
    from ppgen import grid

    def run():
        result = grid.run_table2(seed, n_ground_truths=1, n_runs=TABLE2_RUNS, workers=1)
        return {"csv": _cells(result.csv_text())}

    return run


def _dr_check(seed: int, world: int):
    from ppgen import checks

    def run():
        result = checks.dr_robustness_check(
            seed, n1=DR_N1, n0=DR_N0, n_replications=DR_REPLICATIONS
        )
        return {"passed": bool(result.passed), "detail": result.detail}

    return run


PREPARE = {"gp-grid": _gp_grid, "table2": _table2, "dr-check": _dr_check}
WORLDS = {"gp-grid": GP_WORLDS, "table2": 1, "dr-check": 1}


def _cells(csv_text: str) -> list[list[str]]:
    return [line.split(",") for line in csv_text.splitlines()]


# -- counting ----------------------------------------------------------------


def counts(workload: str, outputs: dict) -> tuple[int, int]:
    """(point estimates attempted, estimates that failed) in one pass."""
    if workload == "gp-grid":
        rows = outputs["scenario_rows"]
        return sum(len(r["estimates"]) for r in rows), sum(r["n_failures"] for r in rows)
    if workload == "table2":
        # 6 rows x runs x {om, abc} x orders {1, 5}; any failure raises.
        return 6 * TABLE2_RUNS * 4, 0
    return 6 * DR_REPLICATIONS, 0


# -- output checks -------------------------------------------------------------


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL)


def _same_cell(a: str, b: str) -> bool:
    try:
        int(a), int(b)
        return a == b
    except ValueError:
        pass
    try:
        return _same_float(float(a), float(b))
    except ValueError:
        return a == b


def same(a, b) -> bool:
    """Exact on ids, labels, counts and flags; floats to a relative 1e-9."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) and isinstance(b, int):
        return type(a) is type(b) and a == b
    if isinstance(a, float) and isinstance(b, float):
        return _same_float(a, b)
    if isinstance(a, str) and isinstance(b, str):
        return _same_cell(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a is None and b is None


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def check(workload: str, outputs: dict) -> list[str]:
    """Consistency checks that hold at every seed; returns the problems found."""
    problems: list[str] = []
    if workload == "gp-grid":
        rows = outputs["scenario_rows"]
        if len(rows) != 2 * len(GP_LX) * 29:
            problems.append(f"{len(rows)} scenario rows")
        by_combo: dict[tuple, list[float]] = {}
        for r in rows:
            est = [e for e in r["estimates"] if not math.isnan(e)]
            if len(r["estimates"]) != GP_RUNS or r["n_failures"] != GP_RUNS - len(est):
                problems.append(f"run count of {r['combo_id']} {r['estimator']} {r['degree']}")
                continue
            if est:
                rmse = math.sqrt(math.fsum((e - r["mu"]) ** 2 for e in est) / len(est))
                if not _close(rmse, r["rmse"], 1e-9):
                    problems.append(f"rmse of {r['combo_id']} {r['estimator']} {r['degree']}")
            by_combo.setdefault((r["combo_id"], r["estimator"], r["degree"]), []).append(r["rmse"])
        header, *cells = outputs["combo_csv"]
        if len(cells) != len(by_combo):
            problems.append(f"{len(cells)} combo rows for {len(by_combo)} combos")
        for c in cells:
            vals = by_combo.get((c[0], c[5], int(c[6])), [])
            if len(vals) != int(c[10]) or not _close(sum(vals) / max(len(vals), 1), float(c[7]), 1e-9):
                problems.append(f"combo rmse of {c[0]} {c[5]} {c[6]}")
    elif workload == "table2":
        header, *cells = outputs["csv"]
        mse = {(c[0], c[5], c[6]): float(c[7]) for c in cells}
        if len(cells) != 24 or not all(math.isfinite(v) and v > 0 for v in mse.values()):
            problems.append("table2 rows missing or not positive")
        for row in {k[0] for k in mse}:
            # A degree-5 predictor fitted at a tiny penalty makes ABC and OM
            # at order 5 the same estimator up to that penalty.
            a5, o5 = mse.get((row, "abc", "5")), mse.get((row, "om", "5"))
            if a5 is None or o5 is None or abs(a5 - o5) > 1e-3 * max(a5, o5):
                problems.append(f"row {row}: abc5 {a5} vs om5 {o5}")
    else:
        parts = outputs["detail"].split("; ")
        if len(parts) != 6:
            problems.append(f"{len(parts)} dr-robustness cases")
        for part in parts:
            try:
                gap = float(part.split("|mean-mu|=")[1].split(" ")[0])
                band = float(part.split("3SE=")[1])
            except (IndexError, ValueError):
                problems.append(f"unreadable case {part!r}")
                continue
            if not (math.isfinite(gap) and math.isfinite(band) and band > 0):
                problems.append(f"case {part!r}")
    return problems
