"""Command-line driver for the experiment grids and theory checks.

Subcommands: figure3 | biasvar | ipwdr | table2 | noise-robustness | checks |
export-world.  Every run is deterministic given --seed (or the PPGEN_SEED
environment variable) and emits CSV and/or JSON into --out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

try:
    import resource
except ImportError:  # not on every platform (Windows)
    resource = None

from .analysis import os_predictor
from .checks import CHECKS, run_checks
from .dgp import draw_trial, gp_world, world_lattice_table
from .domain import check_names, csv_text, derive_seed
from .estimators import EstimatorConfig, trial_fit
from .grid import (
    ALL_ESTIMATORS,
    DEFAULT_DEGREES,
    ESTIMATORS,
    GP_ESTIMATORS,
    GridResult,
    benchmark_grid,
    check_degrees,
    combo_id,
    grid_kernels,
    run_scenario_grid,
    run_table2,
)

DEFAULT_SEED = 1729

# The selection flags each command reads; giving one to a command that would
# ignore it is an error.
_GRID_FLAGS = ("combo", "estimators", "degrees", "max-failures")
SELECTIONS = {"figure3": _GRID_FLAGS, "biasvar": _GRID_FLAGS, "ipwdr": _GRID_FLAGS,
              "noise-robustness": _GRID_FLAGS, "table2": (), "checks": ("check",),
              "export-world": ("degrees",)}
FORMATS = ("csv", "json", "both")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--scale", type=float, default=None, help="count multiplier in (0, 1]")
    parser.add_argument("--seed", type=int, default=None, help="master seed (env PPGEN_SEED fallback)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--format", choices=FORMATS, default=None, help="output format")
    parser.add_argument("--workers", type=int, default=None, help="process pool size")
    parser.add_argument(
        "--combo",
        action="append",
        default=None,
        metavar="n1=200,lx=0.2,conf=none",
        help="restrict to matching grid combos (repeatable)",
    )
    parser.add_argument("--estimators", default=None, help="comma-separated estimator names")
    parser.add_argument("--degrees", default=None, help="comma-separated polynomial degrees")
    parser.add_argument("--check", action="append", default=None, help="check name (repeatable)")
    parser.add_argument("--max-failures", type=int, default=None, help="failed replications tolerated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ppgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("figure3", "RMSE of OM / OS-OM / ABC / AOM over the 12-combo grid"),
        ("biasvar", "squared bias and variance over the 12-combo grid"),
        ("ipwdr", "the grid with IPW and doubly-robust estimators included"),
        ("table2", "the linear-model benchmark rows"),
        ("noise-robustness", "the grid with the i.i.d.-noise predictor"),
        ("checks", "run the theory checks and report PASS/FAIL"),
        ("export-world", "write one world's lattice and fitted curves as CSV"),
    ]:
        _add_common(sub.add_parser(name, help=help_text))
    return parser


class RunConfig:
    """Merged view of defaults, the config file and explicit flags."""

    def __init__(self, args: argparse.Namespace):
        file_cfg = {}
        if args.config:
            file_cfg = json.loads(Path(args.config).read_text())

        def pick(name, default):
            flag = getattr(args, name.replace("-", "_"), None)
            if flag is not None:
                return flag
            return file_cfg.get(name, default)

        self.command = args.command
        for flag in ("combo", "estimators", "degrees", "check", "max-failures"):
            if getattr(args, flag.replace("-", "_")) is not None and flag not in SELECTIONS[self.command]:
                raise SystemExit(f"--{flag}: {self.command} does not use this flag")
        self.scale = float(pick("scale", 1.0))
        if not 0.0 < self.scale <= 1.0:
            raise SystemExit("--scale must lie in (0, 1]")
        env_seed = os.environ.get("PPGEN_SEED")
        self.seed = int(pick("seed", env_seed if env_seed is not None else DEFAULT_SEED))
        self.out = Path(pick("out", "ppgen-out"))
        self.format = pick("format", "both")
        if self.format not in FORMATS:
            raise SystemExit(f"--format must be one of {', '.join(FORMATS)}, not {self.format!r}")
        self.workers = int(pick("workers", os.cpu_count() or 1))
        if self.workers < 1:
            raise SystemExit("--workers must be at least 1")
        self.combos = pick("combo", None)
        self.estimators = _names("estimators", pick("estimators", None), ESTIMATORS)
        if self.command == "noise-robustness" and self.estimators and not {"om", "aom"} <= set(self.estimators):
            raise SystemExit("--estimators: noise-robustness compares aom with om, so it needs both")
        deg = pick("degrees", None)
        if isinstance(deg, str):
            deg = _checked("degrees", lambda parts: [int(d) for d in parts], deg.split(","))
        self.degrees = _checked("degrees", check_degrees, deg) if deg else DEFAULT_DEGREES
        self.checks = _names("check", pick("check", None), CHECKS)
        self.max_failures = int(pick("max-failures", 0))

    def scaled(self, n: int) -> int:
        return max(1, math.ceil(n * self.scale))


def _checked(flag: str, check, value):
    """``check(value)``, with a ValueError turned into an exit naming the flag."""
    try:
        return check(value)
    except ValueError as exc:
        raise SystemExit(f"--{flag}: {exc}") from None


def _names(flag: str, value, valid) -> tuple[str, ...] | None:
    """The comma-separated names in ``value`` (one string or a list), each checked against ``valid``."""
    if value is None:
        return None
    names = [n for part in ([value] if isinstance(value, str) else value) for n in part.split(",")]
    return _checked(flag, partial(check_names, flag, valid=valid), names)


def _parse_combo_filter(text: str) -> dict:
    out = {}
    for part in text.replace(";", ",").split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise SystemExit(f"--combo: expected key=value pairs such as n1=200,lx=0.2,conf=none, not {text!r}")
        out[key.strip()] = value.strip()
    return out


def _filter_grid(grid, combo_filters):
    if not combo_filters:
        return grid
    keep = []
    for spec in grid:
        cid = combo_id(spec)
        fields = _parse_combo_filter(cid)
        for flt in combo_filters:
            wanted = _parse_combo_filter(flt)
            if all(fields.get(k) == v for k, v in wanted.items()):
                keep.append(spec)
                break
    if not keep:
        raise SystemExit(f"no combos match {combo_filters}")
    return keep


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(workers: int) -> dict:
    """What a run's speed and last bits depend on: cores, workers, the BLAS
    thread variables as set (None when unset) and the library versions.  The
    OS predictor's fit sums in BLAS, so its last bits follow the thread count."""
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        **{name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _cost(cfg: RunConfig, started: float) -> dict:
    """The run's wall time since ``started``, and ``peak_rss_mb``: the largest
    peak resident memory of one of its processes in MiB (``ru_maxrss`` of this
    process and, with ``--workers`` above 1, of its finished pool workers), or
    None where the ``resource`` module does not exist."""
    peak = None
    if resource is not None:
        who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if cfg.workers > 1 else (resource.RUSAGE_SELF,)
        # ru_maxrss is in bytes on macOS, in KiB elsewhere
        kib = max(resource.getrusage(w).ru_maxrss for w in who) / (1024 if sys.platform == "darwin" else 1)
        peak = round(kib / 1024, 1)
    return {"runtime_seconds": round(time.time() - started, 3), "peak_rss_mb": peak}


def _write_json(cfg: RunConfig, path: Path, payload: dict) -> None:
    """Strict JSON with the run's ``environment``: an undefined value (NaN, an
    infinity) is written as null."""
    payload = {**payload, "environment": _environment(cfg.workers)}
    # json reads its own NaN/Infinity tokens back through parse_constant
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    path.write_text(json.dumps(strict, indent=2, allow_nan=False) + "\n")


def _write_outputs(cfg: RunConfig, stem: str, text: str, payload: dict) -> None:
    cfg.out.mkdir(parents=True, exist_ok=True)
    if cfg.format in ("csv", "both"):
        (cfg.out / f"{stem}.csv").write_text(text)
    if cfg.format in ("json", "both"):
        _write_json(cfg, cfg.out / f"{stem}.json", payload)


def _grid_command(cfg: RunConfig, stem: str, estimators, predictor_kind: str = "learned") -> int:
    started = time.time()
    n_scenarios = cfg.scaled(100)
    n_runs = cfg.scaled(100)
    grid = _filter_grid(benchmark_grid(cfg.seed, predictor_kind=predictor_kind), cfg.combos)
    estimators = cfg.estimators or estimators
    print(
        f"{stem}: {len(grid)} combos x {n_scenarios} scenarios x {n_runs} runs, "
        f"estimators {','.join(estimators)}, workers {cfg.workers}",
        flush=True,
    )
    result = run_scenario_grid(
        grid,
        estimators=estimators,
        degrees=cfg.degrees,
        n_scenarios=n_scenarios,
        n_runs=n_runs,
        workers=cfg.workers,
    )
    payload = {
        "command": stem,
        "master_seed": cfg.seed,
        "scale": cfg.scale,
        "n_scenarios": n_scenarios,
        "n_runs": n_runs,
        **_cost(cfg, started),
        "rows": result.combo_rows,
    }
    if predictor_kind == "iid_noise":
        payload["robustness_report"] = _noise_robustness_report(result, cfg.degrees)
        for line in payload["robustness_report"]["lines"]:
            print(line)
    _write_outputs(cfg, stem, result.combo_csv_text(), payload)
    failures = sum(r["n_failures"] for r in result.combo_rows)
    print(f"{stem}: wrote {cfg.out}/{stem}.* ({failures} failed replications)")
    return 0 if failures <= cfg.max_failures else 1


def _noise_robustness_report(result: GridResult, degrees) -> dict:
    """Per-combo paired AOM-vs-OM gap in units of its Monte Carlo SE."""
    combos = sorted({r["combo_id"] for r in result.combo_rows})
    lines, entries = [], []
    for cid in combos:
        gap, se = result.rmse_gap(cid, "aom", "om", degrees)
        # a single run per scenario leaves the SE, and so the comparison, undefined
        within = abs(gap) <= 2 * se if math.isfinite(se) else None
        entries.append({"combo_id": cid, "gap": gap, "se": se, "within_2se": within})
        verdict = "SE undefined" if within is None else f"{'<=' if within else '>'} 2*SE {2 * se:.4f}"
        lines.append(f"  {cid}: AOM-OM gap {gap:+.4f} ({verdict})")
    return {"lines": lines, "entries": entries}


def cmd_table2(cfg: RunConfig) -> int:
    started = time.time()
    n_ground_truths = cfg.scaled(100)
    print(f"table2: 6 rows x {n_ground_truths} ground truths x 100 runs, workers {cfg.workers}", flush=True)
    result = run_table2(cfg.seed, n_ground_truths=n_ground_truths, n_runs=100, workers=cfg.workers)
    payload = {
        "command": "table2",
        "master_seed": cfg.seed,
        "scale": cfg.scale,
        "n_ground_truths": n_ground_truths,
        "n_runs": 100,
        "n1": 200,  # the linear-model benchmark runs a fixed 200-patient trial
        **_cost(cfg, started),
        "rows": result.table_rows,
    }
    _write_outputs(cfg, "table2", result.csv_text(), payload)
    print(f"table2: wrote {cfg.out}/table2.*")
    return 0


def cmd_checks(cfg: RunConfig) -> int:
    started = time.time()
    results = run_checks(cfg.checks or None, seed=cfg.seed, scale=cfg.scale)
    for res in results:
        print(res.line())
    payload = {
        "command": "checks",
        "master_seed": cfg.seed,
        "scale": cfg.scale,
        **_cost(cfg, started),
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    _write_outputs(cfg, "checks", csv_text(("name", "passed", "detail"), payload["results"]), payload)
    return 0 if all(r.passed for r in results) else 1


def cmd_export_world(cfg: RunConfig) -> int:
    started = time.time()
    seed_of = partial(derive_seed, cfg.seed, "export")
    world = gp_world(*grid_kernels(0.2, "mid"), 0.0, seed_of)
    table = world_lattice_table(world)
    f = os_predictor(world, 50_000, seed_of)
    trial = draw_trial(world, 200, seed_of("trial"))
    x1, y1 = trial.trial_arm_arrays(1)
    degree = cfg.degrees[0]
    fit_cfg = EstimatorConfig(degree, fold_seed=seed_of("folds"))
    g_fit, b_fit = (trial_fit(kind, x1, y1, f, fit_cfg) for kind in ("om", "abc"))
    xs = np.linspace(-1.0, 1.0, 201)
    fits = {"x": xs, "f1": f.predict(xs), "g_hat": g_fit.predict(xs), "b_hat": b_fit.predict(xs)}

    cfg.out.mkdir(parents=True, exist_ok=True)
    for name, columns in (("world_grid.csv", table), ("world_fits.csv", fits)):
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        (cfg.out / name).write_text(csv_text(list(columns), rows))
    if cfg.format in ("json", "both"):
        payload = {"command": "export-world", "master_seed": cfg.seed, "degree": degree, **_cost(cfg, started)}
        _write_json(cfg, cfg.out / "export_world.json", payload)
    print(f"export-world: wrote {cfg.out}/world_grid.csv and world_fits.csv")
    return 0


COMMANDS = {
    "figure3": lambda cfg: _grid_command(cfg, "figure3", GP_ESTIMATORS),
    "biasvar": lambda cfg: _grid_command(cfg, "biasvar", GP_ESTIMATORS),
    "ipwdr": lambda cfg: _grid_command(cfg, "ipwdr", ALL_ESTIMATORS),
    "table2": cmd_table2,
    "noise-robustness": lambda cfg: _grid_command(cfg, "noise_robustness", GP_ESTIMATORS, "iid_noise"),
    "checks": cmd_checks,
    "export-world": cmd_export_world,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(args)
    return COMMANDS[cfg.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
