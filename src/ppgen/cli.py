"""Command-line driver for the experiment grids and theory checks.

The subcommands are the entries of ``COMMANDS``.  Every run is deterministic
given --seed (or the PPGEN_SEED environment variable) and emits CSV and/or
JSON into --out.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

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
from .estimators import Arm, EstimatorConfig, trial_fit
from .grid import (
    ALL_ESTIMATORS,
    CONFOUNDING_SETTINGS,
    DEFAULT_DEGREES,
    ESTIMATORS,
    GP_ESTIMATORS,
    TABLE2_N1,
    TABLE2_RUNS,
    Grid,
    GridResult,
    benchmark_grid,
    check_degrees,
    grid_kernels,
    run_scenario_grid,
    run_table2,
)

DEFAULT_SEED = 1729
FORMATS = ("csv", "json", "both")


def _fail(message: str):
    raise ValueError(message)


def _flag_type(check: Callable, convert: Callable = str) -> Callable:
    """The argparse type that reads a flag's text with ``convert`` (whose
    ValueError reads "invalid <convert> value") and returns ``check`` of that
    (whose ValueError message is the flag's error)."""

    def flag_type(text: str):
        value = convert(text)
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    flag_type.__name__ = convert.__name__
    return flag_type


def _at_least(low: int) -> Callable:
    return _flag_type(lambda n: n if n >= low else _fail(f"must be at least {low}"), int)


def _names(what: str, valid) -> Callable:
    """The type of a flag of comma-separated names, each in ``valid`` and none twice."""
    return _flag_type(lambda text: check_names(what, text.split(","), valid))


_degrees = _flag_type(lambda text: check_degrees([int(d) for d in text.split(",")]))


@_flag_type
def _combo(text: str) -> dict:
    """A --combo filter's key=value pairs: keys among n1, lx and conf, an
    integer n1, a float lx and a conf among the confounding settings."""
    pairs = [[s.strip() for s in part.split("=", 1)] for part in text.replace(";", ",").split(",")]
    if not all(len(pair) == 2 for pair in pairs):
        _fail(f"expected key=value pairs such as n1=200,lx=0.2,conf=none, not {text!r}")
    check_names("combo keys", [key for key, _ in pairs], ("n1", "lx", "conf"))
    combo = dict(pairs)
    if "conf" in combo:
        check_names("confounding", [combo["conf"]], CONFOUNDING_SETTINGS)
    for key, convert in (("n1", int), ("lx", float)):
        if key in combo:
            combo[key] = convert(combo[key])
    return combo


_COMMON_FLAGS = {  # flag -> its add_argument keywords; every command reads these
    "config": dict(type=Path, help="JSON config file; flags override it"),
    "scale": dict(type=_flag_type(lambda s: s if 0.0 < s <= 1.0 else _fail("must lie in (0, 1]"), float),
                  help="count multiplier in (0, 1]"),
    "seed": dict(type=int, help="master seed (env PPGEN_SEED fallback)"),
    "out": dict(type=Path, help="output directory"),
    "format": dict(type=_flag_type(lambda f: f if f in FORMATS else _fail(
        f"must be one of {', '.join(FORMATS)}, not {f!r}")), metavar="{csv,json,both}", help="output format"),
    "workers": dict(type=_at_least(1), help="process pool size"),
}


def build_parser(**kwargs) -> argparse.ArgumentParser:
    """The command line's parser: each command's reads the common flags and
    its own selection flags, and holds only those given.  ``kwargs`` go to it
    and to each command's."""
    parser = argparse.ArgumentParser(prog="ppgen", description=__doc__, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS, **kwargs)
        for flag, keywords in {**_COMMON_FLAGS, **command.flags}.items():
            command_parser.add_argument(f"--{flag}", **keywords)
    return parser


def _parse_entries(command: str, source: str, entries: dict) -> dict:
    """``entries`` (flag name -> value) parsed as ``command``'s flags: each is
    one ``--name=value`` (a list stands for its comma-separated value, or for
    one ``--combo`` per item).  A bad name or value exits naming ``source``."""
    if not isinstance(entries, dict):
        raise SystemExit(f"{source}: expected a JSON object of flag names and values")
    if "config" in entries:
        raise SystemExit(f"{source}: a config file cannot name another")
    tokens = []
    for key, value in entries.items():
        for item in (value if key == "combo" and isinstance(value, list) else [value]):
            tokens.append(f"--{key}={','.join(map(str, item)) if isinstance(item, list) else item}")
    try:
        args, unknown = build_parser(allow_abbrev=False, exit_on_error=False).parse_known_args([command, *tokens])
    except argparse.ArgumentError as exc:
        raise SystemExit(f"{source}: {exc}") from None
    if unknown:
        raise SystemExit(f"{source}: unrecognized arguments: {' '.join(unknown)}")
    return vars(args)


class RunConfig:
    """Merged view of the defaults, PPGEN_SEED, the config file and explicit flags,
    each winning over the ones before it.  The command's parser checks each source
    on its own, so a bad value exits naming its source."""

    def __init__(self, args: argparse.Namespace):
        self.command, self.stem = args.command, args.command.replace("-", "_")  # stem: the files' name
        config = vars(args).get("config")
        try:
            entries = json.loads(config.read_text()) if config else {}
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise SystemExit(f"--config {config}: {exc}") from None
        values = {
            "scale": 1.0, "out": Path("ppgen-out"), "format": "both", "workers": os.cpu_count() or 1,
            **(_parse_entries(self.command, f"--config {config}", entries) if config else {}),
            **vars(args),
        }
        if "seed" not in values and "PPGEN_SEED" in os.environ:
            values.update(_parse_entries(self.command, "PPGEN_SEED", {"seed": os.environ["PPGEN_SEED"]}))
        self.scale, self.seed = values["scale"], values.get("seed", DEFAULT_SEED)
        self.out, self.format, self.workers = values["out"], values["format"], values["workers"]
        self.combos, self.estimators = values.get("combo"), values.get("estimators")
        self.degrees, self.max_failures = values.get("degrees", DEFAULT_DEGREES), values.get("max_failures", 0)
        try:  # each --check flag's names, joined: one named by two flags is an error
            self.checks = values.get("check") and check_names("check", values["check"], CHECKS)
        except ValueError as exc:
            raise SystemExit(f"--check: {exc}") from None
        try:  # before any work, so that an --out that cannot be a directory costs none
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"--out {self.out}: {exc}") from None

    def scaled(self, n: int) -> int:
        return max(1, math.ceil(n * self.scale))


def _filter_grid(grid: Grid, wanted: list[dict] | None) -> Grid:
    """The combos of ``grid`` that match any of the ``--combo`` filters (all of them without one)."""
    if not wanted:
        return grid
    keep = [combo for combo in grid.combos if any(w.items() <= combo._asdict().items() for w in wanted)]
    if not keep:
        raise SystemExit(f"no combos match {wanted}")
    return replace(grid, combos=keep)


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# The extension module that links each library's bundled OpenBLAS, and the
# suffix of that OpenBLAS's exported names (numpy's has 64-bit integers).
_OPENBLAS = {"numpy": ("numpy.linalg._umath_linalg", "64_"), "scipy": ("scipy.linalg._fblas", "")}


def _openblas(module: str, suffix: str) -> dict:
    """The effective thread count and the kernel core name of the OpenBLAS
    that the extension ``module`` links, read through ctypes, or
    "unavailable" where that library does not export them."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        corename = getattr(lib, f"scipy_openblas_get_corename{suffix}")
    except (ImportError, OSError, AttributeError):
        return {"threads": "unavailable", "core": "unavailable"}
    threads.argtypes, threads.restype = [], ctypes.c_int
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return {"threads": threads(), "core": corename().decode()}


def _numpy_cpu() -> dict | str:
    """numpy's baseline CPU targets and the dispatched targets this CPU runs,
    or "unavailable" where numpy does not export them."""
    try:
        umath = importlib.import_module("numpy._core._multiarray_umath")
        return {"baseline": list(umath.__cpu_baseline__),
                "dispatched": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]}
    except (ImportError, AttributeError):
        return "unavailable"


def _environment(workers: int) -> dict:
    """What a run's speed and last bits depend on: cores, workers, the BLAS
    thread variables as set (None when unset), the library versions, the
    thread count and kernel each library's OpenBLAS actually runs, and the
    CPU targets numpy dispatches to.  The OS predictor's fit sums in BLAS, so
    its last bits follow the thread count and the kernels."""
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        **{name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{f"{lib}_openblas": _openblas(*where) for lib, where in _OPENBLAS.items()},
        "numpy_cpu": _numpy_cpu(),
    }


def _cost(cfg: RunConfig, started: float) -> dict:
    """The run's elapsed time since ``started`` (a ``time.perf_counter()``
    reading, which no clock adjustment moves), and ``peak_rss_mb``: the largest
    peak resident memory of one of its processes in MiB (``ru_maxrss`` of this
    process and, with ``--workers`` above 1, of its finished pool workers), or
    None where the ``resource`` module does not exist."""
    peak = None
    if resource is not None:
        who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if cfg.workers > 1 else (resource.RUSAGE_SELF,)
        # ru_maxrss is in bytes on macOS, in KiB elsewhere
        kib = max(resource.getrusage(w).ru_maxrss for w in who) / (1024 if sys.platform == "darwin" else 1)
        peak = round(kib / 1024, 1)
    return {"runtime_seconds": round(time.perf_counter() - started, 3), "peak_rss_mb": peak}


def _write_outputs(cfg: RunConfig, csvs: dict[str, str], payload: dict) -> None:
    """The run's CSVs (file name -> text) and its JSON payload, as ``--format``
    asks.  The payload is strict JSON with the run's ``environment``: an
    undefined value (NaN, an infinity) is written as null."""
    written = list(csvs) if cfg.format in ("csv", "both") else []
    for name in written:
        (cfg.out / name).write_text(csvs[name])
    if cfg.format in ("json", "both"):
        written.append(f"{cfg.stem}.json")
        # json reads its own NaN/Infinity tokens back through parse_constant
        strict = json.loads(json.dumps({**payload, "environment": _environment(cfg.workers)}),
                            parse_constant=lambda _: None)
        (cfg.out / written[-1]).write_text(json.dumps(strict, indent=2, allow_nan=False) + "\n")
    print(f"{cfg.command}: wrote {', '.join(written)} to {cfg.out}")


Outputs = tuple[dict[str, str], dict, int]  # CSV texts by file name, JSON payload fields, exit code


def _grid_command(cfg: RunConfig, estimators, predictor_kind: str = "learned") -> Outputs:
    n_scenarios = cfg.scaled(100)
    n_runs = cfg.scaled(100)
    grid = _filter_grid(benchmark_grid(cfg.seed, predictor_kind=predictor_kind), cfg.combos)
    estimators = cfg.estimators or estimators
    print(f"{cfg.command}: {len(grid.combos)} combos x {n_scenarios} scenarios x {n_runs} runs, "
          f"estimators {','.join(estimators)}, workers {cfg.workers}", flush=True)
    result = run_scenario_grid(
        grid,
        estimators=estimators,
        degrees=cfg.degrees,
        n_scenarios=n_scenarios,
        n_runs=n_runs,
        workers=cfg.workers,
    )
    fields = {"n_scenarios": n_scenarios, "n_runs": n_runs, "rows": result.combo_rows}
    if predictor_kind == "iid_noise":
        fields["robustness_report"] = _noise_robustness_report(result, cfg.degrees)
        for line in fields["robustness_report"]["lines"]:
            print(line)
    failures = sum(r["n_failures"] for r in result.combo_rows)
    print(f"{cfg.command}: {failures} failed replications")
    return {f"{cfg.stem}.csv": result.combo_csv_text()}, fields, 0 if failures <= cfg.max_failures else 1


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


def cmd_table2(cfg: RunConfig) -> Outputs:
    n_ground_truths = cfg.scaled(100)
    print(f"table2: 6 rows x {n_ground_truths} ground truths x {TABLE2_RUNS} runs, workers {cfg.workers}", flush=True)
    result = run_table2(cfg.seed, n_ground_truths=n_ground_truths, n_runs=TABLE2_RUNS, workers=cfg.workers)
    fields = {"n_ground_truths": n_ground_truths, "n_runs": TABLE2_RUNS, "n1": TABLE2_N1, "rows": result.table_rows}
    return {"table2.csv": result.csv_text()}, fields, 0


def cmd_checks(cfg: RunConfig) -> Outputs:
    results = run_checks(cfg.checks or None, seed=cfg.seed, scale=cfg.scale)
    for res in results:
        print(res.line())
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    code = 0 if all(r.passed for r in results) else 1
    return {"checks.csv": csv_text(("name", "passed", "detail"), rows)}, {"results": rows}, code


def cmd_export_world(cfg: RunConfig) -> Outputs:
    seed_of = partial(derive_seed, cfg.seed, "export")
    world = gp_world(*grid_kernels(0.2, "mid"), seed_of)
    f = os_predictor(world, 50_000, seed_of)
    x1, y1 = draw_trial(world, 200, seed_of("trial")).trial_arm_arrays(1)
    arm = Arm(x1, y1, f.predict(x1))
    degree = cfg.degrees[0]  # the one given, or 1 (the first default) without --degrees
    fit_cfg = EstimatorConfig(degree, fold_seed=seed_of("folds"))
    g_fit, b_fit = trial_fit("om", arm, fit_cfg), trial_fit("abc", arm, fit_cfg)
    xs = np.linspace(-1.0, 1.0, 201)
    fits = {"x": xs, "f1": f.predict(xs), "g_hat": g_fit.predict(xs), "b_hat": b_fit.predict(xs)}
    csvs = {name: csv_text(list(columns), [dict(zip(columns, row)) for row in zip(*columns.values())])
            for name, columns in (("world_grid.csv", world_lattice_table(world)), ("world_fits.csv", fits))}
    return csvs, {"degree": degree}, 0


class Command(NamedTuple):
    """One subcommand: its help line, the selection flags it reads beside the
    common ones (flag -> add_argument keywords) and ``run(cfg)``, which
    returns its ``Outputs``."""

    help: str
    flags: dict[str, dict]
    run: Callable[[RunConfig], Outputs]


_GRID_FLAGS = {  # flag -> its add_argument keywords
    "combo": dict(type=_combo, action="append", metavar="n1=200,lx=0.2,conf=none",
                  help="restrict to matching grid combos (repeatable)"),
    "estimators": dict(type=_names("estimators", ESTIMATORS), help="comma-separated estimator names"),
    "degrees": dict(type=_degrees, help="comma-separated polynomial degrees"),
    "max-failures": dict(type=_at_least(0), help="failed replications tolerated"),
}
COMMANDS = {
    "figure3": Command("RMSE of OM / OS-OM / ABC / AOM over the 12-combo grid", _GRID_FLAGS,
                       partial(_grid_command, estimators=GP_ESTIMATORS)),
    "ipwdr": Command("the grid with IPW and doubly-robust estimators included", _GRID_FLAGS,
                     partial(_grid_command, estimators=ALL_ESTIMATORS)),
    "table2": Command("the linear-model benchmark rows", {}, cmd_table2),
    "noise-robustness": Command("the grid with the i.i.d.-noise predictor", {**_GRID_FLAGS, "estimators": dict(
        type=_flag_type(lambda names: names if {"om", "aom"} <= set(names) else _fail(
            "noise-robustness compares aom with om, so it needs both"), _names("estimators", ESTIMATORS)),
        help="comma-separated estimator names, om and aom among them")},
        partial(_grid_command, estimators=GP_ESTIMATORS, predictor_kind="iid_noise")),
    "checks": Command("run the theory checks and report PASS/FAIL", {"check": dict(
        type=_names("check", CHECKS), action="extend", help="comma-separated check names (repeatable)")}, cmd_checks),
    "export-world": Command("write one world's lattice and fitted curves as CSV", {"degrees": dict(
        type=_flag_type(lambda d: d if len(d) == 1 else _fail(
            f"export-world fits one degree, not {','.join(map(str, d))}"), _degrees),
        help="the one polynomial degree to fit")}, cmd_export_world),
}


def main(argv=None) -> int:
    """Run one command, write its outputs (also when it fails a gate) and
    return its exit code."""
    cfg = RunConfig(build_parser().parse_args(argv))
    started = time.perf_counter()
    csvs, fields, code = COMMANDS[cfg.command].run(cfg)
    payload = {"command": cfg.command, "master_seed": cfg.seed, "scale": cfg.scale, **fields, **_cost(cfg, started)}
    _write_outputs(cfg, csvs, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
