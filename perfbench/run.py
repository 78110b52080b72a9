"""ppgen benchmark driver.

    python3 perfbench/run.py --workload gp-grid --seed 7 --seconds 38 --trace 0

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (perfbench/child.py) that imports ppgen from ./src.

--trace 0 measures the end-to-end metrics: several set-up-only interpreters
give set-up time, then whole passes of the workload repeat until about
--seconds have gone by (at least one).  Pass p works on world
p % workloads.WORLDS[workload]; a pass metric is the mean over worlds of the
median over each world's passes, and setup_s the median over every
interpreter.  Times are process CPU seconds; child.py says why.  --trace 1
runs one untraced and one traced pass, both on world 0, and reports the
per-layer metrics from the traced one; their CPU-time difference is the
tracing overhead.

Outputs are compared with perfbench/refs/<workload>-<seed>.json where that
file exists (seeds 7 and 11); on other seeds they are unverified against a
reference and only the consistency checks in workloads.py apply.  A pass
whose outputs fail counts every one of its estimates as failed.  The last
line of stdout is the JSON result; a run record and, when tracing, the spans
are written under perfbench/out/.

    python3 perfbench/run.py --workload gp-grid --seed 7 --write-reference

stores the outputs and CV-chosen penalties of a traced pass on each world as
the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, every child included
UNITS = {"cpu_s": "s", "estimates_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def spawn(args, extra: list[str], deadline: float, world: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--world", str(world)] + extra
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), world=world)


def verify(args, references: list[dict] | None, result: dict) -> list[str]:
    if "error" in result:
        return [f"pass failed: {result['error']}"]
    problems = workloads.check(args.workload, result["outputs"])
    if references is not None:
        reference = references[result["world"]]
        if not workloads.same(reference["outputs"], result["outputs"]):
            problems.append("outputs differ from the reference")
        if "penalties" in result and result["penalties"] != reference["penalties"]:
            problems.append("CV-chosen penalties differ from the reference")
    return problems


def per_world(passes: list[dict], key: str) -> float:
    """The mean over worlds of the median over each world's passes.

    Passes on one world differ by noise only, so within a world the median
    is taken.  gp-grid's worlds differ in real work (the treated OS count
    sets the OS predictor's size), so across worlds the mean is taken: it is
    the cost of an average world, n times which is a run over n worlds, and
    it is far steadier across seeds than a median whose worlds sit on a
    memory floor with a tail above it.
    """
    by_world: dict[int, list[float]] = {}
    for r in passes:
        by_world.setdefault(r["world"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_world.values())


def run_record(args) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (Path.cwd() / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": 1,
        "blas_threads": "OPENBLAS_NUM_THREADS=1 in each workload process",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "ppgen" / "__init__.py").is_file():
        print("run from the root of a ppgen checkout: ./src/ppgen is missing", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref_path = HERE / "refs" / f"{args.workload}-{args.seed}.json"
    references = json.loads(ref_path.read_text())["worlds"] if ref_path.exists() else None
    worlds = workloads.WORLDS[args.workload]
    record = run_record(args)
    record["reference"] = ref_path.name if references is not None else "none: outputs unverified"

    if args.write_reference:
        record["trace"] = 1
        stored = []
        for world in range(worlds):
            result = spawn(args, ["--trace"], deadline, world)
            if "error" in result or workloads.check(args.workload, result["outputs"]):
                print(f"not writing a reference: {result.get('error') or 'consistency checks fail'}",
                      file=sys.stderr)
                return 1
            stored.append({"outputs": result["outputs"], "penalties": result["penalties"]})
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"record": record, "worlds": stored}))
        print(f"wrote {ref_path.relative_to(Path.cwd())}")
        return 0

    if args.trace:
        passes = [spawn(args, [], deadline),
                  spawn(args, ["--trace", "--spans", str(out_dir / f"spans-{stem}.json")], deadline)]
    else:
        setups = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            passes.append(spawn(args, [], deadline, len(passes) % worlds))
            if "error" in passes[-1]:
                break
            # Start another pass only if it would end closer to --seconds
            # than stopping now, and well before the deadline.
            now, wall = time.monotonic(), passes[-1]["wall_s"] + passes[-1]["setup_s"]
            if now + wall / 2 > started + args.seconds or now + wall + 10 > deadline:
                break

    problems = [p for r in passes for p in verify(args, references, r)]
    ok = [r for r in passes if "error" not in r]
    per_pass = workloads.counts(args.workload, ok[0]["outputs"]) if ok else (1, 1)
    attempted = per_pass[0] * len(passes)
    failed = attempted if problems else sum(workloads.counts(args.workload, r["outputs"])[1] for r in ok)

    if args.trace:
        untraced, traced = passes
        metrics = dict(traced.get("layers", {}))
        if ok == passes:
            metrics["trace.overhead_s"] = traced["cpu_s"] - untraced["cpu_s"]
        record["failures_by_type"] = traced.get("failures_by_type")
        units = {k: "s" if k.endswith("_s") or k.endswith(".s") else "count" for k in metrics}
    else:
        metrics = {"setup_s": statistics.median(
            [r["setup_s"] for r in setups + passes if "error" not in r] or [float("nan")])}
        if ok:
            cpu = per_world(ok, "cpu_s")
            metrics["cpu_s"] = cpu
            metrics["estimates_per_cpu_s"] = per_pass[0] / cpu
            metrics["peak_rss_mb"] = per_world(ok, "peak_rss_mb")
            record["wall_s"] = per_world(ok, "wall_s")
        record["cpu_s_per_pass"] = [r.get("cpu_s") for r in passes]
        record["wall_s_per_pass"] = [r.get("wall_s") for r in passes]
        record["peak_rss_mb_per_pass"] = [r.get("peak_rss_mb") for r in passes]
        record["setup_s_per_probe"] = [r.get("setup_s") for r in setups + passes]
        units = UNITS
    units = {k: ("ratio" if k.startswith("share.") or k.endswith("ratio") else units[k]) for k in metrics}

    record.update(passes=len(passes), attempted=attempted, failed=failed,
                  failed_share=failed / attempted, problems=problems, metrics=metrics)
    (out_dir / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    for key in ("nproc", "workers", "blas_threads", "python", "numpy", "scipy", "git_commit", "reference"):
        print(f"# {key}: {record[key]}")
    for problem in problems:
        print(f"# problem: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if "wall_s" in record:
        print(f"# wall_s = {record['wall_s']:.6g} s (median pass; includes time the core was lent out)")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
