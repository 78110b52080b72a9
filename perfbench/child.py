"""One workload pass in a fresh interpreter; prints one JSON line.

Run by run.py from the root of a checkout, never directly.  BLAS gets one
thread in this process only, before numpy is first imported: on a 2-core box
flexible_fit was both slower and noisier with two.

The pass is single-threaded, so its CPU time is what its wall time would be
on an idle core.  Times are taken on the process CPU clock because wall time
on a shared virtual machine also counts the time the hypervisor gives the
core to someone else: three identical table2 passes took 6.0, 7.0 and 9.1 s
of wall time and 5.55, 5.56 and 5.67 s of CPU time.  Wall time is recorded
beside it.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--world", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file to write the spans to when tracing")
    args = parser.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    run = workloads.PREPARE[args.workload](args.seed, args.world)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    # CPU time since the process started: interpreter start, imports and
    # input construction.
    result = {"setup_s": time.process_time()}
    if not args.setup_only:
        started, wall_started = time.process_time(), time.perf_counter()
        outputs = run()
        result["cpu_s"] = time.process_time() - started
        result["wall_s"] = time.perf_counter() - wall_started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["outputs"] = outputs
        if tracer is not None:
            import tracing

            result["layers"] = tracing.layer_metrics(tracer, result["cpu_s"])
            result["penalties"] = tracer.penalties
            result["failures_by_type"] = dict(tracer.failures)
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
