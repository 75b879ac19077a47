"""Benchmark entry point.

    python3 perfbench/run.py --workload dd_c5 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the benchmark imports ddvar from
its `src/` directory and nothing else.  It prints one line per metric
(name, value, unit), the environment, and as its last line a JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.  The
run record (every operation, the environment) and, with tracing, the spans
are written under .bench_runs/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the last digits of J depend on the OpenBLAS thread
# count, and one thread per client keeps the timings steady.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_ddvar():
    """Put the checkout's src/ first on the path; refuse any other ddvar."""
    if not (SRC / "ddvar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ddvar sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ddvar
    if Path(ddvar.__file__).resolve().parent != (SRC / "ddvar").resolve():
        raise SystemExit(f"perfbench: imported ddvar from {ddvar.__file__}, "
                         f"not from {SRC}")


def _environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one client on one core: no migrations between cores mid-operation
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_ddvar()
    from bench import END_TO_END, Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}, "
                         f"pick from {sorted(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs_dir = ROOT / ".bench_runs"
    work_dir = runs_dir / f"{tag}-{os.getpid()}"
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), work_dir).execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = _environment()
    if args.trace:
        metrics = {name: {"value": value, "unit": unit,
                          **({"missing": True} if missing else {})}
                   for name, (value, unit, missing)
                   in run.per_layer().items()}
        run.tracer.save(runs_dir / f"{tag}-spans.npz")
    else:
        e2e = run.end_to_end()
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END}

    ops = run.ops
    counts = {
        "setups": len(run.setups),
        "untraced_ops": sum(1 for op in ops if not op["traced"]),
        "traced_ops": sum(1 for op in ops if op["traced"]),
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "samples": counts, "phases": run.phases,
        "operations": [{k: v for k, v in op.items()
                        if k in ("traced", "run_s", "failures")}
                       for op in ops],
        "metrics": metrics,
    }
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# {tag}: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, "
          f"BLAS threads 1; samples {counts}")
    for op in ops:
        for why in op["failures"]:
            print(f"# FAILED operation: {why}")
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':40s} {error_rate:14.6g} ratio")
    for name, m in metrics.items():
        flag = "  (missing)" if m.get("missing") else ""
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}{flag}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
