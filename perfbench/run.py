#!/usr/bin/env python3
"""Benchmark of the spnexplain pipeline: learn -> score -> explain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explain-backward-n100 --seed 0 \\
        --seconds 20 --trace 0

`--trace 0` measures the workload untraced and reports the `end_to_end`
metrics named in BENCHMARK.json. `--trace 1` runs it once untraced and once
traced, reports the `per_layer` metrics, and writes the spans to
`.perfbench-work/trace-<workload>-seed<seed>.jsonl`. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The package is imported from `src/` of the checkout; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("explain-backward-n100", "cli-mixed-n50")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed work per run; a phase runs at least once")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must be set before numpy is imported
        os.environ[var] = str(nproc)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "spnexplain", "__init__.py")):
        return fail(f"no spnexplain package under {SRC}")
    if not os.path.isfile(spec_path):
        return fail(f"{spec_path} not found")
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import numpy
    import spnexplain
    if os.path.dirname(os.path.dirname(os.path.abspath(spnexplain.__file__))) != SRC:
        return fail(f"spnexplain was imported from {spnexplain.__file__}, not {SRC}")
    import workloads
    from tracer import Tracer

    env = {"nproc": nproc, "blas_threads": nproc, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
           "machine": platform.machine()}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    classes = {cls.name: cls for cls in (workloads.ExplainBackward, workloads.CliMixed)}
    tally, tracer = workloads.Tally(), Tracer()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = classes[args.workload](spnexplain, args.seed, workdir, tally, tracer)
        values = workload.trace() if args.trace else workload.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path, dict(env, workload=args.workload, seed=args.seed))
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
        for name in tracer.absent:
            print(f"absent: {name} no longer exists; its per-layer metrics read 0")
    else:
        print(f"speed: the machine ran at {workload.speed.factor():.4f} x the reference "
              f"speed; timings below are scaled to the reference speed")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        return fail("metrics measured do not match BENCHMARK.json: "
                    f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        if not math.isfinite(value):
            tally.record(f"metric {m['name']}", [f"value {value!r} is not finite"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
