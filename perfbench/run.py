"""Closed-loop benchmark of biphoton.

    python3 perfbench/run.py --workload dip_scan --seed 1 --seconds 30 --trace 0

One caller in one process runs whole passes over the workload's fixed,
seeded op list (see ``workloads.py``) until ``--seconds`` have passed, and
checks every op.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end: ``batch_s``, the sum over
ops of each op's median time across passes; ``peak_rss_mb`` of this
process; and ``setup_s``, the median over fresh processes of the time from
process start to the first timed op.  With ``--trace 1`` untraced and
traced passes alternate; the metrics are per layer and per traced pass
(see ``tracing.py``), and the tracing overhead is reported.  Spans are
written to ``.perfbench/spans-<workload>.json``.

Run from the repository root; biphoton is imported from ``src/``.  The
BLAS thread count is taken from the environment (``OPENBLAS_NUM_THREADS``)
and recorded on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MIN_PASSES = 3


def _set_up(workload: str, seed: int, work: str):
    """Imports, input generation and warm-up: everything before the first timed op."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import biphoton.cli

    if not os.path.abspath(biphoton.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"biphoton was imported from {biphoton.cli.__file__}, not from {src}")
    os.makedirs(work, exist_ok=True)
    ops = workloads.build(workload, seed, work)
    warm = os.path.join(work, "warm-up.json")
    workloads.run_cli(["transform", "--model", "bell", "--omega-a", "-1", "--omega-b", "1",
                        "--grid-points", "33", "-o", warm])
    return ops


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", os.path.join(OUT, f"setup{k}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _measure(ops, seconds: float, tracer=None):
    """Whole passes until ``seconds`` have passed; with a tracer, every other pass is traced."""
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    digests = [None] * len(ops)
    attempted = failed = passes = 0
    failures, mismatches = [], []
    t_start = time.perf_counter()
    min_passes = MIN_PASSES + (tracer is not None)
    while passes < min_passes or time.perf_counter() - t_start < seconds:
        tracing = tracer is not None and passes % 2 == 1
        if tracing:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # a failing op is counted, not fatal
                    failed += 1
                    failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                (traced if tracing else plain)[i].append(time.perf_counter() - t0)
                try:  # the checks call no biphoton function, so they leave no spans
                    digest = op.check(out)
                    if digests[i] not in (None, digest):
                        raise workloads.CheckFailed(f"{op.label}: output differs between passes")
                    digests[i] = digest
                except (workloads.CheckFailed, LookupError, TypeError, ValueError) as exc:
                    mismatches.append(f"{op.label}: {exc!r}")
        finally:
            if tracing:
                tracer.uninstall()
        passes += 1
    return plain, traced, attempted, failed, passes, failures, mismatches


def _batch(times) -> float:
    return sum(statistics.median(t) for t in times if t)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        try:
            _set_up(args.workload, args.seed, args.setup_only)
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        return 0

    work = os.path.join(OUT, f"work-{args.workload}")
    try:
        ops = _set_up(args.workload, args.seed, work)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        else:
            setup_s = _setup_seconds(args)
        plain, traced, attempted, failed, passes, failures, mismatches = _measure(
            ops, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures:
        sys.stderr.write(f"FAILED {line}\n")
    for line in mismatches:
        sys.stderr.write(f"WRONG {line}\n")
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    sys.stderr.write(f"{args.workload} seed {args.seed}: {passes} passes of {len(ops)} ops, "
                     f"nproc {os.cpu_count()}, OPENBLAS_NUM_THREADS {blas}\n")
    for op, t in zip(ops, plain):
        sys.stderr.write(f"  {statistics.median(t) if t else math.nan:9.4f} s  {op.label}\n")

    if args.trace:
        traced_passes = passes // 2
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in tracer.layer_metrics(traced_passes).items()}
        overhead = _batch(traced) - _batch(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        sys.stderr.write(f"tracing overhead: batch_s {_batch(traced):.4f} traced - "
                         f"{_batch(plain):.4f} untraced = {overhead:+.4f} s\n")
        for name, m in metrics.items():
            sys.stderr.write(f"  {name:36s} {m['value']:.6g} {m['unit']}\n")
        with open(os.path.join(OUT, f"spans-{args.workload}.json"), "w") as fh:
            json.dump({"passes": traced_passes, "spans": tracer.spans}, fh)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"batch_s": {"value": _batch(plain), "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
