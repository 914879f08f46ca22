"""One workload run in a fresh process: import, warm up, then a closed loop.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --trace 0|1 [--result FILE] [--setup-only]

It runs in its work directory: the items' artifacts are written there under
relative names, so a command line never holds a path of the machine.

The process imports ``gaborcert.cli`` from ``<root>/src``, runs the
workload's fixed warm-up item and prints ``READY``; the parent times set-up
from spawn to that line.  With ``--setup-only`` it exits there.  Otherwise
one client sends one item at a time, each only after the previous one
returned, and writes the per-item records to ``--result`` as JSON.  The loop
stops at the first cycle boundary after ``--seconds``, so a run measures
whole cycles of the workload's slots, and not before the items leave 10
beyond the workload's tail percentile.  Without ``--trace``, on a workload
whose times are scaled to the host speed, the probe (``hostspeed.py``) runs
before the first item and after every item, outside the items' latencies.

With ``--trace 1`` the cycles of the first half of the time run untraced,
then the same items run again under the tracer; the ratio of the two wall
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _run_cli(main, argv):
    """(exit code, error text) of one in-process CLI call."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(list(argv))
    except Exception:                       # an item that raises has failed
        return 1, traceback.format_exc(limit=3)
    return rc, (sink.getvalue()[-500:] if rc not in (0, 2) else "")


def _blas_threads() -> list:
    """Thread counts of the OpenBLAS libraries loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and "/" in line})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"lib": os.path.basename(path), "threads": fn()})
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": _blas_threads(),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}}


def _loop(main, gen, cycle, count=None, seconds=None, run=None,
          probe=None, min_items=0):
    """Closed loop over gen's items: ``count`` items, or whole cycles of
    ``cycle`` items until ``seconds`` have passed and at least ``min_items``
    items have run.

    Returns (records, wall seconds).  ``run`` wraps each call (the tracer).
    ``probe``, when given, is timed before the first item and after each
    item; the mean of the probes on either side of an item goes into its
    record as ``ref_s``.
    """
    records = []
    if probe:
        probe()                 # the first call pays NumPy's one-time costs
        before = probe()
    t0 = time.perf_counter()
    deadline = t0 + (seconds or 0.0)
    for item in gen:
        done = len(records)
        if count is not None and done >= count:
            break
        if (count is None and done and done % cycle == 0
                and done >= min_items and time.perf_counter() >= deadline):
            break
        argv = item.argv + ("--out", item.out)
        start = time.perf_counter()
        rc, err = run(_run_cli, main, argv) if run else _run_cli(main, argv)
        records.append({"index": item.index, "rc": rc, "error": err,
                        "latency_s": time.perf_counter() - start})
        if probe:
            after = probe()
            records[-1]["ref_s"] = (before + after) / 2.0
            before = after
    return records, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from gaborcert import cli
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rc, err = _run_cli(cli.main, wl.warmup + ("--out", "warmup.out"))
    if rc not in (0, 2):
        print(f"warm-up item failed with exit code {rc}: {err}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    gen = workloads.items(args.workload, args.seed)
    cycle = len(wl.slots)
    result = {"env": environment()}
    if args.trace:
        from tracer import Tracer
        first, untraced_s = _loop(cli.main, gen, cycle,
                                  seconds=args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            records, traced_s = _loop(
                cli.main, workloads.items(args.workload, args.seed), cycle,
                count=len(first), run=tracer.run_item)
        finally:
            tracer.uninstall()
        result.update(records=records, wall_s=traced_s,
                      overhead=traced_s / untraced_s,
                      layer_totals=dict(tracer.totals),
                      traced_items=tracer.items)
    else:
        from hostspeed import probe
        records, wall = _loop(cli.main, gen, cycle, seconds=args.seconds,
                              probe=probe if wl.host_scaled else None,
                              min_items=workloads.min_items(wl))
        result.update(records=records, wall_s=wall)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
