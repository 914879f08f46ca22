"""gaborcert benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload certify_critical --seed 0 \\
        --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from
``src/gaborcert``.  The run spawns fresh worker processes: several that only
import and finish the warm-up item (set-up time), then one that runs the
workload.  It checks every item's output, prints each metric by name and
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A per-run report with the environment, the artifact
digests and the verdict mix goes to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import hostspeed   # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

ROOT = HERE.parent
SETUP_PROBES = 4            # set-up-only processes of an untraced run; the
                            # workload process gives a 5th set-up sample
HARD_LIMIT_S = 170.0        # the whole run, set-up included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    """Environment with every BLAS thread count capped at nproc, and a fixed
    hash seed so that set and dict orders repeat from run to run."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def _spawn(args, workdir, deadline, setup_only, result=None):
    """Start a worker; return (process, seconds from spawn to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if result:
        cmd += ["--result", str(result)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError(f"worker did not become ready (exit code {proc.returncode})")
    return proc, setup_s


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _wait(proc, deadline) -> None:
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded the time limit") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def nearest_rank(values, pct: float) -> float:
    """The pct-th percentile by nearest rank (the smallest value with at
    least pct% of the values at or below it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _load_reference(workload: str):
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_records(workload, seed, records, workdir):
    """Output checks of every record; returns the check report."""
    ref = _load_reference(workload) if seed == workloads.DEFAULT_SEED else None
    ref_items = ref["items"] if ref else []
    failures, digests, summaries = [], {}, []
    ran_referenced, ref_summaries = [], []
    digest_mismatches = 0
    for rec in records:
        item = workloads.item(workload, seed, rec["index"])
        problems = []
        summary = None
        if rec["rc"] not in (0, 2) or rec["error"]:
            problems.append(f"exit code {rec['rc']}: {rec['error'].strip()}")
        else:
            try:
                summary = checks.check_item(item, rec["rc"], workdir)
                digests[item.index] = checks.digests(item, workdir)
            except (checks.CheckFailed, OSError, ValueError, KeyError,
                    TypeError) as exc:
                problems.append(f"{type(exc).__name__}: {exc}")
        if summary is not None:
            summaries.append((item.kind, summary))
            if item.index < len(ref_items):
                ref_item = ref_items[item.index]
                problems += checks.compare_reference(ref_item, item, summary)
                ref_summaries.append((item.kind, ref_item["summary"]))
                ran_referenced.append((item.kind, summary))
                if ref_item["digests"] != digests[item.index]:
                    digest_mismatches += 1
        if problems:
            failures.append({"index": item.index, "argv": list(item.argv),
                             "problems": problems})
    mix = checks.mix(summaries)
    report = {"failures": failures, "digests": digests, "mix": mix,
              "digest_mismatches": digest_mismatches,
              "rowsum_bound_violations": sum(
                  bool(s.get("rowsum_violation")) for _, s in summaries),
              "referenced_items": len(ref_summaries)}
    report["mix_ok"] = True
    if seed == workloads.DEFAULT_SEED:
        if ref is None:
            report["mix_ok"] = False
            report["mix_error"] = "no reference recorded for the default seed"
        else:
            report["reference_mix"] = checks.mix(ref_summaries)
            report["mix_ok"] = (report["reference_mix"]
                                == checks.mix(ran_referenced))
    return report


def latencies_s(records, host_scaled: bool) -> list:
    """Item latencies, at the reference host speed (see hostspeed.py) when
    ``host_scaled``."""
    if not host_scaled:
        return [r["latency_s"] for r in records]
    return [r["latency_s"] * hostspeed.REFERENCE_S / r["ref_s"]
            for r in records]


def end_to_end(records, setup_samples, peak_rss_mib, pct, host_scaled):
    """End-to-end metrics.  items_per_s is one client's rate: items over the
    sum of their times."""
    lat_s = latencies_s(records, host_scaled)
    lat_ms = [1000.0 * x for x in lat_s]
    return {
        "items_per_s": (len(records) / math.fsum(lat_s), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (nearest_rank(lat_ms, pct), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def run(args) -> dict:
    if not (ROOT / "src" / "gaborcert" / "cli.py").is_file():
        raise BenchError(f"no gaborcert sources under {ROOT / 'src'}")
    deadline = time.monotonic() + HARD_LIMIT_S
    base = ROOT / ".perfbench-work"
    workdir = base / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "worker-result.json"

    setup_samples = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, setup_s = _spawn(args, workdir, deadline, setup_only=True)
        _wait(proc, deadline)
        setup_samples.append(setup_s)
    proc, setup_s = _spawn(args, workdir, deadline, setup_only=False,
                           result=result_path)
    setup_samples.append(setup_s)
    _wait(proc, deadline)
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    records = res["records"]
    if not records:
        raise BenchError("the worker ran no items")
    report = check_records(args.workload, args.seed, records, workdir)
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        values = tracer.layer_metrics(res["layer_totals"], res["traced_items"],
                                      res["overhead"])
        units = tracer.layer_metric_units()
        metrics = {k: (v, units[k]) for k, v in values.items()}
    else:
        metrics = end_to_end(records, setup_samples, res["peak_rss_mib"],
                             wl.tail_percentile, wl.host_scaled)
    failed = len(report["failures"])
    beyond = workloads.items_beyond_tail(len(records), wl.tail_percentile)
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, env=res["env"], setup_samples_s=setup_samples,
        attempted=len(records), failed=failed,
        fail_ratio=failed / len(records), wall_s=res["wall_s"],
        tail_percentile=wl.tail_percentile, items_beyond_tail=beyond,
        records=records,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    if args.trace:
        report["layer_totals"] = res["layer_totals"]
    shutil.rmtree(workdir, ignore_errors=True)
    with open(base / f"{workdir.name}.report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def _print_report(report) -> None:
    env = report["env"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  closed loop, 1 client")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, nproc {env['nproc']}, blas threads "
          f"{[b['threads'] for b in env['blas_threads']]}")
    print(f"items: {report['attempted']} attempted, {report['failed']} failed, "
          f"fail_ratio {report['fail_ratio']:.4f}, digest_mismatches "
          f"{report['digest_mismatches']} of {report['referenced_items']} "
          f"referenced items")
    if report["rowsum_bound_violations"]:
        print(f"known defect: framebounds sigma_max_sup above rowsum_bound on "
              f"{report['rowsum_bound_violations']} items (see README.md)")
    if not report["trace"]:
        print(f"latency_tail_ms is p{report['tail_percentile']:g}; "
              f"{report['items_beyond_tail']} items beyond it")
        if report["items_beyond_tail"] < workloads.TAIL_BEYOND:
            print(f"warning: fewer than {workloads.TAIL_BEYOND} items beyond "
                  f"the tail percentile")
    print(f"verdict mix: {report['mix']}")
    if not report["mix_ok"]:
        print(f"MIX MISMATCH: reference {report.get('reference_mix')} "
              f"{report.get('mix_error', '')}")
    for f in report["failures"][:10]:
        print(f"FAILED item {f['index']} {' '.join(f['argv'])}: "
              f"{'; '.join(f['problems'])}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    print(json.dumps({"correct": report["failed"] == 0 and report["mix_ok"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
