"""What the benchmark uses of gaborcert still exists.

``perfbench/tracer.py`` looks its targets up by name,
``perfbench/workloads.py`` builds CLI commands and ``perfbench/checks.py``
names the window each descriptor gives; a renamed or deleted function,
option or window form would otherwise break only the benchmark run.
"""

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from gaborcert import certify, cli, lattice, window

ROOT = Path(__file__).resolve().parents[1]


def _load(stem):
    name = "gaborcert_bench_" + stem
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


TRACER = _load("tracer")
TARGETS = TRACER.TARGETS
WORKLOADS = _load("workloads")
CHECKS = _load("checks")


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.function}")
def test_traced_function_resolves(target):
    module = importlib.import_module("gaborcert." + target.module)
    assert callable(getattr(module, target.function, None))


def test_traced_functions_are_distinct():
    # one object under two traced names would be wrapped twice
    objects = {}
    for t in TARGETS:
        fn = getattr(importlib.import_module("gaborcert." + t.module), t.function)
        objects.setdefault(id(fn), set()).add(t.label)
    assert all(len(labels) == 1 for labels in objects.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_workload_commands_parse(workload):
    """The warm-up and one full cycle of items, each with --out as the
    benchmark worker appends it."""
    wl = WORKLOADS.WORKLOADS[workload]
    argvs = [wl.warmup] + [it.argv for it in
                           WORKLOADS.items(workload, 0, stop=len(wl.slots))]
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(list(argv) + ["--out", "x"])
        assert args.subcommand == argv[0] and args.out == "x"


@pytest.mark.parametrize("spec", sorted(CHECKS.WINDOW_KINDS))
def test_benchmark_window_specs_parse_to_recorded_kind(spec):
    w = cli.parse_window(spec)
    assert (w.kind, w.order) == CHECKS.WINDOW_KINDS[spec]


def test_tracer_counts_a_decomposition():
    """--trace 1 reads result.blocks and b.kind of every decomposition."""
    params = lattice.LatticeParams(1.0, 1.0 / math.sqrt(2.0))
    w = window.bump()
    cert = certify.certify_frame(params, w)
    interval = (cert.interval_lo, cert.interval_hi)
    dec = certify.build_block_decomposition(params, w, 0.5 * sum(interval),
                                            certify.CertifyConfig().extent,
                                            interval)
    counts = TRACER._decomp_counts((params, w), dec)
    assert counts == {"certify.blocks": dec.n_blocks,
                      "certify.anchors_placed": len(dec.anchors)}
    assert dec.n_blocks == cert.n_blocks


def test_tracer_sees_the_breakpoints_of_a_scan(tmp_path):
    """structure_gaps calls structure_breakpoints through lattice's module
    global, so the tracer's wrapper counts the scan's breakpoints; a direct
    reference would leave the per-layer breakpoint metrics silently blank."""
    t = TRACER.Tracer()
    t.install()
    try:
        rc = t.run_item(cli.main, ["certify", "--window", "bump", "--alpha", "1.0",
                                   "--beta", repr(1 / math.sqrt(2)),
                                   "--extent", "16", "--out",
                                   str(tmp_path / "c.json")])
    finally:
        t.uninstall()
    assert rc == 0
    assert t.totals["lattice.structure_breakpoints.calls"] == 1
    assert t.totals["lattice.breakpoints"] > 0


@pytest.mark.parametrize("workload", ["certify_critical", "certify_long_extent"])
def test_seed0_certify_items_keep_their_reference_verdicts(tmp_path, workload):
    """Every referenced seed-0 item of the certify workloads passes the
    benchmark's own checks: its invariants, and its verdict, reason, interval,
    delta and block_sigma_min against the reference (1e-9 relative).  Their
    decomposition blocks clear the rounding margin by 10^8.5 or more, so
    the margin refuses none of them."""
    reference = json.loads((ROOT / "perfbench" / "reference"
                            / f"{workload}.json").read_text())
    verdicts = set()
    for item, ref in zip(WORKLOADS.items(workload, 0), reference["items"]):
        rc = cli.main(list(item.argv) + ["--out", str(tmp_path / item.out)])
        summary = CHECKS.check_item(item, rc, tmp_path)
        assert CHECKS.compare_reference(ref, item, summary) == [], item.argv
        verdicts.add(summary["verdict"])
    assert verdicts == {"Certified", "NotCertified"}
