"""Tracer arithmetic and patching."""

import math
import sys

import pytest

import tracer
from gaborcert import certify, cli, lattice, window  # noqa: F401  (loads every module)


def _gaborcert_namespaces():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "gaborcert" or name.startswith("gaborcert.")
            for attr, value in vars(mod).items()}


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [(0, None, "root", 0.0, 10.0), (1, 0, "a", 1.0, 4.0),
             (2, 0, "b", 5.0, 9.0), (3, 2, "c", 6.0, 8.0)]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_restores_every_patched_attribute():
    before = _gaborcert_namespaces()
    t = tracer.Tracer()
    t.install()
    try:
        # certify and lattice each bind anchor_block; both are wrapped
        assert certify.anchor_block is not before[("gaborcert.certify", "anchor_block")]
        assert lattice.anchor_block is not before[("gaborcert.lattice", "anchor_block")]
        assert cli.main is not before[("gaborcert.cli", "main")]
    finally:
        t.uninstall()
    after = _gaborcert_namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_item_self_times_add_up_to_the_item(tmp_path):
    t = tracer.Tracer()
    t.install()
    try:
        rc = t.run_item(cli.main, ["certify", "--window", "bump", "--alpha", "1.0",
                                   "--beta", repr(1 / math.sqrt(2)),
                                   "--extent", "16", "--out",
                                   str(tmp_path / "c.json")])
    finally:
        t.uninstall()
    assert rc == 0 and t.items == 1 and not t.spans
    tot = t.totals
    assert tot["item.calls"] == 1 and tot["cli.main.calls"] == 1
    assert tot["certify.scan_determinant.calls"] == 1
    assert tot["lattice.anchor_block.calls"] > tot["lattice.build_Mx.calls"] > 0
    self_sum = sum(v for k, v in tot.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(tot["item.total_s"], rel=1e-9)
    m = tracer.layer_metrics(tot, t.items, overhead=1.0)
    assert m.keys() == tracer.layer_metric_units().keys()
    assert 0.0 < m["certify.hop_accept_ratio"] <= 1.0
    assert m["certify.floor_found_ratio"] == 1.0
    # json_dumps recurses through its module global: one span per document,
    # the certificate and its .meta.json sidecar
    assert tot["cli.json_dumps.calls"] == 2
