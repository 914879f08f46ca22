"""Spans around gaborcert's public functions, timed from outside the library.

``Tracer.install`` replaces each traced function, in every loaded gaborcert
module namespace that binds it (``certify`` holds its own ``anchor_block``,
for example), with a wrapper that records a span: id, parent id, name,
start and end.  ``uninstall`` puts every original back.  Spans of one item
are kept in memory; when the item ends, ``run_item`` folds them into
per-name totals (calls, self time, inclusive time, counters) and clears them.

A call made directly inside a span of the same name (the recursion of
``cli.json_dumps``) is folded into the outer span instead of opening its own.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _scan_counts(args, result):
    return {"certify.scan.samples": len(result.x_samples),
            "certify.scan.gaps": len(set(result.gap_index.tolist()))}


def _decomp_counts(args, result):
    return {"certify.blocks": len(result.blocks),
            "certify.anchors_placed": sum(b.kind == "anchor"
                                          for b in result.blocks)}


@dataclass(frozen=True)
class Target:
    module: str                 # defining module, under "gaborcert."
    function: str
    label: str
    counts: Optional[Callable] = None   # (args, result) -> {counter: value}


TARGETS = (
    Target("lattice", "structure_fingerprint", "lattice.structure_fingerprint"),
    Target("lattice", "anchor_block", "lattice.anchor_block"),
    Target("lattice", "build_Mx", "lattice.build_Mx"),
    Target("lattice", "structure_breakpoints", "lattice.structure_breakpoints",
           lambda a, r: {"lattice.breakpoints": len(r)}),
    Target("certify", "scan_determinant", "certify.scan_determinant",
           _scan_counts),
    Target("certify", "build_block_decomposition",
           "certify.build_block_decomposition", _decomp_counts),
    Target("certify", "certify_frame", "certify.certify_frame",
           lambda a, r: {"certify.floor_found": r.interval_lo is not None}),
    Target("linalg", "svdvals_accurate", "linalg.svdvals_accurate",
           lambda a, r: {"linalg.svd_entries": np.size(a[0])}),
    Target("linalg", "jacobi_svdvals", "linalg.jacobi_svdvals"),
    Target("framebound", "truncated_G", "framebound.truncated_G"),
    Target("framebound", "truncated_columns", "framebound.truncated_columns"),
    Target("randwin", "synthesize_window", "randwin.synthesize_window"),
    Target("randwin", "triangle_kernel", "randwin.triangle_kernel"),
    Target("randwin", "sample_path", "randwin.sample_path"),
    Target("randwin", "verify_nonvanishing", "randwin.verify_nonvanishing"),
    Target("window", "evaluate", "window.evaluate",
           lambda a, r: {"window.evaluate.points": np.size(a[1])}),
    Target("window", "inv_sup_on_core", "window.inv_sup_on_core"),
    Target("window", "fourier_transform", "window.fourier_transform"),
    Target("window", "sampled_to_csv", "window.csv"),
    Target("window", "sampled_from_csv", "window.csv"),
    Target("cli", "main", "cli.main"),
    Target("cli", "json_dumps", "cli.json_dumps"),
)

ITEM = "item"


def self_times(spans) -> dict:
    """{span id: duration minus the durations of its direct children}.

    ``spans`` holds (id, parent id or None, name, start, end) records whose
    children nest inside their parent, as the wrappers produce them.
    """
    own = {}
    for sid, parent, _name, start, end in spans:
        own[sid] = own.get(sid, 0.0) + (end - start)
        if parent is not None:
            own[parent] = own.get(parent, 0.0) - (end - start)
    return own


def _has_ancestor(sid, parent_of, name_of, name) -> bool:
    sid = parent_of[sid]
    while sid is not None:
        if name_of[sid] == name:
            return True
        sid = parent_of[sid]
    return False


class Tracer:
    """Install with ``install()``; always pair with ``uninstall()``."""

    def __init__(self):
        self.spans = []            # [id, parent, name, start, end] of this item
        self._stack = []           # open span ids
        self._counts = defaultdict(float)
        self._patched = []         # (module, attribute, original)
        self.items = 0
        self.totals = defaultdict(float)   # "<name>.calls" / ".self_s" / ...

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gaborcert" or n.startswith("gaborcert."))
                   and m is not None]
        for t in TARGETS:
            original = getattr(sys.modules["gaborcert." + t.module], t.function)
            wrapper = self._wrap(original, t.label, t.counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, fn, label, counts):
        spans, stack = self.spans, self._stack
        totals = self._counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][2] == label:
                return fn(*args, **kwargs)
            sid = len(spans)
            record = [sid, stack[-1] if stack else None, label, clock(), 0.0]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if counts is not None:
                for key, value in counts(args, result).items():
                    totals[key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    # -- items --------------------------------------------------------------

    def run_item(self, fn, *args):
        """Call fn(*args) under a root span named ``item``; fold the spans."""
        sid = len(self.spans)
        record = [sid, None, ITEM, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            return fn(*args)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()
            self._end_item()

    def _end_item(self) -> None:
        spans = self.spans
        own = self_times(spans)
        parent_of = {s[0]: s[1] for s in spans}
        name_of = {s[0]: s[2] for s in spans}
        tot = self.totals
        for sid, parent, name, start, end in spans:
            tot[name + ".calls"] += 1
            tot[name + ".self_s"] += own[sid]
            tot[name + ".total_s"] += end - start
            if (name == "lattice.anchor_block" and _has_ancestor(
                    sid, parent_of, name_of, "certify.build_block_decomposition")):
                tot["certify.hop_candidates"] += 1
            if (name == "linalg.svdvals_accurate"
                    and name_of.get(parent) == "certify.certify_frame"):
                tot["certify.block_sigma.total_s"] += end - start
        for key, value in self._counts.items():
            tot[key] += value
        self._counts.clear()
        spans.clear()
        self.items += 1


# -- per-layer metrics --------------------------------------------------------

_CALLS_AND_SELF = ("lattice.structure_fingerprint", "lattice.anchor_block",
                   "lattice.build_Mx", "linalg.svdvals_accurate",
                   "linalg.jacobi_svdvals", "window.evaluate")
_SELF = ("lattice.structure_breakpoints", "certify.scan_determinant",
         "certify.build_block_decomposition", "certify.certify_frame",
         "framebound.truncated_G", "framebound.truncated_columns",
         "randwin.synthesize_window", "randwin.triangle_kernel",
         "randwin.sample_path", "randwin.verify_nonvanishing",
         "window.inv_sup_on_core", "window.fourier_transform", "window.csv",
         "cli.main", "cli.json_dumps")
_COUNTS = ("certify.scan.samples", "certify.scan.gaps", "certify.blocks",
           "lattice.breakpoints", "linalg.svd_entries", "window.evaluate.points")
# name: (numerator, denominator) of totals; 0 where the denominator is 0
_RATIOS = {
    "certify.hop_accept_ratio": ("certify.anchors_placed",
                                 "certify.hop_candidates"),
    "certify.floor_found_ratio": ("certify.floor_found",
                                  "certify.certify_frame.calls"),
    "linalg.jacobi_share": ("linalg.jacobi_svdvals.calls",
                            "linalg.svdvals_accurate.calls"),
}
# inclusive time of a layer as a share of item time
_SHARES = {
    "certify.scan_determinant.share": ("certify.scan_determinant.total_s",),
    "certify.decomposition_sigma.share": ("certify.build_block_decomposition.total_s",
                                          "certify.block_sigma.total_s"),
    "linalg.share": ("linalg.svdvals_accurate.total_s",),
    "randwin.synthesize_window.share": ("randwin.synthesize_window.total_s",),
}


def layer_metric_units() -> dict:
    """{per-layer metric name: unit}, in report order."""
    units = {}
    for name in _CALLS_AND_SELF:
        units[name + ".calls"] = "calls/item"
        units[name + ".self_s"] = "s/item"
    for name in _SELF:
        units[name + ".self_s"] = "s/item"
    for name in _COUNTS:
        units[name] = "count/item"
    for name in list(_RATIOS) + list(_SHARES):
        units[name] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def layer_metrics(totals: dict, items: int, overhead: float) -> dict:
    """{name: value} for every per-layer metric; totals from Tracer.totals."""
    t = defaultdict(float, totals)
    out = {}
    for name, unit in layer_metric_units().items():
        if name in _RATIOS:
            num, den = _RATIOS[name]
            out[name] = t[num] / t[den] if t[den] else 0.0
        elif name in _SHARES:
            out[name] = (sum(t[k] for k in _SHARES[name]) / t[ITEM + ".total_s"]
                         if t[ITEM + ".total_s"] else 0.0)
        elif name == "trace.overhead":
            out[name] = overhead
        else:
            out[name] = t[name] / items
    return out
