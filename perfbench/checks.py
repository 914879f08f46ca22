"""Output checks for benchmark items, read back from the artifacts on disk.

Every item is checked against invariants that hold at any seed.  At the
default seed the item is also compared with the recorded reference in
``reference/<workload>.json``: command line, exit code, verdict, reason and
numeric fields.  Artifact digests are compared too, but a digest mismatch is
counted on its own and does not fail the item.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter

# Relative tolerance for numeric fields against the reference: the fields are
# printed with 17 significant digits, so this allows last-bit differences of
# another BLAS build while any change in the mathematics still shows.
REFERENCE_RTOL = 1e-9
DELTA_FLOOR = 1e-8          # the CLI's default --delta-floor
FIT_BOUNDS = (1e-6, 2.0)    # window.fourier_decay_fit's bounds on s
RANDOM_WINDOW_ROWS = 2048   # randwin.DEFAULT_QUADRATURE_N
# sup|g| of a window without a closed-form peak comes from a 4096-point grid,
# which can fall short of the true peak by ~1e-7 relative
SCHUR_SLACK = 1e-6
WINDOW_KINDS = {"bump": ("bump", None), "gevrey:2": ("gevrey", 2),
                "gevrey:3": ("gevrey", 3), "oddbump": ("odd_bump", None),
                "polybump": ("poly_bump", None), "char": ("characteristic", None)}
EXIT_OK, EXIT_NOT_CERTIFIED = 0, 2


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def artifacts(item, workdir) -> list:
    """Paths of the item's artifacts; ``.meta.json`` sidecars are left out."""
    main = os.path.join(workdir, item.out)
    if item.kind == "framebounds":
        return [main, main + ".summary.json"]
    if item.kind == "random-window":
        return [main, main + ".json"]
    return [main]


def digests(item, workdir) -> dict:
    out = {}
    for path in artifacts(item, workdir):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path}: header {rows[:1]} != {header}")
    return [[float(v) for v in r] for r in rows[1:]]


def _window_kind(spec):
    return ("sampled", None) if spec.endswith(".csv") else WINDOW_KINDS[spec]


def _check_certify(item, rc, workdir):
    doc = _load_json(os.path.join(workdir, item.out))
    p = item.params
    certified = doc["verdict"] == "Certified"
    _require(doc["verdict"] in ("Certified", "NotCertified"),
             f"verdict {doc['verdict']!r}")
    _require(rc == (EXIT_OK if certified else EXIT_NOT_CERTIFIED),
             f"exit code {rc} with verdict {doc['verdict']}")
    _require(doc["params"]["alpha"] == p["alpha"]
             and doc["params"]["beta"] == p["beta"], "params differ from input")
    _require(doc["params"]["rational_class"] == "irrational",
             f"rational class {doc['params']['rational_class']}")
    _require(doc["extent"] == p["extent"], "extent differs from input")
    kind, order = _window_kind(p["window"])
    _require(doc["window"]["kind"] == kind
             and doc["window"].get("order") == order, "window differs")
    hyp = doc["hypothesis_report"]
    if certified:
        iv = doc["interval"]
        _require(doc["reason"] is None, "certified with a reason")
        _require(all(hyp.values()), "certified with a failed hypothesis")
        _require(0.0 < iv["lo"] < iv["hi"] < p["alpha"],
                 f"interval {iv} not inside (0, alpha)")
        _require(doc["delta"] >= DELTA_FLOOR, f"delta {doc['delta']} below floor")
        _require(0.0 < doc["block_sigma_min"] < math.inf,
                 f"block_sigma_min {doc['block_sigma_min']}")
        _require(doc["n_blocks"] >= 1, "no blocks")
    else:
        _require(isinstance(doc["reason"], str) and doc["reason"],
                 "not certified without a reason")
        _require(doc["block_sigma_min"] is None or doc["block_sigma_min"] <= 0,
                 "not certified with a positive block sigma")
        if doc["reason"] == "no determinant floor found":
            _require(doc["interval"] is None and all(hyp.values()),
                     "no floor found, yet an interval or a failed hypothesis")
    return {"exit": rc, "verdict": doc["verdict"], "reason": doc["reason"],
            "interval": doc["interval"], "delta": doc["delta"],
            "block_sigma_min": doc["block_sigma_min"],
            "n_blocks": doc["n_blocks"]}


def _check_framebounds(item, rc, workdir):
    path = os.path.join(workdir, item.out)
    rows = _read_csv(path, ["x", "sigma_min", "sigma_max"])
    summary = _load_json(path + ".summary.json")
    p = item.params
    _require(rc == EXIT_OK, f"exit code {rc}")
    _require(len(rows) == p["x_grid_size"], f"{len(rows)} rows")
    xs = [r[0] for r in rows]
    _require(all(0.0 < a < b < p["alpha"] for a, b in zip(xs, xs[1:])),
             "x grid not increasing inside (0, alpha)")
    _require(all(0.0 <= r[1] <= r[2] for r in rows), "sigma_min > sigma_max")
    _require(summary["extent"] == p["extent"], "extent differs from input")
    _require(summary["sigma_min_inf"] == min(r[1] for r in rows)
             and summary["sigma_max_sup"] == max(r[2] for r in rows),
             "summary extremes differ from the rows")
    # rowsum_bound = R * sup|g| with R = floor(beta * L) + 1 good pairs per
    # row.  A column holds up to C = floor(L / alpha) + 1 of them, and the
    # Schur test gives sigma_max <= sqrt(R * C) * sup|g|, which must hold.
    # sigma_max <= rowsum_bound itself fails whenever C > R matters, so it is
    # reported as rowsum_violation instead of failing the item.
    rows_per = math.floor(p["beta"] * p["support_length"]) + 1
    cols_per = math.floor(p["support_length"] / p["alpha"]) + 1
    schur = summary["rowsum_bound"] * math.sqrt(cols_per / rows_per)
    _require(summary["sigma_max_sup"] <= schur * (1.0 + SCHUR_SLACK),
             f"sigma_max {summary['sigma_max_sup']} above the Schur bound {schur}")
    return {"exit": rc, "sigma_min_inf": summary["sigma_min_inf"],
            "sigma_max_sup": summary["sigma_max_sup"],
            "rowsum_bound": summary["rowsum_bound"],
            "rowsum_violation": summary["sigma_max_sup"] > summary["rowsum_bound"]}


def _check_random_window(item, rc, workdir):
    path = os.path.join(workdir, item.out)
    rows = _read_csv(path, ["x", "re", "im"])
    side = _load_json(path + ".json")
    _require(rc == EXIT_OK, f"exit code {rc}")
    _require(side["seed"] == item.params["seed"], "sidecar seed differs")
    _require(0.0 < side["min_abs_core"] < math.inf,
             f"min_abs_core {side['min_abs_core']}")
    xs = [r[0] for r in rows]
    _require(len(rows) == RANDOM_WINDOW_ROWS, f"{len(rows)} rows")
    _require(xs[0] == 0.0 and xs[-1] == 1.0
             and all(a < b for a, b in zip(xs, xs[1:])),
             "grid not increasing over [0, 1]")
    return {"exit": rc, "min_abs_core": side["min_abs_core"]}


def _check_fourier(item, rc, workdir):
    doc = _load_json(os.path.join(workdir, item.out))
    p = item.params
    _require(rc == EXIT_OK, f"exit code {rc}")
    _require(doc["window"]["kind"] == _window_kind(p["window"])[0],
             "window differs")
    _require(doc["xi_max"] == p["xi_max"] and doc["n_xi"] == p["n_xi"],
             "fit grid differs from input")
    _require(FIT_BOUNDS[0] <= doc["s_hat"] <= FIT_BOUNDS[1],
             f"s_hat {doc['s_hat']} outside the fit bounds")
    _require(0.0 < doc["c_hat"] < math.inf, f"c_hat {doc['c_hat']}")
    return {"exit": rc, "s_hat": doc["s_hat"], "c_hat": doc["c_hat"]}


_CHECKS = {"certify": _check_certify, "framebounds": _check_framebounds,
           "random-window": _check_random_window,
           "fourier-decay": _check_fourier}


def check_item(item, rc, workdir) -> dict:
    """Invariant checks; returns the item's summary fields.

    Raises CheckFailed (or the parse error) when an invariant does not hold.
    """
    return _CHECKS[item.kind](item, rc, workdir)


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))
    return a == b


def compare_reference(ref_item: dict, item, summary: dict) -> list:
    """Problems found comparing one item with its reference record."""
    problems = []
    if list(ref_item["argv"]) != list(item.argv):
        problems.append(f"argv {list(item.argv)} != reference {ref_item['argv']}")
    for key, want in ref_item["summary"].items():
        if not _close(summary.get(key), want):
            problems.append(f"{key} = {summary.get(key)!r}, reference {want!r}")
    return problems


def mix(records) -> dict:
    """Counts of 'kind verdict: reason' (or 'kind exit N') over
    (kind, summary) pairs."""
    def label(kind, s):
        if "verdict" in s:
            return f"{kind} {s['verdict']}: {s['reason']}"
        return f"{kind} exit {s['exit']}"
    return dict(sorted(Counter(label(k, s) for k, s in records).items()))
