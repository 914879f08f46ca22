"""Benchmark workloads: seeded streams of gaborcert CLI commands.

Every workload is a fixed design of *slots*, visited in cycles.  A slot fixes
the shape of the work (command, window, extent, and the density alpha*beta
and the ratio u = alpha/support_length that set the anchor-block size); the
seed perturbs every slot's (alpha, beta) afresh in each cycle.  The same seed
therefore gives the same commands, another seed gives other commands, and
runs with different seeds still measure the same mix of work.  Runs measure
whole cycles, so the latency percentiles always rank the same slots, which
keeps the run-to-run spread of the end-to-end metrics small.

The item stream is random access: ``items(workload, seed)`` is an iterator
over an unbounded stream, and ``item(workload, seed, i)`` builds item i
alone.  This module does not import gaborcert: its irrational-class guard
repeats the test of ``gaborcert.lattice.classify_ratio``, and the benchmark
tests check that both agree on generated items.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

DEFAULT_SEED = 0

# Mirrors gaborcert.lattice.classify_ratio's defaults; tests check that both
# agree on every generated item.
RATIONAL_QMAX = 10 ** 4
RATIONAL_TOL = 1e-12

SUPPORT_LENGTH = {"bump": 2.0, "gevrey:2": 2.0, "gevrey:3": 2.0,
                  "oddbump": 2.0, "polybump": 1.0, "char": 1.0}
SQRT2_FRAC = math.sqrt(2.0) - 1.0
JITTER = 0.02               # relative perturbation of u and of 1 - alpha*beta
TAIL_BEYOND = 10            # items a run leaves beyond its tail percentile
RW_ALPHA = 0.8
RW_BETA = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Item:
    """One CLI command.  ``argv`` lacks ``--out``; ``out`` is the artifact
    file name the worker appends, relative to its work directory."""

    index: int
    kind: str                  # certify | framebounds | random-window | fourier-decay
    argv: tuple
    out: str
    params: dict               # the inputs the output checks compare against


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple               # per-slot dicts; one cycle visits them in order
    # latency_tail_ms percentile; a run lasts at least min_items(workload)
    tail_percentile: float
    warmup: tuple              # argv of the fixed warm-up item (no --out)
    # item times at the reference host speed (hostspeed.py).  Off where the
    # time goes to large-array work: random-window and fourier-decay items
    # timed back to back spread by 14-16% with no correlation (|r| <= 0.12)
    # to the probe, and scaling by it widened their spread.
    host_scaled: bool = True


def items_beyond_tail(n: int, pct: float) -> int:
    """How many of n items lie beyond their pct-th percentile by nearest
    rank."""
    return n - math.ceil(pct / 100.0 * n)


def min_items(wl: Workload) -> int:
    """The fewest items, in whole cycles, that leave TAIL_BEYOND items beyond
    the workload's tail percentile."""
    n = len(wl.slots)
    while items_beyond_tail(n, wl.tail_percentile) < TAIL_BEYOND:
        n += len(wl.slots)
    return n


def is_irrational_class(density: float) -> bool:
    """Same test as gaborcert.lattice.classify_ratio with its defaults."""
    frac = Fraction(density).limit_denominator(RATIONAL_QMAX)
    return not abs(density - float(frac)) < RATIONAL_TOL


def _density_slots(windows, d_lo, d_hi, u_lo, u_hi, n, **extra) -> tuple:
    """n slots with densities evenly spread over [d_lo, d_hi] and u on a
    Weyl sequence over [u_lo, u_hi(d)]; the windows form a Latin square over
    the density levels, so each meets low and high densities."""
    k = len(windows)
    slots = []
    for s in range(n):
        d = d_lo + (d_hi - d_lo) * (s + 0.5) / n
        hi = u_hi(d) if callable(u_hi) else u_hi
        u = u_lo + (hi - u_lo) * ((0.5 + s * SQRT2_FRAC) % 1.0)
        slots.append(dict(window=windows[(s + s // k) % k], d=d, u=u, **extra))
    return tuple(slots)


# (extent, density range) bands of the finite-section workload.  Sections up
# to 64 columns go to the Python Jacobi and wider ones to LAPACK; at extent
# 64 the bands keep clear of the switch (about alpha*beta = 0.5), where a
# 2% draw could move an item across it and change its cost twentyfold.
_SECTION_BANDS = ((16, 0.40, 0.80), (32, 0.40, 0.60), (64, 0.40, 0.45),
                  (64, 0.60, 0.80))


def _section_slots(windows, u_lo, u_hi, n) -> tuple:
    """n framebounds slots: bands rotate, windows rotate independently, and
    within a band the density is spread evenly."""
    nb = len(_SECTION_BANDS)
    slots = []
    for s in range(n):
        extent, d_lo, d_hi = _SECTION_BANDS[s % nb]
        in_band = len(range(s % nb, n, nb))
        slots.append(dict(window=windows[s % len(windows)], extent=extent,
                          d=d_lo + (d_hi - d_lo) * (s // nb + 0.5) / in_band,
                          u=u_lo + (u_hi - u_lo) * ((0.5 + s * SQRT2_FRAC) % 1.0)))
    return tuple(slots)


_CERT_WINDOWS = ("bump", "gevrey:2", "polybump", "char")

WORKLOADS = {
    "certify_critical": Workload(
        "certify_critical",
        "near-critical densities 0.85-0.97 at extent 16: the determinant "
        "scan of the anchor block dominates every item",
        _density_slots(_CERT_WINDOWS, 0.85, 0.97, 0.40, 0.70, 15, extent=16),
        tail_percentile=85.0,
        warmup=("certify", "--window", "bump", "--alpha", "1.0",
                "--beta", repr(1.0 / math.sqrt(2.0)), "--extent", "16")),
    "certify_long_extent": Workload(
        "certify_long_extent",
        "densities 0.4-0.8 at extent 1024: the hop search and the block "
        "singular values take most of each item, the scan the rest",
        _density_slots(_CERT_WINDOWS, 0.40, 0.80, 0.20,
                       lambda d: 0.9 * d, 25, extent=1024),
        tail_percentile=85.0,
        warmup=("certify", "--window", "bump", "--alpha", "1.0",
                "--beta", repr(1.0 / math.sqrt(2.0)), "--extent", "64")),
    "framebounds_sections": Workload(
        "framebounds_sections",
        "finite sections at extents 16-64: singular values of the sections, "
        "by Python Jacobi up to 64 columns and LAPACK above",
        _section_slots(("bump", "oddbump", "gevrey:3"), 0.45, 0.70, 15),
        tail_percentile=85.0,
        warmup=("framebounds", "--window", "bump", "--alpha", "1.0",
                "--beta", "0.5", "--extent", "8", "--x-grid-size", "8")),
    "random_windows": Workload(
        "random_windows",
        "Brownian windows end to end: synthesis, CSV round trip, certify "
        "at (0.8, 1/sqrt 2) and the Fourier decay fit",
        ({"step": "random-window"}, {"step": "certify"},
         {"step": "fourier-decay"}),
        tail_percentile=80.0,
        warmup=("random-window", "--seed", "0", "--dt", "0.00390625",
                "--quadrature-n", "256"),
        host_scaled=False),
}


def _rng(workload: str, seed: int, cycle: int, slot: int,
         attempt: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}:{slot}:{attempt}")


def _lattice_point(wl: Workload, slot: dict, seed: int, cycle: int,
                   slot_i: int) -> tuple[float, float]:
    """(alpha, beta) near the slot's design point, irrational class."""
    L = SUPPORT_LENGTH[slot["window"]]
    for attempt in range(100):
        rng = _rng(wl.name, seed, cycle, slot_i, attempt)
        u = slot["u"] * (1.0 + JITTER * (2.0 * rng.random() - 1.0))
        gap = (1.0 - slot["d"]) * (1.0 + JITTER * (2.0 * rng.random() - 1.0))
        alpha = L * u
        beta = (1.0 - gap) / alpha
        if is_irrational_class(alpha * beta):
            return alpha, beta
    raise RuntimeError("no irrational-class draw in 100 attempts")


def item(workload: str, seed: int, i: int) -> Item:
    """Item i of the stream of ``workload`` at ``seed``."""
    wl = WORKLOADS[workload]
    cycle, slot_i = divmod(i, len(wl.slots))
    slot = wl.slots[slot_i]
    if workload == "random_windows":
        csv = f"rw{cycle}.csv"
        if slot["step"] == "random-window":
            rw_seed = _rng(workload, seed, cycle, 0).randrange(2 ** 31)
            return Item(i, "random-window", ("random-window", "--seed",
                        str(rw_seed)), csv, {"seed": rw_seed})
        if slot["step"] == "certify":
            return Item(i, "certify", ("certify", "--window", csv,
                        "--alpha", repr(RW_ALPHA), "--beta", repr(RW_BETA)),
                        f"item{i}.json", {"alpha": RW_ALPHA, "beta": RW_BETA,
                                          "window": csv, "extent": 32})
        return Item(i, "fourier-decay", ("fourier-decay", "--window", csv),
                    f"item{i}.json", {"window": csv, "xi_max": 80.0,
                                      "n_xi": 200})
    alpha, beta = _lattice_point(wl, slot, seed, cycle, slot_i)
    params = {"window": slot["window"], "alpha": alpha, "beta": beta,
              "extent": slot["extent"]}
    common = ("--window", slot["window"], "--alpha", repr(alpha),
              "--beta", repr(beta), "--extent", str(slot["extent"]))
    if workload == "framebounds_sections":
        params.update(x_grid_size=64,
                      support_length=SUPPORT_LENGTH[slot["window"]])
        return Item(i, "framebounds", ("framebounds",) + common
                    + ("--x-grid-size", "64"), f"item{i}.csv", params)
    return Item(i, "certify", ("certify",) + common, f"item{i}.json", params)


def items(workload: str, seed: int, stop: Optional[int] = None):
    """Items 0, 1, ... of the stream (unbounded when stop is None)."""
    i = 0
    while stop is None or i < stop:
        yield item(workload, seed, i)
        i += 1
