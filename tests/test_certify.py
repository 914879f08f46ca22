"""Determinant scans, certified intervals, block decompositions, rational analysis."""

import dataclasses
import inspect
import math
import time
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gaborcert import certify as C
from gaborcert import lattice as L
from gaborcert import linalg as LA
from gaborcert import window as W
from gaborcert.errors import (HopNotFound, HypothesisViolated,
                              TooCloseToForbiddenRatio)
from gaborcert.linalg import banded_log_abs_det

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def flagship():
    """Bump window at the paper-scale showcase lattice alpha=1, beta=1/sqrt(2)."""
    params = L.LatticeParams(1.0, 1.0 / SQRT2)
    w = W.bump()
    cert = C.certify_frame(params, w)
    return params, w, cert


# ---------------------------------------------------------------------------
# determinant scan

def test_scan_samples_avoid_breakpoints():
    p = L.LatticeParams(0.7, 1.0)
    w = W.characteristic()
    prof = C.scan_determinant(p, w, 16)
    edges = prof.edges
    gaps = np.diff(edges)
    for x in prof.x_samples:
        dist = np.min(np.abs(edges - x))
        gi = np.searchsorted(edges, x) - 1
        assert dist >= gaps[gi] / 1000.0 * (1 - 1e-12)


def test_scan_poly_bump_matches_hand_product():
    p = L.LatticeParams(0.7, 1.0)
    w = W.poly_bump(0.0, 1.0)
    prof = C.scan_determinant(p, w, 16)
    # on the gap (0, 0.1) the block is diag(g(x), g(x+0.3), g(x+0.6), g(x+0.9))
    sel = prof.x_samples < 0.1
    xs = prof.x_samples[sel]
    expect = (xs * (1 - xs) * (xs + 0.3) * (0.7 - xs)
              * (xs + 0.6) * (0.4 - xs) * (xs + 0.9) * (0.1 - xs))
    assert np.allclose(prof.abs_det[sel], expect, rtol=1e-12)


def test_scan_characteristic_unit_determinants():
    rng = np.random.default_rng(2)
    for _ in range(5):
        alpha = rng.uniform(0.4, 0.9)
        beta = rng.uniform(1.05, 0.98 / alpha)
        p = L.LatticeParams(alpha, beta)
        prof = C.scan_determinant(p, W.characteristic(), 8)
        assert np.allclose(prof.abs_det, 1.0, atol=1e-12)


def test_scan_fingerprints_constant_per_gap():
    """One fingerprint per gap, and every sample of the gap has it."""
    p = L.LatticeParams(1.0, 1.0 / SQRT2)
    prof = C.scan_determinant(p, W.bump(), 8)
    assert len(prof.fingerprints) == len(prof.edges) - 1
    # specs holds each gap's anchor block at its first sample, as arrays
    first = [L.anchor_block(p, W.bump(), x) for x in prof.x_samples[::8].tolist()]
    assert prof.specs.x_value.tolist() == [spec.x_value for spec in first]
    assert prof.specs.anchor_m.tolist() == [spec.anchor_m for spec in first]
    assert prof.specs.size.tolist() == [spec.size for spec in first]
    for x, gi in zip(prof.x_samples, prof.gap_index):
        spec = L.anchor_block(p, W.bump(), x)
        assert L.structure_fingerprint(p, W.bump(), spec) == prof.fingerprints[gi]


def test_scan_rejects_wide_alpha():
    with pytest.raises(HypothesisViolated):
        C.scan_determinant(L.LatticeParams(1.2, 0.5), W.characteristic(), 8)


def _scan_loop(params, w, samples_per_gap):
    """Reference: the sample-by-sample scan that the banded scan replaced,
    with np.linalg.det on each dense anchor block as the determinant oracle,
    and the Chebyshev nodes of one gap at a time."""
    edges = L.structure_gaps(params, w)
    xs, dets, fps, gaps = [], [], [], []
    for gi in range(len(edges) - 1):
        lo, hi = edges[gi], edges[gi + 1]
        if hi - lo <= 0:
            continue
        margin = (hi - lo) / 1000.0
        a, b = lo + margin, hi - margin
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        j = np.arange(1, samples_per_gap + 1)
        for x in np.sort(mid + half * np.cos((2 * j - 1) * np.pi
                                             / (2 * samples_per_gap))):
            spec = L.anchor_block(params, w, x)
            M = L.build_Mx(params, w, spec)
            xs.append(x)
            dets.append(complex(np.linalg.det(M)))
            fps.append(L.structure_fingerprint(params, w, spec))
            gaps.append(gi)
    return np.array(xs), np.array(dets, dtype=complex), fps, np.array(gaps)


def _sampled_window():
    rng = np.random.default_rng(8)
    vals = 1.0 + 0.3 * (rng.standard_normal(257) + 1j * rng.standard_normal(257))
    return W.sampled(np.linspace(0.0, 1.0, 257), vals)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _matches_oracle(abs_det, dets):
    """|det| within 1e-12 relative of np.linalg.det's, zero exactly where it
    is zero."""
    oracle = np.abs(dets)
    zero = oracle == 0
    return (np.array_equal(abs_det == 0, zero)
            and np.all(np.abs(abs_det - oracle)[~zero] <= 1e-12 * oracle[~zero]))


# the bump case holds 3 zero pivots, gevrey:2 holds 18 and odd_bump 2, from
# good-pair entries that underflow to 0.0; the sampled window is complex
SCAN_CASES = [
    (W.bump(), 1.0, 1.0 / SQRT2, 32),
    (W.gevrey(2), 1.3, 0.6, 16),
    (W.poly_bump(), 0.7, 0.9 * SQRT2, 16),
    (W.characteristic(), 0.55, SQRT2, 8),
    (W.odd_bump(), 0.9, 1.0 / SQRT2, 16),
    (_sampled_window(), 0.8, 1.0 / SQRT2, 32),
]


@pytest.mark.parametrize("w, alpha, beta, samples", SCAN_CASES)
def test_scan_matches_sample_loop(w, alpha, beta, samples):
    p = L.LatticeParams(alpha, beta)
    prof = C.scan_determinant(p, w, samples)
    xs, dets, fps, gaps = _scan_loop(p, w, samples)
    assert _same_bits(prof.edges, L.structure_gaps(p, w))
    assert _same_bits(prof.x_samples, xs)
    assert _matches_oracle(prof.abs_det, dets)
    assert np.array_equal(np.isneginf(prof.log_abs_det), dets == 0)
    assert _same_bits(prof.gap_index, gaps)
    assert [prof.fingerprints[gi] for gi in prof.gap_index] == fps


def test_scan_splits_batches_past_entry_cap(monkeypatch):
    """A budget of 20 band entries makes stacks of at most 20 // (2k+1)
    samples, evaluated in slabs of at most 20 entries; the log-determinants
    keep every bit."""
    zero_pivots = []
    for w, alpha, beta, samples in SCAN_CASES:
        p = L.LatticeParams(alpha, beta)
        whole = C.scan_determinant(p, w, samples)
        stacks, slabs = [], []

        def factor(band, k, sizes):
            def entries(r, i):
                if r[0] == 0:               # a stack's first slab
                    stacks.append((len(i), 2 * k + 1))
                slabs.append(slab := band(r, i))
                return slab
            return banded_log_abs_det(entries, k, sizes)

        with monkeypatch.context() as patch:
            patch.setattr(LA, "_BATCH_ENTRIES", 20)
            patch.setattr(C, "banded_log_abs_det", factor)
            split = C.scan_determinant(p, w, samples)
        assert len(stacks) > len(whole.fingerprints)
        assert all(n <= 20 // width for n, width in stacks)
        assert sum(n for n, _ in stacks) == len(whole.x_samples)
        assert all(slab.size <= 20 for slab in slabs)
        assert any(len(slab) == 1 for slab in slabs)
        assert _same_bits(split.log_abs_det, whole.log_abs_det)
        assert split.fingerprints == whole.fingerprints
        zero_pivots.append(int(np.isneginf(whole.log_abs_det).sum()))
    assert zero_pivots == [3, 18, 0, 0, 2, 0]


def test_scan_evaluates_at_most_the_cap_per_call(monkeypatch):
    """alpha = 1, alpha*beta = 0.99: anchor blocks up to size 200 in 3,168
    samples, yet under a budget of 2^13 entries no evaluate call of the
    scan sees more than that, and together they reach the bump's formula
    with each good pair of the band exactly once."""
    p, w = L.LatticeParams(1.0, 0.99), W.bump()
    calls, seen, bump = [], [], W._FORMULAS["bump"]
    monkeypatch.setattr(LA, "_BATCH_ENTRIES", 1 << 13)
    monkeypatch.setattr(C, "evaluate",
                        lambda w, x: calls.append(np.size(x)) or W.evaluate(w, x))
    monkeypatch.setitem(W._FORMULAS, "bump",
                        lambda w, x: seen.append(np.size(x)) or bump(w, x))
    prof = C.scan_determinant(p, w, 32)
    specs = [L.anchor_block(p, w, x) for x in prof.x_samples]
    sizes = np.array([spec.size for spec in specs])
    assert sizes.max() >= 190 and sizes.min() > L.band_halfwidth(p, w)
    assert len(calls) == len(seen) > 1 and max(calls) <= 1 << 13
    k = L.band_halfwidth(p, w)
    offsets = np.arange(-k, k + 1)
    good = 0
    for spec in specs:
        r = np.arange(spec.size)[:, None]
        c = r + offsets
        good += int(L.is_good(p, w, spec.x_value, r, spec.anchor_m + c)[
            (c >= 0) & (c < spec.size)].sum())
    assert sum(seen) == good


def _partly_real_window():
    """_sampled_window with its imaginary part kept only on (0.4, 0.45): at
    alpha = 0.4, beta = sqrt 2 some gaps' anchor blocks are real, others
    complex."""
    w = _sampled_window()
    vals = w.grid_vals
    return W.sampled(w.grid_x, vals.real + 1j * vals.imag
                     * ((w.grid_x > 0.4) & (w.grid_x < 0.45)))


@pytest.mark.parametrize("w, alpha, beta, samples", SCAN_CASES + [
    (_partly_real_window(), 0.4, SQRT2, 32)])
def test_scan_bits_do_not_depend_on_stack_mates(w, alpha, beta, samples):
    """Each gap scanned alone has the bits of the whole scan: the
    arithmetic is real or complex per window, never per stack of samples."""
    p = L.LatticeParams(alpha, beta)
    prof = C.scan_determinant(p, w, samples)
    alone = [C._log_abs_dets(p, w, [xs])[1]
             for xs in prof.x_samples.reshape(-1, samples)]
    assert _same_bits(np.concatenate(alone), prof.log_abs_det)


def test_scan_memory_does_not_grow_with_the_block_size():
    """alpha = 1, alpha*beta ~ 0.995: anchor blocks up to size 400 in 12,896
    samples; the scan's tracemalloc peak stays under 6 MiB, where an s x n
    array of the samples would take 5 MiB more."""
    p, w = L.LatticeParams(1.0, 0.9949999), W.bump()
    tracemalloc.start()
    try:
        prof = C.scan_determinant(p, w, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prof.x_samples) > 12_000
    assert peak < 6 << 20


@pytest.mark.parametrize("w, k, mib, peak_mib", [
    (W.bump(), 10_000, 6104, 50), (W.characteristic(), 5_000, 1526, 25),
], ids=["bump", "char"])
def test_certify_refuses_an_lu_window_past_the_budget(w, k, mib, peak_mib):
    """alpha = 1e-4, alpha*beta about 0.5: one matrix's banded LU at
    k does not fit linalg's budget, so certify answers
    NotCertified with a reason naming k and the MiB, in under 2 s.  The
    tracemalloc peak, 25 and 12 MiB when measured, stays under twice that."""
    p = L.LatticeParams(1e-4, 5000.0137)
    start = time.perf_counter()
    cert = C.certify_frame(p, w)
    assert time.perf_counter() - start < 2.0
    assert cert.verdict == "not_certified" and cert.profile is None
    assert f"k = {k} needs up to {mib} MiB per matrix" in cert.reason
    tracemalloc.start()
    try:
        C.certify_frame(p, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mib << 20


@given(st.sampled_from(["bump", "gevrey", "characteristic", "odd_bump",
                        "poly_bump", "sampled"]),
       st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
       st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.0, 1.0))
@example("characteristic", 0.0, 1.0, 0.5, 0.5, 0.25)      # beta*(b-a) = 1
def test_good_pairs_lie_in_the_band(kind, lo, length, u, density, t):
    """Every good pair of an anchor block has |j - i| <= band_halfwidth."""
    hi = lo + length
    w = {"bump": W.bump, "gevrey": lambda: W.gevrey(2),
         "odd_bump": W.odd_bump,
         "characteristic": lambda: W.characteristic(lo, hi),
         "poly_bump": lambda: W.poly_bump(lo, hi),
         "sampled": lambda: W.sampled(np.linspace(lo, hi, 5),
                                      np.arange(5) + 1j)}[kind]()
    alpha = u * w.support_length
    p = L.LatticeParams(alpha, density / alpha)
    try:
        spec = L.anchor_block(p, w, t * alpha)
    except HypothesisViolated:      # row 0 holds no good pair at this x
        return
    idx = np.arange(spec.size)
    mask = L.is_good(p, w, spec.x_value, idx[:, None], (spec.anchor_m + idx)[None, :])
    assert mask.diagonal().all()
    i, j = np.nonzero(mask)
    assert np.abs(j - i).max() <= L.band_halfwidth(p, w)
    assert L.band_halfwidth(p, w) <= p.beta * w.support_length * (1 + 1e-12)


def test_scan_rejects_a_gap_holding_two_structures(monkeypatch):
    """With no breakpoints, the one gap (0, alpha) holds several anchor
    structures; the scan trusts the breakpoints and raises, never splits."""
    monkeypatch.setattr(L, "structure_breakpoints", lambda params, w: np.array([]))
    p, w = L.LatticeParams(1.0, 1.0 / SQRT2), W.bump()
    with pytest.raises(ValueError, match="anchor structure"):
        C.scan_determinant(p, w, 64)


def test_scan_rejects_no_samples_per_gap():
    p, w = L.LatticeParams(1.0, 1.0 / SQRT2), W.bump()
    for k in (0, -1):
        with pytest.raises(ValueError, match="samples_per_gap"):
            C.scan_determinant(p, w, k)
    prof = C.scan_determinant(p, w, 1)
    assert len(prof.x_samples) == len(prof.fingerprints) == len(prof.edges) - 1


def test_gap_structure_check_holds_anchor_m():
    """x and x + 1/beta share the fingerprint, one column apart: the check
    at a gap's ends compares anchor_m too."""
    p, w = L.LatticeParams(1.0, 1.0 / SQRT2), W.bump()
    xs = np.array([0.2, 0.2 + p.inv_beta])
    a0, a1 = (L.anchor_block(p, w, x) for x in xs)
    assert L.structure_fingerprint(p, w, a0) == L.structure_fingerprint(p, w, a1)
    with pytest.raises(ValueError, match="anchor structure"):
        C._log_abs_dets(p, w, [xs])
    specs, log_abs = C._log_abs_dets(p, w, [xs[:1], xs[1:]])
    assert list(zip(specs.anchor_m.tolist(), specs.size.tolist())) == [(0, 2), (-1, 2)]
    dets = [np.linalg.det(L.build_Mx(p, w, L.anchor_block(p, w, x))) for x in xs]
    assert _matches_oracle(np.exp(log_abs), np.array(dets))


# ---------------------------------------------------------------------------
# certified interval

def test_interval_characteristic_widest_gap():
    p = L.LatticeParams(0.7, 1.0)
    prof = C.scan_determinant(p, W.characteristic(), 16)
    found = C.find_certified_interval(prof, 1e-8)
    assert found is not None
    assert found.delta == pytest.approx(1.0, abs=1e-12)
    # widest gap of the 0.1-spaced breakpoints in (0, 0.7) has width 0.1;
    # the run spans one gap
    edges = prof.edges
    assert np.searchsorted(edges, found.lo) == np.searchsorted(edges, found.hi)


def test_interval_not_found_for_zero_profile():
    p = L.LatticeParams(0.7, 1.0)
    prof = C.scan_determinant(p, W.characteristic(), 16)
    zero = dataclasses.replace(prof, log_abs_det=np.full_like(prof.log_abs_det,
                                                              -np.inf))
    assert C.find_certified_interval(zero, 1e-8) is None



def _widest_run_loop(profile, delta_floor):
    """Reference: the sample-by-sample scan find_certified_interval replaced."""
    absdet, gaps, xs = profile.abs_det, profile.gap_index, profile.x_samples
    best, i, n = None, 0, len(absdet)
    while i < n:
        if absdet[i] < delta_floor:
            i += 1
            continue
        j = i
        while j + 1 < n and absdet[j + 1] >= delta_floor and gaps[j + 1] == gaps[i]:
            j += 1
        if j - i + 1 >= 3 and (best is None or xs[j] - xs[i] > best.hi - best.lo):
            best = C.CertifiedInterval(float(xs[i]), float(xs[j]),
                                       float(np.min(absdet[i:j + 1])))
        i = j + 1
    return best


def _shortfall_loop(profile, delta_floor):
    """Reference: log10(delta_floor) minus the best minimum of log10|det|
    over 3 consecutive samples of one gap."""
    la, gaps = profile.log_abs_det, profile.gap_index
    best = -math.inf
    for i in range(len(la) - 2):
        if gaps[i] == gaps[i + 2]:
            best = max(best, min(la[i:i + 3]))
    return math.log10(delta_floor) - best / math.log(10.0)


@given(st.lists(st.tuples(st.sampled_from((0, 0, 0, 1)), st.sampled_from((1.0, 2.0)),
                          st.sampled_from((0.0, 1e-9, 0.5, 1.0, 2.0))),
                max_size=40))
@example([(0, 1.0, 1.0)] * 3 + [(0, 1.0, 0.0)] + [(0, 1.0, 1.0)] * 3)
def test_interval_matches_sample_loop(cells):
    """Widest run, ties to the first, split at gap changes and at small |det|."""
    gaps = np.cumsum([new_gap for new_gap, _, _ in cells], dtype=int)
    xs = np.cumsum([dx for _, dx, _ in cells])
    with np.errstate(divide="ignore"):
        log_abs = np.log([d for _, _, d in cells])
    prof = C.DeterminantProfile(xs, log_abs, gaps, np.array([]), None, None, [])
    assert C.find_certified_interval(prof, 1e-8) == _widest_run_loop(prof, 1e-8)
    assert prof.floor_shortfall_log10(1e-8) == _shortfall_loop(prof, 1e-8)
    # a run of 3 reaches the floor exactly when the shortfall is not positive
    found = _widest_run_loop(prof, 1e-8) is not None
    assert found == (prof.floor_shortfall_log10(1e-8) <= 0)


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 2)), max_size=30),
       st.booleans())
def test_runs_are_maximal(cells, grouped):
    mask = np.array([m for m, _ in cells], dtype=bool)
    groups = np.array([g for _, g in cells]) if grouped else None
    runs = C._runs(mask, groups)
    covered = [k for i, j in runs for k in range(i, j)]
    assert covered == list(np.flatnonzero(mask))
    same = (lambda a, b: True) if groups is None else \
        (lambda a, b: groups[a] == groups[b])
    for i, j in runs:
        assert all(same(i, k) for k in range(i, j))
        # a neighbour in the same group would have extended the run
        assert i == 0 or not (mask[i - 1] and same(i - 1, i))
        assert j == len(mask) or not (mask[j] and same(j, j - 1))

def test_interval_delta_stable_under_doubling(flagship):
    params, w, cert = flagship
    prof64 = C.scan_determinant(params, w, 64)
    in_interval = ((prof64.x_samples >= cert.interval_lo)
                   & (prof64.x_samples <= cert.interval_hi))
    refined = float(np.min(prof64.abs_det[in_interval]))
    assert refined == pytest.approx(cert.delta, rel=0.01)


# ---------------------------------------------------------------------------
# block decomposition

def test_decomposition_extent_zero_is_single_anchor(flagship):
    params, w, cert = flagship
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    dec = C.build_block_decomposition(params, w, mid, 0,
                                      (cert.interval_lo, cert.interval_hi))
    assert len(dec.blocks) == 1
    assert dec.blocks[0].kind == "anchor"
    spec = L.anchor_block(params, w, mid)
    assert np.array_equal(dec.blocks[0].matrix, L.build_Mx(params, w, spec))


def test_decomposition_characteristic_irrational_unit_blocks():
    # char window with alpha = 1/sqrt(2): every block is 0/1 with unit
    # diagonal and sigma_min exactly 1; 7 blocks cover extent 16
    p = L.LatticeParams(1.0 / SQRT2, 1.0)
    w = W.characteristic()
    cert = C.certify_frame(p, w, C.CertifyConfig(extent=16))
    assert cert.certified
    assert cert.delta == pytest.approx(1.0)
    assert cert.block_sigma_min == pytest.approx(1.0)
    assert cert.n_blocks == 7
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    dec = C.build_block_decomposition(p, w, mid, 16,
                                      (cert.interval_lo, cert.interval_hi))
    for b in dec.blocks:
        assert np.all(np.isin(np.abs(b.matrix), [0.0, 1.0]))
        assert np.all(np.abs(np.diag(b.matrix)) == 1.0)


def test_decomposition_rows_ordered_and_disjoint(flagship):
    params, w, cert = flagship
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    dec = C.build_block_decomposition(params, w, mid, 32,
                                      (cert.interval_lo, cert.interval_hi))
    prev_row = prev_col = -10 ** 9
    for b in dec.blocks:
        assert b.row_lo > prev_row
        assert b.col_lo > prev_col
        prev_row, prev_col = b.row_hi, b.col_hi
    used = [n for b in dec.blocks for n in range(b.row_lo, b.row_hi + 1)]
    assert len(used) == len(set(used))
    assert set(used).isdisjoint(dec.discarded_rows)
    assert set(used) | set(dec.discarded_rows) >= set(range(-32, 33))


@pytest.mark.parametrize("window, alpha, beta, extent, layout", [
    ("bump", 1.0, 1.0 / SQRT2, 8,
     [("anchor", -7, -5, 2), ("separator", -4, -3, 1),
      ("separator", -3, -2, 1), ("separator", -1, -1, 1),
      ("anchor", 0, 0, 2), ("separator", 3, 2, 1), ("separator", 4, 3, 1),
      ("separator", 6, 4, 1), ("anchor", 7, 5, 2)]),
    ("char", 1.0 / SQRT2, 1.0, 16,
     [("anchor", -7, -5, 3), ("separator", -3, -2, 1),
      ("separator", -2, -1, 1), ("anchor", 0, 0, 3), ("separator", 4, 3, 1),
      ("separator", 5, 4, 1), ("anchor", 7, 5, 3)]),
    ("gevrey2", 0.6, 0.81 / (0.6 * SQRT2), 12,
     [("anchor", -7, -5, 4), ("anchor", 0, -1, 4), ("anchor", 7, 3, 4)]),
])
def test_decomposition_layout_pinned(window, alpha, beta, extent, layout):
    w = {"bump": W.bump(), "char": W.characteristic(),
         "gevrey2": W.gevrey(2)}[window]
    p = L.LatticeParams(alpha, beta)
    cert = C.certify_frame(p, w, C.CertifyConfig(extent=extent))
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    dec = C.build_block_decomposition(p, w, mid, extent,
                                      (cert.interval_lo, cert.interval_hi))
    assert [(b.kind, b.row_lo, b.col_lo, b.size) for b in dec.blocks] == layout
    assert cert.n_blocks == len(layout)


@pytest.mark.parametrize("hop_bound, direction", [(1, "forward"),
                                                  (2, "backward")])
def test_decomposition_hop_not_found_messages(monkeypatch, hop_bound, direction):
    # the budget binds only past extent 9,999, so a small one stands in for it
    p = L.LatticeParams(0.6, 0.81 / (0.6 * SQRT2))
    w = W.gevrey(2)
    cert = C.certify_frame(p, w, C.CertifyConfig(extent=4))
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    monkeypatch.setattr(C, "_HOP_BOUND", hop_bound)
    with pytest.raises(HopNotFound) as info:
        C.build_block_decomposition(p, w, mid, 4,
                                    (cert.interval_lo, cert.interval_hi))
    assert str(info.value) == (f"no {direction} landing in the interval "
                               "within hop_bound")
    short = C.certify_frame(p, w, C.CertifyConfig(extent=4))
    assert short.verdict == "not_certified"
    assert short.reason == str(info.value)


def test_decomposition_rejects_interval_spanning_structures(flagship):
    # on the flagship, anchor_m drops from 0 to -1 where x - sqrt(2) crosses
    # a = -1, at x = sqrt(2) - 1, so (0.2, 0.6) holds two anchor structures
    params, w, _ = flagship
    ends = [L.anchor_block(params, w, x) for x in (0.2, 0.6)]
    assert ends[0].anchor_m != ends[1].anchor_m
    with pytest.raises(ValueError, match="anchor structure"):
        C.build_block_decomposition(params, w, 0.3, 8, (0.2, 0.6))


def test_decomposition_requires_x_in_interval(flagship):
    params, w, cert = flagship
    with pytest.raises(ValueError):
        C.build_block_decomposition(params, w, cert.interval_hi + 0.05, 8,
                                    (cert.interval_lo, cert.interval_hi))


def test_composite_block_determinant_law(flagship):
    params, w, cert = flagship
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    dec = C.build_block_decomposition(params, w, mid, 16,
                                      (cert.interval_lo, cert.interval_hi))
    composite = C.assemble_composite(params, w, dec)
    det = complex(np.linalg.det(composite))
    prod = 1.0 + 0j
    for b in dec.blocks:
        prod *= complex(np.linalg.det(b.matrix))
    assert abs(det - prod) <= 1e-10 * abs(prod)


# ---------------------------------------------------------------------------
# certify_frame

def test_certify_flagship_bump(flagship):
    _, _, cert = flagship
    assert cert.certified
    assert cert.delta > 1e-8
    assert cert.block_sigma_min > 0.0
    # frozen first-run values (samples_per_gap 32, extent 32)
    assert cert.delta == pytest.approx(0.08181551228643852, rel=1e-9)
    assert cert.block_sigma_min == pytest.approx(0.17686582769498943, rel=1e-9)
    assert cert.n_blocks == 29


def test_certify_refuses_wide_alpha():
    cert = C.certify_frame(L.LatticeParams(1.2, 0.5), W.characteristic())
    assert not cert.certified
    assert cert.reason == "rational density class"
    assert cert.hypothesis_report["alpha_lt_support"] is False


def test_certify_refuses_rational_class():
    cert = C.certify_frame(L.LatticeParams(1.0, 0.5), W.odd_bump())
    assert not cert.certified
    assert cert.reason == "rational density class"


def test_rational_class_is_computed_not_declared():
    # alpha*beta = 3/5 is rational whatever the caller builds; a declared
    # irrational class used to certify the bump here
    cert = C.certify_frame(L.LatticeParams(1.0, 0.6), W.bump())
    assert cert.verdict == "not_certified"
    assert cert.reason == "rational density class"
    assert cert.hypothesis_report["irrational_class"] is False


def test_certify_refuses_vanishing_window():
    # odd bump vanishes at an interior point: 1/g unbounded on the core
    cert = C.certify_frame(L.LatticeParams(1.0, 1.0 / SQRT2), W.odd_bump())
    assert not cert.certified
    assert cert.reason == "window vanishes on the shrunken core"


def test_certify_refuses_uncovered_anchor_row():
    # 1/beta = 3.54 > support length 2 and alpha > 1: for x in [1, alpha)
    # row 0 has no good column, so the anchor construction cannot start
    cert = C.certify_frame(L.LatticeParams(1.2, 0.4 / SQRT2), W.bump())
    assert not cert.certified
    assert cert.hypothesis_report["anchor_row_covered"] is False
    assert cert.reason == "row 0 has no good pair on part of (0, alpha)"


def test_anchor_row_covered_despite_large_inv_beta():
    # support (0,1) with alpha < 1: m = 0 is good for every x in (0, alpha)
    # even though 1/beta = sqrt(2) exceeds the support length
    cert = C.certify_frame(L.LatticeParams(0.8, 1.0 / SQRT2),
                           W.characteristic())
    assert cert.hypothesis_report["anchor_row_covered"] is True


def test_certify_characteristic_at_beta_one_raises_nothing():
    """At beta = 1 the breakpoint candidate b + alpha - 1/beta equals alpha
    but may round just below it; the scan raised on the ulp-wide last gap
    this left, for 31 of these 500 alphas."""
    config = C.CertifyConfig(extent=4)
    for alpha in np.random.default_rng(0).uniform(0.2, 0.95, 500).tolist():
        cert = C.certify_frame(L.LatticeParams(alpha, 1.0), W.characteristic(),
                               config)
        assert cert.certified


def _anchor_row_covered_floor_ceil(params, w, tol=1e-12):
    """The floor/ceil k range, padded by one on each side, that int_bounds
    replaced."""
    a, b = w.support_lo, w.support_hi
    if params.inv_beta <= w.support_length:
        return True
    k_lo = math.floor((0.0 - b) * params.beta) - 1
    k_hi = math.ceil((params.alpha - b) * params.beta) + 1
    for k in range(k_lo, k_hi + 1):
        lo = max(0.0, b + k * params.inv_beta)
        hi = min(params.alpha, a + (k + 1) * params.inv_beta)
        if hi - lo > tol:
            return False
    return True


def test_anchor_row_covered_matches_floor_ceil_loop():
    """120k random (a, length, alpha, beta), most with alpha at the end of a
    bad interval [b + k/beta, a + (k+1)/beta) or with a bad interval ending
    at 0, each moved by 0, 5e-16 relative, or +-1e-13, 9e-13, 1e-12, 1.1e-12
    and 2e-12 around the overlap tolerance."""
    rng = np.random.default_rng(2024)
    n = 120_000
    nudges = np.array([0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1e-12, -1e-12,
                       1.1e-12, -1.1e-12, 2e-12, -2e-12])
    length = rng.uniform(0.05, 4.0, n)
    inv_beta = length * np.where(rng.random(n) < 0.9, rng.uniform(1.0, 4.0, n),
                                 rng.uniform(0.3, 1.0, n))
    a0 = rng.uniform(-3.0, 2.0, n)
    end_at_zero = rng.random(n) < 0.2
    # alpha is uniform (mode 0), at b + k/beta (1) or at a + (k+1)/beta (2)
    alpha_mode = rng.integers(0, 3, n)
    k_off = rng.integers(0, 4, n)
    nudge = rng.choice(nudges, n)
    rel = rng.random(n) < 0.1
    alpha_u = rng.uniform(0.0, 3.0, n)
    uncovered = near_end = 0
    for i in range(n):
        beta = 1.0 / inv_beta[i]
        ib = 1.0 / beta
        if end_at_zero[i]:
            # a bad interval ends at (or just past) x = 0
            a = nudge[i] - (1 + k_off[i]) * ib
        else:
            a = a0[i]
        b = a + length[i]
        if alpha_mode[i] == 0:
            alpha = alpha_u[i] * ib
        else:
            base = b if alpha_mode[i] == 1 else a + ib
            k = math.floor(-base / ib) + 1 + k_off[i]
            end = base + k * ib
            alpha = end * (1 + 5e-16) if rel[i] else end + nudge[i]
            near_end += 1
        if alpha <= 0.0:
            alpha = alpha_u[i] * ib + 1e-3
        params = L.LatticeParams(alpha, beta)
        w = W.characteristic(a, b)
        expected = _anchor_row_covered_floor_ceil(params, w)
        assert C._anchor_row_covered(params, w) == expected, (a, b, alpha, beta)
        uncovered += not expected
    assert uncovered > n // 4
    assert near_end > n // 2


@pytest.mark.parametrize("kwargs", [
    {"samples_per_gap": 2}, {"samples_per_gap": 0}, {"samples_per_gap": -1},
    {"delta_floor": 0.0}, {"delta_floor": -1.0}, {"delta_floor": math.nan},
    {"delta_floor": math.inf}, {"extent": -1},
])
def test_certify_config_rejects_unusable_scan_settings(kwargs):
    # fewer than 3 samples per gap can never certify, a floor <= 0
    # certifies on the rounding noise of a singular determinant, and a
    # negative extent names no rows
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        C.CertifyConfig(**kwargs)
    C.CertifyConfig(samples_per_gap=3, delta_floor=5e-324, extent=0)


def test_certify_monotone_in_extent(flagship):
    params, w, _ = flagship
    c16 = C.certify_frame(params, w, C.CertifyConfig(extent=16))
    c48 = C.certify_frame(params, w, C.CertifyConfig(extent=48))
    assert c16.certified and c48.certified
    assert c48.interval_lo == c16.interval_lo
    assert c48.delta == c16.delta


def test_hypothesis_report_keys(flagship):
    _, _, cert = flagship
    assert set(cert.hypothesis_report) == {
        "density_lt_one", "irrational_class", "alpha_lt_support",
        "anchor_row_covered", "sup_norm_finite", "inv_sup_finite"}
    assert all(cert.hypothesis_report.values())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, density", [(1.0, 0.99930117),
                                            (1e-4, 0.50000137)])
def test_bump_core_holds_where_its_minimum_underflows(alpha, density):
    """At these lattices min g on the core is e^-714 and e^-5000, below the
    smallest double; the hypothesis holds all the same."""
    params = L.LatticeParams(alpha, density / alpha)
    assert not params.rational_class.is_rational
    assert C._hypothesis_report(params, W.bump())["inv_sup_finite"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [100, 1000])
def test_gevrey_core_holds_where_its_log_overflows(order):
    """At (1.8, 0.54123) the core is [-0.9, 0.9]: ln max 1/g is e^107 at
    order 100 and e^1067, past the largest double, at order 1000.  Gevrey
    has no zero there, so the scan runs, and its band's powers overflow to
    g = 0 near the support ends without a warning."""
    params = L.LatticeParams(1.8, 0.54123)
    cert = C.certify_frame(params, W.gevrey(order), C.CertifyConfig(extent=16))
    assert all(cert.hypothesis_report.values())
    assert cert.reason == "no determinant floor found"


@pytest.mark.filterwarnings("error")
def test_determinant_past_the_largest_double_raises_no_warning():
    """polybump:0:100 at (50.123, 0.019731) is a legal lattice whose |det|
    reaches 10^560: exp's correct value there is inf, and it warned of the
    overflow.  The verdict is not pinned."""
    cert = C.certify_frame(L.LatticeParams(50.123, 0.019731),
                           W.poly_bump(0.0, 100.0), C.CertifyConfig(extent=16))
    assert cert.profile.log10_det_best > 560 and cert.delta == math.inf
    assert np.isinf(cert.profile.abs_det).any()


# ---------------------------------------------------------------------------
# rational machinery

@pytest.mark.filterwarnings("error")
def test_rational_analysis_past_the_largest_double_raises_no_warning():
    # every |det| of this period exceeds the largest double: inf, no warning
    p, w = L.LatticeParams(5000.0, 0.000196), W.poly_bump(0.0, 1e4)
    assert p.rational_class.label() == "rational(49/50)"
    report = C.rational_analysis(p, w, samples=256, delta_sep=0)
    assert report.min_abs_det_period == math.inf and report.frame_supported


def test_forbidden_ratios_small_orders():
    """The order is the size bound: 2, 3 and 4 at these lattices."""
    w = W.characteristic()
    orders = {2: (0.5, 0.5), 3: (0.5, 1.0), 4: (0.6, 1.0)}
    for order, (alpha, beta) in orders.items():
        assert L.size_bound(L.LatticeParams(alpha, beta), w) == order
    ratios = {order: C.forbidden_ratios(L.LatticeParams(*ab), w)
              for order, ab in orders.items()}
    assert ratios[2] == [Fraction(1, 2)]
    assert ratios[3] == [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    assert ratios[4] == [
        Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
        Fraction(2, 3), Fraction(3, 4)]


def test_rational_analysis_requires_rational_class():
    with pytest.raises(HypothesisViolated):
        C.rational_analysis(L.LatticeParams(1.0, 1.0 / SQRT2), W.bump())


def test_rational_analysis_separation_guard():
    p = L.LatticeParams(0.6, 10.0 / 9.0)     # alpha*beta = 2/3, forbidden
    with pytest.raises(TooCloseToForbiddenRatio):
        C.rational_analysis(p, W.characteristic())


@pytest.mark.parametrize("samples", [0, -1])
def test_rational_analysis_rejects_no_samples(monkeypatch, samples):
    """samples < 1 is refused by name before any work."""
    def no_work(*args):
        raise AssertionError("rational_analysis did work first")

    monkeypatch.setattr(C, "structure_gaps", no_work)
    monkeypatch.setattr(C, "_forbidden_separation", no_work)
    p = L.LatticeParams(0.6, 10.0 / 9.0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        C.rational_analysis(p, W.characteristic(), samples=samples,
                            delta_sep=0.0)


def test_rational_analysis_never_builds_the_farey_list(monkeypatch):
    """The forbidden ratios are never built: with delta_sep = 0 the report
    equals the one of a run that may build them, and the default guard
    refuses a forbidden density from the Farey neighbours alone."""
    p, w = L.LatticeParams(0.6, 10.0 / 9.0), W.characteristic()
    ref = C.rational_analysis(p, w, samples=256, delta_sep=0.0)

    def refuse(*args):
        raise AssertionError("forbidden_ratios called")

    monkeypatch.setattr(C, "forbidden_ratios", refuse)
    rep = C.rational_analysis(p, w, samples=256, delta_sep=0.0)
    assert dataclasses.astuple(rep) == dataclasses.astuple(ref)
    assert "forbidden" not in {f.name for f in dataclasses.fields(rep)}
    with pytest.raises(TooCloseToForbiddenRatio, match="within 0 of"):
        C.rational_analysis(p, w, samples=256)


def test_forbidden_separation_is_the_farey_list_minimum():
    """On 300 random lattices with size bound <= 60, about a fifth of them
    at alpha = 1 and the float of a Farey fraction or one ulp beside it, the
    separation from the Farey neighbours has the bits of the minimum over
    forbidden_ratios."""
    rng = np.random.default_rng(23)
    w, seen = W.bump(), 0
    while seen < 300:
        alpha = rng.uniform(0.05, 1.95)
        density = rng.uniform(0.01, 0.99)
        if rng.random() < 0.2:
            alpha, q = 1.0, int(rng.integers(2, 61))
            ratio = int(rng.integers(1, q)) / q
            density = np.nextafter(ratio, rng.choice([0.0, ratio, 1.0]))
        p = L.LatticeParams(alpha, density / alpha)
        if not p.subcritical or L.size_bound(p, w) > 60:
            continue
        seen += 1
        want = min(abs(p.density - float(r)) for r in C.forbidden_ratios(p, w))
        assert C._forbidden_separation(p, w) == want, (alpha, density)


def test_forbidden_ratio_guard_at_size_bound_1000_is_fast():
    """alpha = 1, beta = 0.998: alpha*beta = 499/500 is itself a forbidden
    ratio of the bump's size bound 1,000, refused without the 304,191
    fractions of the list."""
    p = L.LatticeParams(1.0, 0.998)
    assert L.size_bound(p, W.bump()) == 1000
    start = time.perf_counter()
    with pytest.raises(TooCloseToForbiddenRatio, match="within 0 of"):
        C.rational_analysis(p, W.bump())
    assert time.perf_counter() - start < 0.1


def test_rational_analysis_characteristic_zero_free():
    p = L.LatticeParams(0.6, 10.0 / 9.0)
    rep = C.rational_analysis(p, W.characteristic(), samples=1024, delta_sep=0.0)
    assert (rep.p, rep.q) == (2, 3)
    assert rep.zero_count == 0
    assert rep.certified_subinterval is not None
    lo, hi = rep.certified_subinterval
    j_lo, j_hi = rep.interval
    assert hi - lo >= (j_hi - j_lo) / (rep.zero_count + 1) * 0.99
    assert rep.denominator_threshold == pytest.approx(
        1.0 / (0.6 * (j_hi - j_lo)), rel=1e-12)
    assert rep.frame_supported
    # the floor is CertifyConfig's unless given: above the period minimum,
    # the same analysis no longer supports a frame
    floor = inspect.signature(C.rational_analysis).parameters["delta_floor"]
    assert floor.default == C.CertifyConfig().delta_floor
    high = C.rational_analysis(p, W.characteristic(), samples=1024, delta_sep=0.0,
                               delta_floor=2 * rep.min_abs_det_period)
    assert dataclasses.astuple(high)[:-1] == dataclasses.astuple(rep)[:-1]
    assert not high.frame_supported


def test_rational_analysis_odd_bump_not_supported():
    p = L.LatticeParams(1.0, 0.5)
    rep = C.rational_analysis(p, W.odd_bump(), samples=1024, delta_sep=0.0)
    assert rep.zero_count >= 1
    assert not rep.frame_supported


def test_rational_analysis_reads_a_dilated_lattice_alike():
    """(g, alpha, beta) -> (g(./c), c alpha, beta/c) keeps every hypothesis;
    an absolute 1e-9 nudge of the period grid pushed its points past whole
    gaps at c = 1e-9, and the anchor structure changed inside one."""
    for c in (1.0, 1e-9):
        p = L.LatticeParams(0.6 * c, (2.0 / 3.0) / 0.6 / c)
        rep = C.rational_analysis(p, W.characteristic(0.0, c), samples=256,
                                  delta_sep=0.0)
        assert (rep.zero_count, rep.frame_supported) == (0, True), c


def _rational_loops(params, w, samples):
    """Reference: the per-x determinant loops of rational_analysis before
    batching, with np.linalg.det as the determinant oracle;
    (zero_count, certified_subinterval, min_abs_det_period)."""
    edges = L.structure_gaps(params, w)
    gi = int(np.argmax(np.diff(edges)))
    j_lo, j_hi = float(edges[gi]), float(edges[gi + 1])
    margin = (j_hi - j_lo) / 1000.0
    xs = np.linspace(j_lo + margin, j_hi - margin, samples)
    absdet = np.array([abs(np.linalg.det(L.build_Mx(params, w, L.anchor_block(params, w, x))))
                       for x in xs])
    below = absdet < C._ZERO_TOL
    runs = C._runs(~below)
    sub = None
    if runs:
        i, j = max(runs, key=lambda r: r[1] - r[0])
        sub = (float(xs[i]), float(xs[j - 1]))
    step = params.alpha / (params.rational_class.q * C._PERIOD_OVERSAMPLE)
    grid = L.off_breakpoints(edges, np.arange(0.5 * step, params.alpha, step))
    period_min = min(abs(np.linalg.det(L.build_Mx(params, w, L.anchor_block(params, w, x))))
                     for x in grid)
    return len(C._runs(below)), sub, float(period_min)


@pytest.mark.parametrize("w, alpha, beta", [
    (W.characteristic(), 0.6, 10.0 / 9.0),
    (W.odd_bump(), 1.0, 0.5),
    (W.bump(), 0.9, 0.7 / 0.9),
    (W.poly_bump(), 0.8, 0.75),
    (_sampled_window(), 0.6, 10.0 / 9.0),     # complex determinants
    (_sampled_window(), 0.7, 1.0),
])
def test_rational_analysis_matches_sample_loops(w, alpha, beta):
    p = L.LatticeParams(alpha, beta)
    rep = C.rational_analysis(p, w, samples=1024, delta_sep=0.0)
    zero_count, sub, period_min = _rational_loops(p, w, 1024)
    assert (rep.zero_count, rep.certified_subinterval) == (zero_count, sub)
    assert _matches_oracle(np.array([rep.min_abs_det_period]),
                           np.array([period_min]))


# ---------------------------------------------------------------------------
# the replay against the per-hop loop it replaced

def _separators_per_hop(params, w, x, col_lo, col_hi, row_lo, row_hi):
    """Reference: the separator blocks for columns col_lo..col_hi with rows
    rising strictly inside (row_lo, row_hi), or None; one scalar
    separator_row per column, then one evaluate call for the hop, at the
    entries' arguments."""
    cols = range(col_lo, col_hi + 1)
    rows = []
    prev_n = row_lo
    for m in cols:
        n = L.separator_row(params, w, x, m)
        if not (prev_n < n < row_hi):
            return None
        rows.append(n)
        prev_n = n
    if not rows:
        return []
    entries = W.evaluate(w, L.entry_args(params, x, np.array(rows),
                                         np.array(cols))).reshape(-1, 1, 1)
    return [C.DecompBlock("separator", n, m, entry)
            for n, m, entry in zip(rows, cols, entries)]


def _hop_per_row(params, w, x, interval, spec, extent, edge, step):
    """Reference: the next anchor block past edge and its separators, trying
    the rows one by one with scalar int_bounds; None past +-extent."""
    row = edge.row_hi if step > 0 else edge.row_lo
    if step * row >= extent:
        return None
    for nt in range(row + step, row + step * (C._HOP_BOUND + 1), step):
        if step * nt > extent:
            return None
        for mt in range(*L.int_bounds(x - params.alpha * nt, params.inv_beta,
                                       *interval)):
            col0 = mt + spec.anchor_m
            if step > 0:
                r0, c0, r1, c1 = edge.row_hi, edge.col_hi, nt, col0
            else:
                r0, c0 = nt + spec.size - 1, col0 + spec.size - 1
                r1, c1 = edge.row_lo, edge.col_lo
            if r1 <= r0 or c1 <= c0:
                continue
            seps = _separators_per_hop(params, w, x, c0 + 1, c1 - 1, r0, r1)
            if seps is not None:
                mat = L.build_Mx(params, w, L.BlockSpec(nt, col0, spec.size, x))
                block = C.DecompBlock("anchor", nt, col0, mat)
                return seps + [block] if step > 0 else [block] + seps
    direction = "forward" if step > 0 else "backward"
    raise HopNotFound(f"no {direction} landing in the interval within hop_bound")


def _decomposition_per_hop(params, w, x, extent, interval):
    """Reference: the hop-by-hop replay, forward then backward."""
    spec = L.anchor_block(params, w, x)
    blocks = [C.DecompBlock("anchor", 0, spec.anchor_m, L.build_Mx(params, w, spec))]
    for step in (1, -1):
        while hop := _hop_per_row(params, w, x, interval, spec, extent,
                                  blocks[-1] if step > 0 else blocks[0], step):
            blocks = blocks + hop if step > 0 else hop + blocks
    used = {n for b in blocks for n in range(b.row_lo, b.row_hi + 1)}
    discarded = [n for n in range(-extent, extent + 1) if n not in used]
    return types.SimpleNamespace(blocks=blocks, discarded_rows=discarded)


def _replayed(build, params, w, x, extent, interval):
    """(blocks with their matrix bytes, discarded rows), or the HopNotFound
    message."""
    try:
        dec = build(params, w, x, extent, interval)
    except HopNotFound as exc:
        return str(exc)
    blocks = [(b.kind, b.row_lo, b.col_lo, b.matrix.dtype, b.matrix.shape,
               b.matrix.tobytes()) for b in dec.blocks]
    return blocks, np.asarray(dec.discarded_rows).tolist()


_REPLAY_CASES = pytest.mark.parametrize("w, alpha, beta", [
    (W.bump(), 1.0, 1.0 / SQRT2),
    (W.gevrey(2), 1.3, 0.6),
    (W.poly_bump(), 0.7, 0.9 * SQRT2),
    (W.characteristic(), 0.55, SQRT2),
    (W.odd_bump(), 0.9, 1.0 / SQRT2),
    (_sampled_window(), 0.8, 1.0 / SQRT2),     # complex entries
    # at x = lo, a landing row past the edge block overlaps its columns
    (W.characteristic(), 0.7200720768363986, 0.9264482942758197),
], ids=["bump", "gevrey2", "poly_bump", "char", "odd_bump", "sampled",
        "char_overlap"])


def _interval(params, w):
    found = C.find_certified_interval(C.scan_determinant(params, w, 16), 1e-8)
    return found.lo, found.hi


@_REPLAY_CASES
@pytest.mark.parametrize("hop_bound", [None, 1, 2],
                         ids=["full_budget", "budget_1", "budget_2"])
def test_replay_matches_per_hop_loop(monkeypatch, w, alpha, beta, hop_bound):
    # at the interval's ends row 0 lands on no open-interval column, yet it
    # holds x's own anchor; the small budgets make some hops fail
    if hop_bound is not None:
        monkeypatch.setattr(C, "_HOP_BOUND", hop_bound)
    p = L.LatticeParams(alpha, beta)
    lo, hi = _interval(p, w)
    seen = {"separators": 0, "messages": 0}
    for x in (lo, 0.5 * (lo + hi), hi):
        for extent in (0, 1, 16, 1024):
            got = _replayed(C.build_block_decomposition, p, w, x, extent, (lo, hi))
            want = _replayed(_decomposition_per_hop, p, w, x, extent, (lo, hi))
            assert got == want
            if isinstance(got, str):
                seen["messages"] += 1
            else:
                assert all(b[3] == (float if w.is_real else complex)
                           for b in got[0])
                seen["separators"] += sum(b[0] == "separator" for b in got[0])
    assert seen["messages" if hop_bound else "separators"] > 0


@_REPLAY_CASES
@pytest.mark.parametrize("move", [
    lambda m: 4 * (m % 3 == 1) - 2 * (m % 4 == 2),
    lambda m: np.full_like(m, -3),
    lambda m: np.full_like(m, 3),
], ids=["falling", "up", "down"])
def test_replay_matches_per_hop_loop_on_moved_separator_rows(monkeypatch, w,
                                                             alpha, beta, move):
    # separator rows always rise, by 2 or more where one is shifted (eps <=
    # (1/beta - alpha)/2), and fit between the blocks they glue; moving them
    # makes the rise test and each end test of a hop decide
    def moved(params, w, x, m):
        return row(params, w, x, m) + move(np.asarray(m))

    row = L.separator_row
    monkeypatch.setattr(L, "separator_row", moved)
    monkeypatch.setattr(C, "separator_row", moved)
    p = L.LatticeParams(alpha, beta)
    lo, hi = _interval(p, w)
    x = 0.5 * (lo + hi)
    got = _replayed(C.build_block_decomposition, p, w, x, 64, (lo, hi))
    assert got == _replayed(_decomposition_per_hop, p, w, x, 64, (lo, hi))


@_REPLAY_CASES
def test_separators_are_ron_shen_entries(w, alpha, beta):
    """Each 1x1 separator block is its entry of the Ron-Shen matrix,
    evaluate(w, entry_args(...)) bit for bit, as every anchor block is."""
    p = L.LatticeParams(alpha, beta)
    lo, hi = _interval(p, w)
    dec = C.build_block_decomposition(p, w, 0.5 * (lo + hi), 1024, (lo, hi))
    assert len(dec.separators) > 0
    assert _same_bits(dec.separators, W.evaluate(w, L.entry_args(
        p, dec.x, dec.separator_rows, dec.separator_cols)))


def _count_svd_calls(monkeypatch):
    """The blocks handed to svdvals_accurate, as it is called."""
    calls, svd = [], LA.svdvals_accurate
    monkeypatch.setattr(LA, "svdvals_accurate",
                        lambda a: calls.append(a) or svd(a))
    return calls


def _per_block_rule(dec):
    """Reference: (sigma, refused) by linalg.stack_sigma_min's documented
    rule, block by block (a real 1x1 block is |a| with tolerance 0, any other
    gesdd's smallest value with tolerance SCREEN_SLACK * s * eps * ||A||_F),
    each block's value within its tolerance of svdvals_accurate's."""
    est, tol = [], []
    for a in (b.matrix for b in dec.blocks):
        exact = a.shape == (1, 1) and a.imag[0, 0] == 0
        est.append(float(abs(a.real[0, 0]) if exact
                         else np.linalg.svd(a, compute_uv=False)[-1]))
        tol.append(0.0 if exact else float(
            LA.SCREEN_SLACK * len(a) * np.finfo(float).eps * np.linalg.norm(a)))
        assert abs(est[-1] - LA.svdvals_accurate(a)[-1]) <= tol[-1]
    refused = [(e, t) for e, t in zip(est, tol) if not e - t > t]
    return min(est), min(refused, default=None)


def _assert_sigma_min(dec):
    """dec.sigma_min has the bits of the per-block rule, but for the last
    bits of a refused block's tolerance."""
    (sigma, refused), (want, want_refused) = dec.sigma_min, _per_block_rule(dec)
    assert type(sigma) is float and sigma.hex() == want.hex()
    assert (refused is None) == (want_refused is None)
    if refused is not None:
        assert refused[0].hex() == want_refused[0].hex()
        assert refused[1] == pytest.approx(want_refused[1], rel=1e-14)
    return sigma, refused


@_REPLAY_CASES
def test_sigma_min_matches_per_block_svd(monkeypatch, w, alpha, beta):
    p = L.LatticeParams(alpha, beta)
    lo, hi = _interval(p, w)
    dec = C.build_block_decomposition(p, w, 0.5 * (lo + hi), 1024, (lo, hi))
    calls = _count_svd_calls(monkeypatch)
    sigma, refused = dec.sigma_min
    # gesdd decides alone: no block goes to the Jacobi SVD
    assert calls == [] and refused is None
    complex_seps = dec.separators[dec.separators.imag != 0]
    assert bool(len(complex_seps)) == (w.kind == "sampled")
    if w.kind == "bump":
        assert len(dec.anchors) > 200
    monkeypatch.undo()
    assert _assert_sigma_min(dec) == (sigma, None)


def test_sigma_min_rejects_a_non_finite_separator():
    for bad in (np.nan, np.inf, complex(1.0, np.inf)):
        dec = C.BlockDecomposition(
            0.0, np.array([0]), np.array([0]), np.eye(2, dtype=complex)[None],
            np.array([2]), np.array([2]), np.array([bad], dtype=complex),
            np.array([-2, -1], dtype=np.int64))
        with pytest.raises(ValueError, match="non-finite"):
            dec.sigma_min


def test_sigma_min_rejects_a_non_finite_anchor():
    for bad in (np.nan, np.inf, complex(1.0, np.inf)):
        anchors = np.stack([np.eye(2, dtype=complex)] * 3)
        anchors[1, 0, 1] = bad
        dec = C.BlockDecomposition(
            0.0, np.array([-2, 0, 2]), np.array([-2, 0, 2]), anchors,
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=complex), np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="non-finite"):
            dec.sigma_min


def test_decomposition_arrays_match_its_blocks(flagship):
    params, w, cert = flagship
    interval = (cert.interval_lo, cert.interval_hi)
    dec = C.build_block_decomposition(params, w, 0.5 * sum(interval), 64,
                                      interval)
    assert "blocks" not in vars(dec)          # built only when read
    anchors = [b for b in dec.blocks if b.kind == "anchor"]
    seps = [b for b in dec.blocks if b.kind == "separator"]
    assert dec.n_blocks == len(dec.blocks) == len(anchors) + len(seps)
    assert [(b.row_lo, b.col_lo) for b in anchors] == list(
        zip(dec.anchor_rows.tolist(), dec.anchor_cols.tolist()))
    assert [(b.row_lo, b.col_lo) for b in seps] == list(
        zip(dec.separator_rows.tolist(), dec.separator_cols.tolist()))
    assert all(np.shares_memory(b.matrix, dec.anchors) for b in anchors)
    assert dec.blocks is dec.blocks


def test_singular_block_gives_the_singular_verdict(monkeypatch, flagship):
    # a zero row makes one anchor block singular: gesdd's sigma is at
    # rounding level, and the margin refuses it
    params, w, _ = flagship
    build = C.build_block_decomposition

    def singular(*args):
        dec = build(*args)
        anchors = dec.anchors.copy()
        anchors[-1, -1] = 0.0
        return dataclasses.replace(dec, anchors=anchors)

    monkeypatch.setattr(C, "build_block_decomposition", singular)
    cert = C.certify_frame(params, w)
    assert cert.verdict == "not_certified"
    assert cert.reason.startswith("block singular to working precision: "
                                  "sigma ")
    assert " against tolerance " in cert.reason
    assert cert.block_sigma_min is None
    assert cert.n_blocks == 29
    assert cert.interval_lo is not None and cert.delta is not None


_WINDOW_KINDS = {
    "bump": W.bump(), "gevrey": W.gevrey(2), "poly_bump": W.poly_bump(),
    "characteristic": W.characteristic(), "odd_bump": W.odd_bump(),
    "sampled": _sampled_window(),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from(sorted(_WINDOW_KINDS)), st.floats(0.3, 0.95),
       st.floats(0.3, 0.95), st.sampled_from([0, 8, 64, 1024]))
def test_sigma_min_matches_per_block_svd_on_random_lattices(kind, u, density,
                                                            extent):
    """alpha = u * support length and alpha*beta = density, over every
    window kind, anchored in the middle third of the widest breakpoint gap:
    sigma_min has every bit of the per-block rule, each block within its
    tolerance of the Jacobi SVD."""
    w = _WINDOW_KINDS[kind]
    alpha = u * w.support_length
    p = L.LatticeParams(alpha, density / alpha)
    assume(C._anchor_row_covered(p, w))
    edges = L.structure_gaps(p, w)
    gap = int(np.argmax(np.diff(edges)))
    third = (edges[gap + 1] - edges[gap]) / 3.0
    lo, hi = edges[gap] + third, edges[gap + 1] - third
    try:
        dec = C.build_block_decomposition(p, w, 0.5 * (lo + hi), extent,
                                          (lo, hi))
    except HopNotFound:
        assume(False)
    _assert_sigma_min(dec)


def test_replay_calls_each_layer_once(monkeypatch, flagship):
    # one evaluate for every separator, one build_Mx stack for every anchor,
    # and _one_structure's three anchor_block calls (x and the interval ends)
    params, w, cert = flagship
    calls = dict.fromkeys(("evaluate", "build_Mx", "anchor_block"), 0)
    for name in calls:
        def counted(*args, _name=name, _f=getattr(C, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(C, name, counted)
    interval = (cert.interval_lo, cert.interval_hi)
    dec = C.build_block_decomposition(params, w, 0.5 * sum(interval), 1024,
                                      interval)
    kinds = [b.kind for b in dec.blocks]
    assert kinds.count("anchor") > 100 and kinds.count("separator") > 100
    assert calls == {"evaluate": 1, "build_Mx": 1, "anchor_block": 3}


def test_decomposition_rejects_negative_extent(flagship):
    params, w, cert = flagship
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    with pytest.raises(ValueError, match="extent"):
        C.build_block_decomposition(params, w, mid, -3,
                                    (cert.interval_lo, cert.interval_hi))
