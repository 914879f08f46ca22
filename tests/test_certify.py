"""Determinant scans, certified intervals, block decompositions, rational analysis."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gaborcert import certify as C
from gaborcert import lattice as L
from gaborcert import window as W
from gaborcert.errors import (HopNotFound, HypothesisViolated,
                              TooCloseToForbiddenRatio)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def flagship():
    """Bump window at the paper-scale showcase lattice alpha=1, beta=1/sqrt(2)."""
    params = L.lattice_params(1.0, 1.0 / SQRT2)
    w = W.bump()
    cert = C.certify_frame(params, w)
    return params, w, cert


# ---------------------------------------------------------------------------
# determinant scan

def test_scan_samples_avoid_breakpoints():
    p = L.lattice_params(0.7, 1.0)
    w = W.characteristic()
    prof = C.scan_determinant(p, w, 16)
    edges = np.concatenate(([0.0], prof.breakpoints, [p.alpha]))
    gaps = np.diff(edges)
    for x in prof.x_samples:
        dist = np.min(np.abs(edges - x))
        gi = np.searchsorted(edges, x) - 1
        assert dist >= gaps[gi] / 1000.0 * (1 - 1e-12)


def test_scan_poly_bump_matches_hand_product():
    p = L.lattice_params(0.7, 1.0)
    w = W.poly_bump(0.0, 1.0)
    prof = C.scan_determinant(p, w, 16)
    # on the gap (0, 0.1) the block is diag(g(x), g(x+0.3), g(x+0.6), g(x+0.9))
    sel = prof.x_samples < 0.1
    xs = prof.x_samples[sel]
    expect = (xs * (1 - xs) * (xs + 0.3) * (0.7 - xs)
              * (xs + 0.6) * (0.4 - xs) * (xs + 0.9) * (0.1 - xs))
    assert np.allclose(np.abs(prof.det_values[sel]), expect, rtol=1e-12)


def test_scan_characteristic_unit_determinants():
    rng = np.random.default_rng(2)
    for _ in range(5):
        alpha = rng.uniform(0.4, 0.9)
        beta = rng.uniform(1.05, 0.98 / alpha)
        p = L.lattice_params(alpha, beta)
        prof = C.scan_determinant(p, W.characteristic(), 8)
        assert np.allclose(prof.abs_det, 1.0, atol=1e-12)


def test_scan_fingerprints_constant_per_gap():
    """One fingerprint per gap, and every sample of the gap has it."""
    p = L.lattice_params(1.0, 1.0 / SQRT2)
    prof = C.scan_determinant(p, W.bump(), 8)
    assert len(prof.fingerprints) == len(prof.breakpoints) + 1
    for x, gi in zip(prof.x_samples, prof.gap_index):
        assert L.structure_fingerprint(p, W.bump(), x) == prof.fingerprints[gi]


def test_scan_rejects_wide_alpha():
    with pytest.raises(HypothesisViolated):
        C.scan_determinant(L.lattice_params(1.2, 0.5), W.characteristic(), 8)


def _scan_loop(params, w, samples_per_gap):
    """Reference: the sample-by-sample scan that the batched scan replaced."""
    bps = L.structure_breakpoints(params, w)
    edges = np.concatenate(([0.0], bps, [params.alpha]))
    xs, dets, fps, gaps = [], [], [], []
    for gi in range(len(edges) - 1):
        lo, hi = edges[gi], edges[gi + 1]
        if hi - lo <= 0:
            continue
        for x in C._chebyshev_nodes(lo, hi, samples_per_gap):
            spec = L.anchor_block(params, w, x)
            M = L.build_Mx(params, w, spec)
            xs.append(x)
            dets.append(complex(np.linalg.det(M)))
            fps.append(L.structure_fingerprint(params, w, x))
            gaps.append(gi)
    return np.array(xs), np.array(dets, dtype=complex), fps, np.array(gaps)


def _sampled_window():
    rng = np.random.default_rng(8)
    vals = 1.0 + 0.3 * (rng.standard_normal(257) + 1j * rng.standard_normal(257))
    return W.sampled(np.linspace(0.0, 1.0, 257), vals)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("w, alpha, beta, samples", [
    (W.bump(), 1.0, 1.0 / SQRT2, 32),
    (W.gevrey(2), 1.3, 0.6, 16),
    (W.poly_bump(), 0.7, 0.9 * SQRT2, 16),
    (W.characteristic(), 0.55, SQRT2, 8),
    (W.odd_bump(), 0.9, 1.0 / SQRT2, 16),
    (_sampled_window(), 0.8, 1.0 / SQRT2, 32),
])
def test_scan_matches_sample_loop(w, alpha, beta, samples):
    p = L.lattice_params(alpha, beta)
    prof = C.scan_determinant(p, w, samples)
    xs, dets, fps, gaps = _scan_loop(p, w, samples)
    assert _same_bits(prof.x_samples, xs)
    assert _same_bits(prof.det_values, dets)
    assert _same_bits(prof.gap_index, gaps)
    assert [prof.fingerprints[gi] for gi in prof.gap_index] == fps


def test_scan_splits_batches_past_entry_cap(monkeypatch):
    monkeypatch.setattr(C, "_BATCH_ENTRIES", 20)
    p, w = L.lattice_params(1.0, 1.0 / SQRT2), W.bump()
    prof = C.scan_determinant(p, w, 32)
    xs, dets, fps, gaps = _scan_loop(p, w, 32)
    assert _same_bits(prof.det_values, dets)
    assert [prof.fingerprints[gi] for gi in prof.gap_index] == fps


def test_scan_rejects_a_gap_holding_two_structures(monkeypatch):
    """With no breakpoints, the one gap (0, alpha) holds several anchor
    structures; the scan trusts the breakpoints and raises, never splits."""
    monkeypatch.setattr(C, "structure_breakpoints", lambda params, w: np.array([]))
    p, w = L.lattice_params(1.0, 1.0 / SQRT2), W.bump()
    with pytest.raises(AssertionError, match="anchor structure"):
        C.scan_determinant(p, w, 64)


def test_scan_rejects_no_samples_per_gap():
    p, w = L.lattice_params(1.0, 1.0 / SQRT2), W.bump()
    for k in (0, -1):
        with pytest.raises(ValueError, match="samples_per_gap"):
            C.scan_determinant(p, w, k)
    prof = C.scan_determinant(p, w, 1)
    assert len(prof.x_samples) == len(prof.fingerprints) == len(prof.breakpoints) + 1


def test_gap_dets_key_holds_anchor_m():
    """x and x + 1/beta share the fingerprint, one column apart: the check
    at the ends compares anchor_m too."""
    p, w = L.lattice_params(1.0, 1.0 / SQRT2), W.bump()
    xs = np.array([0.2, 0.2 + p.inv_beta])
    assert L.structure_fingerprint(p, w, xs[0]) == L.structure_fingerprint(p, w, xs[1])
    with pytest.raises(AssertionError, match="anchor structure"):
        C._gap_dets(p, w, xs)
    spec, dets = C._gap_dets(p, w, xs[:1])
    assert (spec.anchor_m, spec.size) == (0, 2)
    assert dets.tolist() == [np.linalg.det(L.build_Mx(p, w, L.anchor_block(p, w, xs[0])))]


# ---------------------------------------------------------------------------
# certified interval

def test_interval_characteristic_widest_gap():
    p = L.lattice_params(0.7, 1.0)
    prof = C.scan_determinant(p, W.characteristic(), 16)
    found = C.find_certified_interval(prof, 1e-8)
    assert found is not None
    assert found.delta == pytest.approx(1.0, abs=1e-12)
    # widest gap of the 0.1-spaced breakpoints in (0, 0.7) has width 0.1;
    # the run spans one gap
    edges = np.concatenate(([0.0], prof.breakpoints, [p.alpha]))
    assert np.searchsorted(edges, found.lo) == np.searchsorted(edges, found.hi)


def test_interval_not_found_for_zero_profile():
    p = L.lattice_params(0.7, 1.0)
    prof = C.scan_determinant(p, W.characteristic(), 16)
    zero = C.DeterminantProfile(prof.x_samples, np.zeros_like(prof.det_values),
                                prof.fingerprints, prof.gap_index,
                                prof.breakpoints)
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


@given(st.lists(st.tuples(st.sampled_from((0, 0, 0, 1)), st.sampled_from((1.0, 2.0)),
                          st.sampled_from((0.0, 1e-9, 0.5, 1.0, 2.0))),
                max_size=40))
@example([(0, 1.0, 1.0)] * 3 + [(0, 1.0, 0.0)] + [(0, 1.0, 1.0)] * 3)
def test_interval_matches_sample_loop(cells):
    """Widest run, ties to the first, split at gap changes and at small |det|."""
    gaps = np.cumsum([new_gap for new_gap, _, _ in cells], dtype=int)
    xs = np.cumsum([dx for _, dx, _ in cells])
    dets = np.array([d for _, _, d in cells], dtype=complex)
    prof = C.DeterminantProfile(xs, dets, [None] * len(cells), gaps, np.array([]))
    assert C.find_certified_interval(prof, 1e-8) == _widest_run_loop(prof, 1e-8)


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
    p = L.lattice_params(1.0 / SQRT2, 1.0)
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
    p = L.lattice_params(alpha, beta)
    cert = C.certify_frame(p, w, C.CertifyConfig(extent=extent))
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    dec = C.build_block_decomposition(p, w, mid, extent,
                                      (cert.interval_lo, cert.interval_hi))
    assert [(b.kind, b.row_lo, b.col_lo, b.size) for b in dec.blocks] == layout
    assert cert.n_blocks == len(layout)


@pytest.mark.parametrize("hop_bound, direction", [(1, "forward"),
                                                  (2, "backward")])
def test_decomposition_hop_not_found_messages(hop_bound, direction):
    p = L.lattice_params(0.6, 0.81 / (0.6 * SQRT2))
    w = W.gevrey(2)
    cert = C.certify_frame(p, w, C.CertifyConfig(extent=4))
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    with pytest.raises(HopNotFound) as info:
        C.build_block_decomposition(p, w, mid, 4,
                                    (cert.interval_lo, cert.interval_hi),
                                    hop_bound)
    assert str(info.value) == (f"no {direction} landing in the interval "
                               "within hop_bound")
    short = C.certify_frame(p, w, C.CertifyConfig(extent=4, hop_bound=hop_bound))
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
    cert = C.certify_frame(L.lattice_params(1.2, 0.5), W.characteristic())
    assert not cert.certified
    assert cert.reason == "rational density class"
    assert cert.hypothesis_report["alpha_lt_support"] is False


def test_certify_refuses_rational_class():
    cert = C.certify_frame(L.lattice_params(1.0, 0.5), W.odd_bump())
    assert not cert.certified
    assert cert.reason == "rational density class"


def test_certify_refuses_vanishing_window():
    # odd bump vanishes at an interior point: 1/g unbounded on the core
    cert = C.certify_frame(L.lattice_params(1.0, 1.0 / SQRT2), W.odd_bump())
    assert not cert.certified
    assert cert.reason == "window vanishes on the shrunken core"


def test_certify_refuses_uncovered_anchor_row():
    # 1/beta = 3.54 > support length 2 and alpha > 1: for x in [1, alpha)
    # row 0 has no good column, so the anchor construction cannot start
    cert = C.certify_frame(L.lattice_params(1.2, 0.4 / SQRT2), W.bump())
    assert not cert.certified
    assert cert.hypothesis_report["anchor_row_covered"] is False
    assert cert.reason == "row 0 has no good pair on part of (0, alpha)"


def test_anchor_row_covered_despite_large_inv_beta():
    # support (0,1) with alpha < 1: m = 0 is good for every x in (0, alpha)
    # even though 1/beta = sqrt(2) exceeds the support length
    cert = C.certify_frame(L.lattice_params(0.8, 1.0 / SQRT2),
                           W.characteristic())
    assert cert.hypothesis_report["anchor_row_covered"] is True


def _anchor_row_covered_floor_ceil(params, w, tol=1e-12):
    """The floor/ceil k range, padded by one on each side, that int_range
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
        params = L.LatticeParams(alpha, beta, L.RationalClass(False))
        w = W.characteristic(a, b)
        expected = _anchor_row_covered_floor_ceil(params, w)
        assert C._anchor_row_covered(params, w) == expected, (a, b, alpha, beta)
        uncovered += not expected
    assert uncovered > n // 4
    assert near_end > n // 2


@pytest.mark.parametrize("kwargs", [
    {"samples_per_gap": 2}, {"samples_per_gap": 0}, {"samples_per_gap": -1},
    {"delta_floor": 0.0}, {"delta_floor": -1.0}, {"delta_floor": math.nan},
    {"delta_floor": math.inf},
])
def test_certify_config_rejects_unusable_scan_settings(kwargs):
    # fewer than 3 samples per gap can never certify, and a floor <= 0
    # certifies on the rounding noise of a singular determinant
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        C.CertifyConfig(**kwargs)
    C.CertifyConfig(samples_per_gap=3, delta_floor=5e-324)


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


# ---------------------------------------------------------------------------
# rational machinery

def test_forbidden_ratios_small_orders():
    p = L.lattice_params(0.7, 1.0)
    w = W.characteristic()
    assert C.forbidden_ratios(p, w, order=2) == [Fraction(1, 2)]
    assert C.forbidden_ratios(p, w, order=3) == [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    assert C.forbidden_ratios(p, w, order=4) == [
        Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
        Fraction(2, 3), Fraction(3, 4)]


def test_rational_analysis_requires_rational_class():
    with pytest.raises(HypothesisViolated):
        C.rational_analysis(L.lattice_params(1.0, 1.0 / SQRT2), W.bump())


def test_rational_analysis_separation_guard():
    p = L.lattice_params(0.6, 10.0 / 9.0)     # alpha*beta = 2/3, forbidden
    with pytest.raises(TooCloseToForbiddenRatio):
        C.rational_analysis(p, W.characteristic())


def test_rational_analysis_characteristic_zero_free():
    p = L.lattice_params(0.6, 10.0 / 9.0)
    cfg = C.CertifyConfig(delta_sep=0.0)
    rep = C.rational_analysis(p, W.characteristic(), samples=1024, config=cfg)
    assert (rep.p, rep.q) == (2, 3)
    assert rep.zero_count == 0
    assert rep.certified_subinterval is not None
    lo, hi = rep.certified_subinterval
    j_lo, j_hi = rep.interval
    assert hi - lo >= (j_hi - j_lo) / (rep.zero_count + 1) * 0.99
    assert rep.denominator_threshold == pytest.approx(
        1.0 / (0.6 * (j_hi - j_lo)), rel=1e-12)
    assert rep.frame_supported


def test_rational_analysis_odd_bump_not_supported():
    p = L.lattice_params(1.0, 0.5)
    cfg = C.CertifyConfig(delta_sep=0.0)
    rep = C.rational_analysis(p, W.odd_bump(), samples=1024, config=cfg)
    assert rep.zero_count >= 1
    assert not rep.frame_supported


def _rational_loops(params, w, samples, config):
    """Reference: the per-x determinant loops of rational_analysis before
    batching; (zero_count, certified_subinterval, min_abs_det_period)."""
    edges = np.concatenate(([0.0], L.structure_breakpoints(params, w),
                            [params.alpha]))
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
    grid = np.arange(0.5 * step, params.alpha, step)
    for bp in edges:
        grid[np.abs(grid - bp) < 1e-9] += 1e-9
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
    p = L.lattice_params(alpha, beta)
    cfg = C.CertifyConfig(delta_sep=0.0)
    rep = C.rational_analysis(p, w, samples=1024, config=cfg)
    assert (rep.zero_count, rep.certified_subinterval,
            rep.min_abs_det_period) == _rational_loops(p, w, 1024, cfg)


# ---------------------------------------------------------------------------
# separators: every row checked first, then one evaluate call

def _separators_per_entry(params, w, x, col_lo, col_hi, row_lo, row_hi,
                          eps=None):
    """Reference: one separator_row and one evaluate call per column,
    stopping at the first collision."""
    seps = []
    prev_n = row_lo
    for m in range(col_lo, col_hi + 1):
        n, arg = L.separator_row(params, w, x, m)
        if not (prev_n < n < row_hi):
            return None
        entry = np.array([[W.evaluate(w, arg)]], dtype=complex)
        seps.append(C.DecompBlock("separator", n, m, entry))
        prev_n = n
    return seps


def _decomposition_or_message(params, w, x, extent, interval):
    try:
        return C.build_block_decomposition(params, w, x, extent, interval)
    except HopNotFound as exc:
        return str(exc)


@pytest.mark.parametrize("w, alpha, beta", [
    (W.bump(), 1.0, 1.0 / SQRT2),
    (W.gevrey(2), 1.3, 0.6),
    (W.poly_bump(), 0.7, 0.9 * SQRT2),
    (W.characteristic(), 0.55, SQRT2),
    (W.odd_bump(), 0.9, 1.0 / SQRT2),
    (_sampled_window(), 0.8, 1.0 / SQRT2),
], ids=["bump", "gevrey2", "poly_bump", "char", "odd_bump", "sampled"])
def test_separators_match_per_entry_evaluation(monkeypatch, w, alpha, beta):
    p = L.lattice_params(alpha, beta)
    found = C.find_certified_interval(C.scan_determinant(p, w, 16), 1e-8)
    interval = (found.lo, found.hi)
    n_separators = 0
    for x in (found.lo, 0.5 * (found.lo + found.hi), found.hi):
        for extent in (16, 64, 1024):
            got = _decomposition_or_message(p, w, x, extent, interval)
            with monkeypatch.context() as patch:
                patch.setattr(C, "_separators", _separators_per_entry)
                want = _decomposition_or_message(p, w, x, extent, interval)
            if isinstance(want, str):
                assert got == want
                continue
            assert ([(b.kind, b.row_lo, b.col_lo, b.size) for b in got.blocks]
                    == [(b.kind, b.row_lo, b.col_lo, b.size)
                        for b in want.blocks])
            assert got.discarded_rows == want.discarded_rows
            for b, ref in zip(got.blocks, want.blocks):
                assert b.matrix.dtype == ref.matrix.dtype == complex
                assert b.matrix.shape == ref.matrix.shape
                assert np.array_equal(b.matrix.view(np.uint64),
                                      ref.matrix.view(np.uint64))
            n_separators += sum(b.kind == "separator" for b in got.blocks)
    assert n_separators > 0


def test_decomposition_rejects_negative_extent(flagship):
    params, w, cert = flagship
    mid = 0.5 * (cert.interval_lo + cert.interval_hi)
    with pytest.raises(ValueError, match="extent"):
        C.build_block_decomposition(params, w, mid, -3,
                                    (cert.interval_lo, cert.interval_hi))
