"""Good-pair combinatorics: anchors, separators, fingerprints, breakpoints."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborcert import lattice as L
from gaborcert import window as W
from gaborcert.errors import HypothesisViolated

SQRT2 = math.sqrt(2.0)


def params(alpha, beta):
    return L.LatticeParams(alpha, beta)


def fingerprint(p, w, x):
    return L.structure_fingerprint(p, w, L.anchor_block(p, w, x))


# ---------------------------------------------------------------------------
# rational classification

def test_classify_small_rationals():
    rc = L.classify_ratio(0.5)
    assert (rc.is_rational, rc.p, rc.q) == (True, 1, 2)
    rc = L.classify_ratio(2.0 / 3.0)
    assert (rc.is_rational, rc.p, rc.q) == (True, 2, 3)


def test_classify_quadratic_irrational():
    assert not L.classify_ratio(1.0 / SQRT2).is_rational
    assert not L.classify_ratio(0.8 / SQRT2).is_rational


def test_rational_class_label():
    assert L.classify_ratio(0.5).label() == "rational(1/2)"
    assert L.classify_ratio(1.0 / SQRT2).label() == "irrational"


def test_density_ge_one_is_a_hypothesis_not_an_input_error():
    for alpha, beta in [(1.0, 1.0), (1.2, 0.9), (1e12, 0.1)]:
        assert not L.LatticeParams(alpha, beta).subcritical
    with pytest.raises(ValueError):
        L.LatticeParams(-1.0, 0.5)


# alpha = fl(1/beta): alpha*beta rounds below 1 while 1/beta - alpha is 0
EDGE_PAIR = (0.5223730547138972, 1.9143407014890885)


def test_edge_pair_is_not_subcritical():
    p = params(*EDGE_PAIR)
    assert p.density < 1.0 and p.inv_beta - p.alpha == 0.0
    assert not p.subcritical
    for guarded in (L.epsilon, L.size_bound):
        with pytest.raises(HypothesisViolated) as err:
            guarded(p, W.bump())
        assert f"got {p.density!r} and 0.0" in str(err.value)


@settings(max_examples=300, deadline=None)
@given(beta=st.floats(0.2, 3.0), ulps=st.integers(-2, 2))
def test_subcritical_lattices_have_a_positive_margin(beta, ulps):
    """Near alpha = 1/beta, epsilon and size_bound raise exactly when
    subcritical is false, and are positive and finite where it is true."""
    alpha = 1.0 / beta
    for _ in range(abs(ulps)):
        alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
    p, w = params(alpha, beta), W.characteristic(0.0, 6.0)   # alpha < 6
    if p.subcritical:
        assert L.epsilon(p, w) > 0 and L.size_bound(p, w) >= 2
    else:
        for guarded in (L.epsilon, L.size_bound):
            with pytest.raises(HypothesisViolated):
                guarded(p, w)


@pytest.mark.parametrize("alpha, beta", [
    (math.inf, 0.5), (0.5, math.inf), (math.nan, 0.5), (0.5, math.nan),
    (0.5, 1e-320),          # 1/beta overflows to inf
    (1e200, 1e200),         # alpha*beta overflows to inf
])
def test_non_finite_lattice_inputs_rejected(alpha, beta):
    # inf used to reach classify_ratio (OverflowError), nan and an
    # overflowing 1/beta ended in "cannot convert ... NaN to integer";
    # the constructor raises, so no such LatticeParams exists
    with pytest.raises(ValueError, match="must be") as err:
        L.LatticeParams(alpha, beta)
    assert f"alpha={alpha!r}" in str(err.value)
    assert f"beta={beta!r}" in str(err.value)


@pytest.mark.parametrize("alpha, beta", [
    (-0.7071, 1.0),     # certify_frame died with "eps must be positive"
    (0.5, -1.0), (0.0, 0.5), (0.5, 0.0), (-0.0, 0.5),
])
def test_non_positive_lattice_inputs_rejected(alpha, beta):
    with pytest.raises(ValueError) as err:
        L.LatticeParams(alpha, beta)
    assert str(err.value) == (
        "alpha and beta must be positive with alpha, beta, 1/beta and "
        f"alpha*beta finite; got alpha={alpha!r}, beta={beta!r}")


def test_lattice_holds_alpha_and_beta_only():
    assert [f.name for f in dataclasses.fields(L.LatticeParams)] == [
        "alpha", "beta"]
    with pytest.raises(TypeError):
        L.LatticeParams(1.0, 0.6, L.RationalClass(False))


def test_rational_class_is_classified_once(monkeypatch):
    calls = []
    classify = L.classify_ratio
    monkeypatch.setattr(L, "classify_ratio",
                        lambda v: calls.append(v) or classify(v))
    p = L.LatticeParams(1.0, 0.6)
    assert p.rational_class.label() == "rational(3/5)"
    assert p.rational_class is p.rational_class
    assert calls == [0.6]
    q = L.LatticeParams(1.0, 1.0 / SQRT2)
    assert q.rational_class.label() == "irrational"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# good pairs and epsilon

def test_is_good_hand_cases():
    p = params(0.7, 1.0)
    w = W.characteristic()
    assert L.is_good(p, w, 0.1, 0, 0) is True
    assert L.is_good(p, w, 0.1, 1, 0) is False
    assert L.is_good(p, w, 0.1, -1, 0) is True


def test_is_good_vectorized_matches_scalar():
    p = params(0.8, 1.0 / SQRT2)
    w = W.bump()
    ns = np.arange(-5, 6)
    ms = np.arange(-5, 6)
    grid = L.is_good(p, w, 0.3, ns[:, None], ms[None, :])
    for i, n in enumerate(ns):
        for j, m in enumerate(ms):
            assert grid[i, j] == L.is_good(p, w, 0.3, int(n), int(m))


def test_epsilon_hand_values():
    w = W.characteristic()
    assert L.epsilon(params(0.6, 1.2), w) == pytest.approx(0.7 / 6.0, rel=1e-12)
    assert L.epsilon(params(0.7, 1.0), w) == pytest.approx(0.15, rel=1e-12)
    wb = W.bump()
    assert L.epsilon(params(1.0, 1.0 / SQRT2), wb) == pytest.approx(
        (SQRT2 - 1.0) / 2.0, rel=1e-12)


def test_epsilon_rejects_wide_alpha():
    with pytest.raises(HypothesisViolated):
        L.epsilon(params(1.2, 0.5), W.characteristic())


# ---------------------------------------------------------------------------
# integer ranges

@st.composite
def _int_range_case(draw):
    """(base, step, lo, hi); bounds are free floats or land exactly on a
    lattice point base + k*step."""
    base = draw(st.floats(-10.0, 10.0))
    step = draw(st.floats(0.01, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    bounds = []
    for _ in range(2):
        if draw(st.booleans()):
            bounds.append(base + draw(st.integers(-40, 40)) * step)
        else:
            bounds.append(draw(st.floats(-10.0, 10.0)))
    lo, hi = sorted(bounds)
    return base, step, lo, hi


@given(_int_range_case())
@settings(max_examples=300, deadline=None)
def test_int_range_matches_brute_force(case):
    base, step, lo, hi = case
    ks = range(-3000, 3001)
    assert list(range(*L.int_bounds(base, step, lo, hi))) == [
        k for k in ks if lo < base + k * step < hi]
    # start and stop stay one-sided answers even for an empty range
    enter = (lambda k: base + k * step > lo) if step > 0 else \
        (lambda k: base + k * step < hi)
    leave = (lambda k: base + k * step < hi) if step > 0 else \
        (lambda k: base + k * step > lo)
    r = range(*L.int_bounds(base, step, lo, hi))
    assert enter(r.start) and not enter(r.start - 1)
    assert leave(r.stop - 1) and not leave(r.stop)


@st.composite
def _int_bounds_case(draw):
    """(bases, step, lo, hi) with an array of bases; each bound is a free
    float or lands exactly on a lattice point base + k*step of one base."""
    bases = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=24))
    step = draw(st.floats(0.01, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    bounds = []
    for _ in range(2):
        if draw(st.booleans()):
            bounds.append(draw(st.sampled_from(bases))
                          + draw(st.integers(-40, 40)) * step)
        else:
            bounds.append(draw(st.floats(-10.0, 10.0)))
    lo, hi = sorted(bounds)
    return np.array(bases), step, lo, hi


@given(_int_bounds_case())
@example((np.array([0.0, 0.25, 0.5, 1.0]), 0.5, 0.0, 1.0))
@example((np.array([0.0, 0.25, 0.5, 1.0]), -0.5, 0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_int_bounds_matches_int_range_elementwise(case):
    bases, step, lo, hi = case
    start, stop = L.int_bounds(bases, step, lo, hi)
    assert start.shape == stop.shape == bases.shape
    ranges = [range(*L.int_bounds(b, step, lo, hi)) for b in bases.tolist()]
    # start and stop, not just the members: both stay meaningful when empty
    assert list(zip(start.tolist(), stop.tolist())) == [
        (r.start, r.stop) for r in ranges]
    # one body for every type of base: each form gives the Python float's
    # (start, stop), a scalar form as Python ints, anything else as arrays
    for b in bases.tolist():
        expect = L.int_bounds(b, step, lo, hi)
        for form in (b, np.float64(b)):
            got = L.int_bounds(form, step, lo, hi)
            assert got == expect and all(type(v) is int for v in got)
        k = round(b)
        for form in (k, np.int64(k)):
            got = L.int_bounds(form, step, lo, hi)
            assert got == L.int_bounds(float(k), step, lo, hi)
            assert all(type(v) is int for v in got)
        zero_d = L.int_bounds(np.array(b), step, lo, hi)
        assert [np.shape(v) for v in zero_d] == [(), ()]
        assert tuple(map(int, zero_d)) == expect
        listed = L.int_bounds([b, b], step, lo, hi)
        assert [v.tolist() for v in listed] == [[expect[0]] * 2, [expect[1]] * 2]


def test_int_range_open_at_exact_bounds():
    assert L.int_bounds(0.0, 0.5, 0.0, 1.0) == (1, 2)
    assert L.int_bounds(0.0, -0.5, 0.0, 1.0) == (-1, 0)
    assert L.int_bounds(0.0, 0.5, 0.0, 0.5) == (1, 1)


# ---------------------------------------------------------------------------
# anchor blocks

def test_anchor_block_hand_cases():
    w = W.characteristic()
    spec = L.anchor_block(params(0.7, 1.0), w, 0.1)
    assert (spec.anchor_n, spec.anchor_m, spec.size) == (0, 0, 3)
    spec = L.anchor_block(params(0.7, 1.0), w, 0.65)
    assert (spec.anchor_n, spec.anchor_m, spec.size) == (0, 0, 2)


def test_anchor_block_size_ten():
    spec = L.anchor_block(params(1.9, 0.5), W.bump(), 0.05)
    assert spec.size == 10
    assert spec.size <= L.size_bound(params(1.9, 0.5), W.bump())


def test_anchor_block_invariants_random():
    rng = np.random.default_rng(11)
    w = W.bump()
    for _ in range(200):
        alpha = rng.uniform(0.3, 1.8)
        beta = rng.uniform(0.52, 0.97 / alpha)
        p = params(alpha, beta)
        x = rng.uniform(1e-9, alpha - 1e-9)
        spec = L.anchor_block(p, w, x)
        # first good pair in row 0
        assert L.is_good(p, w, x, 0, spec.anchor_m)
        assert not L.is_good(p, w, x, 0, spec.anchor_m - 1)
        # diagonal run good, one past the corner not good
        for k in range(spec.size):
            assert L.is_good(p, w, x, k, spec.anchor_m + k)
        assert not L.is_good(p, w, x, spec.size - 1, spec.anchor_m + spec.size)
        assert spec.size <= L.size_bound(p, w)


def test_anchor_block_of_an_array_matches_each_x():
    """anchor_block of an x array has each x's anchor_m and size, and raises
    where the scalar call raises for some x: row 0 holds no good pair."""
    rng = np.random.default_rng(12)
    raised = 0
    for w in (W.bump(), W.characteristic()):
        for _ in range(100):
            alpha = rng.uniform(0.3, 0.9) * w.support_length
            p = params(alpha, rng.uniform(0.3, 0.97) / alpha)
            xs = rng.uniform(0.0, alpha, (3, 4))
            try:
                each = [L.anchor_block(p, w, x) for x in xs.ravel().tolist()]
            except HypothesisViolated:
                raised += 1
                with pytest.raises(HypothesisViolated, match="no good pair"):
                    L.anchor_block(p, w, xs)
                continue
            spec = L.anchor_block(p, w, xs)
            assert spec.anchor_m.shape == spec.size.shape == xs.shape
            assert spec.anchor_m.ravel().tolist() == [s.anchor_m for s in each]
            assert spec.size.ravel().tolist() == [s.size for s in each]
    assert raised > 0


def test_build_Mx_poly_bump_diagonal():
    w = W.poly_bump(0.0, 1.0)
    p = params(0.7, 1.0)
    M = L.build_Mx(p, w, L.anchor_block(p, w, 0.1))
    expect = np.diag([0.1 * 0.9, 0.4 * 0.6, 0.7 * 0.3]).astype(complex)
    assert np.allclose(M, expect, atol=1e-15)
    assert np.linalg.det(M) == pytest.approx(0.004536, rel=1e-12)


def test_build_Mx_characteristic_identity():
    w = W.characteristic()
    p = params(0.7, 1.0)
    M = L.build_Mx(p, w, L.anchor_block(p, w, 0.1))
    assert np.array_equal(M, np.eye(3, dtype=complex))


def test_build_Mx_size_one_entry_nonzero():
    w = W.bump()
    p = params(1.9, 0.51)
    spec = L.anchor_block(p, w, 0.02)
    M = L.build_Mx(p, w, spec)
    assert abs(M[0, 0]) > 0.0


def test_build_Mx_stack_matches_scalar_builds():
    w = W.bump()
    p = params(1.0, 1.0 / SQRT2)
    xs = np.array([0.18, 0.2, 0.25])
    spec = L.anchor_block(p, w, xs[0])
    specs = [L.anchor_block(p, w, x) for x in xs]
    assert {(s.anchor_m, s.size) for s in specs} == {(spec.anchor_m, spec.size)}
    stack = L.build_Mx(p, w, L.BlockSpec(0, spec.anchor_m, spec.size, xs))
    assert stack.shape == (3, spec.size, spec.size)
    for x, M in zip(xs, stack):
        assert np.array_equal(M, L.build_Mx(p, w, L.anchor_block(p, w, x)))


# ---------------------------------------------------------------------------
# separator rows

def _separator_arg(p, x, m, n):
    """(x + m/beta) - alpha*n, the argument separator_row keeps inside
    [a + eps, b - eps]."""
    return x + m * p.inv_beta - p.alpha * n


def test_separator_row_hand_cases():
    w = W.characteristic()
    p = params(0.7, 1.0)
    for x, m, n, arg in [(0.1, 0, -1, 0.8), (0.25, 0, 0, 0.25), (0.1, 1, 1, 0.4)]:
        assert L.separator_row(p, w, x, m) == n
        assert _separator_arg(p, x, m, n) == pytest.approx(arg)


def test_separator_row_postconditions_random():
    rng = np.random.default_rng(5)
    w = W.bump()
    for _ in range(500):
        alpha = rng.uniform(0.3, 1.8)
        beta = rng.uniform(0.52, 0.97 / alpha)
        p = params(alpha, beta)
        eps = L.epsilon(p, w)
        x = rng.uniform(1e-9, alpha - 1e-9)
        m = int(rng.integers(-30, 31))
        n = L.separator_row(p, w, x, m)
        arg = _separator_arg(p, x, m, n)
        assert w.support_lo + eps <= arg <= w.support_hi - eps
        assert L.is_good(p, w, x, n, m)
        assert not L.is_good(p, w, x, n, m + 1)


def test_separator_row_array_matches_scalar():
    rng = np.random.default_rng(6)
    for w in (W.bump(), W.characteristic(), W.poly_bump(0.0, 1.0)):
        for _ in range(50):
            alpha = rng.uniform(0.3, 0.9) * w.support_length
            p = params(alpha, rng.uniform(0.2, 0.97) / alpha)
            x = rng.uniform(0.0, alpha)
            ms = np.arange(-40, 41)
            rows = L.separator_row(p, w, x, ms)
            assert rows.tolist() == [L.separator_row(p, w, x, m)
                                     for m in ms.tolist()]


# ---------------------------------------------------------------------------
# fingerprints and breakpoints

def test_fingerprint_hand_case():
    w = W.characteristic()
    p = params(0.7, 1.0)
    # the 3x3 mask is the identity: row i is good in column i only
    assert fingerprint(p, w, 0.1) == (3, (0, 1, 2), (1, 2, 3))


def test_fingerprints_differ_across_breakpoint():
    w = W.characteristic()
    p = params(0.7, 1.0)
    assert fingerprint(p, w, 0.1) != fingerprint(p, w, 0.65)


def test_breakpoints_char_lattice():
    w = W.characteristic()
    p = params(0.7, 1.0)
    bps = L.structure_breakpoints(p, w)
    expect = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    assert np.allclose(bps, expect, atol=1e-9)


def _breakpoints_row_by_row(p, w):
    """Reference: structure_breakpoints with one scalar int_bounds call per row and
    support end, and a sorted Python list of candidates."""
    xs = []
    for n in range(-2, L.size_bound(p, w) + 3):
        for c in (w.support_lo, w.support_hi):
            base = c + p.alpha * n
            xs.extend(base - m * p.inv_beta
                      for m in range(*L.int_bounds(base, -p.inv_beta, 0.0, p.alpha)))
    xs.sort()
    out = [0.0]
    for xval in xs:
        if xval - out[-1] > L.BREAKPOINT_TOL and p.alpha - xval > L.BREAKPOINT_TOL:
            out.append(xval)
    return np.array(out[1:])


def test_breakpoints_match_row_by_row_reference():
    """The one-array candidate pass has the bits of the per-row loop, on
    random lattices over six windows and at alpha = 1e-4."""
    rng = np.random.default_rng(19)
    windows = (W.bump(), W.characteristic(), W.characteristic(-3.7, -1.2),
               W.poly_bump(2.5, 6.0), W.characteristic(0.2, 0.9),
               W.sampled(np.linspace(-0.3, 1.4, 7), np.arange(7) + 1j))
    lattices = [(W.bump(), 1e-4, 5000.0137), (W.characteristic(), 1e-4, 5000.0137)]
    for _ in range(600):
        w = windows[rng.integers(len(windows))]
        alpha = rng.uniform(0.01, 1.0 - 1e-15) * w.support_length
        lattices.append((w, alpha, rng.uniform(0.01, 1.0 - 1e-15) / alpha))
    for w, alpha, beta in lattices:
        p = L.LatticeParams(alpha, beta)
        got = L.structure_breakpoints(p, w)
        expect = _breakpoints_row_by_row(p, w)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_breakpoints_match_brute_force_over_wide_m():
    """Every crossing x = c + alpha*n - m/beta in (0, alpha), with m scanned
    far beyond the range the x-interval pins, and nothing else; 0 and alpha
    absorb the crossings within BREAKPOINT_TOL of them."""
    rng = np.random.default_rng(5)
    for w in (W.bump(), W.characteristic(), W.characteristic(-3.7, -1.2),
              W.poly_bump(2.5, 6.0)):
        for _ in range(25):
            alpha = rng.uniform(0.2, 0.95) * w.support_length
            p = params(alpha, rng.uniform(0.1, 0.9) / alpha)
            ns = np.arange(-2, L.size_bound(p, w) + 3)
            edge = max(abs(w.support_lo), abs(w.support_hi))
            wide = 4 * int(p.beta * (edge + alpha * (ns[-1] + 2))) + 50
            base = np.add.outer([w.support_lo, w.support_hi], alpha * ns)
            xs = (base[..., None]
                  - np.arange(-wide, wide + 1) * p.inv_beta).ravel()
            expect = [0.0]
            for x in np.sort(xs[(xs > 0.0) & (alpha - xs > L.BREAKPOINT_TOL)]):
                if x - expect[-1] > L.BREAKPOINT_TOL:
                    expect.append(x)
            assert np.array_equal(L.structure_breakpoints(p, w), expect[1:])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["bump", "gevrey", "characteristic", "odd_bump",
                        "poly_bump", "sampled"]),
       st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
       st.floats(0.02, 0.98), st.floats(0.02, 0.98))
# b + alpha - 1/beta = alpha exactly, but rounds to just below it
@example("characteristic", 0.0, 1.0, 0.21239572664639683, 0.21239572664639683)
def test_gaps_partition_zero_to_alpha(kind, lo, length, u, density):
    """structure_gaps runs from 0 to alpha, and every gap is wider than
    BREAKPOINT_TOL, so no Chebyshev node of a gap reaches its ends."""
    hi = lo + length
    w = {"bump": W.bump, "gevrey": lambda: W.gevrey(2),
         "odd_bump": W.odd_bump,
         "characteristic": lambda: W.characteristic(lo, hi),
         "poly_bump": lambda: W.poly_bump(lo, hi),
         "sampled": lambda: W.sampled(np.linspace(lo, hi, 5),
                                      np.arange(5) + 1j)}[kind]()
    alpha = u * w.support_length
    p = params(alpha, density / alpha)
    edges = L.structure_gaps(p, w)
    assert edges[0] == 0.0 and edges[-1] == alpha
    assert np.all(np.diff(edges) > L.BREAKPOINT_TOL)
    assert np.array_equal(edges[1:-1], L.structure_breakpoints(p, w))


def test_off_breakpoints_matches_the_loop_over_edges():
    """Reference: each edge in turn moves the samples within 1e-9 times the
    narrowest gap of it up by that much.  Samples sit on edges, just below
    and above them, and between, with alpha near 1, 1e-9 and 1e3."""
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-9, 1e3):
        for _ in range(200):
            alpha = scale * rng.uniform(0.1, 2.0)
            edges = np.concatenate(([0.0], np.sort(rng.uniform(
                0.0, alpha, rng.integers(0, 6))), [alpha]))
            nudge = 1e-9 * np.min(np.diff(edges))
            xs = np.concatenate((rng.uniform(0.0, alpha, 20), edges,
                                 edges + 0.5 * nudge, edges - 0.5 * nudge,
                                 edges + 2 * nudge))
            want = xs.copy()
            for edge in edges:
                want[np.abs(want - edge) < nudge] += nudge
            assert np.array_equal(L.off_breakpoints(edges, xs), want)
            assert not np.array_equal(want, xs)


def test_fingerprint_constant_between_breakpoints():
    w = W.bump()
    p = params(1.0, 1.0 / SQRT2)
    edges = L.structure_gaps(p, w)
    rng = np.random.default_rng(3)
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = (hi - lo) / 100.0
        xs = rng.uniform(lo + margin, hi - margin, 5)
        fps = {fingerprint(p, w, x) for x in xs}
        assert len(fps) == 1


def test_fingerprint_runs_rebuild_the_is_good_mask():
    """Each row's run [start, stop) rebuilds is_good's mask exactly, on the
    anchor block of each random draw and on blocks moved off it, where rows
    with no good column occur; fingerprints are equal iff masks are."""
    rng = np.random.default_rng(11)
    pairs, empty_rows = set(), 0
    for w in (W.bump(), W.characteristic(), W.odd_bump()):
        for _ in range(40):
            alpha = rng.uniform(0.2, 0.9) * w.support_length
            p = params(alpha, rng.uniform(0.2, 0.95) / alpha)
            x = rng.uniform(1e-9, alpha - 1e-9)
            try:
                anchor = L.anchor_block(p, w, x)
            except HypothesisViolated:
                continue
            moved = [dataclasses.replace(anchor, anchor_n=n,
                                         anchor_m=anchor.anchor_m + d)
                     for d in (-3, -2, -1, 1, 2, 3) for n in (0, d)]
            for spec in [anchor, *moved]:
                idx = np.arange(spec.size)
                good = L.is_good(p, w, x, (spec.anchor_n + idx)[:, None],
                                 (spec.anchor_m + idx)[None, :])
                fp = size, starts, stops = L.structure_fingerprint(p, w, spec)
                assert size == spec.size
                assert all(type(v) is int for v in starts + stops)
                runs = ((np.array(starts)[:, None] <= idx)
                        & (idx < np.array(stops)[:, None]))
                assert np.array_equal(runs, good)
                empty_rows += sum(start == stop == 0
                                  for start, stop in zip(starts, stops))
                pairs.add((fp, (size, good.tobytes())))
    assert empty_rows > 0
    # equal fingerprints <=> equal masks over every pair of blocks: the
    # fingerprints and the masks each fall into as many classes as the pairs
    assert len({fp for fp, _ in pairs}) == len({m for _, m in pairs}) == len(pairs)
