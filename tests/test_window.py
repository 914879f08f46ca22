"""Window evaluation, diagnostics, and serialization."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import _workers
from gaborcert import window as W
from gaborcert.errors import DegenerateFit, EmptyCore


# ---------------------------------------------------------------------------
# evaluation

def test_bump_outside_support_is_exact_zero():
    assert W.evaluate(W.bump(), 2.0) == 0.0


def test_bump_at_origin():
    assert W.evaluate(W.bump(), 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_odd_bump_at_origin():
    assert W.evaluate(W.odd_bump(), 0.0) == 0.0


def test_characteristic_is_one_inside():
    w = W.characteristic()
    assert W.evaluate(w, 0.5) == 1.0
    assert W.evaluate(w, 0.0) == 0.0   # open interval: endpoint is outside


def test_support_annihilation_all_kinds():
    rng = np.random.default_rng(0)
    wins = [W.bump(), W.gevrey(4), W.characteristic(), W.odd_bump(),
            W.poly_bump(0.0, 2.0)]
    for w in wins:
        span = w.support_length
        left = w.support_lo - 1.0 - span * rng.random(5000)
        right = w.support_hi + 1.0 + span * rng.random(5000)
        xs = np.concatenate([left, right, [w.support_lo, w.support_hi]])
        assert np.all(W.evaluate(w, xs) == 0.0)


def test_bump_bounded_by_its_peak():
    w = W.bump()
    xs = np.linspace(-1, 1, 10001)
    vals = W.evaluate(w, xs)
    assert np.all(vals.imag == 0.0)
    assert np.all(vals.real >= 0.0)
    # strictly positive away from the edges (the extreme tail underflows)
    core = vals.real[np.abs(xs) <= 0.99]
    assert np.all(core > 0.0)
    assert np.max(np.abs(vals)) <= math.exp(-1.0)


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=200)
def test_odd_bump_is_odd(x):
    w = W.odd_bump()
    assert W.evaluate(w, -x) == pytest.approx(-W.evaluate(w, x), abs=1e-15)


def test_sampled_round_trip_at_nodes():
    xs = np.linspace(-1.0, 1.0, 1000)
    vals = W.evaluate(W.bump(), xs)
    w = W.sampled(xs, vals)
    assert np.array_equal(W.evaluate(w, xs[1:-1]), vals[1:-1])


def test_sampled_rejects_bad_grids():
    with pytest.raises(ValueError):
        W.sampled([0.0, 0.0, 1.0], [0, 0, 0])
    with pytest.raises(ValueError):
        W.sampled([0.0, 1.0], [0, 0, 0])
    for xs, vals in (([0.0, 0.5, 1.0], [0.0, np.nan, 0.0]),
                     ([0.0, 0.5, 1.0], [0.0, 1j * np.inf, 0.0]),
                     ([0.0, np.nan, 1.0], [0.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            W.sampled(xs, vals)
    # an empty grid (a header-only CSV) died with an IndexError
    for xs in ([], [0.5], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="1-d arrays of equal length, 2 or more"):
            W.sampled(xs, np.zeros(np.shape(xs)))


def test_sampled_support_is_its_grid():
    xs = np.linspace(-0.5, 0.75, 9)
    w = W.sampled(xs, 1.0 + xs ** 2)
    assert (w.support_lo, w.support_hi) == (-0.5, 0.75)
    assert np.all(W.evaluate(w, [-0.5, 0.75, -0.6, 0.8]) == 0.0)
    # evaluation has no hull mask, so another support is refused when built
    with pytest.raises(ValueError, match="grid hull"):
        W.Window(-1.0, 1.0, "sampled", grid_x=w.grid_x, grid_vals=w.grid_vals)


def test_window_rejects_unknown_kind():
    # rejected when built, not at the first evaluation
    with pytest.raises(ValueError, match="unknown window kind 'triangle'"):
        W.Window(0.0, 1.0, "triangle")


_GRID = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("kind, payload, message", [
    # a constant window that came back Certified, its descriptor order 0
    ("gevrey", dict(order=0), "order must be a positive integer"),
    ("gevrey", {}, "takes an order"),
    ("bump", dict(order=7), "takes an order"),      # Certified, with order 7
    ("sampled", dict(grid_x=np.array([0.0, 0.5, 0.5, 1.0]),
                     grid_vals=np.ones(4, dtype=complex)), "strictly increasing"),
    ("sampled", {}, "takes grid_x and grid_vals"),
    ("sampled", dict(grid_x=_GRID), "takes grid_x and grid_vals"),
    ("characteristic", dict(grid_x=_GRID, grid_vals=_GRID + 0j),
     "takes grid_x and grid_vals"),
], ids=["gevrey-order-0", "gevrey-no-order", "bump-order", "sampled-not-increasing",
        "sampled-no-grid", "sampled-no-values", "char-grid"])
def test_invalid_windows_cannot_be_built(kind, payload, message):
    lo, hi = (-1.0, 1.0) if kind in ("gevrey", "bump") else (0.0, 1.0)
    with pytest.raises(ValueError, match=message):
        W.Window(lo, hi, kind, **payload)


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf),
                                    (-math.inf, math.inf), (math.nan, 1.0)])
def test_window_rejects_non_finite_support(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        W.characteristic(lo, hi)


def _eval_inside_chain(w, x):
    """The per-kind branch chain that the formula table replaced; the even
    kinds keep its x ** 4 at x >= 0 and reach x < 0 by evenness."""
    t = np.abs(x)
    if w.kind == "bump":
        return np.exp(1.0 / (t ** 4 - 1.0)).astype(complex)
    if w.kind == "gevrey":
        return np.exp(-((1.0 - t ** 4) ** (-float(w.order)))).astype(complex)
    if w.kind == "characteristic":
        return np.ones_like(x, dtype=complex)
    if w.kind == "odd_bump":
        return (x * np.exp(1.0 / (x ** 2 - 1.0))).astype(complex)
    if w.kind == "poly_bump":
        return ((x - w.support_lo) * (w.support_hi - x)).astype(complex)
    inside_hull = (x >= w.grid_x[0]) & (x <= w.grid_x[-1])
    out = (np.interp(x, w.grid_x, w.grid_vals.real)
           + 1j * np.interp(x, w.grid_x, w.grid_vals.imag))
    out[~inside_hull] = 0.0
    return out


def test_formula_table_matches_branch_chain_bits():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 1.0, 33)
    wins = [W.bump(), W.gevrey(3), W.characteristic(-0.35, 0.35), W.odd_bump(),
            W.poly_bump(0.0, 2.0),
            W.sampled(xs, np.sin(np.pi * xs) + 0.5j * xs ** 2)]
    for w in wins:
        x = w.support_lo + w.support_length * rng.random(4000)
        x = x[(x > w.support_lo) & (x < w.support_hi)]
        got = W.evaluate(w, x)
        assert got.dtype == (float if w.is_real else complex), w.kind
        want = _eval_inside_chain(w, x)
        assert got.astype(complex).tobytes() == want.tobytes(), w.kind


@pytest.mark.parametrize("w", [W.bump(), W.gevrey(1), W.gevrey(2), W.gevrey(3)],
                         ids=["bump", "gevrey1", "gevrey2", "gevrey3"])
def test_even_kinds_are_even_bit_for_bit(w):
    """g(-x) has every bit of g(x) over 10^5 points, and at x >= 0 the bits
    of the x ** 4 formula (numpy's power takes another path for a negative
    base, whose last bits can differ)."""
    x = np.random.default_rng(5).random(100_000)
    got = W.evaluate(w, x)
    assert W.evaluate(w, -x).tobytes() == got.tobytes()
    if w.kind == "bump":
        formula = np.exp(1.0 / (x ** 4 - 1.0))
    else:
        formula = np.exp(-((1.0 - x ** 4) ** (-float(w.order))))
    assert got.real.tobytes() == formula.tobytes() and not got.imag.any()


def test_odd_bump_is_odd_bit_for_bit():
    x = np.random.default_rng(6).random(100_000)
    got, mirrored = W.evaluate(W.odd_bump(), x), W.evaluate(W.odd_bump(), -x)
    assert mirrored.real.tobytes() == (-got.real).tobytes()
    assert not mirrored.imag.any()


def test_evaluate_is_real_exactly_for_real_windows():
    """Closed forms and a sampled grid without imaginary part give float64,
    a complex grid complex, at points inside and outside the support and at
    NaN, which gives 0; a scalar gives a Python float or complex."""
    xs = np.linspace(0.0, 1.0, 33)
    real_grid = W.sampled(xs, np.sin(np.pi * xs))
    cases = [(W.bump(), True), (W.gevrey(2), True), (W.characteristic(), True),
             (W.odd_bump(), True), (W.poly_bump(), True), (real_grid, True),
             (W.sampled(xs, np.sin(np.pi * xs) + 0.5j * xs ** 2), False)]
    x = np.random.default_rng(7).random(1000) * 4.0 - 2.0
    x[::10] = np.nan
    for w, real in cases:
        assert w.is_real is real, w.kind
        vals = W.evaluate(w, x)
        assert vals.shape == x.shape, w.kind
        assert vals.dtype == (float if real else complex), w.kind
        inside = (x > w.support_lo) & (x < w.support_hi)
        assert not vals[~inside].any() and inside.any(), w.kind
        for t in (0.3, 5.0, math.nan):
            assert type(W.evaluate(w, t)) is (float if real else complex), w.kind
        assert W.evaluate(w, 0.3) == vals.dtype.type(W.evaluate(w, [0.3])[0])


# ---------------------------------------------------------------------------
# sup norms

def test_sup_norm_closed_forms():
    assert W.sup_norm(W.bump()) == math.exp(-1.0)
    assert W.sup_norm(W.characteristic()) == 1.0
    assert W.sup_norm(W.poly_bump(0.0, 1.0)) == 0.25


def test_sup_norm_closed_forms_bitwise():
    """Each closed form has the bits the constructors used to store:
    exp(-1), 1, and for poly_bump w2 * w2 with w2 = (hi - lo) / 2."""
    for w in (W.bump(), W.gevrey(1), W.gevrey(5)):
        assert W.sup_norm(w).hex() == math.exp(-1.0).hex()
    for lo, hi in ((0.0, 1.0), (-3.7, -1.2), (2.5, 6.0)):
        assert W.sup_norm(W.characteristic(lo, hi)).hex() == (1.0).hex()
    rng = np.random.default_rng(12)
    los = rng.uniform(-50.0, 50.0, 20_000)
    his = los + rng.uniform(1e-3, 50.0, 20_000)
    power = 0
    for lo, hi in zip(los.tolist(), his.tolist()):
        w2 = (hi - lo) / 2.0
        got = W.sup_norm(W.poly_bump(lo, hi))
        assert got.hex() == (w2 * w2).hex(), (lo, hi)
        power += got != w2 ** 2
    assert power > 0       # w2 ** 2 would have moved these


def test_sup_norm_odd_bump_keeps_its_grid_bits():
    xs = np.linspace(-1.0, 1.0, 4096)
    want = float(np.max(np.abs(W.evaluate(W.odd_bump(), xs))))
    assert W.sup_norm(W.odd_bump()).hex() == want.hex()


def test_sup_norm_sampled_is_its_peak_node():
    w = W.sampled([0.0, 0.3, 1.0], [0.0, 2.0 - 1.0j, 0.0])
    assert W.sup_norm(w) == math.sqrt(5.0)


# ---------------------------------------------------------------------------
# the core hypothesis: ln max 1/|g| on [a + eps, b - eps]

def test_inv_sup_characteristic():
    assert W.inv_sup_on_core(W.characteristic(), 0.2) == 0.0


def test_inv_sup_bump_attained_at_core_edges():
    assert W.inv_sup_on_core(W.bump(), 0.5) == pytest.approx(16.0 / 15.0,
                                                            rel=1e-15)


def test_inv_sup_odd_bump_hits_zero():
    assert W.inv_sup_on_core(W.odd_bump(), 0.1) == math.inf


def test_inv_sup_empty_core():
    with pytest.raises(EmptyCore):
        W.inv_sup_on_core(W.characteristic(), 0.6)


def test_inv_sup_monotone_in_eps():
    w = W.bump()
    vals = [W.inv_sup_on_core(w, eps) for eps in (0.1, 0.3, 0.5, 0.7)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("error")
def test_inv_sup_sampled_planted_near_zero():
    """The segments through -1 + 1e-9 i pass 5e-10 from 0; a grid sees
    only the nodes' neighbourhood of |g| ~ 1."""
    w = W.sampled(np.linspace(0.0, 1.0, 5), [1, 1, -1 + 1e-9j, 1, 1])
    assert W.inv_sup_on_core(w, 0.1) == pytest.approx(math.log(2e9),
                                                      rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_inv_sup_sampled_sign_change_is_a_zero():
    for vals in ([1.0, -1.0, 1.0], [1 + 1j, -1 - 1j, 1.0], [1.0, 0.0, 1.0],
                 [1e200, -1e200, 1.0], [0.0, 0.0, 0.0]):
        assert W.inv_sup_on_core(W.sampled([0.0, 1.0, 2.0], vals), 0.1) \
            == math.inf, vals


@pytest.mark.filterwarnings("error")
def test_inv_sup_gevrey_log_overflow_stays_finite():
    # ln max 1/|g| = (1 - 0.9^4)^-1000 = e^1067 is beyond the largest double,
    # yet gevrey has no zero in (-1, 1): it rounds toward zero, to that double
    assert W.inv_sup_on_core(W.gevrey(1000), 0.1) == np.finfo(float).max
    assert W.inv_sup_on_core(W.gevrey(400), 0.1) == pytest.approx(
        (1.0 - 0.9 ** 4) ** -400, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_gevrey_is_zero_near_its_ends_without_a_warning():
    # (1 - x^4)^-100 overflows to inf a little inside the support ends
    vals = W.evaluate(W.gevrey(100), np.array([-1.0 + 1e-7, -0.5, 0.0, 0.5,
                                               1.0 - 1e-7]))
    assert vals[0] == vals[-1] == 0.0 and (vals[1:-1] > 0.0).all()


def test_inv_sup_core_rounding_onto_the_support_end():
    # a + eps == a: the core holds the support end, where g is 0
    assert W.inv_sup_on_core(W.bump(), 1e-17) == math.inf
    assert W.inv_sup_on_core(W.characteristic(), 1e-17) == math.inf


_CORE_KIND_WINDOWS = {
    "bump": st.just(W.bump()),
    "gevrey": st.integers(1, 3).map(W.gevrey),
    "characteristic": st.floats(-5.0, 5.0).flatmap(
        lambda lo: st.floats(1e-3, 5.0).map(
            lambda n: W.characteristic(lo, lo + n))),
    "odd_bump": st.just(W.odd_bump()),
    "poly_bump": st.floats(-5.0, 5.0).flatmap(
        lambda lo: st.floats(1e-3, 5.0).map(lambda n: W.poly_bump(lo, lo + n))),
    # node values on a lattice of halves: segments through 0 are common
    "sampled": st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1),
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                 min_size=n, max_size=n))).map(
        lambda gv: W.sampled(np.concatenate(([0.0], np.cumsum(gv[0]))),
                             [0.5 * complex(re, im) for re, im in gv[1]])),
}


@settings(max_examples=300, deadline=None)
@given(w=st.sampled_from(sorted(_CORE_KIND_WINDOWS)).flatmap(
           lambda kind: _CORE_KIND_WINDOWS[kind]),
       ends=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).filter(
           lambda u: abs(u[0] - u[1]) > 1e-3))
def test_core_log_min_bounds_a_dense_grid(w, ends):
    """The table's log min |g| is at most ln|g| at every node of a dense
    grid on the core, and for the closed forms it is ln|g| at an end."""
    u0, u1 = sorted(ends)
    lo = w.support_lo + u0 * w.support_length
    hi = w.support_lo + u1 * w.support_length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = W._CORE_LOG_MIN[w.kind](w, lo, hi)
    mags = np.abs(W.evaluate(w, np.linspace(lo, hi, 4001)))
    assert mags.min() > 0.0 or got == -math.inf
    if got == -math.inf:
        # only where g has a zero on the core: the odd bump's at 0, or a
        # sampled segment's, within half a grid step of a node
        assert w.kind in ("odd_bump", "sampled")
        if w.kind == "odd_bump":
            assert lo <= 0.0 <= hi
        else:
            slope = np.max(np.abs(np.diff(w.grid_vals) / np.diff(w.grid_x)))
            assert mags.min() <= slope * (hi - lo) / 8000 * (1 + 1e-9)
        return
    with np.errstate(divide="ignore"):
        grid_min = float(np.min(np.log(mags)))
    assert got <= grid_min + 4 * np.spacing(max(1.0, abs(grid_min)))
    if w.kind != "sampled":
        at_ends = np.log(np.abs(W.evaluate(w, np.array([lo, hi]))))
        assert got == pytest.approx(float(np.min(at_ends)), rel=1e-12,
                                    abs=1e-12)


# ---------------------------------------------------------------------------
# Fourier diagnostics

def test_fourier_transform_at_zero_is_integral():
    # trapezoid on 2^14 nodes with the open-interval endpoints at 0:
    # error is one node weight, (b-a)/2^14
    w = W.characteristic()
    assert W.fourier_transform(w, 0.0) == pytest.approx(1.0, abs=1e-4)


def test_fourier_transform_char_is_sinc():
    # |ghat(xi)| = |sin(pi xi)/(pi xi)| for the indicator of (0, 1)
    w = W.characteristic()
    for xi in (0.5, 1.5, 2.25):
        expect = abs(math.sin(math.pi * xi) / (math.pi * xi))
        assert abs(W.fourier_transform(w, xi)) == pytest.approx(expect, abs=1e-4)


def test_fourier_decay_fit_bump():
    # oracle: stable to 6 digits between 2^14 and 10*2^14 quadrature nodes
    s_hat, c_hat = W.fourier_decay_fit(W.bump(), 80.0, 200)
    assert s_hat == pytest.approx(0.6428031, abs=0.1)
    assert c_hat > 0.0


def test_fourier_decay_fit_char_below_stretched_range():
    # polynomial (sinc) decay: the stretched-exponential model bottoms out
    # near s ~ 0.33, clearly below every smooth window in the zoo
    s_hat, _ = W.fourier_decay_fit(W.characteristic(), 80.0, 200)
    assert s_hat < 0.45


@pytest.mark.parametrize("xi_max", [1.0, 0.5, -3.0, math.nan])
def test_fourier_decay_fit_rejects_xi_max_at_most_one(xi_max):
    # 1 returned the optimizer's start s_hat = 0.5, 0.5 its lower bound 1e-6
    with pytest.raises(ValueError, match="xi_max must be > 1"):
        W.fourier_decay_fit(W.bump(), xi_max, 200)


def test_fourier_decay_fit_degenerate():
    zero = W.sampled([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(DegenerateFit):
        W.fourier_decay_fit(zero, 80.0, 200)


def _dense_fourier(w, xi, quad_nodes=W.FOURIER_QUAD_NODES):
    """One trapezoid over the full (xi, x) phase grid."""
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    xs = np.linspace(w.support_lo, w.support_hi, quad_nodes)
    gx = W.evaluate(w, xs)
    phases = np.exp(-2j * np.pi * np.outer(xi_arr, xs))
    vals = np.trapezoid(phases * gx[None, :], xs, axis=1)
    if np.ndim(xi) == 0:
        return complex(vals[0])
    return vals


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(np.atleast_1d(a).view(np.uint64),
                               np.atleast_1d(b).view(np.uint64)))


def test_fourier_transform_matches_dense_grid_bitwise(monkeypatch):
    xs = np.linspace(0.0, 1.0, 2048)
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=(2, 2048)), axis=1)
    vals = np.sin(np.pi * xs) * (1.0 + 0.1 * (walk[0] + 1j * walk[1]))
    for w in (W.bump(), W.sampled(xs, vals), W.gevrey(2)):
        for n_xi in (200, 1, W.FOURIER_XI_BLOCK, 3 * W.FOURIER_XI_BLOCK + 5):
            xis = np.linspace(1.0, 80.0, n_xi)
            assert _same_bits(W.fourier_transform(w, xis), _dense_fourier(w, xis))
        coarse = np.linspace(-3.0, 40.0, 37)
        with monkeypatch.context() as patch:
            patch.setattr(W, "FOURIER_QUAD_NODES", 1000)
            assert _same_bits(W.fourier_transform(w, coarse),
                              _dense_fourier(w, coarse, quad_nodes=1000))
        for xi in (0.0, 2.5, -7.25):
            got = W.fourier_transform(w, xi)
            assert type(got) is complex
            assert _same_bits(got, _dense_fourier(w, xi))


def test_fourier_transform_traced_peak_under_32_mib():
    xis = np.linspace(1.0, 80.0, 200)
    tracemalloc.start()
    try:
        W.fourier_transform(W.bump(), xis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_fourier_transform_empty_frequency_list():
    assert W.fourier_transform(W.bump(), np.array([])).shape == (0,)


def _force_cpus(monkeypatch, k):
    monkeypatch.setattr(_workers, "cpus", lambda: k)


def _complex_sampled():
    xs = np.linspace(0.0, 1.0, 2048)
    walk = np.cumsum(np.random.default_rng(12).normal(size=(2, 2048)), axis=1)
    return W.sampled(xs, np.sin(np.pi * xs) * (1.0 + 0.1 * (walk[0]
                                                              + 1j * walk[1])))


def test_fourier_bits_do_not_depend_on_the_thread_count(monkeypatch):
    # 7 and 200 frequencies are not multiples of a block
    inputs = [np.linspace(1.0, 80.0, n_xi) for n_xi in (1, 7, 200)] + [3.75]
    for w in (W.bump(), _complex_sampled()):
        _force_cpus(monkeypatch, 1)
        serial = [W.fourier_transform(w, xi) for xi in inputs]
        for k in (2, 3, 5):
            _force_cpus(monkeypatch, k)
            for xi, want in zip(inputs, serial):
                assert _same_bits(W.fourier_transform(w, xi), want)
            xis = np.linspace(-3.0, 40.0, 3 * W.FOURIER_XI_BLOCK + 5)
            assert _same_bits(W.fourier_transform(w, xis),
                              _dense_fourier(w, xis))


def test_fourier_traced_peak_with_four_threads(monkeypatch):
    """FOURIER_XI_BLOCK is the total over the threads: four threads hold
    no more than one thread, up to one block of complex phases."""
    xis = np.linspace(1.0, 80.0, 200)
    peaks = []
    for k in (1, 4):
        _force_cpus(monkeypatch, k)
        tracemalloc.start()
        try:
            W.fourier_transform(W.bump(), xis)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16 * W.FOURIER_XI_BLOCK * W.FOURIER_QUAD_NODES


def test_fourier_threads_end_with_the_call(monkeypatch):
    _force_cpus(monkeypatch, 3)
    before = threading.active_count()
    W.fourier_transform(W.bump(), np.linspace(1.0, 80.0, 200))
    assert threading.active_count() == before
    calls = []
    exp = np.exp

    def failing_exp(z):
        calls.append(1)
        if len(calls) == 3:
            raise ArithmeticError("third block")
        return exp(z)

    monkeypatch.setattr(np, "exp", failing_exp)
    with pytest.raises(ArithmeticError, match="third block"):
        W.fourier_transform(W.bump(), np.linspace(1.0, 80.0, 200))
    assert threading.active_count() == before


def test_fourier_one_block_starts_no_thread(monkeypatch):
    _force_cpus(monkeypatch, 4)

    def refuse(self):
        raise AssertionError("a one-block transform started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    W.fourier_transform(W.bump(), np.linspace(1.0, 80.0, W.FOURIER_XI_BLOCK))
    W.fourier_transform(W.bump(), 2.0)


# ---------------------------------------------------------------------------
# CSV round-trip

def test_sampled_csv_round_trip(tmp_path):
    xs = np.linspace(0.0, 1.0, 257)
    vals = W.evaluate(W.poly_bump(), xs) + 1j * xs
    w = W.sampled(xs, vals)
    path = tmp_path / "w.csv"
    path.write_bytes(W.sampled_to_csv(w).encode())
    back = W.sampled_from_csv(path)
    assert np.array_equal(back.grid_x, w.grid_x)
    assert np.array_equal(back.grid_vals, w.grid_vals)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0\n")
    with pytest.raises(ValueError):
        W.sampled_from_csv(path)
