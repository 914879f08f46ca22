"""Finite-section truncations and singular-value extremes."""

import math
import re

import numpy as np
import pytest

from gaborcert import framebound as F
from gaborcert import lattice as L
from gaborcert import linalg
from gaborcert import randwin as R
from gaborcert import window as W

SQRT2 = math.sqrt(2.0)


def test_truncated_G_hand_example():
    p = L.LatticeParams(0.7, 1.0)
    w = W.characteristic()
    G = F.truncated_G(p, w, 0.1, extent=1)
    expect = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    assert np.array_equal(G, expect)
    assert np.array_equal(F.truncated_columns(p, w, 0.1, 1), [0, 1])


def test_truncated_G_extent_zero_row_zero_good_pairs():
    p = L.LatticeParams(0.8, 1.0 / SQRT2)
    w = W.bump()
    G = F.truncated_G(p, w, 0.3, extent=0)
    assert G.shape[0] == 1
    cols = F.truncated_columns(p, w, 0.3, 0)
    for j, m in enumerate(cols):
        assert (abs(G[0, j]) > 0) == L.is_good(p, w, 0.3, 0, int(m))


def test_row_count_and_sparsity():
    p = L.LatticeParams(1.0, 1.0 / SQRT2)
    w = W.bump()
    for extent in (0, 3, 10):
        G = F.truncated_G(p, w, 0.25, extent)
        assert G.shape[0] == 2 * extent + 1
        max_nonzero = math.floor(p.beta * w.support_length) + 1
        assert np.max(np.count_nonzero(G, axis=1)) <= max_nonzero


def test_shift_covariance():
    p = L.LatticeParams(0.8, 1.0 / SQRT2)
    w = W.bump()
    x = 0.31
    ext = 6
    cols = F.truncated_columns(p, w, x, ext)
    args_a = x - p.alpha * np.arange(-ext, ext + 1)[:, None] + cols * p.inv_beta
    args_b = ((x - p.alpha) - p.alpha * np.arange(-ext, ext + 1)[:, None]
              + cols * p.inv_beta)
    # row n at x - alpha equals row n+1 at x
    assert np.allclose(W.evaluate(w, args_b)[:-1], W.evaluate(w, args_a)[1:],
                       atol=1e-15)


def _columns_by_row_union(p, w, x, extent):
    """Reference: the columns from the first to the last good column of any
    retained row, and the complete columns among them, whose good rows all
    lie in [-extent, extent] (a column without good rows is complete), as
    sorted arrays."""
    starts, stops = zip(*(L.int_bounds(x - p.alpha * n, p.inv_beta,
                                       w.support_lo, w.support_hi)
                          for n in range(-extent, extent + 1)))
    cols = range(min(starts), max(stops))
    complete = [m for m in cols
                if (rows := L.int_bounds(x + m * p.inv_beta, -p.alpha,
                                         w.support_lo, w.support_hi))[1] <= rows[0]
                or (-extent <= rows[0] and rows[1] - 1 <= extent)]
    return np.array(cols), np.array(complete, dtype=int)


# supports of length 2, 1, 0.7 and 5.6, centred and off-centre
_SUPPORTS = (W.bump(), W.characteristic(), W.characteristic(-0.35, 0.35),
             W.poly_bump(-1.3, 4.3), W.characteristic(0.2, 0.9))


def test_truncated_columns_match_row_union_random():
    """alpha runs past b - a, where the sections keep zero columns, and x
    is sometimes alpha/2, a grid point of every even x_grid_size."""
    rng = np.random.default_rng(2024)
    edge = 1.0 - 1e-15
    seen = {"empty end row": 0, "trimmed": 0, "no column": 0, "painless": 0,
            "zero column": 0, "x = alpha/2": 0}
    for _ in range(10_000):
        w = _SUPPORTS[rng.integers(len(_SUPPORTS))]
        u = edge if rng.random() < 0.02 else rng.uniform(0.01, 1.6)
        d = edge if rng.random() < 0.02 else rng.uniform(0.01, edge)
        alpha = u * w.support_length
        p = L.LatticeParams(alpha, d / alpha)
        x = alpha / 2 if rng.random() < 0.05 else float(rng.uniform(0.0, alpha))
        extent = int(rng.choice([0, 1, 2, 5, 16, 64]))
        spanned, complete = _columns_by_row_union(p, w, x, extent)
        got = F.truncated_columns(p, w, x, extent)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, complete), (p, w.descriptor(), x, extent)
        rows = np.arange(-extent, extent + 1)
        good = L.is_good(p, w, x, rows[:, None], got[None, :])
        ends = (range(*L.int_bounds(x - alpha * n, p.inv_beta, w.support_lo,
                                    w.support_hi)) for n in (-extent, extent))
        seen["empty end row"] += not all(ends)
        seen["trimmed"] += len(complete) < len(spanned)
        seen["no column"] += len(spanned) == 0
        seen["painless"] += p.beta * w.support_length < 1.0
        seen["zero column"] += not np.all(np.any(good, axis=0))
        seen["x = alpha/2"] += x == alpha / 2
    assert min(seen.values()) >= 50, seen


def test_alpha_beyond_support_keeps_zero_columns():
    """Translates of [0, 1] by 1.5 leave gaps, so no frame: the columns
    without any good pair stay in the section and sigma_min is 0."""
    p = L.LatticeParams(1.5, 0.5)
    w = W.characteristic()
    cols = F.truncated_columns(p, w, 0.75, 8)
    rows = np.arange(-8, 9)
    good = L.is_good(p, w, 0.75, rows[:, None], cols[None, :])
    assert not good.any(axis=0).all()
    assert F.estimate_bounds(p, w, 8, 8).sigma_min_inf == 0.0


def test_estimate_bounds_rejects_negative_extent():
    with pytest.raises(ValueError, match="extent"):
        F.estimate_bounds(L.LatticeParams(1.0, 1.0 / SQRT2), W.bump(), -1, 8)


def test_estimate_bounds_names_section_without_complete_column():
    p = L.LatticeParams(1.0, 0.5)
    with pytest.raises(ValueError, match=r"x=0\.0625 .* extent 0"):
        F.estimate_bounds(p, W.bump(), 0, 8)


@pytest.mark.parametrize("alpha, beta, extent", [
    (1.3, 0.45, 16), (1.0, 1.0 / SQRT2, 12), (0.8, 0.9, 8), (1.7, 0.41, 16),
])
def test_sigma_max_within_schur_bound(alpha, beta, extent):
    """||G|| <= sqrt(R*C)*sup|g|, R and C the most good pairs in a row and
    in a column; the row-count estimate is not such a bound."""
    p = L.LatticeParams(alpha, beta)
    w = W.bump()
    est = F.estimate_bounds(p, w, extent, 16)
    for x in est.per_x[:, 0]:
        G = F.truncated_G(p, w, x, extent)
        R = np.max(np.count_nonzero(G, axis=1))
        C = np.max(np.count_nonzero(G, axis=0))
        sigma_max = np.linalg.norm(G, 2)
        assert sigma_max <= math.sqrt(R * C) * W.sup_norm(w) * (1 + 1e-12)
    if (alpha, beta) == (1.3, 0.45):
        assert est.sigma_max_sup > F.upper_bound_rowsum(p, w)


def test_estimate_bounds_characteristic_exact():
    p = L.LatticeParams(1.0 / SQRT2, 1.0)
    w = W.characteristic()
    est = F.estimate_bounds(p, w, extent=16, x_grid_size=16)
    assert est.sigma_min_inf == pytest.approx(1.0, abs=1e-12)
    assert est.sigma_max_sup == pytest.approx(SQRT2, abs=1e-12)
    assert est.per_x.shape == (16, 3)


def test_sigma_max_below_schur_bound():
    p = L.LatticeParams(1.0, 1.0 / SQRT2)
    w = W.bump()
    est = F.estimate_bounds(p, w, extent=12, x_grid_size=12)
    rows = math.floor(p.beta * w.support_length) + 1
    assert est.sigma_max_sup <= F.upper_bound_rowsum(p, w) * math.sqrt(rows)
    assert est.sigma_min_inf <= est.sigma_max_sup


def test_estimate_bounds_rejects_a_non_finite_section():
    # (x - lo)(hi - x) overflows to inf inside a support of length 1e160
    p = L.LatticeParams(5e159, 1e-160)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match=r"x=.* non-finite"):
        F.estimate_bounds(p, W.poly_bump(0.0, 1e160), 4, 8)


def test_estimate_bounds_rejects_tiny_grid():
    with pytest.raises(ValueError):
        F.estimate_bounds(L.LatticeParams(1.0, 1.0 / SQRT2), W.bump(), 8, 4)


def test_upper_bound_rowsum_examples():
    assert F.upper_bound_rowsum(L.LatticeParams(0.7, 1.0),
                                W.characteristic()) == 2.0
    assert F.upper_bound_rowsum(L.LatticeParams(1.0, 1.0 / SQRT2),
                                W.bump()) == pytest.approx(2.0 * math.exp(-1.0))
    assert F.upper_bound_rowsum(L.LatticeParams(0.7, 0.3),
                                W.characteristic()) == 1.0


@pytest.mark.parametrize("window, alpha, beta, extent", [
    (W.bump, 1.3, 0.45, 16),
    (W.bump, 1.3, 0.45, 256),
    (W.odd_bump, 1.0, 0.5, 32),                 # rational lattice
    (lambda: W.gevrey(3), 1.1, 0.7, 64),
    (W.characteristic, 0.6, 1.5, 8),
    (lambda: W.sampled([-1.0, 0.0, 1.0], [0.0, 100.0, 0.0]),
     0.3903198224722208, 2.0, 64),
    (lambda: R.synthesize_window(R.sample_path(0)), 0.8, 1.0 / SQRT2, 16),
], ids=["bump-16", "bump-256", "oddbump-rational-32", "gevrey3-64", "char-8",
        "hat-64", "random-16"])    # random-16: complex, sigma_min near 1e-13
def test_section_extremes_within_backward_error_of_jacobi(window, alpha, beta,
                                                          extent):
    """Every section's sigma_min and sigma_max lie within
    SCREEN_SLACK * max(m, n) * eps * ||G||_F of the Jacobi SVD's: both SVDs
    are backward stable (see linalg.stack_sigma_min)."""
    p = L.LatticeParams(alpha, beta)
    w = window()
    est = F.estimate_bounds(p, w, extent, 8)
    for x, smin, smax in est.per_x:
        G = F.truncated_G(p, w, x, extent)
        ref = linalg.svdvals_accurate(G)
        tol = (linalg.SCREEN_SLACK * max(G.shape) * np.finfo(float).eps
               * np.linalg.norm(G))
        assert abs(smin - ref[-1]) <= tol, (x, smin, ref[-1], tol)
        assert abs(smax - ref[0]) <= tol, (x, smax, ref[0], tol)


def _dense_estimate(p, w, extent, x_grid_size):
    """Reference: each x's section built densely, every slot of the
    (2*extent+1) x C section through entry_args and evaluate, its complete
    columns from four scalar int_bounds rows, and one np.linalg.svd per x;
    the first x in grid order that fails raises."""
    xs = L.off_breakpoints(L.structure_gaps(p, w),
                           p.alpha * (np.arange(x_grid_size) + 0.5) / x_grid_size)
    rows = np.arange(-extent, extent + 1)
    table = np.empty((x_grid_size, 3))
    for i, x in enumerate(xs):
        (_, above), (first, _), (_, last), (below, _) = (
            L.int_bounds(x - p.alpha * n, p.inv_beta, w.support_lo, w.support_hi)
            for n in (-extent - 1, -extent, extent, extent + 1))
        cols = np.arange(max(first, above), min(last, below))
        G = W.evaluate(w, L.entry_args(p, x, rows[:, None], cols[None, :]))
        if not np.isfinite(G).all():
            raise ValueError(f"the section at x={float(x)!r} has a non-finite "
                             "entry")
        sv = np.linalg.svd(G, compute_uv=False)
        if len(sv) == 0:
            raise ValueError(f"the section at x={float(x)!r} has no complete "
                             f"column at extent {extent}")
        table[i] = (x, sv[-1], sv[0])
    return table


_ORACLE_WINDOWS = {
    "bump": W.bump, "oddbump": W.odd_bump, "gevrey3": lambda: W.gevrey(3),
    "char": W.characteristic,
    "hat": lambda: W.sampled([-1.0, 0.0, 1.0], [0.0, 100.0, 0.0]),
    "random": lambda: R.synthesize_window(R.sample_path(0)),   # complex
}


@pytest.mark.parametrize("name", sorted(_ORACLE_WINDOWS))
def test_estimate_bounds_matches_dense_sections_bit_for_bit(name):
    """Stacked sections built from the good-pair ranges give the bytes of
    the dense per-x route: per_x, or the same error naming the same x.
    Densities 0.3-0.95, u = alpha/(b-a) up to 1.5 (zero columns past 1)."""
    w = _ORACLE_WINDOWS[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    seen = {"ok": 0, "error": 0, "zero column": 0, "widths differ": 0}
    for u, d in [(1.2, 0.6), (1.5, 0.9)] + [
            (rng.uniform(0.1, 1.0), rng.uniform(0.3, 0.95)) for _ in range(3)]:
        alpha = u * w.support_length
        p = L.LatticeParams(alpha, d / alpha)
        for extent in (0, 1, 3, 16, 64):
            for x_grid_size in (8, 64):
                try:
                    expect = _dense_estimate(p, w, extent, x_grid_size)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        F.estimate_bounds(p, w, extent, x_grid_size)
                    assert str(got.value) == str(exc)
                    seen["error"] += 1
                    continue
                per_x = F.estimate_bounds(p, w, extent, x_grid_size).per_x
                assert per_x.tobytes() == expect.tobytes(), (p, extent, x_grid_size)
                seen["ok"] += 1
                seen["zero column"] += u > 1.0
                widths = {len(F.truncated_columns(p, w, x, extent))
                          for x in per_x[:, 0]}
                seen["widths differ"] += len(widths) > 1
    assert min(seen.values()) >= 1, seen


@pytest.mark.parametrize("w, alpha, beta, extent, x_grid_size, budget", [
    (W.bump(), 1.0, 1.0 / SQRT2, 128, 260, 1 << 15),    # 3 chunks of 126 x
    (W.odd_bump(), 1.3, 0.45, 16, 64, 700),             # 20 x, one section a stack
])
def test_estimate_bounds_chunks_keep_the_bytes(monkeypatch, w, alpha, beta, extent,
                                               x_grid_size, budget):
    """The grid goes to the sections in chunks of _BATCH_ENTRIES // (2E+3)
    x, and stacks hold _BATCH_ENTRIES entries: neither moves a byte."""
    monkeypatch.setattr(F, "_BATCH_ENTRIES", budget)
    p = L.LatticeParams(alpha, beta)
    per_x = F.estimate_bounds(p, w, extent, x_grid_size).per_x
    assert per_x.tobytes() == _dense_estimate(p, w, extent, x_grid_size).tobytes()


@pytest.mark.parametrize("budget", [1 << 15, 6])        # 6: chunks of 2 x
@pytest.mark.parametrize("order, named, reason", [
    ([0.5, 0.6, 0.1, 0.65, 0.55, 0.2, 0.45, 0.35], 0.6, "a non-finite entry"),
    ([0.5, 0.1, 0.6, 0.65, 0.55, 0.2, 0.45, 0.35], 0.1, "no complete column"),
    ([0.5, 0.55, 0.65, 0.6, 0.1, 0.45, 0.35, 0.2], 0.6, "a non-finite entry"),
    ([0.5, 0.55, 0.65, 0.1, 0.6, 0.45, 0.35, 0.2], 0.1, "no complete column"),
])
def test_estimate_bounds_names_first_failing_x_in_grid_order(monkeypatch, order,
                                                             named, reason, budget):
    """char on (0, 1) at (0.7, 1), extent 0: the one row's one good pair
    has argument x, and the section has no complete column for x < 0.3.
    Poisoning g at x = 0.6 makes that section non-finite; whichever
    failure comes first in the grid's order, here the order given, is the
    one named, also when the grid goes in chunks."""
    monkeypatch.setattr(F, "_BATCH_ENTRIES", budget)
    monkeypatch.setattr(F, "off_breakpoints", lambda edges, grid: np.array(order))
    evaluate = F.evaluate
    monkeypatch.setattr(F, "evaluate", lambda w, args: np.where(
        args == 0.6, np.inf, evaluate(w, args)))
    with pytest.raises(ValueError, match=re.escape(f"x={named!r} has {reason}")):
        F.estimate_bounds(L.LatticeParams(0.7, 1.0), W.characteristic(), 0, 8)


def test_estimate_bounds_evaluates_only_good_pairs(monkeypatch):
    """Each row holds at most floor(beta(b-a))+1 good pairs, and only those
    reach evaluate: the dense route evaluated every slot of each
    (2*extent+1) x C section."""
    points = []
    evaluate = F.evaluate
    monkeypatch.setattr(F, "evaluate",
                        lambda w, x: points.append(np.size(x)) or evaluate(w, x))
    for w, alpha, beta, extent, x_grid_size in [
            (W.bump(), 1.0, 1.0 / SQRT2, 16, 64), (W.bump(), 0.39, 1.795, 64, 8),
            (W.characteristic(), 0.7, 1.0, 32, 16),
            (W.gevrey(3), 1.1, 0.7, 64, 64)]:
        points.clear()
        p = L.LatticeParams(alpha, beta)
        F.estimate_bounds(p, w, extent, x_grid_size)
        per_row = math.floor(p.beta * w.support_length) + 1
        assert 0 < sum(points) <= x_grid_size * (2 * extent + 1) * per_row
