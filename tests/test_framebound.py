"""Finite-section truncations and singular-value extremes."""

import math

import numpy as np
import pytest

from gaborcert import framebound as F
from gaborcert import lattice as L
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
    """Reference: the union of every retained row's good columns, and the
    complete columns among them, as sorted arrays."""
    cols = set()
    for n in range(-extent, extent + 1):
        cols.update(range(*L.int_bounds(x - p.alpha * n, p.inv_beta,
                                        w.support_lo, w.support_hi)))
    complete = {m for m in cols
                if -extent <= (rows := L.int_bounds(x + m * p.inv_beta, -p.alpha,
                                                    w.support_lo, w.support_hi))[0]
                and rows[1] - 1 <= extent}
    return np.array(sorted(cols)), np.array(sorted(complete))


# supports of length 2, 1, 0.7 and 5.6, centred and off-centre
_SUPPORTS = (W.bump(), W.characteristic(), W.characteristic(-0.35, 0.35),
             W.poly_bump(-1.3, 4.3), W.characteristic(0.2, 0.9))


def test_truncated_columns_match_row_union_random():
    rng = np.random.default_rng(2024)
    edge = 1.0 - 1e-15
    seen = {"empty end row": 0, "trimmed": 0, "no column": 0, "painless": 0}
    for _ in range(10_000):
        w = _SUPPORTS[rng.integers(len(_SUPPORTS))]
        u = edge if rng.random() < 0.02 else rng.uniform(0.01, edge)
        d = edge if rng.random() < 0.02 else rng.uniform(0.01, edge)
        alpha = u * w.support_length
        p = L.LatticeParams(alpha, d / alpha)
        x = float(rng.uniform(0.0, alpha))
        extent = int(rng.choice([0, 1, 2, 5, 16, 64]))
        union, complete = _columns_by_row_union(p, w, x, extent)
        got = F.truncated_columns(p, w, x, extent)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, complete), (p, w.descriptor(), x, extent)
        ends = (range(*L.int_bounds(x - alpha * n, p.inv_beta, w.support_lo,
                                    w.support_hi)) for n in (-extent, extent))
        seen["empty end row"] += not all(ends)
        seen["trimmed"] += len(complete) < len(union)
        seen["no column"] += len(union) == 0
        seen["painless"] += p.beta * w.support_length < 1.0
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
