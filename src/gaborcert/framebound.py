"""Finite-section oracle: singular-value extremes of truncated Ron-Shen matrices.

Truncations cannot certify anything on their own; the trend of sigma_min as
the extent grows is the independent cross-check for the certificates (stable
for frames, decaying for non-frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeParams, entry_args, int_bounds, off_breakpoints,
                      structure_gaps)
from .window import Window, evaluate, sup_norm

__all__ = [
    "FiniteSectionEstimate",
    "truncated_G",
    "truncated_columns",
    "estimate_bounds",
    "upper_bound_rowsum",
]


@dataclass(frozen=True, eq=False)
class FiniteSectionEstimate:
    sigma_min_inf: float
    sigma_max_sup: float
    per_x: np.ndarray             # columns (x, sigma_min, sigma_max)


def truncated_columns(params: LatticeParams, w: Window, x: float,
                      extent: int) -> np.ndarray:
    """Columns m whose whole good-row set lies in rows [-extent, extent]: a
    column the truncation cuts gives spurious tiny singular values.

    Row n's good columns are int_bounds(x - alpha*n, 1/beta, a, b), in
    entry_args' rounding, [start(n), stop(n)): both ends are nondecreasing
    in n, and rows' real intervals overlap by (b-a-alpha)*beta > 0, so the
    retained rows' good columns run from start(-extent) to stop(extent).
    A column's good rows are contiguous, so one of these is cut exactly
    when row -extent-1 or row extent+1 holds it: the section keeps
    [max(start(-extent), stop(-extent-1)), min(stop(extent), start(extent+1))).
    With alpha >= b-a the range also holds the columns without any good
    pair: zero columns of the Ron-Shen matrix, which are what the section
    should show there.
    """
    (_, above), (first, _), (_, last), (below, _) = (
        int_bounds(x - params.alpha * n, params.inv_beta, w.support_lo, w.support_hi)
        for n in (-extent - 1, -extent, extent, extent + 1))
    return np.arange(max(first, above), min(last, below))


def truncated_G(params: LatticeParams, w: Window, x: float,
                extent: int) -> np.ndarray:
    """Rows n in [-extent, extent], columns those of truncated_columns."""
    cols = truncated_columns(params, w, x, extent)
    rows = np.arange(-extent, extent + 1)
    return evaluate(w, entry_args(params, x, rows[:, None], cols[None, :]))


def estimate_bounds(params: LatticeParams, w: Window, extent: int,
                    x_grid_size: int) -> FiniteSectionEstimate:
    """sigma extremes over a uniform x grid on (0, alpha), nudged off breakpoints.

    Each section's singular values come from LAPACK's bidiagonal SVD
    (gesdd, through np.linalg.svd).  It is backward stable: every computed
    sigma is within p(m, n) eps ||G||_2 of the exact one, for a modest p
    (the LAPACK Users' Guide bound).  That absolute accuracy is what a frame
    bound needs, since the optimal lower bound is inf sigma_min^2 itself.
    Certificates keep dgejsv (linalg.stack_sigma_min): a block sigma_min
    can lie many orders below its block's norm, where only the Jacobi SVD
    keeps relative accuracy.
    """
    if extent < 0:
        raise ValueError("extent must be >= 0")
    if x_grid_size < 8:
        raise ValueError("x_grid_size must be >= 8")
    xs = off_breakpoints(structure_gaps(params, w),
                         params.alpha * (np.arange(x_grid_size) + 0.5) / x_grid_size)
    table = np.empty((x_grid_size, 3))
    for i, x in enumerate(xs):
        G = truncated_G(params, w, x, extent)
        if not np.isfinite(G).all():
            raise ValueError(f"the section at x={float(x)!r} has a non-finite "
                             "entry")
        sv = np.linalg.svd(G, compute_uv=False)
        if len(sv) == 0:
            raise ValueError(f"the section at x={float(x)!r} has no complete "
                             f"column at extent {extent}")
        table[i] = (x, sv[-1], sv[0])
    return FiniteSectionEstimate(float(np.min(table[:, 1])),
                                 float(np.max(table[:, 2])), table)


def upper_bound_rowsum(params: LatticeParams, w: Window) -> float:
    """Row-count estimate (floor(beta(b-a))+1)*||g||_inf of the upper frame
    bound; not a bound.  A section's sigma_max can exceed it: 0.4186 against
    0.3679 for the bump at (1.3, 0.45), extent 16.  The Schur test does
    bound it, by sqrt(R*C)*||g||_inf with R and C the most good pairs in a
    row and in a column.  ROADMAP.md direction 4 replaces this estimate
    with the Walnut bounds.
    """
    return (math.floor(params.beta * w.support_length) + 1) * sup_norm(w)
