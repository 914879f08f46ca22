"""Finite-section oracle: singular-value extremes of truncated Ron-Shen matrices.

Truncations cannot certify anything on their own; the trend of sigma_min as
the extent grows is the independent cross-check for the certificates (stable
for frames, decaying for non-frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeParams, entry_args, int_bounds, structure_gaps
from .linalg import svdvals_accurate
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

    The columns with a good pair in a retained row form one range, from the
    first good column of row -extent to the last of row +extent.  Row n's
    good columns are int_bounds(x - alpha*n, 1/beta, a, b), whose start and
    stop are nondecreasing in n and equal for a row without good columns.
    Consecutive rows' real intervals overlap by (b-a-alpha)*beta > 0, so
    each row starts no later than the previous row stops.  Both ends of a
    column's good-row range, int_bounds(x + m/beta, -alpha, a, b), are
    nondecreasing in m too, so the cut columns are trimmed from each end.
    With alpha >= b-a the range also holds the columns without any good
    pair: zero columns of the Ron-Shen matrix, which are what the section
    should show there.
    """
    a, b, alpha, inv_beta = w.support_lo, w.support_hi, params.alpha, params.inv_beta
    lo = int_bounds(x + alpha * extent, inv_beta, a, b)[0]
    hi = int_bounds(x - alpha * extent, inv_beta, a, b)[1]
    while lo < hi and int_bounds(x + lo * inv_beta, -alpha, a, b)[0] < -extent:
        lo += 1
    while lo < hi and int_bounds(x + (hi - 1) * inv_beta, -alpha, a, b)[1] > extent + 1:
        hi -= 1
    return np.arange(lo, hi)


def truncated_G(params: LatticeParams, w: Window, x: float,
                extent: int) -> np.ndarray:
    """Rows n in [-extent, extent], columns those of truncated_columns."""
    cols = truncated_columns(params, w, x, extent)
    rows = np.arange(-extent, extent + 1)
    return evaluate(w, entry_args(params, x, rows[:, None], cols[None, :]))


def estimate_bounds(params: LatticeParams, w: Window, extent: int,
                    x_grid_size: int) -> FiniteSectionEstimate:
    """sigma extremes over a uniform x grid on (0, alpha), nudged off breakpoints.

    The sections go serially, not through _workers.map_blocks.  SciPy's
    dgejsv wrapper holds the GIL: over the 9,600 sections of the seed-0
    framebounds_sections benchmark items (2-CPU Xeon, SciPy 1.17, OpenBLAS)
    two threads took 2.4-3.6 s, one 2.0-2.3 s.  The same routine through
    ctypes on scipy.linalg.cython_lapack's dgejsv capsule releases the GIL
    and gives the same singular values, but two threads pay only with one
    BLAS thread: 1.6-2.2 s at OPENBLAS_NUM_THREADS=1, and 2.8-3.7 s at 2,
    the default there, where the BLAS threads and the section threads share
    the two CPUs.  Even serially, 2 BLAS threads gain nothing on these
    sections: the 150 items took 2.7-3.3 s wall and 5.3-6.5 s CPU, against
    2.6-3.4 s wall and as much CPU with one.
    """
    if extent < 0:
        raise ValueError("extent must be >= 0")
    if x_grid_size < 8:
        raise ValueError("x_grid_size must be >= 8")
    edges = structure_gaps(params, w)
    gap = np.min(np.diff(edges))
    xs = params.alpha * (np.arange(x_grid_size) + 0.5) / x_grid_size
    for bp in edges:
        close = np.abs(xs - bp) < 1e-9 * gap
        xs[close] += 1e-9 * gap
    table = np.empty((x_grid_size, 3))
    for i, x in enumerate(xs):
        sv = svdvals_accurate(truncated_G(params, w, x, extent))
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
