"""Finite-section oracle: singular-value extremes of truncated Ron-Shen matrices.

Truncations cannot certify anything on their own; the trend of sigma_min as
the extent grows is the independent cross-check for the certificates (stable
for frames, decaying for non-frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeParams, int_bounds, off_breakpoints, structure_gaps
from .linalg import _BATCH_ENTRIES
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


class _Sections:
    """The sections at every x of xs at one extent, read off the good
    column ranges of rows -extent-1 to extent+1, which one array int_bounds
    call gives at every x.

    Row n's good columns at x are int_bounds(x - alpha*n, 1/beta, a, b),
    in entry_args' rounding, [start(n), stop(n)): both ends are
    nondecreasing in n, and rows' real intervals overlap by
    (b-a-alpha)*beta > 0, so the retained rows' good columns run from
    start(-extent) to stop(extent).  A column's good rows are contiguous,
    so one of these is cut exactly when row -extent-1 or row extent+1 holds
    it: a section keeps the complete columns
    [max(start(-extent), stop(-extent-1)), min(stop(extent), start(extent+1))),
    since a column the truncation cuts gives spurious tiny singular values.
    With alpha >= b-a the range also holds the columns without any good
    pair: zero columns of the Ron-Shen matrix, which are what the section
    should show there.
    """

    def __init__(self, params: LatticeParams, w: Window, xs: np.ndarray,
                 extent: int):
        # first, so numpy refuses a huge extent's rows before any other work
        rows = np.arange(-extent - 1, extent + 2)
        base = xs[:, None] - params.alpha * rows
        start, stop = int_bounds(base, params.inv_beta, w.support_lo, w.support_hi)
        self.first = np.maximum(start[:, 1], stop[:, 0])
        self.width = (np.minimum(stop[:, -2], start[:, -1]) - self.first).clip(0)
        self.base, self.start, self.stop = base[:, 1:-1], start[:, 1:-1], stop[:, 1:-1]
        self.xs, self.extent, self.w, self.inv_beta = xs, extent, w, params.inv_beta

    def columns(self, i: int) -> np.ndarray:
        return np.arange(self.first[i], self.first[i] + self.width[i])

    def stack(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G, finite): the sections at the x of indices idx, all of one
        width, as a (len(idx), 2*extent+1, width) stack, and whether each is
        finite.  Good pair (n, m) holds g(entry_args(x, n, m)), from one
        evaluate over the good pairs only; every other entry is +0.0, as
        evaluate gives outside the support."""
        rows, width = self.base.shape[1], int(self.width[idx[0]])
        first = self.first[idx, None]
        m0 = np.maximum(self.start[idx], first).ravel()
        count = (np.minimum(self.stop[idx], first + width).ravel() - m0).clip(0)
        # good pair p lies in stack row of[p], in column m[p] of the lattice
        of = np.repeat(np.arange(len(count)), count)
        m = np.arange(len(of)) + (m0 - np.cumsum(count) + count)[of]
        vals = evaluate(self.w, self.base[idx].ravel()[of] + m * self.inv_beta)
        G = np.zeros(len(idx) * rows * width, dtype=vals.dtype)
        G[of * width + m - first.ravel()[of // rows]] = vals
        finite = np.ones(len(idx), dtype=bool)
        finite[of[~np.isfinite(vals)] // rows] = False
        return G.reshape(len(idx), rows, width), finite

    def extremes(self) -> np.ndarray:
        """(sigma_min, sigma_max) of each section, from one gesdd call per
        stack of one width and at most linalg._BATCH_ENTRIES entries (one
        section alone may pass it); ValueError names the first x of xs
        whose section has a non-finite entry or no complete column."""
        width = self.width
        out = np.empty((len(width), 2))
        empty, infinite = width == 0, np.zeros(len(width), dtype=bool)
        # a set, not np.unique, which imports numpy.ma (about 1 MiB) on first use
        for cols in sorted(set(width[~empty].tolist())):
            idx = np.flatnonzero(width == cols)
            per = max(1, _BATCH_ENTRIES // (self.base.shape[1] * cols))
            for i in range(0, len(idx), per):
                part = idx[i:i + per]
                G, finite = self.stack(part)
                infinite[part] = ~finite
                if not (empty.any() or infinite.any()):   # else only find the first
                    sv = np.linalg.svd(G, compute_uv=False)
                    out[part] = sv[:, [-1, 0]]
                del G                          # so two stacks never coexist
        if (failed := empty | infinite).any():
            i = np.argmax(failed)
            x = float(self.xs[i])
            if infinite[i]:
                raise ValueError(f"the section at x={x!r} has a non-finite entry")
            raise ValueError(f"the section at x={x!r} has no complete column at "
                             f"extent {self.extent}")
        return out


def truncated_columns(params: LatticeParams, w: Window, x: float,
                      extent: int) -> np.ndarray:
    """Columns m whose whole good-row set lies in rows [-extent, extent]
    (see _Sections)."""
    return _Sections(params, w, np.array([x], dtype=float), extent).columns(0)


def truncated_G(params: LatticeParams, w: Window, x: float,
                extent: int) -> np.ndarray:
    """Rows n in [-extent, extent], columns those of truncated_columns."""
    sections = _Sections(params, w, np.array([x], dtype=float), extent)
    return sections.stack(np.array([0]))[0][0]


def estimate_bounds(params: LatticeParams, w: Window, extent: int,
                    x_grid_size: int) -> FiniteSectionEstimate:
    """sigma extremes over a uniform x grid on (0, alpha), nudged off breakpoints.

    The grid goes to _Sections in chunks of at most
    linalg._BATCH_ENTRIES // (2*extent+3) x, at least one, so its row
    ranges stay that small whatever the grid size (the whole default grid
    up to extent 254 is one chunk).  In a chunk the x are grouped by
    section width into stacks of at most _BATCH_ENTRIES entries, each
    filled by one evaluate over its good pairs, at most floor(beta(b-a))+1
    a row, and given to one gesdd call.  The budget is the cache-sized one
    of linalg, not _workers.BLOCK_BYTES: larger stacks, with or without
    threads, raised the peak memory more than they saved time at extents
    16-64.  No byte moves against building each section densely: a good
    entry is the same float expression entry_args gives, which int_bounds
    is exact against, every other entry is exactly +0.0, and a stacked
    gesdd makes the same LAPACK call on each matrix.  The chunks go in grid
    order, so the first x whose section has a non-finite entry or no
    complete column is the one named.

    Each section's singular values come from LAPACK's bidiagonal SVD
    (gesdd, through np.linalg.svd).  It is backward stable: every computed
    sigma is within p(m, n) eps ||G||_2 of the exact one, for a modest p
    (the LAPACK Users' Guide bound).  That absolute accuracy is what a frame
    bound needs, since the optimal lower bound is inf sigma_min^2 itself.
    """
    if extent < 0:
        raise ValueError("extent must be >= 0")
    if x_grid_size < 8:
        raise ValueError("x_grid_size must be >= 8")
    xs = off_breakpoints(structure_gaps(params, w),
                         params.alpha * (np.arange(x_grid_size) + 0.5) / x_grid_size)
    table = np.empty((x_grid_size, 3))
    table[:, 0] = xs
    chunk = max(1, _BATCH_ENTRIES // (2 * extent + 3))
    for i in range(0, x_grid_size, chunk):
        table[i:i + chunk, 1:] = _Sections(params, w, xs[i:i + chunk],
                                           extent).extremes()
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
