"""Finite-section oracle: singular-value extremes of truncated Ron-Shen matrices.

Truncations cannot certify anything on their own; the trend of sigma_min as
the extent grows is the independent cross-check for the certificates (stable
for frames, decaying for non-frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import LatticeParams, int_range, structure_breakpoints
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
    extent: int
    x_grid_size: int
    sigma_min_inf: float
    sigma_max_sup: float
    per_x: Optional[np.ndarray] = None   # columns (x, sigma_min, sigma_max)


def _good_row_range(params: LatticeParams, w: Window, x: float, m: int):
    """Integer rows n with (n, m) good, as an inclusive (n_lo, n_hi) range."""
    rows = int_range(x + m * params.inv_beta, -params.alpha,
                     w.support_lo, w.support_hi)
    return rows.start, rows.stop - 1


def truncated_columns(params: LatticeParams, w: Window, x: float, extent: int,
                      complete_only: bool = False) -> np.ndarray:
    """Columns m with a good pair in some retained row n in [-extent, extent].

    With complete_only, keep only columns whose entire good-row set survives
    the truncation; boundary-cut columns otherwise produce spurious tiny
    singular values that say nothing about the infinite matrix.
    """
    cols = set()
    for n in range(-extent, extent + 1):
        cols.update(int_range(x - params.alpha * n, params.inv_beta,
                              w.support_lo, w.support_hi))
    if complete_only:
        cols = {m for m in cols
                if -extent <= (rows := _good_row_range(params, w, x, m))[0]
                and rows[1] <= extent}
    return np.array(sorted(cols))


def truncated_G(params: LatticeParams, w: Window, x: float, extent: int,
                complete_only: bool = False) -> np.ndarray:
    """Rows n in [-extent, extent], columns restricted to those with good pairs."""
    cols = truncated_columns(params, w, x, extent, complete_only)
    rows = np.arange(-extent, extent + 1)
    args = x - params.alpha * rows[:, None] + cols[None, :] * params.inv_beta
    return evaluate(w, args)


def estimate_bounds(params: LatticeParams, w: Window, extent: int,
                    x_grid_size: int, keep_per_x: bool = True,
                    complete_only: bool = True) -> FiniteSectionEstimate:
    """sigma extremes over a uniform x grid on (0, alpha), nudged off breakpoints."""
    if x_grid_size < 8:
        raise ValueError("x_grid_size must be >= 8")
    bps = structure_breakpoints(params, w)
    edges = np.concatenate(([0.0], bps, [params.alpha]))
    gap = np.min(np.diff(edges)) if len(edges) > 1 else params.alpha
    xs = params.alpha * (np.arange(x_grid_size) + 0.5) / x_grid_size
    for bp in edges:
        close = np.abs(xs - bp) < 1e-9 * gap
        xs[close] += 1e-9 * gap
    table = np.empty((x_grid_size, 3))
    for i, x in enumerate(xs):
        sv = svdvals_accurate(truncated_G(params, w, x, extent, complete_only))
        table[i] = (x, sv[-1], sv[0])
    return FiniteSectionEstimate(extent, x_grid_size,
                                 float(np.min(table[:, 1])),
                                 float(np.max(table[:, 2])),
                                 table if keep_per_x else None)


def upper_bound_rowsum(params: LatticeParams, w: Window) -> float:
    """Rigorous upper frame bound via the row count: (floor(beta(b-a))+1)*||g||_inf."""
    return (math.floor(params.beta * w.support_length) + 1) * sup_norm(w)
