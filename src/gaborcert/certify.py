"""Determinant scans, certified intervals, and block decompositions.

The positive verdict rests on three computable facts: an interval I of x
values where |det M_x| stays above a floor delta, a block decomposition of
the row-reduced Ron-Shen matrix whose diagonal blocks all have smallest
singular value above rounding level (linalg.stack_sigma_min's margin), and
the hypothesis checklist (density, support length, irrationality class,
boundedness of g and 1/g on the core).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (BudgetExceeded, HopNotFound, HypothesisViolated,
                     TooCloseToForbiddenRatio)
from .lattice import (BREAKPOINT_TOL, BlockSpec, LatticeParams,
                      _require_alpha_in_support, anchor_block, band_halfwidth,
                      build_Mx, entry_args, epsilon, int_bounds, off_breakpoints,
                      separator_row, size_bound, structure_fingerprint, structure_gaps)
from .linalg import banded_log_abs_det, stack_sigma_min
from .window import Window, evaluate, inv_sup_on_core, sup_norm

__all__ = [
    "CertifyConfig",
    "DeterminantProfile",
    "CertifiedInterval",
    "DecompBlock",
    "BlockDecomposition",
    "FrameCertificate",
    "RationalReport",
    "scan_determinant",
    "find_certified_interval",
    "build_block_decomposition",
    "assemble_composite",
    "certify_frame",
    "forbidden_ratios",
    "rational_analysis",
]


@dataclass(frozen=True)
class CertifyConfig:
    samples_per_gap: int = 32
    delta_floor: float = 1e-8
    extent: int = 32

    def __post_init__(self):
        # a certified interval needs 3 samples in one gap, and a floor of 0
        # would accept the rounding noise of a singular determinant
        if self.samples_per_gap < 3:
            raise ValueError(f"samples_per_gap must be >= 3, "
                             f"got {self.samples_per_gap}")
        if not (math.isfinite(self.delta_floor) and self.delta_floor > 0):
            raise ValueError(f"delta_floor must be a positive finite number, "
                             f"got {self.delta_floor}")
        if self.extent < 0:
            raise ValueError(f"extent must be >= 0, got {self.extent}")


#: exp without the overflow warning: inf is its value past the largest double
_exp = np.errstate(over="ignore")(np.exp)


@dataclass(frozen=True, eq=False)
class DeterminantProfile:
    """Sampled map x -> log|det M_x| over the gaps between structure
    breakpoints of G(g; alpha, beta)."""

    x_samples: np.ndarray
    log_abs_det: np.ndarray       # natural log; -inf where det M_x is 0
    gap_index: np.ndarray
    edges: np.ndarray             # structure_gaps: gap i is (edges[i], edges[i+1])
    params: LatticeParams
    window: Window
    specs: BlockSpec              # anchor block of each gap at its first sample, arrays

    @functools.cached_property
    def fingerprints(self) -> list:
        """structure_fingerprint (size, starts, stops) of each gap, indexed
        by gap_index; built when first read."""
        return [structure_fingerprint(self.params, self.window, BlockSpec(0, *gap))
                for gap in zip(self.specs.anchor_m.tolist(), self.specs.size.tolist(),
                               self.specs.x_value.tolist())]

    @property
    def abs_det(self) -> np.ndarray:
        return _exp(self.log_abs_det)

    @property
    def log10_det_best(self) -> float:
        """Largest log10|det| of the scan; finite where |det| underflows."""
        return float(self.log_abs_det.max()) / math.log(10.0)

    def floor_shortfall_log10(self, delta_floor: float) -> float:
        """log10(delta_floor) minus the best minimum of log10|det| over 3
        consecutive samples of one gap, the shortest run that
        find_certified_interval accepts: > 0 when no run reaches the floor."""
        la, gaps = self.log_abs_det, self.gap_index
        mins = np.minimum(np.minimum(la[:-2], la[1:-1]), la[2:])
        best = float(mins[gaps[:-2] == gaps[2:]].max(initial=-np.inf))
        return math.log10(delta_floor) - best / math.log(10.0)


@dataclass(frozen=True)
class CertifiedInterval:
    lo: float
    hi: float
    delta: float


@dataclass(frozen=True, eq=False)
class DecompBlock:
    kind: str                     # "anchor" or "separator"
    row_lo: int
    col_lo: int
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def row_hi(self) -> int:
        return self.row_lo + self.size - 1

    @property
    def col_hi(self) -> int:
        return self.col_lo + self.size - 1


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Anchor blocks and 1x1 separator blocks, as arrays ascending in rows
    and columns."""

    x: float
    anchor_rows: np.ndarray       # first row of each anchor block
    anchor_cols: np.ndarray       # first column of each anchor block
    anchors: np.ndarray           # (N, s, s) stack of the anchor blocks
    separator_rows: np.ndarray
    separator_cols: np.ndarray
    separators: np.ndarray        # (M,) entries of the 1x1 separator blocks
    discarded_rows: np.ndarray    # rows of [-extent, extent] in no block

    @property
    def n_blocks(self) -> int:
        return len(self.anchors) + len(self.separators)

    @functools.cached_property
    def blocks(self) -> list:
        """DecompBlock of every block, ascending in rows and columns; built
        when first read."""
        blocks = ([DecompBlock("anchor", n, m, mat) for n, m, mat in zip(
                      self.anchor_rows.tolist(), self.anchor_cols.tolist(),
                      self.anchors)]
                  + [DecompBlock("separator", n, m, entry) for n, m, entry in zip(
                      self.separator_rows.tolist(), self.separator_cols.tolist(),
                      self.separators.reshape(-1, 1, 1))])
        return sorted(blocks, key=lambda b: b.row_lo)

    @property
    def sigma_min(self) -> tuple:
        """(sigma, refused) over every block, as linalg.stack_sigma_min
        gives them for one stack: the smallest singular-value estimate, and
        None or (estimate, tolerance) of the block with the smallest
        estimate of those its margin refuses."""
        (a, a_refused), (s, s_refused) = (
            stack_sigma_min(self.anchors),
            stack_sigma_min(self.separators.reshape(-1, 1, 1)))
        refused = [r for r in (a_refused, s_refused) if r is not None]
        return min(a, s), min(refused, default=None)


@dataclass(frozen=True)
class FrameCertificate:
    verdict: str                  # "certified" or "not_certified"
    reason: Optional[str]
    hypothesis_report: dict
    interval_lo: Optional[float] = None
    interval_hi: Optional[float] = None
    delta: Optional[float] = None
    block_sigma_min: Optional[float] = None
    n_blocks: Optional[int] = None
    # the scan behind the verdict; None when a hypothesis failed first
    profile: Optional[DeterminantProfile] = field(default=None, compare=False,
                                                  repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


@dataclass(frozen=True, eq=False)
class RationalReport:
    p: int
    q: int
    zero_count: int
    certified_subinterval: Optional[tuple]
    denominator_threshold: float
    interval: tuple
    min_abs_det_period: float
    frame_supported: bool


def _chebyshev_nodes(edges: np.ndarray, k: int) -> np.ndarray:
    # (gaps, k) nodes, each a gap/1000 margin or more away from its breakpoints
    lo, hi = edges[:-1, None], edges[1:, None]
    margin = (hi - lo) / 1000.0
    a, b = lo + margin, hi - margin
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    j = np.arange(1, k + 1)
    return np.sort(mid + half * np.cos((2 * j - 1) * np.pi / (2 * k)), axis=1)


_ZERO_TOL = 1e-10           # rational_analysis: |det| below this is a zero
_PERIOD_OVERSAMPLE = 8      # rational_analysis: period grid points per alpha/q
_HOP_BOUND = 10_000         # _walk: rows tried per hop; an extent <= 9,999 ends it first


def _one_structure(params: LatticeParams, w: Window, x, ends) -> BlockSpec:
    """anchor_block at x, a float or a float array; raises ValueError where
    an x in ends (each of x's shape) has another anchor_m or size.  build_Mx
    and the scan's band read only these two, and both are monotone in x, in
    floating point too (x + m/beta is, and so is the size for a fixed
    anchor_m): equal values at two x hold for every x between."""
    spec = anchor_block(params, w, x)
    for end in ends:
        other = anchor_block(params, w, end)
        moved = np.flatnonzero((other.anchor_m != spec.anchor_m)
                               | (other.size != spec.size))
        if len(moved):
            lo, hi = (np.ravel(v)[moved[0]].item() for v in (x, end))
            raise ValueError(f"the anchor structure changes between x={lo!r} "
                             f"and x={hi!r}")
    return spec


def _log_abs_dets(params: LatticeParams, w: Window, gaps: list):
    """(anchor blocks of the gaps at their first x as arrays, log|det M_x|
    of every x in gap order) for sorted x arrays, one per breakpoint gap;
    the breakpoints are complete, so a structure change inside a gap is a bug.

    banded_log_abs_det factors the band |j - i| <= band_halfwidth of each
    block, entries evaluate(w, entry_args(...)) as in build_Mx."""
    spec = _one_structure(params, w, np.array([xs[0] for xs in gaps]),
                          [np.array([xs[-1] for xs in gaps])])
    counts = [len(xs) for xs in gaps]
    x = np.concatenate(gaps)
    first, size = np.repeat(spec.anchor_m, counts), np.repeat(spec.size, counts)
    k = min(band_halfwidth(params, w), int(spec.size.max()) - 1)

    def band(r, i):
        """Band rows r of the samples i, 0 outside each block: its slots
        take the argument NaN, where g is 0."""
        r = r[:, None, None]
        c = r - k + np.arange(2 * k + 1)[:, None]
        args = entry_args(params, x[i], r, first[i] + c)
        args[(c < 0) | (c >= size[i]) | (r >= size[i])] = np.nan
        return evaluate(w, args)

    return spec, banded_log_abs_det(band, k, size)


def scan_determinant(params: LatticeParams, w: Window,
                     samples_per_gap: int) -> DeterminantProfile:
    """log|det M_x| at Chebyshev nodes of every breakpoint gap in (0, alpha)."""
    if samples_per_gap < 1:
        raise ValueError(f"samples_per_gap must be >= 1, got {samples_per_gap}")
    _require_alpha_in_support(params, w)
    edges = structure_gaps(params, w)
    nodes = _chebyshev_nodes(edges, samples_per_gap)
    specs, log_abs_det = _log_abs_dets(params, w, nodes)
    gaps = np.repeat(np.arange(len(nodes)), samples_per_gap)
    return DeterminantProfile(nodes.ravel(), log_abs_det, gaps, edges,
                              params, w, specs)


def _runs(mask, groups=None) -> list:
    """(start, stop) of each maximal run of True in mask, also split wherever
    the group label changes."""
    change = mask[1:] != mask[:-1]
    if groups is not None:
        change |= groups[1:] != groups[:-1]
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(mask)]
    return [(i, j) for i, j in zip(bounds, bounds[1:]) if j > i and mask[i]]


def find_certified_interval(profile: DeterminantProfile,
                            delta_floor: float) -> Optional[CertifiedInterval]:
    """Widest run of >= 3 consecutive samples in one gap with |det| >= delta_floor."""
    absdet, xs = profile.abs_det, profile.x_samples
    runs = [(i, j) for i, j in _runs(absdet >= delta_floor, profile.gap_index)
            if j - i >= 3]
    if not runs:
        return None
    i, j = max(runs, key=lambda r: xs[r[1] - 1] - xs[r[0]])
    return CertifiedInterval(float(xs[i]), float(xs[j - 1]),
                             float(np.min(absdet[i:j])))


def _walk(land: list, glue, size: int, extent: int, step: int, edge: tuple):
    """(row, column) of each anchor block placed past edge, outward: below
    and to the right for step +1, above and to the left for step -1.  Each
    hop takes the first landing (row, column) of land, nearest first, that
    glue accepts; it raises HopNotFound when _HOP_BOUND rows past the last
    block hold none and row step*extent is further still, else it ends."""
    placed = []
    far = (size - 1) * (step > 0)     # the block's last row along the walk
    for n, m in land:
        if step * (n - edge[0] - far) > _HOP_BOUND:
            break
        upper, lower = (edge, (n, m))[::step]
        if glue(upper[0] + size - 1, upper[1] + size - 1, *lower):
            placed.append(edge := (n, m))
    if extent - step * (edge[0] + far) < _HOP_BOUND:
        return placed
    direction = "forward" if step > 0 else "backward"
    raise HopNotFound(f"no {direction} landing in the interval within hop_bound")


def build_block_decomposition(params: LatticeParams, w: Window, x: float,
                              extent: int, interval: tuple) -> BlockDecomposition:
    """Replay the glueing argument: anchor blocks landing in the certified
    interval, joined by separator rows, covering rows [-extent, extent].

    The interval's ends must share anchor_m and size; both are monotone in
    x, so x and every landing x - alpha*n + m/beta inside have them too.  Rows
    between consecutive blocks that are neither block rows nor separator
    rows are discarded (removing rows only weakens the lower bound, never the
    verdict's validity).
    """
    lo, hi = interval
    if extent < 0:
        raise ValueError("extent must be >= 0")
    if not lo <= x <= hi:
        raise ValueError("x must lie in the certified interval")
    spec = _one_structure(params, w, x, interval)
    size, edge = spec.size, (0, spec.anchor_m)
    # the column where each row lands: one anchor_m on the interval makes it
    # shorter than 1/beta, so x - alpha*n + k/beta falls inside for one k at most
    rows = np.arange(-extent, extent + 1)
    start, stop = int_bounds(x - params.alpha * rows, params.inv_beta, lo, hi)
    hit = stop > start
    land = list(zip(rows[hit].tolist(), (start[hit] + spec.anchor_m).tolist()))
    # a column's separator row depends on x and the column alone
    ends = [spec.anchor_m, *(m for _, m in land)]
    first = min(ends)
    cols = np.arange(first, max(ends) + 1)
    sep_rows = separator_row(params, w, x, cols)
    # falls[i]: non-increasing steps among the separator rows of cols[:i+1]
    falls = np.cumsum(np.concatenate(([0], sep_rows[1:] <= sep_rows[:-1]))).tolist()
    rows_of = sep_rows.tolist()

    def glue(r0, c0, r1, c1):
        """Whether a block starting at row r1, column c1 lies below and right
        of one ending at row r0, column c0, with the separator rows of the
        columns between them rising strictly inside (r0, r1)."""
        i, j = c0 + 1 - first, c1 - 1 - first
        return r0 < r1 and c0 < c1 and (i > j or (
            r0 < rows_of[i] and rows_of[j] < r1 and falls[i] == falls[j]))

    forward, backward = [_walk([(n, m) for n, m in land[::step] if step * n > 0],
                               glue, size, extent, step, edge) for step in (1, -1)]
    anchor_rows, anchor_cols = np.array(backward[::-1] + [edge] + forward).T
    mats = build_Mx(params, w, BlockSpec(anchor_rows, anchor_cols, size, x))
    # every column between the first and the last anchor block that no
    # anchor block holds is a separator column
    span = np.arange(size)
    free = np.ones(anchor_cols[-1] + size - anchor_cols[0], dtype=bool)
    free[anchor_cols[:, None] + span - anchor_cols[0]] = False
    seps = np.flatnonzero(free) + (anchor_cols[0] - first)
    sep_rows, sep_cols = sep_rows[seps], seps + first
    # the outermost anchor blocks may reach past row -extent or extent
    used = np.concatenate(((anchor_rows[:, None] + span).ravel(), sep_rows))
    discarded = np.ones(len(rows), dtype=bool)
    discarded[used[np.abs(used) <= extent] + extent] = False
    return BlockDecomposition(x, anchor_rows, anchor_cols, mats, sep_rows, sep_cols,
                              evaluate(w, entry_args(params, x, sep_rows, sep_cols)),
                              rows[discarded])


def assemble_composite(params: LatticeParams, w: Window,
                       decomp: BlockDecomposition) -> np.ndarray:
    """Square matrix over the decomposition's rows and contiguous column range.

    Block lower triangular by construction, so its determinant equals the
    product of the diagonal block determinants.
    """
    rows = np.array([n for b in decomp.blocks
                     for n in range(b.row_lo, b.row_hi + 1)])
    cols = np.arange(decomp.blocks[0].col_lo, decomp.blocks[-1].col_hi + 1)
    if len(rows) != len(cols):
        raise AssertionError("composite matrix is not square")
    return evaluate(w, entry_args(params, decomp.x, rows[:, None], cols[None, :]))


def _anchor_row_covered(params: LatticeParams, w: Window) -> bool:
    """True iff row 0 has a good column for every x in (0, alpha).

    x is bad exactly when (x - a) mod (1/beta) falls in [b-a, 1/beta); the
    anchor construction needs the bad set to miss (0, alpha) entirely.  The
    bad interval [b + k/beta, a + (k+1)/beta) can meet (0, alpha) only when
    b-a - 1/beta < b + k/beta < alpha.
    """
    a, b = w.support_lo, w.support_hi
    if params.inv_beta <= w.support_length:
        return True
    for k in range(*int_bounds(b, params.inv_beta, (b - a) - params.inv_beta,
                               params.alpha)):
        lo = max(0.0, b + k * params.inv_beta)
        hi = min(params.alpha, a + (k + 1) * params.inv_beta)
        if hi - lo > BREAKPOINT_TOL:     # narrower is no interval
            return False
    return True


def _hypothesis_report(params: LatticeParams, w: Window) -> dict:
    report = {
        "density_lt_one": params.subcritical,
        "irrational_class": not params.rational_class.is_rational,
        "alpha_lt_support": params.alpha < w.support_length,
        "anchor_row_covered": _anchor_row_covered(params, w),
        "sup_norm_finite": math.isfinite(sup_norm(w)),
    }
    report["inv_sup_finite"] = (
        report["density_lt_one"] and report["alpha_lt_support"]
        and math.isfinite(inv_sup_on_core(w, epsilon(params, w))))
    return report


#: density_lt_one's reason is LatticeParams.subcritical_reason
_REASONS = {
    "irrational_class": "rational density class",
    "alpha_lt_support": "support too short",
    "anchor_row_covered": "row 0 has no good pair on part of (0, alpha)",
    "sup_norm_finite": "window unbounded",
    "inv_sup_finite": "window vanishes on the shrunken core",
}


def certify_frame(params: LatticeParams, w: Window,
                  config: CertifyConfig = CertifyConfig()) -> FrameCertificate:
    """Full pipeline: hypotheses, determinant scan, interval, block bounds."""
    report = _hypothesis_report(params, w)
    for key, ok in report.items():
        if not ok:
            reason = (params.subcritical_reason if key == "density_lt_one"
                      else _REASONS[key])
            return FrameCertificate("not_certified", reason, report)
    try:
        profile = scan_determinant(params, w, config.samples_per_gap)
    except BudgetExceeded as exc:
        return FrameCertificate("not_certified", str(exc), report)
    found = find_certified_interval(profile, config.delta_floor)
    if found is None:
        return FrameCertificate("not_certified", "no determinant floor found",
                                report, profile=profile)
    mid = 0.5 * (found.lo + found.hi)
    try:
        decomp = build_block_decomposition(params, w, mid, config.extent,
                                           (found.lo, found.hi))
    except HopNotFound as exc:
        return FrameCertificate("not_certified", str(exc), report,
                                interval_lo=found.lo, interval_hi=found.hi,
                                delta=found.delta, profile=profile)
    sigma, refused = decomp.sigma_min
    verdict, reason = "certified", None
    if refused is not None:
        verdict, sigma = "not_certified", None
        reason = ("block singular to working precision: sigma {!r} against "
                  "tolerance {!r}".format(*refused))
    return FrameCertificate(verdict, reason, report,
                            interval_lo=found.lo, interval_hi=found.hi,
                            delta=found.delta, block_sigma_min=sigma,
                            n_blocks=decomp.n_blocks, profile=profile)


def forbidden_ratios(params: LatticeParams, w: Window) -> list:
    """Farey fractions m/n in (0, 1) with n up to the anchor-block size bound.

    These are the densities at which distinct matrix arguments collide."""
    order = size_bound(params, w)
    return sorted(Fraction(m, n) for n in range(2, order + 1)
                  for m in range(1, n) if math.gcd(m, n) == 1)


def _farey_neighbours(x: Fraction, order: int) -> tuple:
    """The largest fraction <= x and the smallest >= x with denominator up
    to order, in either order, from x's continued fraction as in
    Fraction.limit_denominator: its last convergent p1/q1 within the order
    and the semiconvergent on the other side of x are neighbours in the
    Farey sequence F_order."""
    if x.denominator <= order:
        return x, x
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x.numerator, x.denominator
    while q0 + (a := n // d) * q1 <= order:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    t = (order - q0) // q1
    return Fraction(p0 + t * p1, q0 + t * q1), Fraction(p1, q1)


def _forbidden_separation(params: LatticeParams, w: Window) -> float:
    """min |alpha*beta - float(r)| over forbidden_ratios(params, w), bit for
    bit, without the list.  float() and the subtraction round monotonically,
    so on each side of alpha*beta the nearest fraction of the list is the
    nearest in float too: its Farey neighbour in F_order, with alpha*beta
    first clamped to the list's ends 1/order and (order-1)/order."""
    order, d = size_bound(params, w), params.density
    x = min(max(Fraction(d), Fraction(1, order)), Fraction(order - 1, order))
    return min(abs(d - float(r)) for r in _farey_neighbours(x, order))


def rational_analysis(params: LatticeParams, w: Window, samples: int = 4096,
                      delta_floor: float = CertifyConfig.delta_floor,
                      delta_sep: float = 1e-3) -> RationalReport:
    """Zero-count and certified-subinterval analysis at rational density p/q;
    delta_sep <= 0 disables the forbidden-ratio separation guard."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rc = params.rational_class
    if not rc.is_rational:
        raise HypothesisViolated("rational_analysis requires a rational density class")
    if delta_sep > 0:
        sep = _forbidden_separation(params, w)
        if sep < delta_sep:
            raise TooCloseToForbiddenRatio(
                f"alpha*beta within {sep:.3g} of a forbidden ratio")

    edges = structure_gaps(params, w)
    gi = int(np.argmax(np.diff(edges)))
    j_lo, j_hi = float(edges[gi]), float(edges[gi + 1])
    margin = (j_hi - j_lo) / 1000.0
    xs = np.linspace(j_lo + margin, j_hi - margin, samples)
    absdet = _exp(_log_abs_dets(params, w, [xs])[1])

    below = absdet < _ZERO_TOL
    zero_count = len(_runs(below))
    runs = _runs(~below)
    sub = None
    if runs:
        i, j = max(runs, key=lambda r: r[1] - r[0])
        sub = (float(xs[i]), float(xs[j - 1]))

    threshold = (zero_count + 1) / (params.alpha * (j_hi - j_lo))

    step = params.alpha / (rc.q * _PERIOD_OVERSAMPLE)
    grid = off_breakpoints(edges, np.arange(0.5 * step, params.alpha, step))
    gaps = np.split(grid, np.searchsorted(grid, edges[1:-1]))
    period_min = _exp(_log_abs_dets(
        params, w, [part for part in gaps if len(part)])[1].min())
    # a zero inside J already rules out a uniform determinant floor, no matter
    # how coarsely the period grid happens to straddle it
    supported = period_min >= delta_floor and zero_count == 0
    return RationalReport(rc.p, rc.q, zero_count, sub, threshold,
                          (j_lo, j_hi), float(period_min), bool(supported))
