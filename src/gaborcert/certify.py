"""Determinant scans, certified intervals, and block decompositions.

The positive verdict rests on three computable facts: an interval I of x
values where |det M_x| stays above a floor delta, a block decomposition of
the row-reduced Ron-Shen matrix whose diagonal blocks all have positive
smallest singular value, and the hypothesis checklist (density, support
length, irrationality class, boundedness of g and 1/g on the core).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import HopNotFound, HypothesisViolated, TooCloseToForbiddenRatio
from .lattice import (BlockSpec, LatticeParams, anchor_block, build_Mx, epsilon,
                      int_range, separator_row, size_bound,
                      structure_breakpoints, structure_fingerprint)
from .linalg import svdvals_accurate
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
    hop_bound: int = 10_000
    delta_sep: float = 1e-3       # <= 0 disables the forbidden-ratio separation check

    def __post_init__(self):
        # a certified interval needs 3 samples in one gap, and a floor of 0
        # would accept the rounding noise of a singular determinant
        if self.samples_per_gap < 3:
            raise ValueError(f"samples_per_gap must be >= 3, "
                             f"got {self.samples_per_gap}")
        if not (math.isfinite(self.delta_floor) and self.delta_floor > 0):
            raise ValueError(f"delta_floor must be a positive finite number, "
                             f"got {self.delta_floor}")


@dataclass(frozen=True, eq=False)
class DeterminantProfile:
    """Sampled map x -> det(M_x) over the gaps between structure breakpoints."""

    x_samples: np.ndarray
    det_values: np.ndarray
    fingerprints: list            # one per gap, indexed by gap_index
    gap_index: np.ndarray
    breakpoints: np.ndarray

    @property
    def abs_det(self) -> np.ndarray:
        return np.abs(self.det_values)


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
    x: float
    extent: int
    blocks: list              # DecompBlock, ascending in rows and columns
    discarded_rows: list

    @property
    def sigma_min(self) -> float:
        return min(float(svdvals_accurate(b.matrix)[-1]) for b in self.blocks)


@dataclass(frozen=True)
class FrameCertificate:
    verdict: str                  # "certified" or "not_certified"
    reason: Optional[str]
    hypothesis_report: dict
    interval_lo: Optional[float] = None
    interval_hi: Optional[float] = None
    delta: Optional[float] = None
    block_sigma_min: Optional[float] = None
    extent: int = 0
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
    forbidden: list
    zero_count: int
    certified_subinterval: Optional[tuple]
    denominator_threshold: float
    interval: tuple
    min_abs_det_period: float
    frame_supported: bool


def _chebyshev_nodes(lo: float, hi: float, k: int) -> np.ndarray:
    # nodes pulled inward so samples stay a gap/1000 margin away from breakpoints
    margin = (hi - lo) / 1000.0
    a, b = lo + margin, hi - margin
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    j = np.arange(1, k + 1)
    return np.sort(mid + half * np.cos((2 * j - 1) * np.pi / (2 * k)))


# most matrix entries evaluated in one stack; a longer gap takes several
_BATCH_ENTRIES = 1 << 20
_ZERO_TOL = 1e-10           # rational_analysis: |det| below this is a zero
_PERIOD_OVERSAMPLE = 8      # rational_analysis: period grid points per alpha/q


def _one_structure(params: LatticeParams, w: Window, x: float, ends,
                   error: type) -> BlockSpec:
    """anchor_block at x; raises error when an x in ends has another anchor_m
    or size.  build_Mx reads only these two, and both are monotone in x, in
    floating point too (x + m/beta is, and so is the size for a fixed
    anchor_m): equal values at two x hold for every x between."""
    spec = anchor_block(params, w, x)
    for end in ends:
        other = anchor_block(params, w, end)
        if (other.anchor_m, other.size) != (spec.anchor_m, spec.size):
            raise error(f"the anchor structure changes between x={x!r} "
                        f"and x={end!r}")
    return spec


def _gap_dets(params: LatticeParams, w: Window, xs: np.ndarray):
    """(anchor block at xs[0], det(M_x) for each x) for sorted xs in one gap;
    the breakpoints are complete, so a structure change inside is a bug."""
    spec = _one_structure(params, w, xs[0], xs[-1:], AssertionError)
    step = max(1, _BATCH_ENTRIES // spec.size ** 2)
    dets = [np.linalg.det(build_Mx(params, w, BlockSpec(
                0, spec.anchor_m, spec.size, xs[i:i + step])))
            for i in range(0, len(xs), step)]
    return spec, np.concatenate(dets)


def scan_determinant(params: LatticeParams, w: Window,
                     samples_per_gap: int = CertifyConfig.samples_per_gap
                     ) -> DeterminantProfile:
    """Evaluate det(M_x) at Chebyshev nodes of every breakpoint gap in (0, alpha)."""
    if samples_per_gap < 1:
        raise ValueError(f"samples_per_gap must be >= 1, got {samples_per_gap}")
    if params.alpha >= w.support_length:
        raise HypothesisViolated("alpha must be < support length")
    bps = structure_breakpoints(params, w)
    edges = np.concatenate(([0.0], bps, [params.alpha]))
    xs, dets, fps = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes = _chebyshev_nodes(lo, hi, samples_per_gap)
        spec, gap_dets = _gap_dets(params, w, nodes)
        xs.append(nodes)
        dets.append(gap_dets)
        fps.append(structure_fingerprint(params, w, nodes[0], spec))
    gaps = np.repeat(np.arange(len(fps)), samples_per_gap)
    return DeterminantProfile(np.concatenate(xs),
                              np.concatenate(dets, dtype=complex), fps, gaps, bps)


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


def _separators(params: LatticeParams, w: Window, x: float, col_lo: int,
                col_hi: int, row_lo: int, row_hi: int, eps: float):
    """Separator blocks for columns col_lo..col_hi, rows constrained to (row_lo, row_hi).

    Returns None when the rows collide with the bounding rows or each other;
    the caller then rejects the hop candidate.  The rows are all checked
    before one evaluate call fills the 1x1 blocks.
    """
    cols = range(col_lo, col_hi + 1)
    rows, args = [], []
    prev_n = row_lo
    for m in cols:
        n, arg = separator_row(params, w, x, m, eps)
        if not (prev_n < n < row_hi):
            return None
        rows.append(n)
        args.append(arg)
        prev_n = n
    if not args:
        return []           # adjacent blocks: no evaluate call at all
    entries = evaluate(w, np.array(args)).reshape(-1, 1, 1)
    return [DecompBlock("separator", n, m, entry)
            for n, m, entry in zip(rows, cols, entries)]


def _hop(params: LatticeParams, w: Window, x: float, interval: tuple,
         spec: BlockSpec, extent: int, hop_bound: int, edge: DecompBlock,
         step: int, eps: float):
    """Next anchor block landing in the interval past edge, below and to the
    right for step +1, above and to the left for step -1, with the separators
    glueing the two; the blocks come in row order, all of spec's shape.

    Returns None once edge or the candidate rows reach past +-extent.
    """
    row = edge.row_hi if step > 0 else edge.row_lo
    if step * row >= extent:
        return None
    for nt in range(row + step, row + step * (hop_bound + 1), step):
        if step * nt > extent:
            return None
        base = x - params.alpha * nt
        for mt in int_range(base, params.inv_beta, *interval):
            col0 = mt + spec.anchor_m
            # last row and column of the upper block, first of the lower one
            if step > 0:
                r0, c0, r1, c1 = edge.row_hi, edge.col_hi, nt, col0
            else:
                r0, c0 = nt + spec.size - 1, col0 + spec.size - 1
                r1, c1 = edge.row_lo, edge.col_lo
            if r1 <= r0 or c1 <= c0:
                continue
            seps = _separators(params, w, x, c0 + 1, c1 - 1, r0, r1, eps)
            if seps is not None:
                mat = build_Mx(params, w, BlockSpec(nt, col0, spec.size, x))
                block = DecompBlock("anchor", nt, col0, mat)
                return seps + [block] if step > 0 else [block] + seps
    direction = "forward" if step > 0 else "backward"
    raise HopNotFound(f"no {direction} landing in the interval within hop_bound")


def build_block_decomposition(params: LatticeParams, w: Window, x: float,
                              extent: int, interval: tuple,
                              hop_bound: int = CertifyConfig.hop_bound
                              ) -> BlockDecomposition:
    """Replay the glueing argument: anchor blocks landing in the certified
    interval, joined by separator rows, covering rows [-extent, extent].

    The interval's ends must have x's anchor_m and size; both are monotone
    in x, so every landing x - alpha*n + m/beta inside has them too.  Rows
    between consecutive blocks that are neither block rows nor separator
    rows are discarded (removing rows only weakens the lower bound, never the
    verdict's validity).
    """
    lo, hi = interval
    if extent < 0:
        raise ValueError("extent must be >= 0")
    if not lo <= x <= hi:
        raise ValueError("x must lie in the certified interval")
    eps = epsilon(params, w)
    spec0 = _one_structure(params, w, x, interval, ValueError)
    blocks = [DecompBlock("anchor", 0, spec0.anchor_m, build_Mx(params, w, spec0))]
    for step in (1, -1):
        while hop := _hop(params, w, x, interval, spec0, extent, hop_bound,
                          blocks[-1] if step > 0 else blocks[0], step, eps):
            blocks = blocks + hop if step > 0 else hop + blocks

    used = {n for b in blocks for n in range(b.row_lo, b.row_hi + 1)}
    discarded = [n for n in range(-extent, extent + 1) if n not in used]
    return BlockDecomposition(x, extent, blocks, discarded)


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
    args = (decomp.x - params.alpha * rows[:, None]
            + cols[None, :] * params.inv_beta)
    return evaluate(w, args)


def _anchor_row_covered(params: LatticeParams, w: Window,
                        tol: float = 1e-12) -> bool:
    """True iff row 0 has a good column for every x in (0, alpha).

    x is bad exactly when (x - a) mod (1/beta) falls in [b-a, 1/beta); the
    anchor construction needs the bad set to miss (0, alpha) entirely.  The
    bad interval [b + k/beta, a + (k+1)/beta) can meet (0, alpha) only when
    b-a - 1/beta < b + k/beta < alpha.
    """
    a, b = w.support_lo, w.support_hi
    if params.inv_beta <= w.support_length:
        return True
    for k in int_range(b, params.inv_beta, (b - a) - params.inv_beta, params.alpha):
        lo = max(0.0, b + k * params.inv_beta)
        hi = min(params.alpha, a + (k + 1) * params.inv_beta)
        if hi - lo > tol:
            return False
    return True


def _hypothesis_report(params: LatticeParams, w: Window) -> dict:
    report = {
        "density_lt_one": params.density < 1.0,
        "irrational_class": not params.rational_class.is_rational,
        "alpha_lt_support": params.alpha < w.support_length,
        "anchor_row_covered": _anchor_row_covered(params, w),
        "sup_norm_finite": math.isfinite(sup_norm(w)),
    }
    if report["density_lt_one"] and report["alpha_lt_support"]:
        eps = epsilon(params, w)
        report["inv_sup_finite"] = math.isfinite(inv_sup_on_core(w, eps))
    else:
        report["inv_sup_finite"] = False
    return report


_REASONS = {
    "density_lt_one": "density alpha*beta >= 1",
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
            return FrameCertificate("not_certified", _REASONS[key], report,
                                    extent=config.extent)
    profile = scan_determinant(params, w, config.samples_per_gap)
    found = find_certified_interval(profile, config.delta_floor)
    if found is None:
        return FrameCertificate("not_certified", "no determinant floor found",
                                report, extent=config.extent, profile=profile)
    mid = 0.5 * (found.lo + found.hi)
    try:
        decomp = build_block_decomposition(params, w, mid, config.extent,
                                           (found.lo, found.hi),
                                           config.hop_bound)
    except HopNotFound as exc:
        return FrameCertificate("not_certified", str(exc), report,
                                interval_lo=found.lo, interval_hi=found.hi,
                                delta=found.delta, extent=config.extent,
                                profile=profile)
    sigma = decomp.sigma_min
    verdict = "certified" if sigma > 0.0 else "not_certified"
    reason = None if sigma > 0.0 else "singular block in the decomposition"
    return FrameCertificate(verdict, reason, report,
                            interval_lo=found.lo, interval_hi=found.hi,
                            delta=found.delta, block_sigma_min=sigma,
                            extent=config.extent, n_blocks=len(decomp.blocks),
                            profile=profile)


def forbidden_ratios(params: LatticeParams, w: Window,
                     order: Optional[int] = None) -> list:
    """Farey fractions m/n in (0, 1) with n up to the anchor-block size bound.

    These are the densities at which distinct matrix arguments collide."""
    if order is None:
        order = size_bound(params, w)
    out = {Fraction(m, n) for n in range(2, order + 1)
           for m in range(1, n) if math.gcd(m, n) == 1}
    return sorted(out)


def rational_analysis(params: LatticeParams, w: Window, samples: int = 4096,
                      config: CertifyConfig = CertifyConfig()) -> RationalReport:
    """Zero-count and certified-subinterval analysis at rational density p/q."""
    rc = params.rational_class
    if not rc.is_rational:
        raise HypothesisViolated("rational_analysis requires a rational density class")
    ratios = forbidden_ratios(params, w)
    if config.delta_sep > 0:
        sep = min(abs(params.density - float(r)) for r in ratios)
        if sep < config.delta_sep:
            raise TooCloseToForbiddenRatio(
                f"alpha*beta within {sep:.3g} of a forbidden ratio")

    bps = structure_breakpoints(params, w)
    edges = np.concatenate(([0.0], bps, [params.alpha]))
    widths = np.diff(edges)
    gi = int(np.argmax(widths))
    j_lo, j_hi = float(edges[gi]), float(edges[gi + 1])
    margin = (j_hi - j_lo) / 1000.0
    xs = np.linspace(j_lo + margin, j_hi - margin, samples)
    # abs of each numpy scalar, not np.abs: the vector loop rounds differently
    absdet = np.array([abs(d) for d in _gap_dets(params, w, xs)[1]])

    below = absdet < _ZERO_TOL
    zero_count = len(_runs(below))
    runs = _runs(~below)
    sub = None
    if runs:
        i, j = max(runs, key=lambda r: r[1] - r[0])
        sub = (float(xs[i]), float(xs[j - 1]))

    threshold = (zero_count + 1) / (params.alpha * (j_hi - j_lo))

    step = params.alpha / (rc.q * _PERIOD_OVERSAMPLE)
    grid = np.arange(0.5 * step, params.alpha, step)
    # nudge off breakpoints; the determinant map is only defined between them
    for bp in edges:
        close = np.abs(grid - bp) < 1e-9
        grid[close] += 1e-9
    gaps = np.split(grid, np.searchsorted(grid, edges[1:-1]))
    period_min = min(abs(d) for part in gaps if len(part)
                     for d in _gap_dets(params, w, part)[1])
    # a zero inside J already rules out a uniform determinant floor, no matter
    # how coarsely the period grid happens to straddle it
    supported = period_min >= config.delta_floor and zero_count == 0
    return RationalReport(rc.p, rc.q, ratios, zero_count, sub, threshold,
                          (j_lo, j_hi), float(period_min), bool(supported))
