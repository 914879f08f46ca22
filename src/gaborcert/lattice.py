"""Good-pair combinatorics of the Ron-Shen matrix on a separable lattice.

A pair (n, m) is good at x when x - alpha*n + m/beta lands in the open
support interval of the window.  Everything here is arithmetic on those
inequalities: the margin epsilon, anchor blocks, separator rows, and the
finitely many combinatorial structures of the anchor block as x sweeps
(0, alpha).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import HypothesisViolated
from .window import Window, evaluate

__all__ = [
    "RationalClass",
    "LatticeParams",
    "classify_ratio",
    "BlockSpec",
    "entry_args",
    "is_good",
    "epsilon",
    "size_bound",
    "int_bounds",
    "anchor_block",
    "band_halfwidth",
    "build_Mx",
    "separator_row",
    "structure_fingerprint",
    "structure_breakpoints",
    "structure_gaps",
    "off_breakpoints",
]

RATIONAL_TOL = 1e-12
# With tol 1e-12, any cap much beyond 1e4 misclassifies quadratic irrationals:
# continued-fraction convergents of e.g. sqrt(2)/2 beat 1e-12 near q ~ 7e5.
DEFAULT_QMAX = 10 ** 4
BREAKPOINT_TOL = 1e-12


@dataclass(frozen=True)
class RationalClass:
    """Small-denominator rational classification of alpha*beta."""

    is_rational: bool
    p: Optional[int] = None
    q: Optional[int] = None

    def label(self) -> str:
        if self.is_rational:
            return f"rational({self.p}/{self.q})"
        return "irrational"


@dataclass(frozen=True)
class LatticeParams:
    """A lattice from valid numbers; alpha*beta >= 1 is a hypothesis the
    certificate reports (subcritical), not an input error."""

    alpha: float
    beta: float

    def __post_init__(self):
        alpha, beta = self.alpha, self.beta
        if not (alpha > 0 and beta > 0 and all(
                map(math.isfinite, (alpha, beta, 1.0 / beta, alpha * beta)))):
            raise ValueError(f"alpha and beta must be positive with alpha, beta, 1/beta "
                             f"and alpha*beta finite; got alpha={alpha!r}, beta={beta!r}")

    @property
    def density(self) -> float:
        return self.alpha * self.beta

    @functools.cached_property        # classify_ratio runs once per instance
    def rational_class(self) -> RationalClass:
        return classify_ratio(self.density)

    @property
    def inv_beta(self) -> float:
        return 1.0 / self.beta

    @property
    def subcritical(self) -> bool:
        """alpha*beta < 1 in both float forms read here, the density and the
        anchor diagonal's step 1/beta - alpha: alpha = fl(1/beta) can give
        alpha*beta < 1 with 1/beta - alpha exactly 0."""
        return self.density < 1.0 and self.inv_beta - self.alpha > 0

    @property
    def subcritical_reason(self) -> str:
        """What subcritical requires, with the two numbers it reads."""
        return (f"requires alpha*beta < 1 and 1/beta - alpha > 0, got "
                f"{self.density} and {self.inv_beta - self.alpha}")


def classify_ratio(value: float) -> RationalClass:
    """Classify a float as a small-denominator rational or operationally irrational.

    Every float is rational; what the certification needs is the absence of a
    fraction within RATIONAL_TOL with denominator <= DEFAULT_QMAX, found by
    continued-fraction best approximation (Fraction.limit_denominator).
    """
    frac = Fraction(value).limit_denominator(DEFAULT_QMAX)
    if abs(value - float(frac)) < RATIONAL_TOL:
        return RationalClass(True, frac.numerator, frac.denominator)
    return RationalClass(False)


@dataclass(frozen=True)
class BlockSpec:
    """Square anchor submatrix: rows anchor_n..anchor_n+size-1, columns likewise."""

    anchor_n: int                 # or, with anchor_m, an array of blocks
    anchor_m: int
    size: int                     # an array only from anchor_block of an array x
    x_value: float                # or an array of x sharing the structure


def entry_args(params: LatticeParams, x, n, m):
    """x - alpha*n + m/beta, the argument of entry (n, m), broadcast over
    arrays; every matrix entry and good-pair test reads this expression."""
    return np.asarray(x) - params.alpha * np.asarray(n) + np.asarray(m) * params.inv_beta


def is_good(params: LatticeParams, w: Window, x, n, m):
    """True iff x - alpha*n + m/beta lies in the open support interval."""
    arg = entry_args(params, x, n, m)
    out = (arg > w.support_lo) & (arg < w.support_hi)
    if np.ndim(out) == 0:
        return bool(out)
    return out


def _require_subcritical(params: LatticeParams) -> None:
    if not params.subcritical:
        raise HypothesisViolated(params.subcritical_reason)


def _require_alpha_in_support(params: LatticeParams, w: Window) -> None:
    if params.alpha >= w.support_length:
        raise HypothesisViolated(f"requires alpha < support length, got alpha = "
                                 f"{params.alpha} and support length {w.support_length}")


def epsilon(params: LatticeParams, w: Window) -> float:
    """Margin (1/2) min(b-a-alpha, alpha, 1/beta-alpha)."""
    a, b = w.support_lo, w.support_hi
    _require_alpha_in_support(params, w)
    _require_subcritical(params)
    return 0.5 * min(b - a - params.alpha, params.alpha,
                     params.inv_beta - params.alpha)


def size_bound(params: LatticeParams, w: Window) -> int:
    """Uniform bound on the anchor-block size: ceil((b-a)/(1/beta-alpha)) + 1."""
    _require_subcritical(params)
    return int(math.ceil(w.support_length / (params.inv_beta - params.alpha))) + 1


# int_bounds' (as_float, floor, ceil, any) by the base's type: Python's for a
# Python or numpy scalar (Python ints out, no numpy call), else numpy's
_SCALAR_OPS = (float, math.floor, math.ceil, bool)
_ARRAY_OPS = (functools.partial(np.asarray, dtype=float),
              lambda v: np.floor(v).astype(np.int64),
              lambda v: np.ceil(v).astype(np.int64), np.any)


def _ops(base) -> tuple:
    return _SCALAR_OPS if isinstance(base, (int, float, np.number)) else _ARRAY_OPS


def int_bounds(base, step: float, lo: float, hi: float):
    """(start, stop): the integers k with lo < base + k*step < hi are
    start <= k < stop, for either sign of step.

    base + k*step is monotone in k in floating point too, so the solutions
    form a range; the floor/ceil estimate is corrected in both directions
    against that exact expression.  Even when the range is empty, start is
    the first k past the entry bound (lo for step > 0, hi for step < 0) and
    stop - 1 the last k before the exit bound.  A scalar base gives Python
    ints, any other base (an array, a list) int arrays of its shape.
    """
    as_float, floor, ceil, any_ = _ops(base)
    base = as_float(base)
    if step < 0:
        # rounding is odd-symmetric: -(base + k*step) == -base + k*(-step)
        base, step, lo, hi = -base, -step, -hi, -lo
    k_lo = floor((lo - base) / step) + 1
    while any_(low := base + k_lo * step <= lo):
        k_lo += low
    while any_(high := base + (k_lo - 1) * step > lo):
        k_lo -= high
    k_hi = ceil((hi - base) / step) - 1
    while any_(high := base + k_hi * step >= hi):
        k_hi -= high
    while any_(low := base + (k_hi + 1) * step < hi):
        k_hi += low
    return k_lo, k_hi + 1


def anchor_block(params: LatticeParams, w: Window, x) -> BlockSpec:
    """Anchor block at row 0: first good column m and maximal diagonal run.

    size-1 is the largest l >= 0 with x + m/beta + l*(1/beta-alpha) < b;
    l = 0 is the float expression that int_bounds has just accepted for m.
    An array x gives the block at each x: anchor_m and size are int arrays
    of its shape.
    """
    a, b = w.support_lo, w.support_hi
    inv_beta = params.inv_beta
    m, stop = int_bounds(x, inv_beta, a, b)
    if _ops(x)[3](bad := stop <= m):       # any, with no numpy call for a scalar x
        raise HypothesisViolated(f"row 0 has no good pair at x={np.asarray(x)[bad][0]}")
    size = int_bounds(x + m * inv_beta, inv_beta - params.alpha, a, b)[1]
    return BlockSpec(0, m, size, x)


def band_halfwidth(params: LatticeParams, w: Window) -> int:
    """k with every good entry (i, j) of every anchor block in |j - i| <= k.

    Each diagonal entry is a good pair, and entries (i, i) and (i, j) of a
    row have arguments (j - i)/beta apart, both inside (a, b): so
    |j - i| < beta*(b - a).  k is the floor of beta*(b - a) widened by the
    relative BREAKPOINT_TOL, so a pair whose rounded arguments pass that
    bound by a few ulps stays inside the band too.
    """
    return math.floor(params.beta * w.support_length * (1.0 + BREAKPOINT_TOL))


def build_Mx(params: LatticeParams, w: Window, spec: BlockSpec) -> np.ndarray:
    """size x size matrix with entry (i, j) = g(x - alpha(n0+i) + (m0+j)/beta).

    Array x_value, anchor_n or anchor_m of a common shape S give the stack of
    shape S + (size, size).  Non-good entries are exactly 0 because the
    window vanishes identically outside its open support.
    """
    idx = np.arange(spec.size)
    return evaluate(w, entry_args(
        params, np.asarray(spec.x_value)[..., None, None],
        np.asarray(spec.anchor_n)[..., None, None] + idx[:, None],
        np.asarray(spec.anchor_m)[..., None, None] + idx))


def separator_row(params: LatticeParams, w: Window, x: float, m):
    """Row n whose last good column is m, with argument in [a+eps, b-eps].

    Takes the minimal good n for column m and shifts down by one row when the
    argument is too close to b, for eps = epsilon(params, w).  An integer
    array m gives the row of every column as an array.
    """
    a, b = w.support_lo, w.support_hi
    eps = epsilon(params, w)
    base = x + m * params.inv_beta
    n = int_bounds(base, -params.alpha, a, b)[0]
    return n + (base - params.alpha * n > b - eps)


def structure_fingerprint(params: LatticeParams, w: Window, spec: BlockSpec):
    """(size, starts, stops): row i of block spec is good in its columns
    starts[i] <= j < stops[i], none at (0, 0).  int_bounds reads entry_args'
    float expression, monotone in m: equal fingerprints iff equal masks."""
    base = spec.x_value - params.alpha * (spec.anchor_n + np.arange(spec.size))
    bounds = np.subtract(int_bounds(base, params.inv_beta, w.support_lo, w.support_hi),
                         spec.anchor_m).clip(0, spec.size)
    bounds *= bounds[0] < bounds[1]
    return spec.size, *map(tuple, bounds.tolist())


def structure_breakpoints(params: LatticeParams, w: Window) -> np.ndarray:
    """All x in (0, alpha) where some relevant pair's argument crosses a or b.

    Candidates are x = c + alpha*n - m/beta for c in {a, b}, rows n within
    [-2, size_bound+2] (the rows that can intersect the anchor structure),
    and the finitely many m putting x inside (0, alpha): the x-range pins m.
    A candidate within BREAKPOINT_TOL of a kept point, 0 and alpha included,
    is that point: x = b + alpha - 1/beta may round to just below alpha.
    """
    alpha = params.alpha
    rows = np.arange(-2, size_bound(params, w) + 3)
    bases = ((w.support_lo, w.support_hi) + alpha * rows[:, None]).ravel()
    start, stop = int_bounds(bases, -params.inv_beta, 0.0, alpha)
    # the candidates' base and m, base by base: m runs start..stop-1
    of = np.repeat(np.arange(len(bases)), stop - start)
    m = np.arange(len(of)) - (np.cumsum(stop - start) - stop)[of]
    xs = np.sort(bases[of] - m * params.inv_beta)
    out = [0.0]
    for xval in xs.tolist():
        if xval - out[-1] > BREAKPOINT_TOL and alpha - xval > BREAKPOINT_TOL:
            out.append(xval)
    return np.array(out[1:])


def structure_gaps(params: LatticeParams, w: Window) -> np.ndarray:
    """Edges [0, *structure_breakpoints, alpha] of (0, alpha): gap i is
    (edges[i], edges[i+1]), wider than BREAKPOINT_TOL unless alpha is not."""
    return np.concatenate(([0.0], structure_breakpoints(params, w),
                           [params.alpha]))


def off_breakpoints(edges: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """xs, each sample within 1e-9 times the narrowest gap of the edges (of
    structure_gaps) moved up by that much, a rule no dilation changes.  The
    edges are a gap apart: only the two around a sample can be near it."""
    nudge = 1e-9 * np.min(np.diff(edges))
    i = np.searchsorted(edges, xs).clip(1, len(edges) - 1)
    near = np.minimum(np.abs(xs - edges[i - 1]), np.abs(xs - edges[i]))
    return np.where(near < nudge, xs + nudge, xs)
