"""Compactly supported window functions and their diagnostics.

A window is a complex-valued function on the real line that vanishes
identically outside an open interval (support_lo, support_hi).  The closed
forms shipped here are the standard smooth bumps used throughout the
certification pipeline; arbitrary windows enter as sampled grids.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._workers import trapezoid_rows
from .errors import DegenerateFit, EmptyCore

__all__ = [
    "Window",
    "bump",
    "gevrey",
    "characteristic",
    "odd_bump",
    "poly_bump",
    "sampled",
    "evaluate",
    "sup_norm",
    "inv_sup_on_core",
    "fourier_transform",
    "fourier_decay_fit",
    "sampled_to_csv",
    "sampled_from_csv",
]

FOURIER_QUAD_NODES = 2 ** 14


@dataclass(frozen=True, eq=False)
class Window:
    """Immutable description of a compactly supported window.

    ``kind`` keys the inside-support formula in ``_FORMULAS``; kind-specific
    payload lives in ``order`` (gevrey) or ``grid_x``/``grid_vals`` (sampled).
    """

    support_lo: float
    support_hi: float
    kind: str
    order: Optional[int] = None
    grid_x: Optional[np.ndarray] = None
    grid_vals: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValueError(f"unknown window kind {self.kind!r}")
        is_gevrey, is_sampled = self.kind == "gevrey", self.kind == "sampled"
        if (self.order is None) == is_gevrey:
            raise ValueError(f"gevrey, and no other kind, takes an order; got kind "
                             f"{self.kind!r} with order {self.order!r}")
        if (self.grid_x is None) == is_sampled or (self.grid_vals is None) == is_sampled:
            raise ValueError(f"sampled, and no other kind, takes grid_x and "
                             f"grid_vals; got kind {self.kind!r}")
        if is_gevrey and self.order < 1:
            raise ValueError("order must be a positive integer")
        if is_sampled:
            xs, vals = self.grid_x, self.grid_vals
            if np.ndim(xs) != 1 or np.shape(xs) != np.shape(vals) or len(xs) < 2:
                raise ValueError("grid_x and grid_vals must be 1-d arrays of equal "
                                 "length, 2 or more")
            if not (np.isfinite(xs).all() and np.isfinite(vals).all()):
                raise ValueError("grid_x and grid_vals must be finite")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("grid_x must be strictly increasing")
            if (self.support_lo, self.support_hi) != (xs[0], xs[-1]):
                raise ValueError("a sampled window's support must be its grid hull")
        if not (math.isfinite(self.support_lo) and math.isfinite(self.support_hi)):
            raise ValueError(f"support ({self.support_lo}, {self.support_hi}) "
                             "must be finite")
        if not self.support_lo < self.support_hi:
            raise ValueError("support_lo must be < support_hi")

    @property
    def support_length(self) -> float:
        return self.support_hi - self.support_lo

    @functools.cached_property
    def is_real(self) -> bool:
        """A closed form, or a sampled grid with no imaginary part."""
        return self.grid_vals is None or not self.grid_vals.imag.any()

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "support_lo": self.support_lo,
             "support_hi": self.support_hi}
        if self.order is not None:
            d["order"] = self.order
        if self.grid_x is not None:
            d["grid_n"] = int(len(self.grid_x))
        return d


def bump() -> Window:
    """exp(1/(x^4-1)) on (-1, 1); peak value exp(-1) at the origin."""
    return Window(-1.0, 1.0, "bump")


def gevrey(order: int) -> Window:
    """exp(-(1-x^4)^(-order)) on (-1, 1), with stretched-exponential Fourier decay."""
    return Window(-1.0, 1.0, "gevrey", order=order)


def characteristic(lo: float = 0.0, hi: float = 1.0) -> Window:
    """Indicator of the open interval (lo, hi)."""
    return Window(lo, hi, "characteristic")


def odd_bump() -> Window:
    """x * exp(1/(x^2-1)) on (-1, 1); odd, vanishes at the origin."""
    return Window(-1.0, 1.0, "odd_bump")


def poly_bump(lo: float = 0.0, hi: float = 1.0) -> Window:
    """(x-lo)(hi-x) on (lo, hi)."""
    return Window(lo, hi, "poly_bump")


def sampled(grid_x, grid_vals) -> Window:
    """Window given by linear interpolation between strictly increasing nodes.

    Nodes and values must be finite.  The support is the open grid hull, and
    evaluation is 0 outside it.
    """
    xs = np.asarray(grid_x, dtype=float)
    # the grid's ends, which Window checks, with no index into an empty grid
    return Window(float(xs.min(initial=math.inf)), float(xs.max(initial=-math.inf)),
                  "sampled", grid_x=xs, grid_vals=np.asarray(grid_vals, dtype=complex))


def _interp(w: Window, x):
    # the support is the grid hull, so every point inside lies between nodes
    re = np.interp(x, w.grid_x, w.grid_vals.real)
    return re if w.is_real else re + 1j * np.interp(x, w.grid_x, w.grid_vals.imag)


#: each kind's values at points strictly inside its open support, real
#: exactly when Window.is_real.  The even kinds read |x|: numpy's power takes
#: a slow per-element path for a negative base (about 150 against 5 ns an
#: element at x ** 4, numpy 2.4.6 on an AVX-512 Xeon) whose last bits can
#: differ, so g(-x) is g(|x|) bit for bit
_FORMULAS = {
    "bump": lambda w, x: np.exp(1.0 / (np.abs(x) ** 4 - 1.0)),
    # the power overflows near the support ends, where g is 0 all the same
    "gevrey": np.errstate(over="ignore")(
        lambda w, x: np.exp(-((1.0 - np.abs(x) ** 4) ** (-float(w.order))))),
    "characteristic": lambda w, x: np.ones_like(x),
    "odd_bump": lambda w, x: x * np.exp(1.0 / (x ** 2 - 1.0)),
    "poly_bump": lambda w, x: (x - w.support_lo) * (w.support_hi - x),
    "sampled": _interp,
}


#: sup |g| of each kind, poly_bump's as w2 * w2 (w2 ** 2 can differ in the last bit)
_SUP_NORMS = {
    "bump": lambda w: math.exp(-1.0),
    "gevrey": lambda w: math.exp(-1.0),
    "characteristic": lambda w: 1.0,
    # grid value, 2e-7 below the true sup; framebounds' references pin rowsum_bound
    "odd_bump": lambda w: float(np.max(np.abs(evaluate(
        w, np.linspace(w.support_lo, w.support_hi, 4096))))),
    "poly_bump": lambda w: (w.support_length / 2.0) * (w.support_length / 2.0),
    "sampled": lambda w: float(np.max(np.abs(w.grid_vals))),
}


@np.errstate(divide="ignore", invalid="ignore")
def _sampled_log_min(w: Window, lo: float, hi: float) -> float:
    # |g| is convex on each segment of the clipped polyline: with the foot of 0
    # inside a segment, the distance is the cross product, exactly 0 through 0
    v = evaluate(w, np.clip(w.grid_x, lo, hi))
    p, length = v[:-1], np.abs(np.diff(v))
    u = np.diff(v) / length                 # nan on a zero-length segment
    foot = -(u.real * p.real + u.imag * p.imag)
    cross = np.abs(u.real * p.imag - u.imag * p.real)   # products rounded, not fused
    dist = np.where((foot > 0) & (foot < length), cross, np.abs(p))
    return float(np.log(min(np.min(dist), abs(v[-1]))))


#: log min |g| on a core [lo, hi] inside the open support, -inf exactly where
#: g vanishes there: bump and gevrey fall as |x| grows, poly_bump is concave,
#: the odd bump rises, then falls.  Gevrey's log passes the largest double at
#: orders above 20 and rounds toward zero to its negative: g has no zero inside
_CORE_LOG_MIN = {
    "bump": lambda w, lo, hi: 1.0 / (max(-lo, hi) ** 4 - 1.0),
    "gevrey": np.errstate(over="ignore")(lambda w, lo, hi: max(
        -(1.0 - np.float64(max(-lo, hi)) ** 4) ** -w.order, -np.finfo(float).max)),
    "characteristic": lambda w, lo, hi: 0.0,
    "odd_bump": lambda w, lo, hi: -math.inf if lo <= 0.0 <= hi else min(
        math.log(t) + 1.0 / (t ** 2 - 1.0) for t in (abs(lo), abs(hi))),
    "poly_bump": lambda w, lo, hi: min(
        math.log(x - w.support_lo) + math.log(w.support_hi - x) for x in (lo, hi)),
    "sampled": _sampled_log_min,
}


def evaluate(w: Window, x):
    """g at x: float64 when w.is_real, complex otherwise, and exactly 0
    outside the open support interval (and at NaN).  A scalar x gives a
    Python float or complex."""
    arr = np.asarray(x, dtype=float)
    inside = (arr > w.support_lo) & (arr < w.support_hi)
    out = np.zeros(arr.shape, dtype=float if w.is_real else complex)
    out[inside] = _FORMULAS[w.kind](w, arr[inside])
    return out.item() if out.ndim == 0 else out


def sup_norm(w: Window) -> float:
    """sup |g|, from the table _SUP_NORMS."""
    return _SUP_NORMS[w.kind](w)


def inv_sup_on_core(w: Window, eps: float) -> float:
    """ln max 1/|g| on the core [lo+eps, hi-eps] from _CORE_LOG_MIN, inf where g
    vanishes there or the core rounds onto a support end; EmptyCore if empty."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = w.support_lo + eps, w.support_hi - eps
    if lo >= hi:
        raise EmptyCore(f"[{lo}, {hi}] is empty")
    if lo == w.support_lo or hi == w.support_hi:
        return math.inf
    return -_CORE_LOG_MIN[w.kind](w, lo, hi)


def fourier_transform(w: Window, xi):
    """ghat(xi) = integral of g(x) exp(-2 pi i xi x) dx by composite trapezoid
    on FOURIER_QUAD_NODES points.

    The integrand is smooth and compactly supported, so trapezoid on the
    support converges rapidly.  _workers.trapezoid_rows takes the frequencies
    in blocks of rows, with the same bits as np.trapezoid over one dense
    (xi, x) grid.  Each row is exp(-2j * np.pi * np.outer(xi, xs)) * gx, one
    ufunc at a time with the same operands in order; gx is cast to complex
    once, as numpy would cast it in every block.
    """
    xi_arr = np.asarray(xi, dtype=float).ravel()
    xs = np.linspace(w.support_lo, w.support_hi, FOURIER_QUAD_NODES)
    gx = np.asarray(evaluate(w, xs), dtype=complex)

    def fill(lo, hi, Y):
        np.outer(xi_arr[lo:hi], xs, out=Y.real)
        Y.imag = 0.0
        np.multiply(-2j * np.pi, Y, out=Y)
        np.exp(Y, out=Y)
        np.multiply(Y, gx, out=Y)
        return len(xs)

    vals = trapezoid_rows(fill, len(xi_arr), np.diff(xs))
    if np.ndim(xi) == 0:
        return complex(vals[0])
    return vals


def fourier_decay_fit(w: Window, xi_max: float, n_xi: int) -> tuple[float, float]:
    """Fit |ghat(xi)| ~ c * exp(-xi^s) on [1, xi_max]; returns (s_hat, c_hat).

    Only frequencies with |ghat| > 1e-12 enter the fit; fewer than 8 usable
    points raises DegenerateFit.
    """
    from scipy.optimize import least_squares   # here, so other commands skip it

    if not xi_max > 1.0:
        raise ValueError(f"xi_max must be > 1, got {xi_max}")
    if not math.isfinite(xi_max):
        raise ValueError(f"xi_max must be finite, got {xi_max}")
    if n_xi < 8:
        raise ValueError(f"n_xi must be >= 8, the fewest frequencies a fit "
                         f"takes, got {n_xi}")
    xis = np.linspace(1.0, xi_max, n_xi)
    mags = np.abs(fourier_transform(w, xis))
    usable = mags > 1e-12
    if np.count_nonzero(usable) < 8:
        raise DegenerateFit("fewer than 8 usable frequencies")
    xi_u, log_mag = xis[usable], np.log(mags[usable])

    def residual(p):
        log_c, s = p
        return (log_c - xi_u ** s) - log_mag

    fit = least_squares(residual, x0=[0.0, 0.5],
                        bounds=([-np.inf, 1e-6], [np.inf, 2.0]))
    log_c, s_hat = fit.x
    return float(s_hat), float(math.exp(log_c))


def sampled_to_csv(w: Window) -> str:
    """CSV text of a sampled window: rows `x,re,im` with strictly increasing
    x and csv's CRLF line ends."""
    if w.grid_x is None:
        raise ValueError("only sampled windows serialize to CSV")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "re", "im"])
    for x, v in zip(w.grid_x, w.grid_vals):
        writer.writerow([format(x, ".17g"), format(v.real, ".17g"),
                         format(v.imag, ".17g")])
    return buf.getvalue()


def sampled_from_csv(path) -> Window:
    """Read the CSV of sampled_to_csv; a malformed row raises ValueError
    naming the file and line, and a grid that makes no sampled window one
    naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "re", "im"]:
            raise ValueError(f"{path}:1: expected header x,re,im; got "
                             f"{'an empty file' if header is None else header}")
        xs, vals = [], []
        for row in reader:
            try:
                x, real, imag = map(float, row)   # a short row fails to unpack
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
            xs.append(x)
            vals.append(complex(real, imag))
    try:
        return sampled(np.array(xs), np.array(vals))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
