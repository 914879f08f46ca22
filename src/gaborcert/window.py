"""Compactly supported window functions and their diagnostics.

A window is a complex-valued function on the real line that vanishes
identically outside an open interval (support_lo, support_hi).  The closed
forms shipped here are the standard smooth bumps used throughout the
certification pipeline; arbitrary windows enter as sampled grids.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

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

#: frequencies per block of fourier_transform: about 4 MiB per complex
#: array at the default 2^14 nodes
FOURIER_XI_BLOCK = 16
_SUP_GRID_N = 4096          # points of sup_norm's dense grid


@dataclass(frozen=True, eq=False)
class Window:
    """Immutable description of a compactly supported window.

    ``kind`` selects the evaluation rule; kind-specific payload lives in
    ``order`` (gevrey) or ``grid_x``/``grid_vals`` (sampled).
    """

    support_lo: float
    support_hi: float
    kind: str
    order: Optional[int] = None
    grid_x: Optional[np.ndarray] = None
    grid_vals: Optional[np.ndarray] = None
    sup_norm_hint: Optional[float] = None

    def __post_init__(self):
        if not self.support_lo < self.support_hi:
            raise ValueError("support_lo must be < support_hi")

    def __call__(self, x):
        return evaluate(self, x)

    @property
    def support_length(self) -> float:
        return self.support_hi - self.support_lo

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
    return Window(-1.0, 1.0, "bump", sup_norm_hint=math.exp(-1.0))


def gevrey(order: int) -> Window:
    """exp(-(1-x^4)^(-order)) on (-1, 1), with stretched-exponential Fourier decay."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return Window(-1.0, 1.0, "gevrey", order=order, sup_norm_hint=math.exp(-1.0))


def characteristic(lo: float = 0.0, hi: float = 1.0) -> Window:
    """Indicator of the open interval (lo, hi)."""
    return Window(lo, hi, "characteristic", sup_norm_hint=1.0)


def odd_bump() -> Window:
    """x * exp(1/(x^2-1)) on (-1, 1); odd, vanishes at the origin."""
    return Window(-1.0, 1.0, "odd_bump")


def poly_bump(lo: float = 0.0, hi: float = 1.0) -> Window:
    """(x-lo)(hi-x) on (lo, hi)."""
    w2 = (hi - lo) / 2.0
    return Window(lo, hi, "poly_bump", sup_norm_hint=w2 * w2)


def sampled(grid_x, grid_vals, support_lo: float | None = None,
            support_hi: float | None = None) -> Window:
    """Window given by linear interpolation between strictly increasing nodes.

    Nodes and values must be finite.  Evaluation is 0 outside the grid hull
    and outside the open support.
    """
    xs = np.asarray(grid_x, dtype=float)
    vals = np.asarray(grid_vals, dtype=complex)
    if xs.ndim != 1 or xs.shape != vals.shape:
        raise ValueError("grid_x and grid_vals must be 1-d arrays of equal length")
    if not (np.isfinite(xs).all() and np.isfinite(vals).all()):
        raise ValueError("grid_x and grid_vals must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid_x must be strictly increasing")
    lo = float(xs[0]) if support_lo is None else float(support_lo)
    hi = float(xs[-1]) if support_hi is None else float(support_hi)
    return Window(lo, hi, "sampled", grid_x=xs, grid_vals=vals)


def _eval_inside(w: Window, x: np.ndarray) -> np.ndarray:
    """Closed-form value on points guaranteed inside the open support."""
    if w.kind == "bump":
        return np.exp(1.0 / (x ** 4 - 1.0)).astype(complex)
    if w.kind == "gevrey":
        return np.exp(-((1.0 - x ** 4) ** (-float(w.order)))).astype(complex)
    if w.kind == "characteristic":
        return np.ones_like(x, dtype=complex)
    if w.kind == "odd_bump":
        return (x * np.exp(1.0 / (x ** 2 - 1.0))).astype(complex)
    if w.kind == "poly_bump":
        return ((x - w.support_lo) * (w.support_hi - x)).astype(complex)
    if w.grid_x is not None:
        inside_hull = (x >= w.grid_x[0]) & (x <= w.grid_x[-1])
        re = np.interp(x, w.grid_x, w.grid_vals.real)
        im = np.interp(x, w.grid_x, w.grid_vals.imag)
        out = re + 1j * im
        out[~inside_hull] = 0.0
        return out
    raise ValueError(f"unknown window kind {w.kind!r}")


def evaluate(w: Window, x):
    """Evaluate the window; exactly 0 outside the open support interval."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros(arr.shape, dtype=complex)
    inside = (arr > w.support_lo) & (arr < w.support_hi)
    if np.any(inside):
        out[inside] = _eval_inside(w, arr[inside])
    if scalar:
        return complex(out[0])
    return out


def sup_norm(w: Window) -> float:
    """sup |g|, from the cached hint when available, else a dense grid."""
    if w.sup_norm_hint is not None:
        return w.sup_norm_hint
    xs = np.linspace(w.support_lo, w.support_hi, _SUP_GRID_N)
    return float(np.max(np.abs(evaluate(w, xs))))


def inv_sup_on_core(w: Window, eps: float, grid_n: int = 4096) -> float:
    """max of 1/|g| over a uniform grid on [lo+eps, hi-eps].

    Returns math.inf if any sampled value vanishes.  Raises EmptyCore when
    the shrunken interval is empty.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = w.support_lo + eps, w.support_hi - eps
    if lo >= hi:
        raise EmptyCore(f"[{lo}, {hi}] is empty")
    xs = np.linspace(lo, hi, grid_n)
    mags = np.abs(evaluate(w, xs))
    if np.any(mags == 0.0):
        return math.inf
    # zoom on the argmin to catch interior zeros that fall between grid
    # nodes (e.g. an odd window whose zero is missed by an even grid count);
    # a zero makes the local minimum shrink with every zoom, while a positive
    # minimum (however tiny) stabilizes after a round or two
    zlo, zhi = xs[max(np.argmin(mags) - 1, 0)], xs[min(np.argmin(mags) + 1,
                                                      grid_n - 1)]
    for _ in range(60):
        zs = np.linspace(zlo, zhi, 33)
        zmags = np.abs(evaluate(w, zs))
        if np.min(zmags) == 0.0:
            return math.inf
        if np.min(zmags) >= 0.5 * np.max(zmags):   # positive minimum
            break
        i = int(np.argmin(zmags))
        zlo, zhi = zs[max(i - 1, 0)], zs[min(i + 1, 32)]
    else:
        return math.inf                   # never flattened out: an interior zero
    return float(np.max(1.0 / mags))


def fourier_transform(w: Window, xi, quad_nodes: int = FOURIER_QUAD_NODES):
    """ghat(xi) = integral of g(x) exp(-2 pi i xi x) dx by composite trapezoid.

    The integrand is smooth and compactly supported, so trapezoid on the
    support converges rapidly.  Frequencies go in blocks of FOURIER_XI_BLOCK
    rows; each row is the same elementwise expression and the same sum as in
    one dense (xi, x) grid, so blocking leaves every bit of the result.
    """
    xi_arr = np.asarray(xi, dtype=float).ravel()
    xs = np.linspace(w.support_lo, w.support_hi, quad_nodes)
    gx = evaluate(w, xs)
    vals = np.empty(len(xi_arr), dtype=complex)
    for i in range(0, len(xi_arr), FOURIER_XI_BLOCK):
        block = xi_arr[i:i + FOURIER_XI_BLOCK]
        phases = np.exp(-2j * np.pi * np.outer(block, xs))
        vals[i:i + len(block)] = np.trapezoid(phases * gx[None, :], xs, axis=1)
    if np.ndim(xi) == 0:
        return complex(vals[0])
    return vals


def fourier_decay_fit(w: Window, xi_max: float, n_xi: int,
                      quad_nodes: int = FOURIER_QUAD_NODES) -> tuple[float, float]:
    """Fit |ghat(xi)| ~ c * exp(-xi^s) on [1, xi_max]; returns (s_hat, c_hat).

    Only frequencies with |ghat| > 1e-12 enter the fit; fewer than 8 usable
    points raises DegenerateFit.
    """
    xis = np.linspace(1.0, xi_max, n_xi)
    mags = np.abs(fourier_transform(w, xis, quad_nodes=quad_nodes))
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
    naming the file and line."""
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
    return sampled(np.array(xs), np.array(vals))
