"""Random window synthesis from complex Brownian paths.

A path started at 1 is integrated against a smooth triangle-supported kernel
to produce a compactly supported window on (0, 1) that almost surely never
vanishes inside, feeding the certification pipeline with generic inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _workers
from .window import Window, evaluate, sampled

__all__ = [
    "BrownianPath",
    "sample_path",
    "triangle_kernel",
    "synthesize_window",
    "gaussian_moments",
    "verify_nonvanishing",
    "mc_path_integrals",
]

DEFAULT_DT = 2.0 ** -12
DEFAULT_QUADRATURE_N = 2048


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Complex path values on the uniform grid k*dt, values[0] = 1."""

    dt: float
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))


def _philox(seed: int, dt: float) -> tuple[np.random.Generator, int]:
    """The Philox stream keyed by seed and the step count n of the time grid
    k*dt, k = 0..n, once seed and time step dt pass: n*dt = 1 to within
    1e-12, so the grid's last node is t = 1, n >= 2, so a node lies inside
    (0, 1), and numpy can shape the (2, n) float64 increments, whose bytes
    must not exceed the largest intp."""
    n = round(1.0 / dt) if dt > 0 and math.isfinite(1.0 / dt) else 0
    if not (n >= 2 and abs(n * dt - 1.0) <= 1e-12):
        raise ValueError(f"dt must lie in (0, 1) with n*dt = 1 to within "
                         f"1e-12 for a whole number n >= 2, got {dt}")
    if 2 * n * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"dt must give a step count n whose (2, n) float64 "
                         f"increments numpy can shape, got dt = {dt}, "
                         f"n = {n:.17g}")
    if not 0 <= seed < 2 ** 128:       # Philox's key range
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed)), n


def _path_values(rng: np.random.Generator, n: int, scale: float,
                 paths: tuple = ()) -> np.ndarray:
    """Values at t = dt..n*dt of complex paths started at 1, shape paths + (n,),
    each component's increments normal with standard deviation scale.  Each
    path takes the next 2n normals of the stream, so the values do not depend
    on how many paths one call draws."""
    inc = rng.normal(scale=scale, size=(*paths, 2, n))
    return 1.0 + np.cumsum(inc[..., 0, :] + 1j * inc[..., 1, :], axis=-1)


def sample_path(seed: int, dt: float = DEFAULT_DT,
                component_var: float = 1.0) -> BrownianPath:
    """Counter-based (Philox) complex Brownian path on [0, 1]; bit-reproducible."""
    rng, n = _philox(seed, dt)
    if not (math.isfinite(component_var) and component_var >= 0):
        raise ValueError(f"component_var must be a non-negative finite "
                         f"number, got {component_var}")
    values = _path_values(rng, n, math.sqrt(component_var * dt))
    return BrownianPath(dt, np.concatenate(([1.0], values)))


def triangle_kernel(x, t):
    """h(x,t) = exp(-1/t - 1/(x-t) - 1/(1-x)) inside 0 < t < x < 1, else 0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # the exponent is evaluated everywhere; outside the triangle it may be
    # inf or nan, and np.where discards it
    with np.errstate(all="ignore"):
        inner = np.exp(-1.0 / t - 1.0 / (x - t) - 1.0 / (1.0 - x))
    return np.where((t > 0) & (t < x) & (x < 1), inner, 0.0)


def synthesize_window(path: BrownianPath,
                      quadrature_n: int = DEFAULT_QUADRATURE_N) -> Window:
    """g(x) = integral of B(t) h(x,t) dt, tabulated on quadrature_n >= 3
    uniform nodes of [0, 1]; g is 0 at both ends, so two nodes would tabulate
    the zero window.

    The kernel vanishes for t >= x, so trapezoid over the whole path grid up
    to time 1 equals the integral over [0, x].  _workers.trapezoid_rows takes
    the x rows in blocks, with the same bits as np.trapezoid over the dense
    (x, t) grid, without its 2048 x 4097 arrays.  A block evaluates the kernel
    only on the columns with t below its largest x, plus one column where the
    kernel is exactly 0, and writes kernel times path there.
    """
    if quadrature_n < 3:
        raise ValueError(f"quadrature_n must be >= 3, got {quadrature_n}: "
                         f"the window is 0 at both ends of [0, 1], so two "
                         f"nodes tabulate the zero window")
    times = path.times
    keep = times <= 1.0
    t = times[keep]
    B = path.values[keep]
    xs = np.linspace(0.0, 1.0, quadrature_n)

    def fill(lo, hi, Y):
        x = xs[lo:hi]
        c = min(int(np.searchsorted(t, x[-1])) + 1, len(t))
        # no complex cast of the kernel per thread; k + 0j times B, same bits
        Y.real[:, :c] = triangle_kernel(x[:, None], t[None, :c])
        Y.imag[:, :c] = 0.0
        Y[:, :c] *= B[:c]
        return c

    vals = _workers.trapezoid_rows(fill, len(xs), np.diff(t))
    vals[0] = 0.0
    vals[-1] = 0.0
    return sampled(xs, vals)


def gaussian_moments(u: np.ndarray, t: float, r: float) -> tuple[float, float]:
    """Mean and variance of int_0^t B(x) u(x) dx for a real path with B(0) = r.

    mean = r * int_0^t u; variance = int_0^t (int_0^rho u)^2 drho; both by
    composite trapezoid on the tabulation grid of u.
    """
    u = np.asarray(u, dtype=float)
    xs = np.linspace(0.0, t, len(u))
    mean = r * float(np.trapezoid(u, xs))
    cum = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (u[1:] + u[:-1]) / 2.0)))
    var = float(np.trapezoid(cum ** 2, xs))
    return mean, var


def verify_nonvanishing(w: Window) -> tuple[float, float]:
    """min |g| over a uniform 4096-point grid on [1/8, 7/8], and where."""
    xs = np.linspace(0.125, 0.875, 4096)
    mags = np.abs(evaluate(w, xs))
    i = int(np.argmin(mags))
    return float(mags[i]), float(xs[i])


def mc_path_integrals(n_paths: int, dt: float, seed: int) -> np.ndarray:
    """int_0^1 B(t) dt for n_paths independent complex paths started at 1,
    with unit variance per component and unit time.

    Path 0 is sample_path(seed, dt), and each further path takes the next
    2n normals of the same stream.  Chunks of paths hold at most
    _workers.BLOCK_BYTES at 64 bytes per path and time step (the real
    increments, their complex sum, its cumsum and the path), at least one
    path, and the chunk size moves no bit."""
    rng, n = _philox(seed, dt)
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    out = np.empty(n_paths, dtype=complex)
    chunk = max(1, _workers.BLOCK_BYTES // (64 * n))
    for done in range(0, n_paths, chunk):
        B = _path_values(rng, n, math.sqrt(dt), (min(chunk, n_paths - done),))
        # trapezoid over values [1, B_1, ..., B_n] with spacing dt
        out[done:done + len(B)] = dt * (0.5 * 1.0 + np.sum(B[:, :-1], axis=1)
                                        + 0.5 * B[:, -1])
        del B                       # free this chunk before drawing the next
    return out
