"""Random window synthesis from complex Brownian paths.

A path started at 1 is integrated against a smooth triangle-supported kernel
to produce a compactly supported window on (0, 1) that almost surely never
vanishes inside, feeding the certification pipeline with generic inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .window import Window, evaluate, sampled

__all__ = [
    "BrownianPath",
    "KernelConfig",
    "sample_path",
    "constant_path",
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
    seed: int
    component_var: float = 1.0

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))


@dataclass(frozen=True)
class KernelConfig:
    quadrature_n: int = DEFAULT_QUADRATURE_N


def sample_path(seed: int, dt: float = DEFAULT_DT, horizon: float = 1.0,
                component_var: float = 1.0) -> BrownianPath:
    """Counter-based (Philox) complex Brownian path, bit-reproducible per seed."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 1.0:
        raise ValueError("horizon must be >= 1")
    n = int(math.ceil(horizon / dt))
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = math.sqrt(component_var * dt)
    inc = rng.normal(scale=scale, size=(2, n))
    values = np.empty(n + 1, dtype=complex)
    values[0] = 1.0
    values[1:] = 1.0 + np.cumsum(inc[0] + 1j * inc[1])
    return BrownianPath(dt, values, seed, component_var)


def constant_path(value: complex = 1.0, dt: float = DEFAULT_DT,
                  horizon: float = 1.0) -> BrownianPath:
    """Zero-variance test hook: B identically equal to `value`."""
    n = int(math.ceil(horizon / dt))
    return BrownianPath(dt, np.full(n + 1, value, dtype=complex), seed=-1,
                        component_var=0.0)


def triangle_kernel(x, t):
    """h(x,t) = exp(-1/t - 1/(x-t) - 1/(1-x)) inside 0 < t < x < 1, else 0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x, t = np.broadcast_arrays(x, t)
    out = np.zeros(x.shape)
    inside = (t > 0) & (t < x) & (x < 1)
    xi, ti = x[inside], t[inside]
    out[inside] = np.exp(-1.0 / ti - 1.0 / (xi - ti) - 1.0 / (1.0 - xi))
    return out


def synthesize_window(path: BrownianPath,
                      kcfg: KernelConfig = KernelConfig()) -> Window:
    """g(x) = integral of B(t) h(x,t) dt, tabulated on a uniform grid of [0, 1].

    The kernel vanishes for t >= x, so trapezoid over the whole path grid up
    to time 1 equals the integral over [0, x].
    """
    times = path.times
    keep = times <= 1.0
    t = times[keep]
    B = path.values[keep]
    xs = np.linspace(0.0, 1.0, kcfg.quadrature_n)
    H = triangle_kernel(xs[:, None], t[None, :])
    vals = np.trapezoid(H * B[None, :], t, axis=1)
    vals[0] = 0.0
    vals[-1] = 0.0
    return sampled(xs, vals, support_lo=0.0, support_hi=1.0,
                   source=(path, kcfg), kind="brownian_integral")


def gaussian_moments(u: np.ndarray, t: float, r: float) -> tuple[float, float]:
    """Mean and variance of int_0^t B(x) u(x) dx for a real path with B(0) = r.

    mean = r * int_0^t u; variance = int_0^t (int_0^rho u)^2 drho; both by
    composite trapezoid on the tabulation grid of u.
    """
    u = np.asarray(u, dtype=float)
    xs = np.linspace(0.0, t, len(u))
    mean = r * float(np.trapezoid(u, xs))
    cum = cumulative_trapezoid(u, xs, initial=0.0)
    var = float(np.trapezoid(cum ** 2, xs))
    return mean, var


def verify_nonvanishing(w: Window, n_core: int = 4096) -> tuple[float, float]:
    """min |g| over a uniform grid on [1/8, 7/8] and its location."""
    xs = np.linspace(0.125, 0.875, n_core)
    mags = np.abs(evaluate(w, xs))
    i = int(np.argmin(mags))
    return float(mags[i]), float(xs[i])


def mc_path_integrals(n_paths: int, dt: float, seed: int,
                      component_var: float = 1.0,
                      chunk: int = 8192) -> np.ndarray:
    """int_0^1 B(t) dt for n_paths independent complex paths started at 1.

    Batched Philox streams; per-path results match sample_path statistics."""
    n = int(round(1.0 / dt))
    scale = math.sqrt(component_var * dt)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty(n_paths, dtype=complex)
    done = 0
    while done < n_paths:
        k = min(chunk, n_paths - done)
        inc = rng.normal(scale=scale, size=(2, k, n))
        B = np.cumsum(inc[0] + 1j * inc[1], axis=1) + 1.0
        # trapezoid over values [1, B_1, ..., B_n] with spacing dt
        out[done:done + k] = dt * (0.5 * 1.0 + np.sum(B[:, :-1], axis=1)
                                   + 0.5 * B[:, -1])
        done += k
    return out
