"""Host speed probe: a fixed reference job timed around every workload item.

The benchmark runs on a few cores of a shared host.  There the speed of a
core changes by tens of percent from one second to the next, for the
program and for any other code alike.  On a 2-core x86 host, this job took
about 5 ms in fast stretches and about 8.4 ms in slow ones, and a fixed
finite section timed back to back for four minutes spread by 24% (the
distance between the quartiles of its 20 s medians, over their median).

The job is one-sided Jacobi rotations on a fixed 33x12 complex matrix: small
NumPy calls driven by a Python loop, the same kind of work as gaborcert's
hot paths, but code of the benchmark's own, so no change to gaborcert moves
it.  The worker times it before the first item and after each item.  An
item that took ``t`` seconds while the job took ``r`` seconds (the mean of
the probes on either side of the item) is reported at the reference speed
as ``t * REFERENCE_S / r``.
"""

from __future__ import annotations

import time

import numpy as np

# About the job's time on a 2-core x86 host in a fast stretch.  Any constant
# would do; this one makes the scaled times read close to the raw ones there.
REFERENCE_S = 0.005
SWEEPS = 6


def _job() -> float:
    rng = np.random.default_rng(12345)
    U = rng.standard_normal((33, 12)) + 1j * rng.standard_normal((33, 12))
    n = U.shape[1]
    for _ in range(SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                up, uq = U[:, p], U[:, q]
                app = np.real(np.vdot(up, up))
                aqq = np.real(np.vdot(uq, uq))
                apq = np.vdot(up, uq)
                mag = abs(apq)
                tau = (aqq - app) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                phase = apq / mag
                U[:, p], U[:, q] = (c * up - s * np.conj(phase) * uq,
                                    s * phase * up + c * uq)
    return float(np.linalg.norm(U))


def probe() -> float:
    """Seconds the reference job takes now (one run)."""
    start = time.perf_counter()
    _job()
    return time.perf_counter() - start
