"""Threads over independent row blocks: the one concurrency policy and the
one trapezoid loop of the quadrature kernels.

A kernel states how many rows it may hold at once in total; ``map_blocks``
splits that budget over its threads, so the memory in flight does not grow
with the CPU count.  The numpy ufuncs of each block release the GIL, which is
what makes the threads pay.  A call that fits one block, or a process that may
run on one CPU, runs inline and starts no thread.  ``trapezoid_rows`` runs
np.trapezoid's ufuncs on such blocks for kernels that only fill integrands.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

__all__ = ["BLOCK_BYTES", "cpus", "map_blocks", "trapezoid_rows"]

#: bytes of one working array of a quadrature kernel, over all its threads:
#: 8 rows of 2^14 Fourier nodes, 32 of the default 4097 path nodes
BLOCK_BYTES = 2 ** 21


def cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Blocks:
    """The blocks [lo, hi) of range(n), ``rows`` long but the last, handed
    out in ascending order to whichever thread asks next; so the blocks one
    thread takes ascend too."""

    def __init__(self, n: int, rows: int):
        self.rows = rows
        self._next, self._n = 0, n
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, int]:
        with self._lock:
            lo = self._next
            if lo >= self._n:
                raise StopIteration
            hi = self._next = min(lo + self.rows, self._n)
        return lo, hi

    def stop(self) -> None:
        """Hand out no further block."""
        with self._lock:
            self._next = self._n


def map_blocks(work, n: int, budget: int) -> None:
    """Cover range(n) with blocks and, for a budget >= 1, run work(blocks) on
    each of k = min(cpus(), ceil(n / budget), budget) threads; the threads
    share the iterator ``blocks``, whose blocks are
    blocks.rows = min(n, budget // k) long, so at most ``budget`` rows are in
    flight at once.

    Each thread runs in a copy of the caller's context, so numpy's errstate
    acts as in a serial loop; the warning filters are process-wide already.
    The first exception stops the hand-out and is raised here, after every
    thread has been joined: no thread outlives the call.  With k = 1 work
    runs inline, in the caller's thread.
    """
    k = max(1, min(cpus(), -(-n // budget), budget))
    blocks = _Blocks(n, min(n, budget // k))
    if k == 1:
        work(blocks)
        return
    errors = []

    def run(context):
        try:
            context.run(work, blocks)
        except BaseException as exc:
            blocks.stop()
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(contextvars.copy_context(),))
               for _ in range(k)]
    try:
        for thread in threads:
            thread.start()
    except BaseException:
        blocks.stop()
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def trapezoid_rows(fill, n: int, d) -> np.ndarray:
    """Row i of np.trapezoid(Y, x, axis=1), i in range(n), d = np.diff(x),
    with the rows of Y filled a block at a time: fill(lo, hi, Y) writes rows
    lo..hi-1 into the first c columns of a complex (hi - lo, len(d) + 1) view
    and returns c, where c never falls from one block to a later one and, if
    c <= len(d), the integrand vanishes on columns c - 1 on.

    Blocks hold BLOCK_BYTES // (16 len(d)) rows, at least one, in total over
    the threads of map_blocks.  Each thread allocates its integrand and zeroed
    term buffers once per call, and a block writes the terms
    d * (Y[:, 1:] + Y[:, :-1]) / 2.0 of its first c - 1 columns into them,
    one ufunc at a time with np.trapezoid's operands in its order (d is cast
    to complex once, as numpy, which has no mixed multiply loop, would cast
    it), then sums whole term rows.  A thread's blocks ascend, so its buffer
    past the first c - 1 columns is still zero: each row sums the same
    nonzero terms in the same positions as the dense trapezoid, and adding a
    zero to a nonzero partial sum is exact.  So neither the block size nor the
    thread count moves a bit, but for the sign of a row part that sums to 0.
    """
    d = np.asarray(d, dtype=complex)
    vals = np.empty(n, dtype=complex)

    def work(blocks):
        ybuf = np.empty((blocks.rows, len(d) + 1), dtype=complex)
        tbuf = np.zeros((blocks.rows, len(d)), dtype=complex)
        for lo, hi in blocks:
            Y, T = ybuf[:hi - lo], tbuf[:hi - lo]
            c = fill(lo, hi, Y)
            terms = T[:, :c - 1]
            np.add(Y[:, 1:c], Y[:, :c - 1], out=terms)
            np.multiply(d[:c - 1], terms, out=terms)
            np.divide(terms, 2.0, out=terms)
            vals[lo:hi] = np.add.reduce(T, axis=1)

    map_blocks(work, n, max(1, BLOCK_BYTES // (16 * len(d))))
    return vals
