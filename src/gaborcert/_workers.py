"""Threads over independent row blocks: the one concurrency policy of the
quadrature kernels.

A kernel states how many rows it may hold at once in total; ``map_blocks``
splits that budget over its threads, so the memory in flight does not grow
with the CPU count.  The numpy ufuncs of each block release the GIL, which is
what makes the threads pay.  A call that fits one block, or a process that may
run on one CPU, runs inline and starts no thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

__all__ = ["cpus", "map_blocks"]


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
