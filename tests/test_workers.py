"""The row-block thread policy: the CPU count, the budget split, failures,
warnings, errstate and thread lifetime."""

import os
import sys
import threading

import numpy as np
import pytest

from gaborcert import _workers


def _force_cpus(monkeypatch, k):
    monkeypatch.setattr(_workers, "cpus", lambda: k)


def _record(n, budget):
    """Run map_blocks over range(n) and return, per thread that worked, its
    thread and its block size and blocks in the order it took them."""
    lock, seen = threading.Lock(), []

    def work(blocks):
        mine = [(lo, hi) for lo, hi in blocks]
        with lock:
            seen.append((threading.current_thread(), blocks.rows, mine))

    _workers.map_blocks(work, n, budget)
    return seen


def test_cpus_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert _workers.cpus() == 3


def test_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert _workers.cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _workers.cpus() == 1


@pytest.mark.parametrize("cpus, n, budget, threads, rows", [
    (2, 2048, 32, 2, 16),       # default synthesis: two threads of 16 rows
    (4, 2048, 32, 4, 8),
    (3, 200, 16, 3, 5),         # fourier-decay's 200 frequencies
    (2, 256, 512, 1, 256),      # the benchmark's warm-up: one block, inline
    (8, 16, 16, 1, 16),         # exactly one block
    (8, 17, 16, 2, 8),
    (4, 2048, 2, 2, 1),         # the budget caps the threads
    (5, 3, 1, 1, 1),
    (1, 2048, 32, 1, 32),       # one CPU: the serial loop
    (4, 0, 16, 1, 0),
])
def test_budget_is_split_over_the_threads(monkeypatch, cpus, n, budget,
                                          threads, rows):
    _force_cpus(monkeypatch, cpus)
    seen = _record(n, budget)
    assert len(seen) == threads
    assert {size for _, size, _ in seen} == {rows}
    assert threads * rows <= budget
    blocks = sorted(b for _, _, mine in seen for b in mine)
    assert blocks == [(lo, min(lo + rows, n)) for lo in range(0, n, rows or 1)]
    for _, _, mine in seen:
        assert mine == sorted(mine)     # each thread's blocks ascend
    inline = [t for t, _, _ in seen if t is threading.current_thread()]
    assert len(inline) == (1 if threads == 1 else 0)


def test_hand_out_under_contention(monkeypatch):
    """More threads than cores and a short switch interval: every row is
    handed out once, and each thread's blocks still ascend."""
    _force_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen = _record(4000, 8)     # 8 threads of one row
    finally:
        sys.setswitchinterval(interval)
    rows = sorted(lo for _, _, mine in seen for lo, _ in mine)
    assert rows == list(range(4000))
    for _, _, mine in seen:
        assert mine == sorted(mine)


def test_first_exception_is_raised_after_every_thread_is_joined(monkeypatch):
    _force_cpus(monkeypatch, 3)
    before = threading.active_count()

    def work(blocks):
        for lo, hi in blocks:
            if lo == 4:
                raise KeyError(lo)

    with pytest.raises(KeyError, match="4"):
        _workers.map_blocks(work, 60, 6)     # 3 threads of 2 rows
    assert threading.active_count() == before


def test_a_worker_sees_the_callers_errstate(monkeypatch):
    _force_cpus(monkeypatch, 2)

    def work(blocks):
        for _ in blocks:
            np.log(np.zeros(1))

    with np.errstate(divide="ignore"):
        _workers.map_blocks(work, 8, 2)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        _workers.map_blocks(work, 8, 2)


def test_a_runtime_warning_in_a_worker_fails(monkeypatch):
    # the repository's pytest configuration turns RuntimeWarning into an error
    _force_cpus(monkeypatch, 2)
    before = threading.active_count()

    def work(blocks):
        for _ in blocks:
            np.log(np.zeros(1))

    with pytest.raises(RuntimeWarning):
        _workers.map_blocks(work, 8, 2)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_trapezoid_rows_match_a_dense_trapezoid_bitwise(monkeypatch, cpus):
    """A fill whose column count grows block by block, as the synthesis's
    does, with the integrand -0 from column c - 1 on: every row has the bits
    of np.trapezoid over the dense grid, in blocks of 5 rows in total that
    divide nothing, and no column from c on is read."""
    _force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(_workers, "BLOCK_BYTES", 16 * 40 * 5)
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 1.0, 41))
    n = 23
    dense = rng.normal(size=(n, 41)) + 1j * rng.normal(size=(n, 41))
    width = np.minimum(2 + 2 * np.arange(n), 41)    # row i vanishes from here
    for i, w in enumerate(width):
        dense[i, w:] = complex(-0.0, -0.0)
    counts = []

    def fill(lo, hi, Y):
        c = min(int(width[hi - 1]) + 1, 41)
        Y[:, :c] = dense[lo:hi, :c]
        Y[:, c:] = np.nan
        counts.append(c)
        return c

    got = _workers.trapezoid_rows(fill, n, np.diff(x))
    want = np.trapezoid(dense, x, axis=1)
    assert got.dtype == want.dtype == complex
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert len(set(counts)) > 3 and max(counts) == 41
