"""Brownian paths, kernel synthesis, moment formulas, non-vanishing checks."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaborcert import _workers
from gaborcert import randwin as R
from gaborcert import window as W

ROOT = Path(__file__).resolve().parents[1]


def _constant_path(value, dt):
    """B identically equal to value on the grid k*dt, k = 0..1/dt."""
    return R.BrownianPath(dt, np.full(round(1 / dt) + 1, value, dtype=complex))


# ---------------------------------------------------------------------------
# paths

def test_path_starts_at_one_exactly():
    for seed in (0, 1, 2 ** 40):
        assert R.sample_path(seed, dt=2 ** -8).values[0] == 1.0 + 0.0j


def test_path_reproducible_per_seed():
    a = R.sample_path(7, dt=2 ** -8)
    b = R.sample_path(7, dt=2 ** -8)
    c = R.sample_path(8, dt=2 ** -8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_path_increment_variance():
    p = R.sample_path(3, dt=2 ** -10)
    inc = np.diff(p.values)
    n = len(inc)
    for comp in (inc.real, inc.imag):
        var = np.var(comp)
        se = p.dt * math.sqrt(2.0 / n)
        assert abs(var - p.dt) < 5 * se


def test_path_rejects_bad_arguments():
    with pytest.raises(ValueError):
        R.sample_path(0, dt=0.0)


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_philox_key_range_is_named(seed):
    for draw in (R.sample_path, lambda s: R.mc_path_integrals(2, 2 ** -8, s)):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            draw(seed)
    assert len(R.sample_path(2 ** 128 - 1, dt=2 ** -4).values) == 17


@pytest.mark.parametrize("dt", [0.3, 5e-324, 1.0 - 1e-13])
def test_dt_that_does_not_divide_one_is_named(dt):
    # 0.3 gave a 4-step path to t = 1.2 and an mc mean of 0.900, 5e-324 an
    # OverflowError from the step count; 1 - 1e-13 is 1/n only for n = 1,
    # a grid with no node inside (0, 1)
    for draw in (lambda: R.sample_path(0, dt=dt),
                 lambda: R.mc_path_integrals(4, dt, 0)):
        with pytest.raises(ValueError, match=r"dt must lie in \(0, 1\) with "
                                             r"n\*dt = 1 to within 1e-12"):
            draw()


def test_dt_too_fine_for_numpy_is_named():
    # numpy's "Maximum allowed dimension exceeded", which named neither
    for draw in (lambda: R.sample_path(0, dt=1e-300),
                 lambda: R.mc_path_integrals(4, 1e-300, 0)):
        with pytest.raises(ValueError, match=r"numpy can shape, got "
                                             r"dt = 1e-300, n = "
                                             r"9\.999999999999999e\+299$"):
            draw()


def test_grid_of_one_over_n_ends_at_one():
    steps = [*range(2, 2000), *range(2000, 10 ** 5 + 1, 37), 10 ** 5]
    cases = [(1.0 / k, k) for k in steps] + [(1e-3, 1000)] + [
        (2.0 ** -e, 2 ** e) for e in range(1, 59)]
    for dt, n in cases:
        assert R._philox(0, dt)[1] == n, dt
    # from 2^-59 on, 16*n bytes of increments pass the largest intp
    for e in range(59, 1024):
        with pytest.raises(ValueError, match=re.escape(
                f"numpy can shape, got dt = {2.0 ** -e}, n = {2.0 ** e:.17g}")):
            R._philox(0, 2.0 ** -e)
    # ceil(1/dt) gave dt = 1/49 a 50th step, to t = 50/49
    for k in (2, 3, 7, 10, 49, 1000):
        times = R.sample_path(1, dt=1.0 / k).times
        assert len(times) == k + 1 and abs(times[-1] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# kernel and synthesis

def test_kernel_vanishes_outside_triangle():
    xs = np.array([0.5, 0.5, 0.5, 1.2, -0.1, 1.0, 0.3])
    ts = np.array([0.0, 0.5, 0.7, 0.5, 0.05, 0.5, -0.2])
    assert np.all(R.triangle_kernel(xs, ts) == 0.0)


def test_kernel_positive_inside():
    assert R.triangle_kernel(0.5, 0.25) > 0.0
    assert R.triangle_kernel(0.9, 0.1) > 0.0


def test_synthesize_endpoints_zero():
    w = R.synthesize_window(R.sample_path(1, dt=2 ** -8), 256)
    assert W.evaluate(w, 0.0) == 0.0
    assert W.evaluate(w, 1.0) == 0.0
    assert (w.support_lo, w.support_hi) == (0.0, 1.0)


def test_synthesize_rejects_fewer_than_two_nodes():
    path = R.sample_path(1, dt=2 ** -8)
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match="quadrature_n"):
            R.synthesize_window(path, n)
    # two nodes are the window's forced zero ends: the zero window
    with pytest.raises(ValueError, match=r"quadrature_n must be >= 3, got 2: "
                                         r"the window is 0 at both ends"):
        R.synthesize_window(path, 2)
    w = R.synthesize_window(path, 3)
    assert np.array_equal(w.grid_x, [0.0, 0.5, 1.0])
    assert w.grid_vals[1] != 0.0


def test_synthesize_constant_path_matches_fine_quadrature():
    # B = 1: g(x) = integral of h(x, t) dt; oracle is a 10x finer t-grid.
    # Compare at tabulation nodes so only the t-quadrature error enters.
    coarse = R.synthesize_window(_constant_path(1.0, 2 ** -10), 64)
    for i in (20, 32, 45, 55):
        x = coarse.grid_x[i]
        ts = np.linspace(0.0, x, 10 * 2 ** 10)
        oracle = np.trapezoid(R.triangle_kernel(x, ts), ts)
        assert coarse.grid_vals[i].real == pytest.approx(oracle, rel=1e-4)
        assert oracle > 0.0


def test_synthesize_deterministic_per_seed():
    a = R.synthesize_window(R.sample_path(4, dt=2 ** -8), 128)
    b = R.synthesize_window(R.sample_path(4, dt=2 ** -8), 128)
    assert np.array_equal(a.grid_vals, b.grid_vals)


def test_smoothness_proxy_second_differences_bounded():
    for seed in range(5):
        w = R.synthesize_window(R.sample_path(seed, dt=2 ** -10), 512)
        h = w.grid_x[1] - w.grid_x[0]
        d2 = np.abs(np.diff(w.grid_vals, 2)) / h ** 2
        assert np.max(d2) < 100.0


# ---------------------------------------------------------------------------
# moments

def test_gaussian_moments_constant_u():
    mean, var = R.gaussian_moments(np.ones(4097), t=1.0, r=1.0)
    assert mean == pytest.approx(1.0, rel=1e-10)
    assert var == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_gaussian_moments_zero_u():
    mean, var = R.gaussian_moments(np.zeros(101), t=1.0, r=1.0)
    assert (mean, var) == (0.0, 0.0)


def test_gaussian_moments_linear_u():
    u = np.linspace(0.0, 1.0, 4097)
    mean, var = R.gaussian_moments(u, t=1.0, r=2.0)
    assert mean == pytest.approx(1.0, rel=1e-6)
    assert var == pytest.approx(1.0 / 20.0, rel=1e-5)


@pytest.mark.parametrize("dt", [0.0, 2.0, 1.0, -0.5, math.nan, math.inf])
def test_mc_path_integrals_rejects_dt_outside_unit_interval(dt):
    # 0 and 2 raised ZeroDivisionError, -0.5 numpy's "negative dimensions"
    with pytest.raises(ValueError, match="dt must lie in"):
        R.mc_path_integrals(4, dt, 0)


def test_mc_path_integrals_rejects_negative_n_paths():
    with pytest.raises(ValueError, match="n_paths must be >= 0, got -3"):
        R.mc_path_integrals(-3, 2 ** -8, 0)
    assert R.mc_path_integrals(0, 2 ** -8, 0).shape == (0,)


def test_gaussian_moments_match_cumulative_trapezoid_bits():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(21)
    for n in (2, 3, 17, 256, 4097):
        u, t, r = rng.normal(size=n), rng.uniform(0.1, 3.0), rng.normal()
        xs = np.linspace(0.0, t, n)
        cum = cumulative_trapezoid(u, xs, initial=0.0)
        assert R.gaussian_moments(u, t, r) == (r * float(np.trapezoid(u, xs)),
                                               float(np.trapezoid(cum ** 2, xs)))


def test_mc_path_integrals_match_moments():
    vals = R.mc_path_integrals(20000, dt=2 ** -8, seed=99)
    se = math.sqrt(1.0 / 3.0 / 20000)
    assert abs(np.mean(vals.real) - 1.0) < 4 * se
    assert abs(np.mean(vals.imag)) < 4 * se


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dt", [2 ** -8, 2 ** -12])
def test_mc_values_do_not_depend_on_the_byte_budget(monkeypatch, dt):
    # at 2^12 bytes every chunk is one path, at 2^27 one chunk holds them all
    runs = []
    for budget in (2 ** 12, 2 ** 21, 2 ** 27):
        monkeypatch.setattr(_workers, "BLOCK_BYTES", budget)
        runs.append(R.mc_path_integrals(300, dt, 20260823))
    assert _same_bits(runs[0], runs[1]) and _same_bits(runs[1], runs[2])


@pytest.mark.parametrize("seed", [0, 5, 20260823])
def test_mc_path_zero_is_sample_path(seed):
    dt = 2 ** -8
    B = R.sample_path(seed, dt).values[1:]
    want = dt * (0.5 * 1.0 + np.sum(B[:-1]) + 0.5 * B[-1])
    assert _same_bits(R.mc_path_integrals(1, dt, seed), [want])
    assert _same_bits(R.mc_path_integrals(40, dt, seed)[:1], [want])


def test_mc_traced_peak_within_budget_at_dt_2_12():
    # a chunk holds at most BLOCK_BYTES; the slack is the output and a first
    # call's one-time allocations
    assert _traced_peak(R.mc_path_integrals, 2048, 2 ** -12, 1) \
        < _workers.BLOCK_BYTES + 2 ** 20


def test_synthesize_window_traced_peak_under_7_mib(monkeypatch):
    # 4 MiB of term and product buffers, and each block's kernel
    path = R.sample_path(5)
    for k in (1, 2, 4):
        _force_cpus(monkeypatch, k)
        assert _traced_peak(R.synthesize_window, path) <= 7 * 2 ** 20, k


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from /proc")
def test_random_window_peak_rss_at_dt_2_16(tmp_path):
    """Blocks sized in bytes keep two x rows at 2^16 path steps: about
    95 MiB resident, where blocks of 32 rows took about 215 MiB.

    The child reports VmHWM, the peak of its own address space: its
    ru_maxrss would also hold the high-water mark of the process that
    spawned it."""
    code = ("import sys\n"
            "from gaborcert import cli\n"
            "rc = cli.main(['random-window', '--dt', sys.argv[1],"
            " '--out', sys.argv[2]])\n"
            "hwm = [line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')]\n"
            "print(rc, *hwm)\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", code, repr(2.0 ** -16),
                           str(tmp_path / "w.csv")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, kib = map(int, proc.stdout.split())
    assert rc == 0
    assert kib < 130 * 1024


# ---------------------------------------------------------------------------
# non-vanishing

def test_verify_nonvanishing_positive_for_constant_path():
    w = R.synthesize_window(_constant_path(1.0, 2 ** -10), 512)
    min_abs, _ = R.verify_nonvanishing(w)
    assert min_abs > 0.0


def test_verify_nonvanishing_planted_zero():
    x0 = np.linspace(0.125, 0.875, 4096)[2047]   # a node of the check's grid
    xs = np.sort(np.append(np.linspace(0.0, 1.0, 513), x0))
    w = W.sampled(xs, np.where(xs == x0, 0.0, 1.0))
    min_abs, argmin = R.verify_nonvanishing(w)
    assert min_abs == 0.0
    assert argmin == x0


# ---------------------------------------------------------------------------
# row-blocked synthesis against the dense (x, t) grid, bit for bit

def _dense_kernel(x, t):
    """The boolean gather/scatter kernel that triangle_kernel replaced."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x, t = np.broadcast_arrays(x, t)
    out = np.zeros(x.shape)
    inside = (t > 0) & (t < x) & (x < 1)
    xi, ti = x[inside], t[inside]
    out[inside] = np.exp(-1.0 / ti - 1.0 / (xi - ti) - 1.0 / (1.0 - xi))
    return out


def _dense_synthesis(path, quadrature_n):
    """One trapezoid over the full (quadrature_n, path length) kernel grid."""
    keep = path.times <= 1.0
    t = path.times[keep]
    B = path.values[keep]
    xs = np.linspace(0.0, 1.0, quadrature_n)
    H = _dense_kernel(xs[:, None], t[None, :])
    vals = np.trapezoid(H * B[None, :], t, axis=1)
    vals[0] = 0.0
    vals[-1] = 0.0
    return xs, vals


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(np.atleast_1d(a).view(np.uint64),
                               np.atleast_1d(b).view(np.uint64)))


def _assert_synthesis_bits(path, quadrature_n):
    w = R.synthesize_window(path, quadrature_n)
    xs, vals = _dense_synthesis(path, quadrature_n)
    assert _same_bits(w.grid_x, xs)
    assert _same_bits(w.grid_vals, vals)


@pytest.mark.parametrize("dt, quadrature_n", [
    (2.0 ** -12, 2048), (2.0 ** -8, 256), (1e-3, 1000), (2.0 ** -10, 999)])
def test_synthesis_matches_dense_grid_bitwise(dt, quadrature_n):
    seeds = range(20) if dt != 2.0 ** -12 else range(20, 40)
    for seed in seeds:
        _assert_synthesis_bits(R.sample_path(seed, dt=dt), quadrature_n)


def test_synthesis_matches_dense_grid_on_special_paths():
    # constant paths of every sign pattern: where the kernel is 0 the
    # products are signed zeros, and whole rows near x = 0 and x = 1 sum
    # nothing else
    for value in (1.0, -1.0, 1j, -1j, 1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j):
        _assert_synthesis_bits(_constant_path(value, 2 ** -8), 256)
    _assert_synthesis_bits(R.sample_path(3, dt=2 ** -9, component_var=0.25),
                           300)
    _assert_synthesis_bits(R.sample_path(4, dt=2 ** -8, component_var=7.0), 256)
    # a path running on past t = 1
    path = R.sample_path(5, dt=2 ** -8)
    long_path = R.BrownianPath(path.dt, np.concatenate(
        (path.values, path.values[-1] + path.values[1:] - 1.0)))
    assert long_path.times[-1] > 1.0
    _assert_synthesis_bits(long_path, 256)
    # fewer rows than one block, and a block size that divides nothing
    _assert_synthesis_bits(R.sample_path(6, dt=2 ** -8), 7)
    rows = _workers.BLOCK_BYTES // (16 * 2 ** 8)
    _assert_synthesis_bits(R.sample_path(7, dt=2 ** -8), 2 * rows + 1)


@pytest.mark.parametrize("log2_steps, rows", [(12, 32), (16, 2), (17, 1)])
def test_synthesis_block_rows_follow_the_byte_budget(log2_steps, rows):
    """BLOCK_BYTES of complex terms per block: 32 rows at the default dt, and
    blocks of two rows and of one at finer steps, still bit for bit the dense
    grid."""
    assert max(1, _workers.BLOCK_BYTES // (16 * 2 ** log2_steps)) == rows
    if log2_steps > 12:
        _assert_synthesis_bits(R.sample_path(8, dt=2.0 ** -log2_steps), 5)


def test_kernel_matches_dense_kernel_bitwise():
    grid = np.linspace(-0.25, 1.25, 61)      # hits 0, 1 and both signs of t
    xs, ts = np.meshgrid(grid, grid, indexing="ij")
    assert _same_bits(R.triangle_kernel(xs, ts), _dense_kernel(xs, ts))
    diag = np.linspace(0.0, 1.0, 33)         # t == x, x == 1, t == 0
    assert _same_bits(R.triangle_kernel(diag, diag), _dense_kernel(diag, diag))
    assert _same_bits(R.triangle_kernel(diag[:, None], diag[None, :]),
                      _dense_kernel(diag[:, None], diag[None, :]))
    edge = [(1.0, 0.5), (1.5, 0.5), (0.5, -0.1), (0.5, 0.0), (0.5, -0.0),
            (0.0, 0.0), (0.5, 0.5), (0.5, 0.25), (0.9, 0.1), (0.999, 1e-3)]
    for x, t in edge:
        got = R.triangle_kernel(x, t)
        assert got.shape == ()
        assert _same_bits(got, _dense_kernel(x, t))
    rows = np.linspace(0.0, 1.0, 2048)[:, None]
    cols = (2.0 ** -12 * np.arange(4097))[None, :]
    assert _same_bits(R.triangle_kernel(rows, cols), _dense_kernel(rows, cols))


def test_kernel_does_not_warn():
    with np.errstate(all="raise"):
        R.triangle_kernel(np.array([0.0, 1.0, 0.5, 2.0]),
                          np.array([0.0, 1.0, 0.5, -0.0]))


# ---------------------------------------------------------------------------
# row blocks on threads: the same bits, the same budget, nothing left running

def _force_cpus(monkeypatch, k):
    monkeypatch.setattr(_workers, "cpus", lambda: k)


_PATHS = {"default dt": (R.sample_path(9), R.DEFAULT_QUADRATURE_N),
          "one block": (R.sample_path(10, dt=2 ** -8), 256),
          "three nodes": (R.sample_path(11, dt=2 ** -8), 3)}


@pytest.mark.parametrize("case", sorted(_PATHS))
def test_synthesis_bits_do_not_depend_on_the_thread_count(monkeypatch, case):
    path, quadrature_n = _PATHS[case]
    _force_cpus(monkeypatch, 1)
    serial = R.synthesize_window(path, quadrature_n).grid_vals
    for k in (2, 3, 5):
        _force_cpus(monkeypatch, k)
        assert _same_bits(R.synthesize_window(path, quadrature_n).grid_vals,
                          serial)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_threaded_synthesis_matches_dense_grid_bitwise(monkeypatch, k):
    _force_cpus(monkeypatch, k)
    for seed, (dt, quadrature_n) in enumerate(
            [(2.0 ** -8, 256), (1e-3, 1000), (2.0 ** -10, 999)]):
        _assert_synthesis_bits(R.sample_path(seed, dt=dt), quadrature_n)
    rows = _workers.BLOCK_BYTES // (16 * 2 ** 8)
    _assert_synthesis_bits(R.sample_path(7, dt=2 ** -8), 2 * rows + 1)
    _assert_synthesis_bits(_constant_path(-1 - 1j, 2 ** -8), 2 * rows + 1)


@pytest.mark.parametrize("log2_steps, cpus, rows", [
    (12, 1, 32), (12, 2, 16), (12, 4, 8), (16, 1, 2), (16, 2, 1), (16, 4, 1)])
def test_synthesis_blocks_split_the_byte_budget(monkeypatch, log2_steps, cpus,
                                                rows):
    """BLOCK_BYTES is the total over the threads: at most that many bytes
    of terms, summed over every thread's buffer, exist at once."""
    _force_cpus(monkeypatch, cpus)
    sizes, map_blocks = [], _workers.map_blocks

    def recording(work, n, budget):
        def spy(blocks):
            sizes.append(blocks.rows)
            work(blocks)
        map_blocks(spy, n, budget)

    monkeypatch.setattr(_workers, "map_blocks", recording)
    path = _constant_path(1.0, 2.0 ** -log2_steps)
    R.synthesize_window(path, 64 if log2_steps > 12 else 2048)
    assert set(sizes) == {rows}
    assert sum(sizes) * 16 * 2 ** log2_steps <= _workers.BLOCK_BYTES


def test_synthesis_traced_peak_with_four_threads(monkeypatch):
    _force_cpus(monkeypatch, 4)
    assert _traced_peak(R.synthesize_window, R.sample_path(5)) < 32 * 2 ** 20


def test_synthesis_traced_peak_does_not_grow_with_the_threads(monkeypatch):
    """The real kernel fills each block's real parts, not a ufunc buffer of
    its complex cast per thread: at 2, 4 and 8 threads the median peak of
    five warm calls is within 256 KiB of one thread's.  The median, since
    how the threads' kernel temporaries overlap moves a single peak by a
    few hundred KiB either way; the cast buffers added 128 KiB per thread
    to every call.  The bits are one thread's."""
    path = R.sample_path(5)
    peaks, vals = [], []
    for k in (1, 2, 4, 8):
        _force_cpus(monkeypatch, k)
        R.synthesize_window(path)
        runs = []
        for _ in range(5):
            tracemalloc.start()
            try:
                vals.append(R.synthesize_window(path).grid_vals)
                runs.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(np.median(runs))
    assert max(peaks) <= peaks[0] + 2 ** 18, peaks
    assert all(_same_bits(v, vals[0]) for v in vals)


def _raising_on_call(calls, exc):
    kernel = R.triangle_kernel

    def patched(x, t):
        calls.append(1)
        if len(calls) == 3:
            raise exc
        return kernel(x, t)
    return patched


def test_a_failing_block_reaches_the_caller(monkeypatch):
    _force_cpus(monkeypatch, 2)
    before = threading.active_count()
    calls = []
    monkeypatch.setattr(R, "triangle_kernel",
                        _raising_on_call(calls, ArithmeticError("third block")))
    with pytest.raises(ArithmeticError, match="third block"):
        R.synthesize_window(R.sample_path(5))
    assert threading.active_count() == before
    assert len(calls) < 2048 // 16      # the other blocks were not all run


def test_a_runtime_warning_in_a_block_still_fails(monkeypatch):
    # the repository's pytest configuration turns RuntimeWarning into an error
    _force_cpus(monkeypatch, 2)
    before = threading.active_count()
    calls = []

    def warning_kernel(x, t):
        calls.append(1)
        if len(calls) == 3:
            np.float64(1.0) / np.float64(0.0)
        return kernel(x, t)

    kernel = R.triangle_kernel
    monkeypatch.setattr(R, "triangle_kernel", warning_kernel)
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        R.synthesize_window(R.sample_path(5))
    assert threading.active_count() == before


def test_threads_end_with_the_call(monkeypatch):
    _force_cpus(monkeypatch, 3)
    before = threading.active_count()
    R.synthesize_window(R.sample_path(5))
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    _force_cpus(monkeypatch, 4)

    def refuse(self):
        raise AssertionError("a one-block synthesis started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    R.synthesize_window(R.sample_path(10, dt=2 ** -8), 256)


def test_benchmark_warm_up_starts_no_thread(tmp_path):
    """The random_windows warm-up item is one block: it runs inline and
    imports no thread pool, so it adds nothing to the set-up time."""
    code = ("import sys, threading\n"
            "from gaborcert import cli\n"
            "started = []\n"
            "threading.Thread.start = lambda self: started.append(self)\n"
            "rc = cli.main(['random-window', '--seed', '0', '--dt',"
            " '0.00390625', '--quadrature-n', '256', '--out', sys.argv[1]])\n"
            "print(rc, len(started), 'concurrent.futures' in sys.modules)\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "w.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout == "0 0 False\n", proc.stderr
