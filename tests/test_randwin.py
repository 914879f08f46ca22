"""Brownian paths, kernel synthesis, moment formulas, non-vanishing checks."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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


def test_grid_of_one_over_n_ends_at_one():
    steps = [*range(2, 2000), *range(2000, 10 ** 5 + 1, 37), 10 ** 5]
    cases = [(1.0 / k, k) for k in steps] + [(1e-3, 1000)] + [
        (2.0 ** -e, 2 ** e) for e in range(1, 1024)]
    for dt, n in cases:
        assert R._philox(0, dt)[1] == n, dt
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
    w = R.synthesize_window(path, 2)
    assert np.array_equal(w.grid_x, [0.0, 1.0])
    assert np.array_equal(w.grid_vals, [0.0, 0.0])


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


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import sys\nimport gaborcert.cli\n"
            "print('scipy.integrate' in sys.modules)\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr


def test_mc_path_integrals_match_moments():
    vals = R.mc_path_integrals(20000, dt=2 ** -8, seed=99)
    se = math.sqrt(1.0 / 3.0 / 20000)
    assert abs(np.mean(vals.real) - 1.0) < 4 * se
    assert abs(np.mean(vals.imag)) < 4 * se


def _mc_unbudgeted(n_paths, dt, seed, chunk=8192):
    """mc_path_integrals before its byte budget: chunks of `chunk` paths."""
    n = int(round(1.0 / dt))
    scale = math.sqrt(dt)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty(n_paths, dtype=complex)
    for done in range(0, n_paths, chunk):
        k = min(chunk, n_paths - done)
        inc = rng.normal(scale=scale, size=(2, k, n))
        B = np.cumsum(inc[0] + 1j * inc[1], axis=1) + 1.0
        out[done:done + k] = dt * (0.5 * 1.0 + np.sum(B[:, :-1], axis=1)
                                   + 0.5 * B[:, -1])
    return out


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_budget_keeps_full_chunks_at_dt_2_8():
    # criterion 6 runs at dt = 2^-8: a smaller chunk would draw the normals
    # in another order and change every value after the first chunk
    vals = R.mc_path_integrals(9000, dt=2 ** -8, seed=20260823)
    assert np.array_equal(vals.view(np.uint64),
                          _mc_unbudgeted(9000, 2 ** -8, 20260823).view(np.uint64))


def test_mc_traced_peak_within_budget_at_dt_2_12():
    assert _traced_peak(R.mc_path_integrals, 2048, 2 ** -12, 1) \
        < R.MC_CHUNK_BYTES


def test_synthesize_window_traced_peak_under_32_mib():
    path = R.sample_path(5)
    assert _traced_peak(R.synthesize_window, path) < 32 * 2 ** 20


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
    rows = R.SYNTH_BLOCK_BYTES // (16 * 2 ** 8)
    _assert_synthesis_bits(R.sample_path(7, dt=2 ** -8), 2 * rows + 1)


@pytest.mark.parametrize("log2_steps, rows", [(12, 32), (16, 2), (17, 1)])
def test_synthesis_block_rows_follow_the_byte_budget(log2_steps, rows):
    """SYNTH_BLOCK_BYTES of complex terms per block: 32 rows at the default
    dt, and blocks of two rows and of one at finer steps, still bit for bit
    the dense grid."""
    assert max(1, R.SYNTH_BLOCK_BYTES // (16 * 2 ** log2_steps)) == rows
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
