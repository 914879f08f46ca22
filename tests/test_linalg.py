"""Preconditioned Jacobi SVD: agreement with LAPACK, small-singular-value
accuracy, and agreement with a one-sided Jacobi rotation loop.  The smallest
singular value of a stack behind its rounding margin: the bits of the
per-block gesdd loop, each block within its tolerance of the Jacobi SVD.
Banded log-determinants: agreement with np.linalg.det."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from gaborcert import certify, cli, framebound, lattice, linalg, randwin, window
from gaborcert.errors import BudgetExceeded


def _jacobi_loop(A, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Reference: singular values by one-sided Jacobi rotations on the columns."""
    U = np.array(A, dtype=complex)
    if U.shape[0] < U.shape[1]:
        U = U.conj().T
    n = U.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                up, uq = U[:, p], U[:, q]
                app = np.real(np.vdot(up, up))
                aqq = np.real(np.vdot(uq, uq))
                apq = np.vdot(up, uq)
                mag = abs(apq)
                if app == 0.0 or aqq == 0.0 or mag == 0.0:
                    continue
                rel = mag / np.sqrt(app * aqq)
                if rel <= tol:
                    continue
                off = max(off, rel)
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                new_p = c * up - s * np.conj(phase) * uq
                new_q = s * phase * up + c * uq
                U[:, p], U[:, q] = new_p, new_q
        if off <= tol:
            break
    sv = np.linalg.norm(U, axis=0)
    return np.sort(sv)[::-1]


def _graded(n_rows, exponents, seed):
    """Q[:, :n] * diag(10^-exponents) with Q orthogonal: singular values known."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n_rows, n_rows)))
    scales = 10.0 ** -np.asarray(exponents, dtype=float)
    return Q[:, :len(scales)] * scales[None, :], np.sort(scales)[::-1]


def test_matches_lapack_random_complex():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m, n = rng.integers(1, 12, size=2)
        A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        got = linalg.jacobi_svdvals(A)
        ref = np.linalg.svd(A, compute_uv=False)
        k = min(m, n)
        assert got.shape == (k,)
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_descending_order():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(8, 8))
    sv = linalg.jacobi_svdvals(A)
    assert np.all(np.diff(sv) <= 0)


def test_tiny_singular_value_graded_matrix():
    # columns scaled over 12 orders of magnitude: the Jacobi SVD keeps
    # relative accuracy where a bidiagonalization may lose the small value
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    scales = 10.0 ** np.arange(0, -12, -2)
    A = Q * scales[None, :]
    sv = linalg.jacobi_svdvals(A)
    assert np.allclose(np.sort(sv), np.sort(scales), rtol=1e-10)


def test_graded_over_200_decades():
    # the rotation loop's sqrt(app * aqq) underflows to 0 here, so every
    # value it returns is wrong; dgejsv stays at rounding level, but only
    # with joba='C': its default 'A' sets the small values to zero
    A, scales = _graded(6, np.linspace(0.0, 200.0, 6), seed=7)
    sv = linalg.svdvals_accurate(A)
    assert np.allclose(sv, scales, rtol=1e-14, atol=0.0)


def test_graded_70_columns():
    # wider than the old 64-column switch to bidiagonalization, which was
    # off by ~2e-13 relative on this matrix
    A, scales = _graded(80, np.linspace(0.0, 40.0, 70), seed=7)
    sv = linalg.svdvals_accurate(A)
    assert np.allclose(sv, scales, rtol=1e-14, atol=0.0)


def test_complex_embedding_graded():
    A, scales = _graded(6, np.linspace(0.0, 60.0, 5), seed=2)
    phases = np.exp(1j * np.linspace(0.3, 2.0, 5))
    sv = linalg.jacobi_svdvals(A * phases[None, :])
    assert sv.shape == (5,)
    assert np.allclose(sv, scales, rtol=1e-14, atol=0.0)


def test_scale_factor_applied():
    # a column norm above the double range makes dgejsv scale the matrix
    # down and report the factor in work[0] / work[1]; sigma_max overflows
    # but the small singular value is still exact
    A = np.array([[1.5e308, 1e308, 0.0], [0.0, 1e308, 0.0], [0.0, 0.0, 3.0]])
    with np.errstate(over="ignore"):
        sv = linalg.jacobi_svdvals(A)
    assert sv[-1] == pytest.approx(3.0, rel=1e-14)


def test_real_valued_complex_input_goes_in_as_real():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(7, 4))
    assert np.array_equal(linalg.jacobi_svdvals(A.astype(complex)),
                          linalg.jacobi_svdvals(A))


def test_rectangular_transpose_consistency():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    assert np.allclose(linalg.jacobi_svdvals(A), linalg.jacobi_svdvals(A.T.conj()),
                       rtol=1e-12)


def test_diagonal_matrix_exact():
    d = np.array([3.0, 2.0, 1e-14])
    sv = linalg.jacobi_svdvals(np.diag(d))
    assert np.allclose(sv, d, rtol=1e-15)


def test_svdvals_accurate_one_path_for_every_size():
    rng = np.random.default_rng(3)
    small = rng.normal(size=(10, 10))
    big = rng.normal(size=(80, 80))
    for A in (small, big):
        sv = linalg.svdvals_accurate(A)
        assert np.array_equal(sv, linalg.jacobi_svdvals(A))
        assert np.allclose(sv, np.linalg.svd(A, compute_uv=False), rtol=1e-10)


def test_zero_and_empty_edge_cases():
    assert np.all(linalg.jacobi_svdvals(np.zeros((3, 2))) == 0.0)
    one = linalg.jacobi_svdvals(np.array([[2.0]]))
    assert one == pytest.approx([2.0])
    assert linalg.svdvals_accurate(np.zeros((0, 3))).shape == (0,)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308,
             np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0]


def _dgejsv_svdvals(A):
    """Reference: the LAPACK path of jacobi_svdvals for a real matrix."""
    sva, _, _, work, _, info = lapack.dgejsv(A, joba=0, jobu=3, jobv=3)
    assert info == 0
    return np.sort(sva * (work[0] / work[1]))[::-1]


def test_real_one_by_one_is_dgejsv_bit_for_bit():
    """stack_sigma_min answers a real-valued 1x1 block [v] by |v|: dgejsv's
    bits, from 0 and -0 through subnormals to the largest double, refused
    exactly when v is 0."""
    rng = np.random.default_rng(11)
    n = 4000
    values = np.concatenate([
        _EXTREMES,
        rng.uniform(-1.0, 1.0, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n),
        rng.uniform(0.0, 1e-310, n),                  # subnormals
    ])
    for v in values:
        A = np.array([[v]])
        want = _dgejsv_svdvals(A)[-1]
        refused = None if v else (0.0, 0.0)
        for stack in (A[None], A[None].astype(complex)):
            sigma, got_refused = linalg.stack_sigma_min(stack)
            assert sigma.hex() == want.hex() and got_refused == refused, v
        # jacobi_svdvals takes a real-valued complex 1x1 in as real
        assert linalg.jacobi_svdvals(A.astype(complex))[0].hex() == want.hex(), v


def test_complex_one_by_one_keeps_the_embedding():
    z = 0.3 - 0.7j
    embedded = np.array([[z.real, -z.imag], [z.imag, z.real]])
    assert np.array_equal(linalg.jacobi_svdvals(np.array([[z]])),
                          _dgejsv_svdvals(embedded)[::2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entry_rejected(bad):
    A = np.eye(3, dtype=complex)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.svdvals_accurate(A)


def test_lapack_failure_raises(monkeypatch):
    def failing(a, **kwargs):
        n = a.shape[1]
        return np.ones(n), None, None, np.ones(7), np.zeros(3), 1
    monkeypatch.setattr(lapack, "dgejsv", failing)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.jacobi_svdvals(np.eye(2))


# ---------------------------------------------------------------------------
# differential: dgejsv against the rotation loop on the matrices the library
# takes singular values of

def _assert_agree(A):
    got = linalg.svdvals_accurate(A)
    ref = _jacobi_loop(A)
    assert got.shape == ref.shape
    assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spec", ["bump", "oddbump", "gevrey:3"])
@pytest.mark.parametrize("extent", [16, 32, 64])
def test_sections_agree_with_rotation_loop(spec, extent):
    params = lattice.LatticeParams(1.1, 1.0 / (1.1 * math.sqrt(5.0)))
    G = framebound.truncated_G(params, cli.parse_window(spec), 0.37 * 1.1,
                               extent)
    assert G.shape[1] <= 64
    _assert_agree(G)


def test_brownian_section_agrees_with_rotation_loop():
    w = randwin.synthesize_window(randwin.sample_path(3, dt=2 ** -8), 128)
    params = lattice.LatticeParams(0.8, 1.0 / math.sqrt(2.0))
    G = framebound.truncated_G(params, w, 0.29, 16)
    assert np.any(G.imag)
    _assert_agree(G)


def test_decomposition_blocks_agree_with_rotation_loop():
    params = lattice.LatticeParams(1.0, 1.0 / math.sqrt(2.0))
    w = cli.parse_window("bump")
    config = certify.CertifyConfig(extent=16)
    cert = certify.certify_frame(params, w, config)
    assert cert.certified
    interval = (cert.interval_lo, cert.interval_hi)
    decomp = certify.build_block_decomposition(
        params, w, 0.5 * sum(interval), config.extent, interval)
    assert len(decomp.blocks) > 1
    for block in decomp.blocks:
        _assert_agree(block.matrix)


# ---------------------------------------------------------------------------
# the smallest singular value of a stack, behind its rounding margin

def _count_svd_calls(monkeypatch):
    """The matrices handed to svdvals_accurate and to np.linalg.svd, as
    they are called."""
    calls = {"accurate": [], "gesdd": []}
    accurate, gesdd = linalg.svdvals_accurate, np.linalg.svd
    monkeypatch.setattr(linalg, "svdvals_accurate",
                        lambda a: calls["accurate"].append(a) or accurate(a))
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        calls["gesdd"].append(a) or gesdd(a, *args, **kwargs))
    return calls


def _documented_rule(stack):
    """(sigma, refused) by stack_sigma_min's docstring, block by block: a
    real-valued 1x1 block is |a| with tolerance 0, any other block gesdd's
    smallest value with tolerance SCREEN_SLACK * s * eps * ||A||_F, the norm
    taken from the entries over the largest |Re| or |Im| and scaled back
    (stack_sigma_min takes it from the singular values); a block
    passes if its estimate minus its tolerance exceeds the tolerance.  Each
    block's value is also checked against the Jacobi SVD, within that
    tolerance (bit for bit for a real 1x1)."""
    est, tol = [], []
    for a in stack:
        exact = a.shape == (1, 1) and a.imag[0, 0] == 0
        est.append(abs(a.real[0, 0]) if exact
                   else np.linalg.svd(a, compute_uv=False)[-1])
        parts = np.concatenate((a.real, a.imag))
        big = np.abs(parts).max(initial=0.0)
        with np.errstate(over="ignore"):
            tol.append(0.0 if exact else linalg.SCREEN_SLACK * max(a.shape)
                       * np.finfo(float).eps * big
                       * np.linalg.norm(parts / (big if big else 1.0)))
        oracle = linalg.svdvals_accurate(a)[-1]
        assert abs(est[-1] - oracle) <= tol[-1], (est[-1], oracle, tol[-1])
    refused = [(float(e), float(t)) for e, t in zip(est, tol) if not e - t > t]
    return float(min(est, default=math.inf)), min(refused, default=None)


def _assert_stack_sigma_min(stack):
    """stack_sigma_min has every bit of the documented per-block rule, but
    for the last bits of the refused block's tolerance (its norm is summed
    from other numbers)."""
    want = _documented_rule(stack)
    got = linalg.stack_sigma_min(stack)
    assert type(got[0]) is float and got[0].hex() == want[0].hex()
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert got[1][0].hex() == want[1][0].hex()
        assert got[1][1] == pytest.approx(want[1][1], rel=1e-14)
    return got


def test_stack_sigma_min_repeated_block_is_one_call(monkeypatch):
    # one batched gesdd for the whole stack, and no Jacobi SVD
    block = np.array([[1.0, 0.5, 0.0], [0.25, 1.0, 0.5], [0.0, 0.25, 1.0]])
    stack = np.repeat(block[None].astype(complex), 200, axis=0)
    want = np.linalg.svd(block, compute_uv=False)[-1]
    assert abs(want - linalg.svdvals_accurate(block)[-1]) <= 1e-15
    calls = _count_svd_calls(monkeypatch)
    assert linalg.stack_sigma_min(stack) == (want, None)
    assert calls["accurate"] == [] and len(calls["gesdd"]) == 1


def _ulp_moves(part, steps):
    """part moved by one ulp up where steps > 0 and down where steps < 0."""
    return np.where(steps > 0, np.nextafter(part, np.inf),
                    np.where(steps < 0, np.nextafter(part, -np.inf), part))


@pytest.mark.parametrize("last", [False, True], ids=["anywhere", "last"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stack_sigma_min_near_ties_keep_every_bit(monkeypatch, dtype, last):
    # copies of one block whose entries move by +-1 ulp: their gesdd values
    # differ in the last bits, and the stack keeps the smallest one's bits
    rng = np.random.default_rng(5)
    block = rng.standard_normal((6, 6)) + np.eye(6)
    stack = _ulp_moves(block, rng.choice([-1, 0, 1], size=(40, 6, 6)))
    if dtype is complex:
        imag = rng.standard_normal((6, 6))
        stack = stack + 1j * _ulp_moves(imag, rng.choice([-1, 0, 1],
                                                         size=(40, 6, 6)))
    values = np.linalg.svd(stack, compute_uv=False)[:, -1]
    low = values.min()
    assert (values > low).sum() > 10
    if last:
        # the smallest value only in the last block
        stack = np.concatenate((stack[values > low],
                                stack[np.flatnonzero(values == low)[:1]]))
    sigma, refused = _assert_stack_sigma_min(stack)
    assert sigma.hex() == float(low).hex() and refused is None
    calls = _count_svd_calls(monkeypatch)
    linalg.stack_sigma_min(stack)
    assert calls["accurate"] == []


def test_stack_sigma_min_singular_block_gives_zero():
    stack = np.stack([np.eye(3), np.diag([2.0, 1.0, 0.0]), 3.0 * np.eye(3)])
    tol = linalg.SCREEN_SLACK * 3 * np.finfo(float).eps * math.sqrt(5.0)
    assert linalg.stack_sigma_min(stack) == (0.0, (0.0, tol))
    _assert_stack_sigma_min(stack)


def test_stack_sigma_min_complex_and_graded_stacks():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((50, 5, 5)) + 1j * rng.standard_normal((50, 5, 5))
    assert _assert_stack_sigma_min(stack)[1] is None
    # column-graded blocks of sigma_min 10^-14 and less: gesdd keeps their
    # tiny values only to within the tolerance, and the margin refuses them
    graded = np.stack([_graded(8, np.linspace(0, 14 + k, 8), k)[0]
                       for k in range(10)])
    for g in (graded, graded.astype(complex)):
        for block in g:
            sigma, refused = _assert_stack_sigma_min(block[None])
            assert refused is not None and sigma < 2 * refused[1]
        _assert_stack_sigma_min(g)
    # a milder grading, sigma_min 10^-8, passes, to 1e-6 relative
    mild, sv = _graded(8, np.linspace(0, 8, 8), 3)
    sigma, refused = _assert_stack_sigma_min(mild[None])
    assert refused is None and sigma == pytest.approx(sv[-1], rel=1e-6)
    # complex 1x1 blocks go through gesdd too
    assert _assert_stack_sigma_min(stack[:, :1, :1])[1] is None


def test_stack_sigma_min_empty_stack_is_inf():
    assert linalg.stack_sigma_min(np.zeros((0, 2, 2), dtype=complex)) == \
        (math.inf, None)
    assert linalg.stack_sigma_min(np.zeros((0, 1, 1))) == (math.inf, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.inf)])
def test_stack_sigma_min_rejects_non_finite(bad):
    stack = np.stack([np.eye(3, dtype=complex)] * 4)
    stack[3, 0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.stack_sigma_min(stack)


def _one_by_one_stacks():
    rng = np.random.default_rng(13)
    scale = 10.0 ** rng.uniform(-20, 0, 60)
    re, im = rng.standard_normal(60) * scale, rng.standard_normal(60) * scale
    mixed = np.where(rng.random(60) < 0.5, re, re + 1j * im)
    extremes = np.array(_EXTREMES[2:] + [1e300 + 1e300j, 5e-324j, -1e-300j])
    return {"mixed": mixed, "real": re, "real-as-complex": re.astype(complex),
            "complex": re + 1j * im, "empty": re[:0].astype(complex),
            "extremes": extremes, "extremes-and-zeros": np.append(extremes, -0.0)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["mixed", "real", "real-as-complex", "complex",
                                  "empty", "extremes", "extremes-and-zeros"])
def test_stack_sigma_min_of_1x1_blocks(monkeypatch, name):
    """(M, 1, 1) stacks: the bits of the documented per-block rule, the
    real-valued entries [a] answered by |a| without an SVD, and only the
    others through one gesdd; a complex entry near the largest double raises
    no overflow warning, and one near the smallest keeps a positive
    tolerance that covers gesdd's last-bit error."""
    entries = _one_by_one_stacks()[name]
    stack = entries.reshape(-1, 1, 1)
    calls = _count_svd_calls(monkeypatch)
    got = _assert_stack_sigma_min(stack)
    complex_ = entries.imag != 0 if np.iscomplexobj(entries) else entries < 0
    assert got[1] == ((0.0, 0.0) if name == "extremes-and-zeros" else None)
    # _documented_rule's own gesdd calls take one block each, the stack's one
    # call takes every complex-valued entry at once
    stacked = [a for a in calls["gesdd"] if a.ndim == 3]
    if complex_.any() and np.iscomplexobj(entries):
        assert len(stacked) == 1 and np.array_equal(stacked[0][:, 0, 0],
                                                    entries[complex_])
    else:
        assert stacked == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.inf)])
def test_stack_sigma_min_of_1x1_blocks_rejects_non_finite(bad):
    for entries in _one_by_one_stacks().values():
        stack = np.append(entries, bad).reshape(-1, 1, 1)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.stack_sigma_min(stack)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.svdvals_accurate(stack[-1])


# ---------------------------------------------------------------------------
# banded log-determinants

def _band_of(dense, k):
    """The band of square matrices of one dtype, and their sizes."""
    sizes = np.array([len(M) for M in dense])
    band = np.zeros((max(sizes), 2 * k + 1, len(dense)), dtype=dense[0].dtype)
    for i, M in enumerate(dense):
        for r in range(len(M)):
            for c in range(max(r - k, 0), min(r + k + 1, len(M))):
                band[r, c - r + k, i] = M[r, c]
    return band, sizes


def _banded_stack(rng, k, sizes, dtype, zero_share):
    """(band, dense matrices) of random banded matrices with planted zeros."""
    dense = []
    for s in sizes:
        M = np.zeros((s, s), dtype=dtype)
        for r in range(s):
            for c in range(max(r - k, 0), min(r + k + 1, s)):
                v = rng.standard_normal()
                if dtype == complex:
                    v += 1j * rng.standard_normal()
                M[r, c] = 0.0 if rng.random() < zero_share else v
        dense.append(M)
    return _band_of(dense, k)[0], dense


def _band(band, slabs=None):
    """Entry function of band: rows r of matrices i, each asked for once,
    in row order, never past the last row; each slab goes to slabs."""
    asked = {}

    def entries(r, i):
        assert r.dtype.kind == i.dtype.kind == "i" and len(r) > 0
        assert np.array_equal(r, np.arange(r[0], r[0] + len(r)))
        assert 0 <= r[0] and r[-1] < len(band) and len(set(i.tolist())) == len(i)
        for m in i.tolist():
            assert asked.setdefault(m, 0) == r[0]
            asked[m] = r[-1] + 1
        slab = band[r][:, :, i]
        if slabs is not None:
            slabs.append(slab)
        return slab
    return entries


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_banded_log_abs_det_matches_dense_det(monkeypatch, dtype, k):
    rng = np.random.default_rng(31 + k)
    width, zeros = 2 * k + 1, 0
    for _ in range(40):
        sizes = np.sort(rng.integers(1, 12, rng.integers(1, 6)))[::-1]
        band, dense = _banded_stack(rng, k, sizes, dtype, 0.25)
        got = linalg.banded_log_abs_det(_band(band), k, sizes)
        # budgets of 1, 2 and 5 band rows of one matrix: stacks of 1, 2
        # and 5 matrices, in slabs of 1 row up to 5
        for rows in (1, 2, 5):
            slabs = []
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_BATCH_ENTRIES", rows * width)
                split = linalg.banded_log_abs_det(_band(band, slabs), k, sizes)
            assert split.tobytes() == got.tobytes()
            assert all(slab.shape[2] <= rows and
                       (len(slab) == 1 or slab.size <= rows * width)
                       for slab in slabs)
            assert len(slabs[0]) == min(max(sizes),
                                        max(1, rows // min(rows, len(sizes))))
        for log_abs, M in zip(got, dense):
            ref = abs(np.linalg.det(M))
            if ref == 0.0:
                zeros += 1
                assert log_abs == -math.inf
            else:
                assert math.exp(log_abs) == pytest.approx(ref, rel=1e-12)
    assert zeros > 0


@pytest.mark.parametrize("dtype", [float, complex])
def test_banded_log_abs_det_unsorted_sizes_in_input_order(dtype):
    """Sizes in any order: each result has the bits of its matrix factored
    alone."""
    rng = np.random.default_rng(17)
    for k in (0, 1, 3):
        sizes = rng.permutation([3, 9, 1, 9, 5, 2, 7, 1, 12, 4])
        band, dense = _banded_stack(rng, k, sizes, dtype, 0.1)
        got = linalg.banded_log_abs_det(_band(band), k, sizes)
        for i, s in enumerate(sizes.tolist()):
            alone = linalg.banded_log_abs_det(_band(band[:s, :, [i]]), k, [s])
            assert got[i].tobytes() == alone.tobytes()
            assert math.exp(got[i]) == pytest.approx(
                abs(np.linalg.det(dense[i])), rel=1e-12)


def test_banded_log_abs_det_lu_budget(monkeypatch):
    """Stacks are cut so that each LU fits _LU_BYTES, and one matrix whose
    LU alone does not fit raises before any evaluation."""
    rng = np.random.default_rng(3)
    k, sizes = 2, np.array([4, 8, 6, 8, 5])
    one = 2 * 16 * (k + 1) * (2 * k + 1)
    band, _ = _banded_stack(rng, k, sizes, float, 0.0)
    whole, slabs = linalg.banded_log_abs_det(_band(band), k, sizes), []
    monkeypatch.setattr(linalg, "_LU_BYTES", 2 * one)
    split = linalg.banded_log_abs_det(_band(band, slabs), k, sizes)
    assert split.tobytes() == whole.tobytes()
    assert max(slab.shape[2] for slab in slabs) == 2
    monkeypatch.setattr(linalg, "_LU_BYTES", one - 1)
    with pytest.raises(BudgetExceeded, match=r"k = 2 needs up to \d+ MiB per matrix"):
        linalg.banded_log_abs_det(_band(band, slabs := []), k, sizes)
    assert slabs == []


def test_banded_log_abs_det_peak_memory_fits_the_budget(monkeypatch):
    """Complex stacks cut by _LU_BYTES to 100 matrices: the tracemalloc peak
    of the LU, its window and a step's temporaries, stays within _LU_BYTES
    plus one slab and numpy's ufunc buffers (getbufsize entries for each of
    three operands)."""
    rng = np.random.default_rng(5)
    k, n, s = 20, 300, 30
    band = rng.standard_normal((s, 2 * k + 1, n)) + 1j * rng.standard_normal((s, 2 * k + 1, n))
    cols = np.arange(s)[:, None] - k + np.arange(2 * k + 1)
    band[(cols < 0) | (cols >= s)] = 0
    sizes, t = np.full(n, s), np.arange(2 * k + 1)
    whole = linalg.banded_log_abs_det(_band(band), k, sizes)
    monkeypatch.setattr(linalg, "_LU_BYTES", 100 * 2 * 16 * (k + 1) * (2 * k + 1))
    tracemalloc.start()
    try:
        split = linalg.banded_log_abs_det(lambda r, i: band[np.ix_(r, t, i)],
                                          k, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.tobytes() == whole.tobytes()
    slack = 16 * (linalg._BATCH_ENTRIES + 3 * np.getbufsize())
    assert peak <= linalg._LU_BYTES + slack, (peak, linalg._LU_BYTES)


def test_banded_log_abs_det_stays_finite_past_underflow():
    """A diagonal of 1e-200 over 5 rows: |det| = 1e-1000 underflows, its log
    does not."""
    band = np.full((5, 3, 1), 0.0)
    band[:, 1, 0] = 1e-200
    band[:-1, 2, 0] = 1.0
    got = linalg.banded_log_abs_det(_band(band), 1, np.array([5]))
    assert np.linalg.det(np.diag(np.full(5, 1e-200))) == 0.0
    assert got[0] == pytest.approx(-1000 * math.log(10.0), rel=1e-14)


def _swap_every_lane_lu(band, k, stack, sizes, pivots, columns=None):
    """Reference of linalg._stack_log_abs_det that picks each pivot by
    argmax and swaps rows in every lane by fancy indexing (a lane whose
    pivot is in row j swaps it with itself); appends each step's pivot rows
    to pivots and, if given, its column's |Re| + |Im| to columns."""
    n, size, width = len(stack), int(sizes[0]), 2 * k + 1

    def rows(r0, live):
        step = max(1, linalg._BATCH_ENTRIES // (width * live))
        return band(np.arange(r0, min(r0 + step, size)), stack[:live])

    slab, lo = rows(0, n), 0
    window = np.zeros((k + 1, width, n), dtype=slab.dtype)
    logsum = np.zeros(n)
    lanes = np.arange(n)
    lives = [n] * k + np.searchsorted(-sizes, -np.arange(size), side="left").tolist()
    for j, live in enumerate(lives, start=-k):
        win = window[:, :, :live]
        win[:-1, :-1] = win[1:, 1:]
        win[:-1, -1] = 0
        if lo + len(slab) <= j + k < size:
            slab, lo = rows(j + k, live), j + k
        win[-1] = slab[j + k - lo, :, :live] if j + k < size else 0
        if j < 0:
            continue
        col = win[:, 0]
        mag = (np.abs(col.real) + np.abs(col.imag) if col.dtype.kind == "c"
               else np.abs(col))
        p = mag.argmax(axis=0)
        pivots.append(p)
        if columns is not None:
            columns.append(mag)
        top = win[0].copy()
        win[0] = win[p, :, lanes[:live]].T
        win[p, :, lanes[:live]] = top.T
        piv = win[0, 0]
        with np.errstate(divide="ignore"):
            logsum[:live] += np.log(np.abs(piv))
        factors = win[1:, 0] / np.where(piv == 0, 1, piv)
        win[1:, 1:] -= factors[:, None] * win[0, 1:]
    return logsum


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_pivot_swaps_in_moved_lanes_keep_every_bit(dtype, k):
    """Swapping only the lanes whose pivot left row j gives the bits of the
    every-lane swap, on stacks whose pivots come from every row 0..k of the
    window and whose diagonally dominant lanes never swap."""
    rng = np.random.default_rng(40 + k)
    sizes = np.array([4 * k + 6, 4 * k + 6, 3 * k + 2, 2 * k + 1, k + 1, k, 2, 1])
    band, _ = _banded_stack(rng, k, sizes, dtype, 0.1)
    for i, s in enumerate(sizes.tolist()):
        for j in range(s):                  # plant a large entry below row j
            t = rng.integers(0, min(k, s - 1 - j) + 1)
            band[j + t, k - t, i] *= 1e3
    steady = np.array([1, 4])
    band[:, k, steady] += 1e9               # diagonal dominance: no swap
    stack = np.arange(len(sizes))
    pivots = []
    want = _swap_every_lane_lu(_band(band), k, stack, sizes, pivots)
    got = linalg._stack_log_abs_det(_band(band), k, stack, sizes)
    assert got.tobytes() == want.tobytes()
    assert set(np.concatenate(pivots).tolist()) == set(range(k + 1))
    assert not any(p[steady[steady < len(p)]].any() for p in pivots)


def _tie_prone(rng, k, dtype, size):
    """A banded matrix of entries whose |Re| + |Im| tie often: small
    integers, and for complex both z and i*z."""
    values = (np.arange(-2.0, 3.0) if dtype == float
              else np.array([0, 1, -1, 1j, -1j, 1 + 1j, -1 + 1j, 2, -2j,
                             1 + 2j, -2 + 1j]))
    M = rng.choice(values, (size, size)).astype(dtype)
    rows, cols = np.indices(M.shape)
    M[abs(rows - cols) > k] = 0
    return M


def _ties(mag):
    """Lanes whose nonzero largest |Re| + |Im| is in two rows or more."""
    top = mag.max(axis=0)
    return ((mag == top).sum(axis=0) > 1) & (top > 0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pivot_ties_zeros_and_infinities_keep_every_bit(dtype, k):
    """The first of equal largest |Re| + |Im| is the pivot, as argmax has it:
    a and -a, z and i*z, every step of small-integer matrices; an all-zero
    column (also of -0.0) and one +-inf entry in each row of the first
    column give the reference's bits too.  At k = 1 a real tie leaves the
    same remaining row up to sign whichever row pivots (the factor is +-1),
    so there only the complex ties tell the two rules apart."""
    rng = np.random.default_rng(60 + k)
    size = 3 * k + 4
    dense = [_tie_prone(rng, k, dtype, size) for _ in range(24)]
    zero = _tie_prone(rng, k, dtype, size)
    zero[:k + 1, 0] = 0.0
    zero[1, 0] = -0.0
    dense.append(zero)
    infs = [np.inf, -np.inf] if dtype == float else [
        complex(np.inf, 0.0), complex(0.0, -np.inf), complex(-np.inf, 1.0)]
    for p in range(k + 1):
        for inf in infs:
            M = _banded_stack(rng, k, [size], dtype, 0.0)[1][0]
            M[p, 0] = inf
            dense.append(M)
    band, sizes = _band_of(dense, k)
    stack, pivots, columns = np.arange(len(dense)), [], []
    want = _swap_every_lane_lu(_band(band), k, stack, sizes, pivots, columns)
    got = linalg._stack_log_abs_det(_band(band), k, stack, sizes)
    assert got.tobytes() == want.tobytes()
    # ties below the top row, where a "first largest" rule by >= would
    # take the lower row; zero pivots; infinite pivots from every row
    ties = [_ties(mag) for mag in columns]
    assert any(t.any() for t in ties)
    assert k == 1 or any((t & (p > 0)).any() for t, p in zip(ties, pivots))
    assert (want[:25] == -np.inf).any() and want[24] == -np.inf
    assert (want[25:] == np.inf).all()
    assert set(pivots[0][25:].tolist()) == set(range(k + 1))


@pytest.mark.parametrize("dtype", [float, complex])
def test_nan_in_the_pivot_column_gives_nan_in_its_lane_alone(dtype):
    """A NaN is never larger than a number, so the pivot search passes
    over one below row j where argmax would take it; either way its lane's
    log|det| is NaN and every other lane keeps its bits."""
    rng = np.random.default_rng(70)
    k, size = 2, 8
    dense = _banded_stack(rng, k, [size] * 6, dtype, 0.0)[1]
    for lane, row in enumerate((0, 1, 2)):
        dense[lane][row, 0] = np.nan
    band, sizes = _band_of(dense, k)
    stack, pivots = np.arange(len(dense)), []
    with np.errstate(invalid="ignore"):     # complex division by a NaN pivot
        want = _swap_every_lane_lu(_band(band), k, stack, sizes, pivots)
        got = linalg._stack_log_abs_det(_band(band), k, stack, sizes)
    assert np.isnan(got[:3]).all() and np.isnan(want[:3]).all()
    assert got[3:].tobytes() == want[3:].tobytes()
    assert np.isfinite(got[3:]).all()
    assert pivots[0][1:3].tolist() == [1, 2]        # argmax takes the NaN rows


def _sampled_complex():
    xs = np.linspace(0.0, 1.0, 129)
    return window.sampled(xs, np.sin(np.pi * xs) + 0.4j * xs * (1 - xs))


@pytest.mark.parametrize("spec, alpha, beta, k", [
    ("bump", 1.0, 0.9173, 1),
    ("gevrey:2", 1.1, 0.8543, 1),
    ("polybump", 0.5, 1.8871, 1),
    ("char", 0.6, 1.5541, 1),
    ("bump", 0.75, 1.2133, 2),
    ("sampled", 0.6, 1.5541, 1),
])
def test_scan_bands_keep_every_bit_of_the_reference_lu(monkeypatch, spec,
                                                       alpha, beta, k):
    """The bands scan_determinant factors, near-critical alpha*beta: every
    lane of the LU step has the bits of the argmax, every-lane-swap
    reference, in one stack as in the scan's own stacks."""
    captured, factor = [], certify.banded_log_abs_det

    def capture(band, k, sizes):
        captured.append((band, k, np.asarray(sizes), out := factor(band, k, sizes)))
        return out

    monkeypatch.setattr(certify, "banded_log_abs_det", capture)
    w = _sampled_complex() if spec == "sampled" else cli.parse_window(spec)
    params = lattice.LatticeParams(alpha, beta)
    assert 0.85 <= params.density <= 0.97
    certify.scan_determinant(params, w, 32)
    [(band, got_k, sizes, out)] = captured
    stack, pivots, columns = np.argsort(-sizes, kind="stable"), [], []
    assert got_k == k
    assert (band(np.arange(1), stack[:1]).dtype.kind == "c") == (spec == "sampled")
    want = _swap_every_lane_lu(band, k, stack, sizes[stack], pivots, columns)
    got = linalg._stack_log_abs_det(band, k, stack, sizes[stack])
    assert got.tobytes() == want.tobytes() == out[stack].tobytes()
    # pivots leave row j; the characteristic window's 0/1 entries tie instead
    if spec == "char":
        assert any(_ties(mag).any() for mag in columns)
    else:
        assert any(p.any() for p in pivots)
