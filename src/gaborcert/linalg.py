"""Singular values with relative accuracy on matrices with tiny singular
values, and log-determinants of stacks of banded matrices."""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

__all__ = ["jacobi_svdvals", "svdvals_accurate", "stack_sigma_min",
           "banded_log_abs_det"]

# stack_sigma_min: the screen's tolerance of an s x s block A is
# SCREEN_SLACK * s * eps * ||A||_F
SCREEN_SLACK = 32
# banded_log_abs_det's budgets: band entries evaluated at once (one row of a
# stack, one slab of rows), and bytes of one stack's LU, its window and a
# step's window-sized temporary at 16 bytes (complex128) an entry; the peak
# adds a slab and numpy's ufunc buffers.  One matrix fits up to k = 4,095.
_BATCH_ENTRIES = 1 << 15
_LU_BYTES = 1 << 30


def jacobi_svdvals(A) -> np.ndarray:
    """Singular values, descending, by LAPACK's preconditioned Jacobi SVD.

    ``dgejsv`` (Drmač and Veselić, SIAM J. Matrix Anal. Appl. 29, 2008) keeps
    the small singular values of column-graded matrices to relative accuracy,
    where bidiagonalization loses them.  It needs m >= n, so a wide matrix is
    transposed first.  A complex matrix goes through the real embedding
    [[Re, -Im], [Im, Re]], which has each singular value of A twice; a
    complex matrix with zero imaginary part goes in as a real one.
    ``joba=0`` ('C') is used because the default ('A') sets small singular
    values to zero.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    if A.shape[0] < A.shape[1]:
        A = A.conj().T
    repeat = 1
    if np.iscomplexobj(A):
        if A.imag.any():
            A = np.block([[A.real, -A.imag], [A.imag, A.real]])
            repeat = 2
        else:
            A = A.real
    from scipy.linalg import lapack   # here, so commands without an SVD skip it

    sva, _, _, work, _, info = lapack.dgejsv(A, joba=0, jobu=3, jobv=3)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed with info={info}")
    sv = sva * (work[0] / work[1])
    sv.sort()
    return sv[::-repeat]


def svdvals_accurate(A) -> np.ndarray:
    """Singular values of any matrix shape, descending; empty for an empty one."""
    A = np.asarray(A)
    if min(A.shape) == 0:
        return np.zeros(0)
    return jacobi_svdvals(A)


def stack_sigma_min(stack) -> float:
    """min over i of svdvals_accurate(stack[i])[-1], bit for bit, for an
    (N, m, n) stack; inf for an empty one.

    A real-valued 1x1 block [a] gives |a|, exactly what ``dgejsv`` returns.
    One batched LAPACK SVD (``gesdd``, in the stack's dtype) estimates every
    other block's smallest singular value est_i, and only the candidates go
    to ``svdvals_accurate``.  Both SVDs are backward stable: each returns
    the singular values of A + E with ||E||_2 <= p(s) eps ||A||_2 for a
    modest p of the size s = max(m, n) (the LAPACK Users' Guide bound;
    ``dgejsv``'s real embedding of a complex block has the same 2-norm), so
    by Weyl's inequality each is within p(s) eps ||A_i||_F of the true
    sigma_min.  With
    tol_i = SCREEN_SLACK * s * eps * ||A_i||_F covering both errors, est_i
    and the accurate value J_i differ by at most tol_i.  If block k has the
    smallest J, then est_k - tol_k <= J_k <= J_j <= est_j + tol_j for every
    j: block k is a candidate, est_i - tol_i <= min_j (est_j + tol_j), and the
    smallest J over the candidates is J_k.  Candidates with the same bytes
    have the same J, so each is computed once.
    """
    A = np.asarray(stack)
    if A.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    low = math.inf
    if A.shape[1:] == (1, 1):
        real = A.imag[:, 0, 0] == 0
        low = float(np.abs(A.real[real]).min(initial=math.inf))
        A = A[~real]
    if len(A) == 0:
        return low
    est = np.linalg.svd(A, compute_uv=False)[:, -1]
    with np.errstate(over="ignore"):    # a norm past the largest double: tol = inf
        tol = (SCREEN_SLACK * max(A.shape[1:]) * np.finfo(float).eps
               * np.linalg.norm(A, axis=(1, 2)))
    candidates = np.flatnonzero(est - tol <= (est + tol).min())
    distinct = {A[i].tobytes(): A[i] for i in candidates.tolist()}
    return min(low, float(min(svdvals_accurate(a)[-1] for a in distinct.values())))


def banded_log_abs_det(band, k: int, sizes) -> np.ndarray:
    """log|det| of banded matrices, by partial-pivoting LU in stacks.

    ``band(r, i)`` gives rows r of matrices i (int arrays) as a
    (len(r), 2k+1, len(i)) array whose [a, t, b] is entry (r[a], r[a]-k+t)
    of matrix i[b], 0 outside it (its size is ``sizes[i[b]]``), in one dtype,
    which sets the arithmetic.  Sizes come in any order, results in theirs.
    Largest first (a stable sort), the matrices go in stacks of at most
    _BATCH_ENTRIES // (2k+1) whose LU fits _LU_BYTES (one matrix that alone
    does not raises BudgetExceeded before band is called), and their
    rows in slabs of at most _BATCH_ENTRIES entries, at least one row, as
    the LU reaches them.  Each step works on the sliding (k+1) x (2k+1)
    window of rows j..j+k and columns j..j+2k (pivoting fills at most k more
    superdiagonals, as in LAPACK's gbtrf): it picks the pivot of column j by
    LAPACK's rule (the first largest |Re| + |Im|), swaps it into row j and
    eliminates below it.  The result is the sum of log|u_jj| (the same bits
    in any stack), finite where |det| underflows, -inf after a zero pivot.
    """
    sizes, width = np.asarray(sizes), 2 * k + 1
    if (need := 2 * 16 * (k + 1) * width) > _LU_BYTES:
        raise BudgetExceeded(f"the banded LU at k = {k} needs up to "
                             f"{need / 2**20:.0f} MiB per matrix, over its budget "
                             f"of {_LU_BYTES / 2**20:.0f} MiB")
    cap = min(max(1, _BATCH_ENTRIES // width), _LU_BYTES // need)
    order = np.argsort(-sizes, kind="stable")
    out = np.empty(len(sizes))
    for start in range(0, len(order), cap):
        stack = order[start:start + cap]
        out[stack] = _stack_log_abs_det(band, k, stack, sizes[stack])
    return out


def _stack_log_abs_det(band, k: int, stack, sizes) -> np.ndarray:
    """One stack of banded_log_abs_det; step j factors its first count(sizes > j)."""
    n, size, width = len(stack), int(sizes[0]), 2 * k + 1

    def rows(r0, live):
        step = max(1, _BATCH_ENTRIES // (width * live))
        return band(np.arange(r0, min(r0 + step, size)), stack[:live])

    slab, lo = rows(0, n), 0
    window = np.zeros((k + 1, width, n), dtype=slab.dtype)
    logsum = np.zeros(n)        # log|u_jj| added in row order, lane by lane
    # step j shifts the window up and left and takes in row j + k; steps < 0 only fill it
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
        moved = np.flatnonzero(p)       # lanes whose pivot is not in row j
        top = win[0, :, moved]
        win[0, :, moved] = win[p[moved], :, moved]
        win[p[moved], :, moved] = top
        piv = win[0, 0]
        with np.errstate(divide="ignore"):
            logsum[:live] += np.log(np.abs(piv))
        # a zero pivot heads a zero column: there is nothing to eliminate
        factors = win[1:, 0] / np.where(piv == 0, 1, piv)
        win[1:, 1:] -= factors[:, None] * win[0, 1:]
    return logsum
