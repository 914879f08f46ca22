"""Singular values with relative accuracy on matrices with tiny singular
values, and log-determinants of stacks of banded matrices."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

__all__ = ["jacobi_svdvals", "svdvals_accurate", "stack_sigma_min",
           "banded_log_abs_det"]

# stack_sigma_min: the screen's tolerance of an s x s block A is
# SCREEN_SLACK * s * eps * ||A||_F
SCREEN_SLACK = 32


def jacobi_svdvals(A) -> np.ndarray:
    """Singular values, descending, by LAPACK's preconditioned Jacobi SVD.

    ``dgejsv`` (Drmač and Veselić, SIAM J. Matrix Anal. Appl. 29, 2008) keeps
    the small singular values of column-graded matrices to relative accuracy,
    where bidiagonalization loses them.  It needs m >= n, so a wide matrix is
    transposed first.  A complex matrix goes through the real embedding
    [[Re, -Im], [Im, Re]], which has each singular value of A twice; a
    complex matrix with zero imaginary part goes in as a real one.
    ``joba=0`` ('C') is used because the default ('A') sets small singular
    values to zero.  A real 1x1 matrix [a] gets |a| without the call: that
    is exactly what ``dgejsv`` returns for it.
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
    if A.shape == (1, 1):
        return np.abs(A[0]).astype(np.float64)
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

    One batched LAPACK SVD (``gesdd``, in real arithmetic when the stack has
    no imaginary part) estimates every block's smallest singular value
    est_i, and only the candidates go to ``svdvals_accurate``.  Both SVDs are
    backward stable: each returns the singular values of A + E with
    ||E||_2 <= p(s) eps ||A||_2 for a modest p of the size s = max(m, n) (the
    LAPACK Users' Guide bound; ``dgejsv``'s real embedding of a complex block
    has the same 2-norm), so by Weyl's inequality each is within
    p(s) eps ||A_i||_F of the true sigma_min.  With
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
    if len(A) == 0:
        return math.inf
    work = A.real if np.iscomplexobj(A) and not A.imag.any() else A
    est = np.linalg.svd(work, compute_uv=False)[:, -1]
    tol = (SCREEN_SLACK * max(A.shape[1:]) * np.finfo(float).eps
           * np.linalg.norm(work, axis=(1, 2)))
    candidates = np.flatnonzero(est - tol <= (est + tol).min())
    distinct = {A[i].tobytes(): A[i] for i in candidates.tolist()}
    return float(min(svdvals_accurate(a)[-1] for a in distinct.values()))


def banded_log_abs_det(rows, k: int, sizes: np.ndarray) -> np.ndarray:
    """log|det| of a stack of banded matrices, by one partial-pivoting LU.

    ``rows(r0, live)`` gives a slab of band rows r0..r1-1 of the first live
    matrices, for an r1 > r0 of its choosing, as an (r1 - r0, 2k + 1, live)
    array: ``slab[r - r0, t, i]`` is entry (r, r - k + t) of matrix i, for
    rows r below its size ``sizes[i]``; every other slot holds 0, so each
    matrix has at most k sub- and k superdiagonals.  Every slab has one
    dtype, which sets the arithmetic.  The sizes must be non-increasing, so
    the matrices still being factored at step j are the first
    count(sizes > j); a slab is asked for when the last one runs out, never
    past row max(sizes) - 1.  Each step works on the sliding
    (k+1) x (2k+1) window of rows j..j+k and columns j..j+2k (pivoting
    fills at most k more superdiagonals, as in LAPACK's gbtrf): it picks the
    pivot of column j by LAPACK's rule (the first largest |Re| + |Im|),
    swaps it into row j and eliminates below it.  The result is the sum of
    log|u_jj|, finite where |det| underflows, and -inf after a zero pivot.
    """
    n, size = len(sizes), int(sizes[0])
    slab, lo = rows(0, n), 0
    window = np.zeros((k + 1, 2 * k + 1, n), dtype=slab.dtype)
    # each matrix's log|u_jj|, added in row order from 0.0, so a sample's
    # bits do not depend on the others in its stack
    logsum = np.zeros(n)
    lanes = np.arange(n)

    def slide(row, live):
        """Drop the window's top row and left column; row enters at the bottom."""
        nonlocal slab, lo
        win = window[:, :, :live]
        win[:-1, :-1] = win[1:, 1:]
        win[:-1, -1] = 0
        if lo + len(slab) <= row < size:
            slab, lo = rows(row, live), row
        win[-1] = slab[row - lo, :, :live] if row < size else 0
        return win

    for r in range(k):
        slide(r, n)
    # count(sizes > j) at each step j, from the sorted sizes
    live_counts = np.searchsorted(-np.asarray(sizes), -np.arange(size),
                                  side="left")
    for j, live in enumerate(live_counts.tolist()):
        win = slide(j + k, live)
        col = win[:, 0]
        mag = (np.abs(col.real) + np.abs(col.imag) if col.dtype.kind == "c"
               else np.abs(col))
        p = mag.argmax(axis=0)
        top = win[0].copy()
        win[0] = win[p, :, lanes[:live]].T
        win[p, :, lanes[:live]] = top.T
        piv = win[0, 0]
        with np.errstate(divide="ignore"):
            logsum[:live] += np.log(np.abs(piv))
        # a zero pivot heads a zero column: there is nothing to eliminate
        factors = win[1:, 0] / np.where(piv == 0, 1, piv)
        win[1:, 1:] -= factors[:, None] * win[0, 1:]
    return logsum
