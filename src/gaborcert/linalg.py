"""Block singular values behind a rounding margin, and log-determinants of
stacks of banded matrices.

A certificate's block sigma_min comes from LAPACK's gesdd, which is backward
stable: its estimate of each block's sigma_min is within p(s) eps ||A||_F of
the true value, so ``stack_sigma_min`` refuses every block whose estimate
does not clear twice the tolerance SCREEN_SLACK * s * eps * ||A||_F that
covers that error.  A block it passes has sigma_min above rounding level by
a factor SCREEN_SLACK, and a real 1x1 block is its exact |a|.  The
preconditioned Jacobi SVD (``dgejsv``, relative accuracy on graded matrices)
is the tests' oracle for both gesdd paths, here and in the finite sections;
no command calls it, so none imports SciPy for it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

__all__ = ["jacobi_svdvals", "svdvals_accurate", "stack_sigma_min",
           "banded_log_abs_det"]

# stack_sigma_min: the tolerance of an s x s block A is
# SCREEN_SLACK * s * eps * ||A||_F; a block passes if its sigma_min estimate
# exceeds twice that
SCREEN_SLACK = 32
# banded_log_abs_det's budgets: band entries evaluated at once (one row of a
# stack, one slab of rows), and bytes of one stack's LU at 16 bytes
# (complex128) an entry: its window, the copy of row j and the k factors of a
# swap and an elimination, and a step's k x 2k temporary, twice the window in
# all; the peak adds a slab, per-lane real and boolean rows and numpy's ufunc
# buffers.  One matrix fits up to k = 4,095.
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
    values to zero.  No command calls it: it is the tests' oracle, and
    ``perfbench/tracer.py`` wraps it and ``svdvals_accurate`` by name.
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
    from scipy.linalg import lapack   # here, so importing gaborcert loads no SciPy

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


def stack_sigma_min(stack) -> tuple:
    """(sigma, refused) for an (N, m, n) stack: sigma is the smallest
    singular-value estimate est_i over its blocks (inf for an empty stack),
    and refused is None when every block passes the margin below, else
    (est_i, tol_i) of the refused block with the smallest est_i.

    A real-valued 1x1 block [a] gives its exact |a|, with tolerance 0.  One
    batched LAPACK SVD (``gesdd``, in the stack's dtype) estimates every
    other block's smallest singular value est_i.  It is backward stable: it
    returns the singular values of A + E with ||E||_2 <= p(s) eps ||A||_2
    for a modest p of the size s = max(m, n) (the LAPACK Users' Guide
    bound), so by Weyl's inequality est_i is within p(s) eps ||A_i||_F of
    the true sigma_min.  With tol_i = SCREEN_SLACK * s * eps * ||A_i||_F
    covering that error, est_i - tol_i is a lower bound on it, and a block
    passes only if est_i - tol_i > tol_i: its sigma_min then exceeds both
    tol_i and est_i / 2, and est_i is within tol_i / sigma_min < 1 of it
    relative (about 1/SCREEN_SLACK when p(s) <= s).  A block at
    rounding level, whose sigma_min gesdd cannot tell from 0, is refused,
    and so is one whose norm overflows (tol = inf).  The norm comes from
    the same singular values (||A||_F^2 is their sum of squares), scaled by
    the largest, so a tiny block keeps a positive tolerance.
    """
    A = np.asarray(stack)
    if A.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    est, tol = np.zeros(0), np.zeros(0)
    if A.shape[1:] == (1, 1):
        real = A.imag[:, 0, 0] == 0
        est = np.abs(A.real[real, 0, 0])
        tol = np.zeros(len(est))
        A = A[~real]
    if len(A):
        sv = np.linalg.svd(A, compute_uv=False)
        # ||A_i||_F from its singular values over the largest, so that no
        # square underflows (a tiny block would get tol = 0) or overflows
        top = sv[:, 0]
        unit = sv / np.where(top > 0, top, 1.0)[:, None]
        with np.errstate(over="ignore"):    # a norm past the largest double: tol = inf
            frob = top * np.linalg.norm(unit, axis=1)
        est = np.concatenate((est, sv[:, -1]))
        tol = np.concatenate((tol, SCREEN_SLACK * max(A.shape[1:])
                              * np.finfo(float).eps * frob))
    sigma = float(est.min(initial=math.inf))
    refused = np.flatnonzero(~(est - tol > tol))
    if len(refused) == 0:
        return sigma, None
    worst = refused[np.argmin(est[refused])]
    return sigma, (float(est[worst]), float(tol[worst]))


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
    superdiagonals, as in LAPACK's gbtrf).  Its pivot is LAPACK's, the first
    largest |Re| + |Im| of column j: rows j+1..j+k in turn displace the
    largest so far only where strictly larger, so a tie keeps the upper row.
    The pivot row and row j trade places through a copy of row j and one
    lane mask per row (np.copyto), which leaves the lanes whose pivot is in
    row j alone; the rows below are eliminated with factors divided only
    where the pivot is nonzero (a zero pivot heads a zero column).  A NaN is
    never larger, so the search passes over one below row j where argmax
    would take it; its lane gives NaN either way, as every row of a matrix
    is a pivot row once and elimination spreads a NaN along each row it
    reaches.  Finite entries give no NaN short of overflow, and certify's
    are values of a window, finite by construction.  The result is the sum
    of log|u_jj| (the same bits in any stack), finite where |det|
    underflows, -inf after a zero pivot.
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
    top = np.empty((width, n), dtype=slab.dtype)       # row j while it swaps
    quotients = np.empty((k, n), dtype=slab.dtype)
    logsum = np.zeros(n)        # log|u_jj| added in row order, lane by lane
    # step j shifts the window up and left and takes in row j + k; steps < 0 only fill it
    lives = [n] * k + np.searchsorted(-sizes, -np.arange(size), side="left").tolist()
    with np.errstate(divide="ignore"):
        for j, live in enumerate(lives, start=-k):
            win = window[:, :, :live]
            win[:-1, :-1] = win[1:, 1:]
            win[:-1, -1] = 0
            if lo + len(slab) <= j + k < size:
                slab, lo = rows(j + k, live), j + k
            win[-1] = slab[j + k - lo, :, :live] if j + k < size else 0
            if j < 0:
                continue
            if k:
                _swap_in_pivot(win, top[:, :live])
            piv = win[0, 0]
            logsum[:live] += np.log(np.abs(piv))
            # a zero pivot heads a zero column, whose own zeros are its factors
            factors = quotients[:, :live]
            np.copyto(factors, win[1:, 0])
            np.divide(win[1:, 0], piv, out=factors, where=piv != 0)
            win[1:, 1:] -= factors[:, None] * win[0, 1:]
    return logsum


def _swap_in_pivot(win, top) -> None:
    """Swap row 0 of each lane of the (k+1, 2k+1, lanes) window win with the
    row of its pivot, the first largest |Re| + |Im| in column 0; top is
    (2k+1, lanes) scratch."""
    col = win[:, 0]
    mag = (np.abs(col.real) + np.abs(col.imag) if col.dtype.kind == "c"
           else np.abs(col))
    # beats[r - 1]: row r is larger than rows 0..r-1, whose largest mag[0] carries
    k, beats = len(win) - 1, []
    for r in range(1, k + 1):
        beats.append(gt := mag[r] > mag[0])
        if r < k:
            np.copyto(mag[0], mag[r], where=gt)
    # the pivot is the last row that beats all above it; later: some row below beats
    np.copyto(top, win[0])
    later = beats[-1]
    for r in range(k, 0, -1):
        at = later if r == k else np.greater(beats[r - 1], later)
        np.copyto(win[0], win[r], where=at)
        np.copyto(win[r], top, where=at)
        if 1 < r < k:
            later |= beats[r - 1]
