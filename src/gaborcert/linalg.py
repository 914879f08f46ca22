"""Singular values with relative accuracy on matrices with tiny singular values."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

__all__ = ["jacobi_svdvals", "svdvals_accurate"]


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
