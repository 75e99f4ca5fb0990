"""Cyclic Jacobi eigensolver for complex Hermitian matrices: the tests' oracle.

The package diagonalizes with LAPACK only. This routine is a different
algorithm with high relative accuracy (Demmel & Veselic, SIAM J. Matrix Anal.
Appl. 13, 1992), so the tests check ``op.spectrum`` and ``eig_hermitian``
against it.
"""

from __future__ import annotations

import math

import numpy as np

from qentropy.errors import ConvergenceFailure
from qentropy.linalg import _offdiag_norm

# Jacobi termination: off-diagonal Frobenius norm below this, or give up
# after the sweep cap (convergence is quadratic; 100 sweeps is far beyond
# anything a finite-precision Hermitian matrix needs).
JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_spectrum(matrix) -> np.ndarray:
    """Jacobi eigenvalues of a Hermitian matrix, descending."""
    values, _ = jacobi_eigh(matrix)
    return np.sort(values)[::-1]


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation annihilating the (p, q) off-diagonal pair.

    The pivot's phase is peeled off first so the rotation angle reduces to
    the real symmetric formula; rows and columns then pick up conjugate
    phase factors.
    """
    apq = complex(a[p, q])
    r = abs(apq)
    app = float(a[p, p].real)
    aqq = float(a[q, q].real)
    phase = apq / r
    theta = 0.5 * math.atan2(2.0 * r, app - aqq)
    c = math.cos(theta)
    s = math.sin(theta)
    s_plus = s * phase
    s_minus = s * phase.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s_minus * col_q
    a[:, q] = -s_plus * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s_plus * row_q
    a[q, :] = -s_minus * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p + s_minus * vcol_q
    v[:, q] = -s_plus * vcol_p + c * vcol_q


def jacobi_eigh(
    matrix: np.ndarray,
    offdiag_tol: float = JACOBI_OFFDIAG_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Returns (eigenvalues, eigenvector columns), unsorted. The input is
    assumed Hermitian; callers validate. Raises ConvergenceFailure with the
    residual off-diagonal norm if the sweep cap is hit.
    """
    a = np.array(matrix, dtype=np.complex128)
    d = a.shape[0]
    v = np.eye(d, dtype=np.complex128)
    if d == 1:
        return np.real(np.diag(a)).copy(), v
    # Pivots already this far below the target norm cannot push it back up.
    skip = offdiag_tol / (d * d)
    sweeps = 0
    while _offdiag_norm(a) >= offdiag_tol:
        if sweeps >= max_sweeps:
            residual = _offdiag_norm(a)
            raise ConvergenceFailure(
                f"off-diagonal norm {residual:.3e} after {sweeps} sweeps "
                f"(target {offdiag_tol:.0e})",
                residual=residual,
            )
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) > skip:
                    _rotate(a, v, p, q)
        sweeps += 1
    return np.real(np.diag(a)).copy(), v
