"""Dense linear-algebra contracts shared by the other modules.

Thin, verified wrappers around LAPACK (through numpy/scipy): a full
nonsymmetric generalized eigensolver that solves in the homogeneous
(alpha, beta) form and flags the infinite eigenvalues, the deterministic Ritz-value
selection rule, and the principal angle between two vectors.

The eigensolver is one LAPACK ``?ggev`` call with left vectors off. It
can factor the pencil in the caller's buffers (``overwrite=True`` on
Fortran-ordered matrices of the LAPACK dtype), and it keeps LAPACK's
right-vector matrix as returned: a unit eigenvector is built only for the
pairs a caller asks for, byte for byte the column ``scipy.linalg.eig``
would return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class SingularPencilError(np.linalg.LinAlgError):
    """Both matrices of a pencil are numerically rank-deficient together."""


# |beta| at or below this fraction of ||N|| marks an infinite eigenvalue
BETA_FLOOR = 1e-14


@dataclass
class GeneralizedEigenResult:
    """Full spectrum of a pencil (M, N).

    ``eigenvalues`` holds alpha/beta where finite and complex infinity where
    ``finite`` is False. ``lapack_right`` is ``?ggev``'s right-vector matrix,
    unnormalized. ``pair_marks`` is None when its columns are the vectors
    themselves (a complex pencil, or a real one with a real spectrum);
    otherwise it marks each column ``j`` that holds the real part of a
    complex pair whose imaginary part is column ``j + 1``.
    """

    eigenvalues: np.ndarray
    finite: np.ndarray
    lapack_right: np.ndarray
    pair_marks: np.ndarray | None = None

    def vector(self, i: int) -> np.ndarray:
        """Unit right eigenvector of pair ``i``.

        The bytes are those of ``scipy.linalg.eig(..., homogeneous_eigvals=True)``:
        its ``_make_complex_eigvecs`` packing, then a division by the BLAS
        ``nrm2`` norm. In the homogeneous form that packing's LAPACK-bug
        workaround (``w.imag[1:] < 0``) reads the real beta row, so the
        marks are exactly ``alpha.imag > 0``.
        """
        vr, marks = self.lapack_right, self.pair_marks
        if marks is None:
            v = vr[:, i].copy()
        else:
            v = np.empty(vr.shape[0], dtype=np.result_type(vr.dtype, np.complex64))
            if marks[i]:
                v.real, v.imag = vr[:, i], vr[:, i + 1]
            elif i > 0 and marks[i - 1]:  # the conjugate of the pair's first vector
                v.real, v.imag = vr[:, i - 1], -vr[:, i]
            else:
                v.real, v.imag = vr[:, i], 0.0
        v /= sla.norm(v)
        return v


def _frobenius(a: np.ndarray) -> float:
    """||a||_F summed over the C-order flattening (a transient copy for
    other layouts), the order ``numpy.linalg.norm`` takes on a C-ordered
    matrix, so the thresholds do not depend on the pencil's layout."""
    return max(float(np.linalg.norm(a.ravel(order="C"))), np.finfo(float).tiny)


def generalized_eig(
    m: np.ndarray, n: np.ndarray, overwrite: bool = False
) -> GeneralizedEigenResult:
    """Full QZ solve of the pencil (M, N): LAPACK ``?ggev``, right vectors only.

    Pairs with |beta| below ``BETA_FLOOR`` times the scale of N are flagged
    infinite rather than divided out. If some pair has both alpha and beta
    at the noise floor the pencil is reported singular. With ``overwrite``
    the factorization may destroy ``m`` and ``n``; it works in their buffers
    when they are Fortran-ordered and of the LAPACK dtype. Without it the
    inputs are never written. LAPACK failures raise as in scipy:
    ``LinAlgError`` when QZ does not converge, ``ValueError`` on an illegal
    argument.
    """
    m = np.asarray(m, dtype=float) if not np.iscomplexobj(m) else np.asarray(m)
    n = np.asarray(n, dtype=float) if not np.iscomplexobj(n) else np.asarray(n)
    if m.shape != n.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("pencil matrices must be square and of equal size")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(n))):
        raise ValueError("non-finite entries in pencil")
    scale_m, scale_n = _frobenius(m), _frobenius(n)
    ggev, = sla.get_lapack_funcs(("ggev",), (m, n))
    # a workspace query leaves both matrices alone, so it need not copy them
    query = ggev(m, n, compute_vl=0, lwork=-1, overwrite_a=1, overwrite_b=1)
    lwork = query[-2][0].real.astype(np.int_)
    del query
    out = ggev(m, n, compute_vl=0, lwork=lwork, overwrite_a=overwrite, overwrite_b=overwrite)
    info = out[-1]
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal ggev")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})"
        )
    if ggev.typecode in "cz":
        alpha, beta, _, vr, _, _ = out
        marks = None
    else:
        alphar, alphai, beta, _, vr, _, _ = out
        alpha = alphar + 1j * alphai
        marks = None if np.all(alpha.imag == 0.0) else alpha.imag > 0
    finite = np.abs(beta) > BETA_FLOOR * scale_n
    degenerate = ~finite & (np.abs(alpha) <= BETA_FLOOR * scale_m)
    if np.any(degenerate):
        raise SingularPencilError(
            f"{int(np.count_nonzero(degenerate))} alpha/beta pairs vanish together"
        )
    lam = np.full(alpha.shape, complex(np.inf), dtype=complex)
    lam[finite] = alpha[finite] / beta[finite]
    return GeneralizedEigenResult(
        eigenvalues=lam, finite=finite, lapack_right=vr, pair_marks=marks
    )


def select_ritz(result: GeneralizedEigenResult, count: int) -> tuple[list[int], bool]:
    """Indices of ``count`` finite eigenvalues with positive real part,
    smallest modulus first.

    The solver shifts its target to 0, and an exterior target lies below
    every lambda_m, so the wanted values have positive real part; an
    interior target therefore sees the values above it only. Ties are
    broken by real then imaginary part so the ordering is deterministic.
    When fewer than ``count`` qualify the selection is padded with the
    smallest-modulus remaining finite values and the flag is set.
    """
    lam = result.eigenvalues
    finite = np.nonzero(result.finite)[0]
    eligible = lam[finite].real > 0

    def sort_key(i):
        return (abs(lam[i]), lam[i].real, lam[i].imag)

    chosen = sorted(finite[eligible], key=sort_key)
    if len(chosen) >= count:
        return chosen[:count], False
    return (chosen + sorted(finite[~eligible], key=sort_key))[:count], True


def principal_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>| / (||u|| ||v||); insensitive to sign and complex phase."""
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("zero vector has no direction")
    return float(np.abs(np.vdot(u, v)) / (nu * nv))
