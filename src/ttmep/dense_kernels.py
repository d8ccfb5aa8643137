"""Dense linear-algebra contracts shared by the other modules.

Thin, verified wrappers around LAPACK (through numpy/scipy): a full
nonsymmetric generalized eigensolver that solves in the homogeneous
(alpha, beta) form and flags the infinite eigenvalues, the deterministic Ritz-value
selection rule, and the principal angle between two vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class SingularPencilError(RuntimeError):
    """Both matrices of a pencil are numerically rank-deficient together."""


RITZ_RULES = ("positive-real-part", "positive-imag-part")
# |beta| at or below this fraction of ||N|| marks an infinite eigenvalue
BETA_FLOOR = 1e-14


@dataclass
class GeneralizedEigenResult:
    """Full spectrum of a pencil (M, N).

    ``eigenvalues`` holds alpha/beta where finite and complex infinity where
    ``finite`` is False; ``right`` holds the eigenvectors columnwise.
    """

    eigenvalues: np.ndarray
    finite: np.ndarray
    right: np.ndarray


def generalized_eig(m: np.ndarray, n: np.ndarray) -> GeneralizedEigenResult:
    """Full QZ-style solve of the pencil (M, N).

    Pairs with |beta| below ``BETA_FLOOR`` times the scale of N are flagged
    infinite rather than divided out. If some pair has both alpha and beta
    at the noise floor the pencil is reported singular.
    """
    m = np.asarray(m, dtype=float) if not np.iscomplexobj(m) else np.asarray(m)
    n = np.asarray(n, dtype=float) if not np.iscomplexobj(n) else np.asarray(n)
    if m.shape != n.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("pencil matrices must be square and of equal size")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(n))):
        raise ValueError("non-finite entries in pencil")
    (alpha, beta), vr = sla.eig(
        m, n, right=True, homogeneous_eigvals=True, check_finite=False
    )
    scale_m = max(float(np.linalg.norm(m)), np.finfo(float).tiny)
    scale_n = max(float(np.linalg.norm(n)), np.finfo(float).tiny)
    finite = np.abs(beta) > BETA_FLOOR * scale_n
    degenerate = ~finite & (np.abs(alpha) <= BETA_FLOOR * scale_m)
    if np.any(degenerate):
        raise SingularPencilError(
            f"{int(np.count_nonzero(degenerate))} alpha/beta pairs vanish together"
        )
    lam = np.full(alpha.shape, complex(np.inf), dtype=complex)
    lam[finite] = alpha[finite] / beta[finite]
    return GeneralizedEigenResult(eigenvalues=lam, finite=finite, right=vr)


def select_ritz(
    result: GeneralizedEigenResult,
    count: int,
    rule: str = "positive-real-part",
) -> tuple[list[int], bool]:
    """Indices of ``count`` finite eigenvalues, smallest modulus first.

    Eligible values must have positive real (or imaginary, per ``rule``)
    part; ties are broken by real then imaginary part so the ordering is
    deterministic. When fewer than ``count`` qualify the selection is padded
    with the smallest-modulus remaining finite values and the flag is set.
    """
    if rule not in RITZ_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    lam = result.eigenvalues
    finite = np.nonzero(result.finite)[0]

    def sort_key(i):
        return (abs(lam[i]), lam[i].real, lam[i].imag)

    part = np.real if rule == "positive-real-part" else np.imag
    eligible = sorted((i for i in finite if part(lam[i]) > 0), key=sort_key)
    chosen = eligible[:count]
    padded = False
    if len(chosen) < count:
        rest = sorted((i for i in finite if i not in set(chosen)), key=sort_key)
        chosen = chosen + rest[: count - len(chosen)]
        padded = True
    return chosen, padded


def principal_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>| / (||u|| ||v||); insensitive to sign and complex phase."""
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("zero vector has no direction")
    return float(np.abs(np.vdot(u, v)) / (nu * nv))
