"""Answer checks made apart from the program, with plain numpy.

A returned tuple passes when its vectors have unit norm, its max-norm
residual (A_i - sum_j lambda_j B_ij) x_i is below RESIDUAL_TOL, and its
lambdas equal the exact tuple of its own multi-index. The multi-index is
read off the generator's diagonal spectra: for mode i it is the index k at
which a_i(k) - sum_j lambda_j b_ij(k) is nearest zero. A list passes when
every tuple does, no two tuples share a multi-index, and it is sorted by
|lambda_m - target|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from workloads import all_indices, exact_lambdas

RESIDUAL_TOL = 1e-6
LAMBDA_TOL = 1e-6
NORM_TOL = 1e-10


@dataclass
class ListCheck:
    errors: list[str] = field(default_factory=list)
    found: set[tuple[int, ...]] = field(default_factory=set)  # of tuples that pass
    max_residual: float = 0.0


def tuple_errors(lam, vectors, a, b, a_spec, b_spec):
    """Errors of one tuple, its multi-index and its residual."""
    lam = np.asarray(lam, dtype=complex)
    m = len(a)
    errors = []
    residual = 0.0
    for i in range(m):
        x = np.asarray(vectors[i], dtype=complex)
        norm = np.linalg.norm(x)
        if not abs(norm - 1.0) <= NORM_TOL:
            errors.append(f"vector {i + 1} has norm {norm!r}")
        r = a[i] @ x - sum(lam[j] * (b[i][j] @ x) for j in range(m))
        residual = max(residual, float(np.max(np.abs(r))))
    if not residual < RESIDUAL_TOL:
        errors.append(f"residual {residual:.3e} not below {RESIDUAL_TOL}")
    gap = np.abs(a_spec - np.einsum("j,ijk->ik", lam, b_spec))
    index = tuple(int(k) for k in np.argmin(gap, axis=1))
    exact = exact_lambdas(a_spec, b_spec, np.array([index]))[0]
    deviation = float(np.max(np.abs(lam - exact)))
    if not deviation <= LAMBDA_TOL:
        errors.append(f"lambda is {deviation:.3e} from the exact tuple of index {index}")
    return errors, index, residual


def check_list(tuples, a, b, a_spec, b_spec, target: float) -> ListCheck:
    """Check a returned list of (lam, vectors) pairs."""
    out = ListCheck()
    seen: dict[tuple[int, ...], int] = {}
    for p, (lam, vectors) in enumerate(tuples):
        errors, index, residual = tuple_errors(lam, vectors, a, b, a_spec, b_spec)
        out.max_residual = max(out.max_residual, residual)
        if index in seen:
            errors.append(f"repeats multi-index {index} of tuple {seen[index]}")
        seen.setdefault(index, p)
        out.errors.extend(f"tuple {p}: {e}" for e in errors)
        if not errors:
            out.found.add(index)
    keys = [abs(complex(lam[-1]) - target) for lam, _ in tuples]
    for p in range(1, len(keys)):
        if keys[p] < keys[p - 1]:
            out.errors.append(f"tuple {p} is nearer the target than tuple {p - 1}")
    return out


def oracle_indices(m: int, n: int, a_spec, b_spec, target: float, wanted: int):
    """Multi-indices of the ``wanted`` exact tuples nearest the target in lambda_m."""
    idx = all_indices(m, n)
    keys = np.abs(exact_lambdas(a_spec, b_spec, idx)[:, m - 1] - target)
    order = np.argsort(keys, kind="stable")[:wanted]
    return {tuple(int(k) for k in idx[t]) for t in order}
