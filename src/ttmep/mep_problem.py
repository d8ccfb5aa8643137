"""Multiparameter eigenvalue problem container and exact-answer machinery.

An m-parameter problem couples m square pencils: equation i reads
A_i x_i = sum_j lambda_j B_ij x_i. This module holds the matrices, residual
checks, a seeded random generator whose eigenvalue tuples are known exactly
(each tuple solves a small m x m linear system built from the generator's
diagonal spectra), tensor Rayleigh quotient refinement, left-tuple
computation, and the duplicate test used to reject re-found eigenvalues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .tt_core import CapExceededError, TTOperator, _integer, _real_array, rank_one_bilinear

ORACLE_CAP = 10_000_000
# multi-indices solved per batch by oracle_eigenvalues
ORACLE_CHUNK = 200_000


class SingularRayleighError(np.linalg.LinAlgError):
    """The m x m Rayleigh system is numerically singular."""


@dataclass
class MEProblem:
    """Matrices of an m-parameter problem: a[i] = A_i, b[i][j] = B_ij."""

    a: list[np.ndarray]
    b: list[list[np.ndarray]]

    def __post_init__(self):
        m = len(self.a)
        if m == 0:
            raise ValueError("a problem needs at least one equation")
        if len(self.b) != m or any(len(row) != m for row in self.b):
            raise ValueError("B must be an m x m grid of matrices")
        for i in range(m):
            if self.a[i].ndim != 2 or self.a[i].shape[0] != self.a[i].shape[1]:
                raise ValueError(f"A_{i + 1} is not a square matrix")
            n = self.a[i].shape[0]
            if not np.all(np.isfinite(self.a[i])):
                raise ValueError(f"A_{i + 1} has non-finite entries")
            for j in range(m):
                if self.b[i][j].shape != (n, n):
                    raise ValueError(f"B_{i + 1}{j + 1} does not match A_{i + 1}")
                if not np.all(np.isfinite(self.b[i][j])):
                    raise ValueError(f"B_{i + 1}{j + 1} has non-finite entries")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(mat.shape[0] for mat in self.a)


@dataclass
class EigenTuple:
    """Eigenvalue tuple with unit-norm eigenvector tuple and residual."""

    lam: np.ndarray  # complex, shape (m,)
    vectors: list[np.ndarray]  # x_i, unit norm
    residual_norm: float
    left_vectors: list[np.ndarray] | None = None
    flags: tuple[str, ...] = ()
    # |y^H D0 x| against the solver's D0, stored when the solver admits the
    # tuple so the duplicate screen does not recompute it; None elsewhere
    delta0_den: float | None = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, prob: MEProblem, lam, vectors, flags=()):
        lam = np.asarray(lam, dtype=complex).reshape(-1)
        vecs = []
        for v in vectors:
            v = np.asarray(v, dtype=complex).reshape(-1)
            nv = np.linalg.norm(v)
            if nv == 0:
                raise ValueError("zero eigenvector component")
            vecs.append(v / nv)
        _, norm = residual_tuple(prob, lam, vecs)
        return cls(lam, vecs, norm, flags=tuple(flags))


@dataclass
class GeneratedProblem:
    """Problem with known diagonalization A_i = U_i diag(a_i) Z_i.

    The parts are arrays over the m equations of a problem with one mode
    size n: ``u_factors`` and ``z_factors`` (m, n, n), ``spectrum_a``
    (m, n) and ``spectrum_b`` (m, m, n), with B_ij = U_i diag(b_ij) Z_i.
    Nested lists are stacked on construction; a part of another shape or
    with non-finite entries, or unequal mode sizes, raise ``ValueError``.
    """

    problem: MEProblem
    u_factors: np.ndarray
    z_factors: np.ndarray
    spectrum_a: np.ndarray
    spectrum_b: np.ndarray
    seed: int

    def __post_init__(self):
        m, sizes = self.problem.m, self.problem.sizes
        if len(set(sizes)) != 1:
            raise ValueError(f"generator needs equal mode sizes, got {list(sizes)}")
        n = sizes[0]
        for name, shape in (
            ("u_factors", (m, n, n)),
            ("z_factors", (m, n, n)),
            ("spectrum_a", (m, n)),
            ("spectrum_b", (m, m, n)),
        ):
            try:
                part = np.ascontiguousarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:  # ragged, or not numbers
                raise ValueError(f"generator {name} is not an array of shape {shape}") from exc
            if part.shape != shape:
                raise ValueError(f"generator {name} has shape {part.shape}, expected {shape}")
            if not np.all(np.isfinite(part)):
                raise ValueError(f"generator {name} has non-finite entries")
            setattr(self, name, part)

    @property
    def m(self) -> int:
        return self.problem.m

    @property
    def n(self) -> int:
        return self.problem.sizes[0]

    def reconstruction_error(self) -> float:
        """Largest relative deviation of U diag(.) Z from the stored matrices."""
        worst = 0.0
        for i in range(self.m):
            for spec, mat in zip(
                (self.spectrum_a[i], *self.spectrum_b[i]),
                (self.problem.a[i], *self.problem.b[i]),
            ):
                ref = self.u_factors[i] @ np.diag(spec) @ self.z_factors[i]
                scale = max(np.linalg.norm(ref), 1e-300)
                worst = max(worst, np.linalg.norm(ref - mat) / scale)
        return worst


def _equation_matrix(prob: MEProblem, i: int, lam) -> np.ndarray:
    """A_i - sum_j lam_j B_ij of equation i (0-based), as a complex matrix."""
    mat = prob.a[i].astype(complex)
    for j in range(prob.m):
        mat -= lam[j] * prob.b[i][j]
    return mat


def residual_tuple(prob: MEProblem, lam, vectors):
    """Stacked residual (A_i - sum_j lam_j B_ij) x_i and its max norm."""
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.size != prob.m or len(vectors) != prob.m:
        raise ValueError("tuple size does not match the problem")
    parts = []
    for i in range(prob.m):
        x = np.asarray(vectors[i]).reshape(-1)
        if x.size != prob.sizes[i]:
            raise ValueError(f"vector {i + 1} has wrong length")
        parts.append(_equation_matrix(prob, i, lam) @ x)
    stacked = np.concatenate(parts)
    return stacked, float(np.max(np.abs(stacked))) if stacked.size else 0.0


def chebyshev_lobatto(n: int) -> np.ndarray:
    """n Chebyshev-Gauss-Lobatto points cos(pi*k/(n-1)), from 1 down to -1."""
    if n < 2:
        raise ValueError("need at least two points")
    return np.cos(np.pi * np.arange(n) / (n - 1))


def generate_random_mep(m: int, n: int, seed: int) -> GeneratedProblem:
    """Seeded random problem with exactly solvable spectrum.

    Per equation i the factors are U_i, Z_i = I + 0.3*uniform(n, n). The A
    spectra are -5*normal(n). The B spectra are elementwise powers of a base
    vector: Chebyshev-Lobatto points mapped affinely onto the i-th of m
    adjacent subintervals of linspace(-1.9, 2, 2m+1), with power j-1 for
    B_ij (so B_i1 always has an all-ones spectrum). Deterministic in seed.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if seed < 0:
        raise ValueError(f"generator seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    factors = np.eye(n) + 0.3 * rng.random((m, 2, n, n))  # U_i, then Z_i, per i
    u_factors, z_factors = factors[:, 0], factors[:, 1]
    spectrum_a = -5.0 * rng.standard_normal((n, m)).T
    nodes = chebyshev_lobatto(n)
    limits = np.linspace(-1.9, 2.0, 2 * m + 1)[: 2 * m]
    lo, hi = limits[0::2, np.newaxis], limits[1::2, np.newaxis]
    base = nodes / 2.0 * (hi - lo) + (lo + hi) / 2.0  # (m, n)
    spectrum_b = np.stack([base**j for j in range(m)], axis=1)
    prob = MEProblem(
        a=[u @ np.diag(s) @ z for u, s, z in zip(u_factors, spectrum_a, z_factors)],
        b=[
            [u @ np.diag(s) @ z for s in row]
            for u, row, z in zip(u_factors, spectrum_b, z_factors)
        ],
    )
    return GeneratedProblem(prob, u_factors, z_factors, spectrum_a, spectrum_b, seed)


def index_eigenvalues(g: GeneratedProblem, idx: np.ndarray):
    """Exact eigenvalue tuples of the multi-indices ``idx`` (T, m).

    Multi-index (i_1, ..., i_m) yields one m x m linear system whose row i
    is [b_i1(i_i), ..., b_im(i_i)] with right-hand side a_i(i_i); its
    solution is the tuple. Returns (lam of shape (T, m), ok), where ``ok``
    marks the systems that are nonsingular with a finite solution.
    """
    rows = np.arange(g.m)
    mats = g.spectrum_b[rows[np.newaxis, :, np.newaxis], rows[np.newaxis, np.newaxis, :], idx[:, :, np.newaxis]]
    rhs = g.spectrum_a[rows[np.newaxis, :], idx]
    lam = _solve_halving(mats, rhs)
    return lam, np.all(np.isfinite(lam), axis=1)


def _solve_halving(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of mats[t] @ lam[t] = rhs[t]; a batch that fails is
    solved again as two halves, and a single failing system gives NaNs."""
    try:
        return np.linalg.solve(mats, rhs[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.full(rhs.shape, np.nan)
        h = len(mats) // 2
        return np.concatenate(
            [_solve_halving(mats[:h], rhs[:h]), _solve_halving(mats[h:], rhs[h:])]
        )


def oracle_eigenvalues(g: GeneratedProblem, how_many: int, target: complex = 0.0):
    """Exact tuples closest to the target in lambda_m, by full enumeration.

    Every multi-index is solved by ``index_eigenvalues``, in batches of
    ``ORACLE_CHUNK``; the eigenvectors are the matching columns of
    Z_i^{-1}. Returns (tuples, skipped_singular_count). Raises
    ``ValueError`` for a count below 1 or a non-finite target.
    """
    m, n = g.m, g.n
    total = n**m
    if how_many < 1:
        raise ValueError(f"how_many must be positive, got {how_many}")
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    if total > ORACLE_CAP:
        raise CapExceededError(f"{total} systems exceed the cap of {ORACLE_CAP}")
    skipped = 0
    kept: list[tuple[float, int, np.ndarray]] = []
    for start in range(0, total, ORACLE_CHUNK):
        stop = min(start + ORACLE_CHUNK, total)
        flat = np.arange(start, stop)
        idx = np.stack(np.unravel_index(flat, (n,) * m), axis=1)  # (T, m)
        lam, ok = index_eigenvalues(g, idx)
        skipped += int(np.count_nonzero(~ok))
        keys = np.abs(lam[:, m - 1] - target)
        good = np.nonzero(ok)[0]
        if good.size > how_many:
            part = good[np.argpartition(keys[good], how_many - 1)[:how_many]]
        else:
            part = good
        kept.extend((float(keys[t]), int(flat[t]), lam[t].copy()) for t in part)
    kept.sort(key=lambda item: (item[0], item[1]))
    kept = kept[:how_many]
    z_inv = np.linalg.inv(g.z_factors)
    tuples = []
    for _, flat_index, lam_row in kept:
        multi = np.unravel_index(flat_index, (n,) * m)
        vectors = [z_inv[i][:, multi[i]] for i in range(m)]
        tuples.append(EigenTuple.build(g.problem, lam_row, vectors))
    return tuples, skipped


def tensor_rayleigh_quotient(prob: MEProblem, vectors) -> np.ndarray:
    """Solve the m x m system x_i^H B_ij x_i * lam = x_i^H A_i x_i."""
    m = prob.m
    mat = np.empty((m, m), dtype=complex)
    rhs = np.empty(m, dtype=complex)
    for i in range(m):
        x = np.asarray(vectors[i]).reshape(-1)
        if np.linalg.norm(x) == 0:
            raise ValueError("zero vector in Rayleigh quotient")
        xh = np.conj(x)
        for j in range(m):
            mat[i, j] = xh @ (prob.b[i][j] @ x)
        rhs[i] = xh @ (prob.a[i] @ x)
    try:
        lam = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularRayleighError(
            f"Rayleigh system singular (cond ~ {np.linalg.cond(mat):.2e})"
        ) from exc
    if not np.all(np.isfinite(lam)):
        raise SingularRayleighError(
            f"Rayleigh system produced non-finite values (cond ~ {np.linalg.cond(mat):.2e})"
        )
    return lam


def trqi_refine(
    prob: MEProblem, t: EigenTuple, max_iter: int = 10, tol: float = 1e-10
) -> EigenTuple:
    """Tensor Rayleigh quotient iteration with inverse-iteration updates.

    Alternates (i) the Rayleigh solve for the full tuple and (ii) per
    equation a Newton-style update x_i <- normalize(solve(A_i - sum_j lam_j
    B_ij, B_im x_i)), falling back to a 1e-12-scaled diagonal shift when the
    solve is exactly singular. The returned tuple never has a larger
    residual than the input; on solve failure the input is returned flagged.
    """
    best = t
    vectors = [v.copy() for v in t.vectors]
    m = prob.m
    for _ in range(max_iter):
        if best.residual_norm < tol:
            break
        try:
            lam = tensor_rayleigh_quotient(prob, vectors)
            new_vectors = []
            for i in range(m):
                mat = _equation_matrix(prob, i, lam)
                rhs = prob.b[i][m - 1] @ vectors[i]
                try:
                    upd = np.linalg.solve(mat, rhs)
                except np.linalg.LinAlgError:
                    delta = 1e-12 * np.linalg.norm(prob.a[i])
                    upd = np.linalg.solve(mat + delta * np.eye(mat.shape[0]), rhs)
                nv = np.linalg.norm(upd)
                if nv == 0 or not np.all(np.isfinite(upd)):
                    raise np.linalg.LinAlgError("update vanished or is not finite")
                new_vectors.append(upd / nv)
        except np.linalg.LinAlgError:
            return replace(best, flags=best.flags + ("refine-solve-failed",))
        vectors = new_vectors
        cand = EigenTuple.build(prob, lam, vectors, flags=best.flags)
        if cand.residual_norm < best.residual_norm:
            best = cand
    return best


def left_eigenvector_tuple(prob: MEProblem, t: EigenTuple):
    """Left tuple y_i: the left null vectors of A_i - sum_j lam_j B_ij.

    Each y_i is the left singular vector of the smallest singular value, so
    y_i^H (A_i - sum_j lam_j B_ij) is as small as the tuple's residual
    allows, for real and complex matrices alike. These are the left
    eigenvectors on which the duplicate test's biorthogonality is defined.
    """
    return [
        np.linalg.svd(_equation_matrix(prob, i, t.lam))[0][:, -1] for i in range(prob.m)
    ]


def _unit(vectors) -> list[np.ndarray]:
    return [v / np.linalg.norm(v) for v in vectors]


def screen_denominator(t: EigenTuple, delta0: TTOperator) -> float:
    """|y^H D0 x| of a tuple with left vectors: the duplicate screen's divisor."""
    return abs(rank_one_bilinear(_unit(t.left_vectors), delta0, _unit(t.vectors)))


def duplicate_check(
    candidate_vectors,
    found: list[EigenTuple],
    delta0: TTOperator,
    xi: float = 1e-4,
):
    """Accept a candidate tuple iff it is far from every found eigenvector.

    Ratio |y_p^H D0 x_hat| / |y_p^H D0 x_p| is evaluated purely from the
    rank-one tuples and the train form of D0; the denominator is taken from
    ``delta0_den`` where the tuple carries one. The numerators of all found
    tuples come from one ``rank_one_bilinear`` pass over their stacked left
    vectors, so D0 meets the candidate once per core rather than once per
    found tuple. Returns (accept, worst_ratio); vanishing denominators
    reject with an infinite ratio.
    """
    if any(prev.left_vectors is None for prev in found):
        raise ValueError("found tuple lacks left vectors")
    if not found:
        return 0.0 < xi, 0.0
    cand = _unit([np.asarray(v).reshape(-1) for v in candidate_vectors])
    stacks = [np.stack(ys) for ys in zip(*(prev.left_vectors for prev in found))]
    stacks = [y / np.linalg.norm(y, axis=1, keepdims=True) for y in stacks]
    nums = np.abs(rank_one_bilinear(stacks, delta0, cand))
    dens = np.array(
        [
            prev.delta0_den
            if prev.delta0_den is not None
            else screen_denominator(prev, delta0)
            for prev in found
        ]
    )
    if np.any(dens < 1e-14 * np.maximum(1.0, nums)):
        return False, float("inf")
    worst = float(np.max(nums / dens))
    return worst < xi, worst


# ---------------------------------------------------------------------------
# problem files
#
# JSON: {"m", "sizes", "A": [matrix as list of rows ...],
#        "B": [[matrix ...] ...], "generator": {"seed", "a", "b"}}
# The generator block is optional; when present, the problem is regenerated
# from the seed on load and checked against the stored matrices so exact
# oracle enumeration stays available. Older files also carry a "style" key,
# which is ignored.


def problem_to_json(prob: MEProblem | GeneratedProblem) -> dict:
    g = prob if isinstance(prob, GeneratedProblem) else None
    p = g.problem if g is not None else prob
    doc = {
        "m": p.m,
        "sizes": list(p.sizes),
        "A": [mat.tolist() for mat in p.a],
        "B": [[mat.tolist() for mat in row] for row in p.b],
    }
    if g is not None:
        doc["generator"] = {
            "seed": g.seed,
            "a": g.spectrum_a.tolist(),
            "b": g.spectrum_b.tolist(),
        }
    return doc


def problem_from_json(doc: dict) -> MEProblem | GeneratedProblem:
    """The problem a document holds; ``ValueError`` for a malformed one."""
    try:
        m = _integer(doc["m"], "m")
        sizes = [_integer(s, "sizes entry") for s in doc["sizes"]]
        a = [_real_array(mat, f"A_{i + 1}") for i, mat in enumerate(doc["A"])]
        b = [[_real_array(mat, f"B_{i + 1}{j + 1}") for j, mat in enumerate(row)]
             for i, row in enumerate(doc["B"])]
        gen = doc.get("generator")
        if gen is not None:
            seed = _integer(gen["seed"], "generator seed")
            spectra = (_real_array(gen["a"], "generator spectrum_a"),
                       _real_array(gen["b"], "generator spectrum_b"))
    except TypeError as exc:  # a list, number or null where the format has another type
        raise ValueError(f"malformed problem document: {exc}") from exc
    prob = MEProblem(a=a, b=b)
    if prob.m != m or list(prob.sizes) != sizes:
        raise ValueError("header does not match the stored matrices")
    if gen is None:
        return prob
    # the seed pins the factors; the stored spectra are authoritative (they
    # may have been shifted since generation)
    regen = generate_random_mep(m, sizes[0], seed)
    g = GeneratedProblem(prob, regen.u_factors, regen.z_factors, *spectra, seed)
    if g.reconstruction_error() > 1e-11:
        raise ValueError("generator metadata does not reproduce the stored matrices")
    return g


def save_problem(path, prob: MEProblem | GeneratedProblem) -> None:
    Path(path).write_text(json.dumps(problem_to_json(prob)) + "\n")


def load_problem(path) -> MEProblem | GeneratedProblem:
    return problem_from_json(json.loads(Path(path).read_text()))
