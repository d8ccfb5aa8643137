"""Tensor-train data structures and format-level algorithms.

A tensor Y of order m is kept as a chain of third-order cores G_k of shape
(r_{k-1}, n_k, r_k) with boundary ranks r_0 = r_m = 1, so that

    Y[i_1, ..., i_m] = G_1[:, i_1, :] @ G_2[:, i_2, :] @ ... @ G_m[:, i_m, :].

Vectors of length n_1*...*n_m are identified with such tensors through
C-order (last mode fastest) linearization; equivalently, a rank-one train
with mode vectors x_1, ..., x_m densifies to kron(x_1, kron(x_2, ...)).
Operators on the same product space carry fourth-order cores
(r_{k-1}, n_k, n_k, r_k) indexed by a (row, column) pair per mode.

A frame, and the solver's block iterate with it, is a plain core list and
the index k of its open core. In the block iterate b columns share every
core but the one at k, of shape (r_{k-1}, n_k, b, r_k); column i_b threads
the slice ``core[:, i_k, i_b, :]`` into the chain, and the cores left
(right) of k are left- (right-) orthonormal. The module provides the
environment contractions needed to project operators onto a frame without
ever materializing it, SVD-based rounding, the block-core shift that moves
the open core one mode over while keeping the frame orthonormal, and the
JSON train format.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# largest local size r_l * n_k * r_r that frame_project assembles
PROJECTED_DIM_CAP = 10_000
SV_FLOOR = 1e-14


class CapExceededError(RuntimeError):
    """Raised when an operation would materialize more data than allowed."""


def _as_tuple(xs) -> tuple[int, ...]:
    return tuple(int(x) for x in xs)


def _integer(value, name: str) -> int:
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)  # bool subclasses int
    if not (real and float(value).is_integer()):  # a fraction, infinity or NaN
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; a bool, string or null entry or ragged rows raise."""
    entries = np.array(value, dtype=object)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entries.flat):
        raise ValueError(f"{name} must be an array of numbers with rows of equal length")
    return entries.astype(float)


# ---------------------------------------------------------------------------
# containers


@dataclass(repr=False)
class _Chain:
    """Chain of cores (r_{k-1}, *modes, r_k) with boundary ranks 1."""

    cores: list[np.ndarray]

    CORE_NDIM = 3

    def __post_init__(self):
        if not self.cores:
            raise ValueError("empty core list")
        for k, g in enumerate(self.cores):
            if g.ndim != self.CORE_NDIM:
                raise ValueError(f"core {k} must be {self.CORE_NDIM}D, got shape {g.shape}")
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[-1] != 1:
            raise ValueError("boundary ranks must both be 1")
        for k in range(len(self.cores) - 1):
            if self.cores[k].shape[-1] != self.cores[k + 1].shape[0]:
                raise ValueError(f"rank mismatch between cores {k} and {k + 1}")

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return _as_tuple(g.shape[1] for g in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + _as_tuple(g.shape[-1] for g in self.cores)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mode_sizes={self.mode_sizes}, ranks={self.ranks})"


@dataclass(repr=False)
class TTVector(_Chain):
    """Vector on a mode product space, stored as a chain of 3D cores."""


@dataclass(repr=False)
class TTOperator(_Chain):
    """Operator on a mode product space, stored as a chain of 4D cores."""

    CORE_NDIM = 4

    def __post_init__(self):
        super().__post_init__()
        for k, g in enumerate(self.cores):
            if g.shape[1] != g.shape[2]:
                raise ValueError(f"core {k} must act on square modes")


def feasible_ranks(mode_sizes, ranks) -> tuple[int, ...]:
    """Clip a requested rank profile to what the unfoldings can support."""
    sizes = _as_tuple(mode_sizes)
    m = len(sizes)
    req = list(_as_tuple(ranks))
    if len(req) == m - 1:
        req = [1] + req + [1]
    if len(req) != m + 1:
        raise ValueError("rank profile must have m+1 (or m-1 interior) entries")
    out = [1] * (m + 1)
    for k in range(1, m):
        out[k] = max(1, min(req[k], math.prod(sizes[:k]), math.prod(sizes[k:])))
    return tuple(out)


# ---------------------------------------------------------------------------
# products


def tt_matvec(a: TTOperator, v: TTVector) -> TTVector:
    """Apply the operator; output ranks are the elementwise rank products."""
    if a.mode_sizes != v.mode_sizes:
        raise ValueError(
            f"mode mismatch: operator {a.mode_sizes} vs vector {v.mode_sizes}"
        )
    cores = []
    for ga, gv in zip(a.cores, v.cores):
        ra0, n, _, ra1 = ga.shape
        rv0, _, rv1 = gv.shape
        h = np.einsum("aijb,pjq->apibq", ga, gv, optimize=True)
        cores.append(h.reshape(ra0 * rv0, n, ra1 * rv1))
    return TTVector(cores)


def rank_one_bilinear(y_vectors, a: TTOperator, x_vectors):
    """y^H A x for rank-one tuples given by their per-mode vectors.

    ``y_vectors[k]`` is one mode vector (n_k,), or a stack (q, n_k) of the
    mode-k vectors of q bras, in which case the q forms are returned as an
    array (q,). Per mode the operator core meets x_k once, whatever q is,
    and the q accumulators then advance in one matrix product.
    """
    acc = np.ones((1, 1))  # (q, r_{k-1})
    for yk, gk, xk in zip(y_vectors, a.cores, x_vectors):
        z = xk @ gk  # (r_{k-1}, n_k, r_k): the core applied to x_k
        ra, n, rb = z.shape
        w = acc[:, :, np.newaxis] * np.conj(yk).reshape(-1, 1, n)  # (q, r_{k-1}, n_k)
        acc = w.reshape(-1, ra * n) @ z.reshape(ra * n, rb)
    return acc[:, 0] if np.ndim(y_vectors[0]) == 2 else acc[0, 0]


# ---------------------------------------------------------------------------
# orthonormalization


def _positive_qr(mat: np.ndarray, overwrite_a: bool = False):
    """Economy QR with nonnegative R diagonal, making the factors unique.

    LAPACK's ``geqrf``/``orgqr``, as ``numpy.linalg.qr`` runs them, through
    scipy (a test holds the bytes equal to numpy's). With ``overwrite_a`` a
    Fortran-contiguous ``mat`` is factored in its own buffer, which Q
    (Fortran-ordered) then occupies; R is C-ordered, as numpy returns it.
    """
    q, r = scipy.linalg.qr(mat, mode="economic", overwrite_a=overwrite_a, check_finite=False)
    d = np.sign(np.real(np.diagonal(r))).astype(mat.dtype)
    d[d == 0] = 1.0
    q *= d[np.newaxis, :]
    r *= np.conj(d)[:, np.newaxis]
    return q, r


def absorb_transfer_right(cores: list, k: int, transfer: np.ndarray) -> None:
    """Multiply transfer into the 3D core ``cores[k+1]`` from the left."""
    cores[k + 1] = np.einsum("xa,aib->xib", transfer, cores[k + 1])


def absorb_transfer_left(cores: list, k: int, transfer: np.ndarray) -> None:
    """Multiply transfer into the 3D core ``cores[k-1]`` from the right."""
    cores[k - 1] = np.einsum("aib,bx->aix", cores[k - 1], transfer)


# ---------------------------------------------------------------------------
# rounding


def _truncation_rank(s: np.ndarray, budget: float, max_rank=None) -> int:
    """Smallest kept rank honoring the tail-energy budget, SV_FLOOR and cap."""
    if s.size == 0:
        return 1
    r_energy = s.size
    if budget > 0:
        tail = np.sqrt(np.maximum(0.0, np.cumsum(s[::-1] ** 2)))[::-1]
        ok = np.nonzero(tail <= budget)[0]
        r_energy = int(ok[0]) if ok.size else s.size
    r_floor = int(np.count_nonzero(s > SV_FLOOR * s[0])) if s[0] > 0 else 1
    r = min(r_energy, r_floor)
    if max_rank is not None:
        r = min(r, int(max_rank))
    return max(1, r)


def svd_split(mat: np.ndarray, direction: int, max_rank: int | None = None):
    """Split ``mat`` by an SVD truncated to its numerical rank (and the cap).

    Returns (q, carry) with mat ~ q @ carry for direction +1 (q has
    orthonormal columns) and mat ~ carry @ q for -1 (q has orthonormal
    rows); the singular values go into ``carry``.
    """
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rho = _truncation_rank(s, 0.0, max_rank)
    if direction == +1:
        return u[:, :rho], s[:rho, np.newaxis] * vh[:rho]
    return vh[:rho], u[:, :rho] * s[np.newaxis, :rho]


def _round_cores(cores: list, tol: float) -> list:
    """TT-SVD rounding of a core list that the routine may consume.

    Cores have shape (r_{k-1}, *modes, r_k); the modes of each core are
    fused for the algebra and restored on output. Phase 1 right-
    orthonormalizes from the last core and phase 2 truncates from the
    first, each replacing list entries as it goes, so the list never holds
    more than one train plus the factors of one core. The arrays the list
    held on entry are only read.

    Every factorization overwrites a buffer the routine owns. Phase 1 runs
    LAPACK's QR on the Fortran-contiguous transposed view of each core:
    the last core is copied first, and every other one is by then the
    product that absorbed a transfer. Phase 2 runs ``gesdd`` on a
    Fortran-ordered buffer filled from each core. ``np.einsum`` sums in an
    order that depends on its operands' strides, so the layouts are fixed:
    cores enter C-contiguous; each phase-1 core is the transposed view of a
    C-ordered Q, and the transfer it passes left is ``r.T``, the transposed
    (Fortran-contiguous) view of a C-ordered R; phase 2's transfer
    ``s * vh`` is C-ordered; and each rounded core is stored compact and
    C-contiguous rather than as a view into its SVD factor.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    mode_shapes = [g.shape[1:-1] for g in cores]
    for k, g in enumerate(cores):
        cores[k] = np.ascontiguousarray(g.reshape(g.shape[0], -1, g.shape[-1]))
    m = len(cores)
    cores[m - 1] = cores[m - 1].copy()  # the one input core phase 1 would overwrite
    if m > 1:
        for k in range(m - 1, 0, -1):
            r0, n, r1 = cores[k].shape
            q, r = _positive_qr(cores[k].reshape(r0, n * r1).T, overwrite_a=True)
            cores[k] = np.ascontiguousarray(q).T.reshape(q.shape[1], n, r1)
            del q  # the factored core's buffer goes before core k-1 is replaced
            absorb_transfer_left(cores, k, r.T)
        norm = float(np.linalg.norm(cores[0]))
        budget = tol * norm / np.sqrt(m - 1)
        for k in range(m - 1):
            r0, n, r1 = cores[k].shape
            mat = np.asfortranarray(cores[k].reshape(r0 * n, r1))
            cores[k] = None  # gesdd overwrites the buffer; the core itself goes
            u, s, vh = scipy.linalg.svd(
                mat, full_matrices=False, overwrite_a=True, check_finite=False
            )
            del mat  # destroyed by gesdd
            r = _truncation_rank(s, budget)
            cores[k] = np.ascontiguousarray(u[:, :r]).reshape(r0, n, r)
            del u  # the full factor goes before the next core is formed
            absorb_transfer_right(cores, k, s[:r, np.newaxis] * np.ascontiguousarray(vh[:r]))
        cores[m - 1] = np.ascontiguousarray(cores[m - 1])
    return [
        g.reshape(g.shape[0], *shape, g.shape[-1]) for g, shape in zip(cores, mode_shapes)
    ]


# ---------------------------------------------------------------------------
# environments and frame products
#
# A left environment L[x, a, y] contracts bra cores (conjugated), operator
# cores and ket cores over all modes strictly left of a position; a right
# environment R[u, c, v] does the same to the right. The projected operator
# at the open position is then L * A_k * R. The solver projects one pencil,
# (Delta_m, Delta_0), so a ``FrameEnvCache`` keeps the environments of both
# operators side by side: each entry is a pair, and ``FrameEnvCache.step``
# is the one place that advances them, for the sweep frame and the walk's
# single-pair frames alike.
#
# The environment kernels are fixed chains of reshapes and ``ndarray.dot``
# calls: each does exactly what the pairwise ``np.tensordot`` it replaces
# does (summed axes of the first operand moved last and of the second
# first, both reshaped to matrices, one ``dot``), minus tensordot's per-call
# axis bookkeeping. The operands reach BLAS in the same layouts, so the
# results are tensordot's bit for bit; this matters because the cached
# environments feed ``frame_project`` and the pencil solve, which moves
# with any rounding-level change. With frame ranks r, operator ranks R and
# mode size n, a step contracts the ket bond (r^3 R n flops), then the
# operator's left bond and column index (r^2 R^2 n^2), then the bra bond and
# row index (r^3 R n): O(n r^2 R (r + n R)) in all, against r^4 R^2 n^2 for
# the single eight-index loop numpy's greedy einsum path picks at the walk's
# small shapes. ``env_apply`` runs the same chain with the right environment
# in place of the bra.


def _ket_then_op(env, ket, op):
    """First two products of a step, (env * ket) * op, as (x, v, i, c)."""
    x, a, y = env.shape
    _, j, v = ket.shape
    _, i, _, c = op.shape
    t = env.reshape(x * a, y).dot(ket.reshape(y, j * v))
    t = t.reshape(x, a, j, v).transpose(0, 3, 1, 2).reshape(x * v, a * j)
    return t.dot(op.transpose(0, 2, 1, 3).reshape(a * j, i * c)).reshape(x, v, i, c)


def env_left_step(env, bra, op, ket):
    t = _ket_then_op(env, ket, op)  # (x, v, i, c)
    x, v, i, c = t.shape
    w = bra.shape[2]
    t = t.transpose(0, 2, 1, 3).reshape(x * i, v * c)
    out = np.conj(bra).transpose(2, 0, 1).reshape(w, x * i).dot(t)
    return out.reshape(w, v, c).transpose(0, 2, 1)


def env_right_step(env, bra, op, ket):
    u, c, v = env.shape
    y, j, _ = ket.shape
    a, i = op.shape[:2]
    x = bra.shape[0]
    t = ket.reshape(y * j, v).dot(env.transpose(2, 0, 1).reshape(v, u * c))
    t = t.reshape(y, j, u, c).transpose(1, 3, 0, 2).reshape(j * c, y * u)
    t = op.reshape(a * i, j * c).dot(t)  # (a, i, y, u)
    t = t.reshape(a, i, y, u).transpose(1, 3, 0, 2).reshape(i * u, a * y)
    return np.conj(bra).reshape(x, i * u).dot(t).reshape(x, a, y)


class FrameEnvCache:
    """Left/right environments of a sweep frame against a tuple of operators.

    ``left[p]`` holds one environment per operator contracting cores
    0..p-1, and ``right[p]`` one per operator contracting cores p+1..m-1;
    entries are valid for p <= block_index resp. p >= block_index and are
    refreshed one contraction at a time as the block moves, so a whole sweep
    costs O(m) environment updates instead of O(m^2).
    """

    def __init__(self, ops: tuple[TTOperator, ...], cores: list[np.ndarray], block_index: int):
        m = len(cores)
        self.ops = ops
        self.left: list[tuple | None] = [None] * m
        self.right: list[tuple | None] = [None] * m
        self.left[0] = self.right[m - 1] = tuple(np.ones((1, 1, 1)) for _ in self.ops)
        for p in range(m - 1, block_index, -1):
            self.right[p - 1] = self.step(-1, self.right[p], p, cores[p])
        for p in range(block_index):
            self.left[p + 1] = self.step(+1, self.left[p], p, cores[p])

    def step(self, direction: int, envs: tuple, p: int, core: np.ndarray) -> tuple:
        """The environments ``envs`` carried past mode p, one per operator.

        Direction +1 extends left environments and -1 right ones; ``core``
        is the frame core at p, on both the bra and the ket side.
        """
        kernel = env_left_step if direction == +1 else env_right_step
        return tuple(kernel(e, core, op.cores[p], core) for e, op in zip(envs, self.ops))

    def refresh_after_shift(self, cores: list[np.ndarray], old_index: int, new_index: int):
        direction = new_index - old_index
        if direction not in (+1, -1):
            raise ValueError("block moves one mode at a time")
        side = self.left if direction == +1 else self.right
        side[new_index] = self.step(direction, side[old_index], old_index, cores[old_index])


def env_apply(left, op_core, right, y: np.ndarray) -> np.ndarray:
    """(L * A_k * R) y with y given as the (r_l, n, r_r) coefficient tensor."""
    t = _ket_then_op(left, y, op_core)  # (x, v, i, c)
    x, v, i, c = t.shape
    u = right.shape[0]
    t = t.transpose(0, 2, 1, 3).reshape(x * i, v * c)
    return t.dot(right.transpose(2, 1, 0).reshape(v * c, u)).reshape(x, i, u)


def frame_project(cores: list[np.ndarray], k: int, a: TTOperator, envs) -> np.ndarray:
    """Explicit projected matrix X_frame^H A X_frame, Fortran-ordered.

    The frame X^{<k} (x) I_{n_k} (x) (X^{>k})^T is every core of ``cores``
    but the open one at ``k``, a plain (r_l, n_k, r_r) or a block
    (r_l, n_k, b, r_r) core whose r_l * n_k * r_r is the local size; it is
    never materialized. ``envs`` is the (left, right) environment pair of
    ``a`` at ``k``, one entry of a ``FrameEnvCache``'s tuples on each side.
    The einsum writes the transpose's index order and the result is its
    ``.T``, so LAPACK can factor the matrix in place; the values are those
    of the C-ordered ``"xiuyjv"`` contraction, bit for bit.
    """
    if a.mode_sizes != _as_tuple(g.shape[1] for g in cores):
        raise ValueError("mode mismatch between frame and operator")
    rl, n_k, *_, rr = cores[k].shape
    dim = rl * n_k * rr
    if dim > PROJECTED_DIM_CAP:
        raise CapExceededError(f"projected dimension {dim} exceeds cap {PROJECTED_DIM_CAP}")
    left, right = envs
    mat = np.einsum(
        "xay,aijc,ucv->yjvxiu", left, a.cores[k], right, optimize=True
    )
    return mat.reshape(dim, dim).T


# ---------------------------------------------------------------------------
# block-core shifting


def _enrich(basis: np.ndarray, coef: np.ndarray, count: int, rng: np.random.Generator | None):
    """``basis`` widened by ``count`` random columns, ``coef`` by as many zero rows.

    The new columns are orthonormal to ``basis`` and to each other, so
    ``basis @ coef`` is unchanged; at most the rows ``basis`` leaves free are added.
    """
    rows, cols = basis.shape
    count = min(count, rows - cols)
    if count <= 0:
        return basis, coef
    extra = rng.standard_normal((rows, count))
    extra -= basis @ (basis.T @ extra)
    q, _ = _positive_qr(extra)
    return (
        np.concatenate([basis, q], axis=1),
        np.concatenate([coef, np.zeros((count, coef.shape[1]))], axis=0),
    )


def shift_block_core(
    cores: list[np.ndarray],
    k: int,
    direction: int,
    target_rank: int,
    enrichment: int = 0,
    rng: np.random.Generator | None = None,
) -> int:
    """Move the block core at ``k`` one mode over, truncating by SVD.

    The block core is unfolded with the walked-over mode attached to its
    bond, SVD-truncated to min(target_rank, numerical rank), and the column
    factor is pushed into the neighbor, which becomes the new block core.
    ``enrichment`` random orthonormal columns are appended to the retained
    singular vectors with zero coefficient rows, so the represented columns
    are unchanged while the frame gains room; the new frame stays orthonormal
    by construction. ``cores`` is updated in place; returns the new block
    index, ``k + direction``.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    m = len(cores)
    if (direction == +1 and k == m - 1) or (direction == -1 and k == 0):
        raise ValueError("cannot shift the block core past the boundary")
    if enrichment and rng is None:
        raise ValueError("enrichment requires a random generator")
    g = cores[k]
    r0, n, b, r1 = g.shape
    if direction == +1:
        u, coef = svd_split(g.reshape(r0 * n, b * r1), +1, target_rank)
        u, coef = _enrich(u, coef, enrichment, rng)
        rho_t = u.shape[1]
        cores[k] = u.reshape(r0, n, rho_t)
        coef = coef.reshape(rho_t, b, r1)
        nxt = cores[k + 1]  # (r1, n', r2)
        cores[k + 1] = np.einsum("sbc,cjt->sjbt", coef, nxt, optimize=True)
    else:
        mat = g.transpose(0, 2, 1, 3).reshape(r0 * b, n * r1)
        core, coef = svd_split(mat, -1, target_rank)  # core has orthonormal rows
        core, coef = (a.T for a in _enrich(core.T, coef.T, enrichment, rng))
        rho_t = core.shape[0]
        cores[k] = core.reshape(rho_t, n, r1)
        coef = coef.reshape(r0, b, rho_t)
        prv = cores[k - 1]  # (r2, n', r0)
        cores[k - 1] = np.einsum("cja,abs->cjbs", prv, coef, optimize=True)
    return k + direction


# ---------------------------------------------------------------------------
# serialization
#
# JSON: {"kind": "tt-vector"|"tt-operator", "order": m,
#        "mode_sizes": [...], "ranks": [...], "cores": [flat row-major lists]}


def _core_shapes(kind, sizes, ranks):
    if kind == "tt-vector":
        return [(ranks[k], sizes[k], ranks[k + 1]) for k in range(len(sizes))]
    return [(ranks[k], sizes[k], sizes[k], ranks[k + 1]) for k in range(len(sizes))]


def tt_to_json(t: TTVector | TTOperator) -> dict:
    """JSON document of a real train; complex cores raise ``ValueError``."""
    if any(np.iscomplexobj(g) for g in t.cores):
        raise ValueError("JSON holds real trains only; split complex cores into parts")
    kind = "tt-vector" if isinstance(t, TTVector) else "tt-operator"
    return {
        "kind": kind,
        "order": t.order,
        "mode_sizes": list(t.mode_sizes),
        "ranks": list(t.ranks),
        "cores": [np.asarray(g, dtype=np.float64).reshape(-1).tolist() for g in t.cores],
    }


def tt_from_json(doc: dict) -> TTVector | TTOperator:
    try:
        kind = doc["kind"]
        order = _integer(doc["order"], "order")
        sizes = [_integer(n, "mode_sizes entry") for n in doc["mode_sizes"]]
        ranks = [_integer(r, "ranks entry") for r in doc["ranks"]]
        n_cores = len(doc["cores"])
    except TypeError as exc:  # a list, number or null where the format has another type
        raise ValueError(f"malformed train document: {exc}") from exc
    if kind not in ("tt-vector", "tt-operator"):
        raise ValueError(f"unknown kind {kind!r}")
    if not order == len(sizes) == len(ranks) - 1 == n_cores:
        raise ValueError("order, mode sizes, ranks and cores do not agree")
    if min(sizes + ranks) < 1:  # reshape would read a -1 as "infer this size"
        raise ValueError("mode sizes and ranks must be positive")
    shapes = _core_shapes(kind, sizes, ranks)
    cores = [
        _real_array(flat, f"core {k + 1}").reshape(shape)
        for k, (flat, shape) in enumerate(zip(doc["cores"], shapes))
    ]
    return TTVector(cores) if kind == "tt-vector" else TTOperator(cores)
