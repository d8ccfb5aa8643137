"""Train helpers that only the tests use: dense oracles (entries of a
train or an operator, dense vectors, operators and frames, each refused
above ``DENSE_CAP`` entries), random trains and operators, rounding of a
whole train through the package's ``_round_cores``, one-core
orthonormalization and its checks, transfers absorbed into a 3D or a 4D
block core, orthonormal block frames, and dense block columns. The
solver never calls them, so they live beside the tests."""

from __future__ import annotations

import numpy as np

from ttmep.tt_core import (
    CapExceededError,
    TTOperator,
    TTVector,
    _as_tuple,
    _positive_qr,
    _round_cores,
    absorb_transfer_left,
    absorb_transfer_right,
    feasible_ranks,
)

DENSE_CAP = 10_000_000


def evaluate(v: TTVector, multi_index) -> float | complex:
    """Entry of the represented tensor at a 0-based multi-index."""
    idx = tuple(int(i) for i in multi_index)
    if len(idx) != v.order:
        raise IndexError(f"expected {v.order} indices, got {len(idx)}")
    for k, (i, n) in enumerate(zip(idx, v.mode_sizes)):
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for mode {k} of size {n}")
    acc = v.cores[0][:, idx[0], :]
    for k in range(1, v.order):
        acc = acc @ v.cores[k][:, idx[k], :]
    return acc[0, 0]


def evaluate_operator(a: TTOperator, row_index, col_index) -> float:
    """Entry of the represented operator at a (row, column) multi-index pair."""
    ridx = _as_tuple(row_index)
    cidx = _as_tuple(col_index)
    if len(ridx) != a.order or len(cidx) != a.order:
        raise IndexError("index length must equal the operator order")
    for k, (i, j, n) in enumerate(zip(ridx, cidx, a.mode_sizes)):
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"index out of range for mode {k} of size {n}")
    acc = a.cores[0][:, ridx[0], cidx[0], :]
    for k in range(1, a.order):
        acc = acc @ a.cores[k][:, ridx[k], cidx[k], :]
    return acc[0, 0]


def densify(v: TTVector) -> np.ndarray:
    """Dense vector of length prod(mode_sizes), C-order linearization.

    Entry at linear index ravel_multi_index((i_1,...,i_m)) is the chain
    product G_1[:, i_1, :] @ ... @ G_m[:, i_m, :]; for rank-one trains this
    is the Kronecker chain kron(x_1, ..., x_m).
    """
    total = int(np.prod(v.mode_sizes, dtype=np.int64))
    if total > DENSE_CAP:
        raise CapExceededError(f"dense size {total} exceeds cap {DENSE_CAP}")
    acc = v.cores[0].reshape(v.mode_sizes[0], -1)
    for k in range(1, v.order):
        g = v.cores[k]
        acc = acc @ g.reshape(g.shape[0], -1)
        acc = acc.reshape(-1, g.shape[2])
    return acc.reshape(-1)


def densify_operator(a: TTOperator) -> np.ndarray:
    """Dense matrix of the operator; rows/columns use the same C-order map."""
    n_total = int(np.prod(a.mode_sizes, dtype=np.int64))
    if n_total * n_total > DENSE_CAP:
        raise CapExceededError(f"dense size {n_total}^2 exceeds cap {DENSE_CAP}")
    acc = a.cores[0][0]  # (n, n, r)
    rows = cols = a.mode_sizes[0]
    for k in range(1, a.order):
        g = a.cores[k]
        acc = np.einsum("IJa,aijb->IiJjb", acc, g, optimize=True)
        rows *= g.shape[1]
        cols *= g.shape[2]
        acc = acc.reshape(rows, cols, g.shape[3])
    return acc[:, :, 0]


def random_tt(rng: np.random.Generator, mode_sizes, ranks) -> TTVector:
    """Random Gaussian train with the given interior ranks (clipped to feasible)."""
    sizes = _as_tuple(mode_sizes)
    full = list(feasible_ranks(sizes, ranks))
    cores = [
        rng.standard_normal((full[k], sizes[k], full[k + 1]))
        for k in range(len(sizes))
    ]
    return TTVector(cores)


def densify_frame(cores: list[np.ndarray], k: int) -> np.ndarray:
    """Dense frame of every core but the one at ``k`` (testing aid; capped)."""
    rl, n_k, *_, rr = cores[k].shape
    total = int(np.prod([g.shape[1] for g in cores], dtype=np.int64))
    if total * rl * n_k * rr > DENSE_CAP:
        raise CapExceededError("dense frame would exceed cap")
    left = np.ones((1, 1))
    for p in range(k):
        g = cores[p]
        left = np.einsum("Ia,aib->Iib", left, g).reshape(-1, g.shape[2])
    right = np.ones((1, 1))
    for p in range(len(cores) - 1, k, -1):
        g = cores[p]
        right = np.einsum("aib,bJ->aiJ", g, right).reshape(g.shape[0], -1)
    # rows (I, i, J), cols (x, i, u): identity stitched along the open mode
    nl, nr = left.shape[0], right.shape[1]
    mat = np.zeros((nl, n_k, nr, rl, n_k, rr), dtype=np.result_type(left, right))
    for i in range(n_k):
        mat[:, i, :, :, i, :] = np.einsum("Ix,uJ->IJxu", left, right)
    return mat.reshape(nl * n_k * nr, rl * n_k * rr)


def tt_round(v: TTVector, tol: float) -> TTVector:
    """SVD rounding to a relative Frobenius tolerance.

    The budget is split as tol/sqrt(m-1) per truncation, which bounds the
    accumulated error by tol * ||v||. With tol = 0 only singular values at
    the relative floor are dropped, recovering the minimal exact ranks.
    The input is never written to: the result is a new train.
    """
    return TTVector(_round_cores(list(v.cores), tol))


def tt_round_operator(a: TTOperator, tol: float) -> TTOperator:
    """Rounding for operators: each core is rounded with its modes fused."""
    return TTOperator(_round_cores(list(a.cores), tol))


def identity_operator(mode_sizes) -> TTOperator:
    return TTOperator([np.eye(n).reshape(1, n, n, 1) for n in mode_sizes])


def _plain_core(cores: list, k: int) -> np.ndarray:
    g = cores[k]
    if g.ndim != 3:
        raise ValueError("core must be 3D")
    return g


def left_orthonormalize_core(cores: list, k: int) -> np.ndarray:
    """Replace ``cores[k]`` by its left-orthonormal factor; return the transfer.

    The returned matrix R (shape new_rank x r_k) must be absorbed into core
    k+1 by the caller (``absorb_transfer_right``) to keep the represented
    tensor unchanged. The 4D block core of a block iterate is refused.
    """
    r0, n, r1 = _plain_core(cores, k).shape
    q, r = _positive_qr(cores[k].reshape(r0 * n, r1))
    cores[k] = q.reshape(r0, n, q.shape[1])
    return r


def right_orthonormalize_core(cores: list, k: int) -> np.ndarray:
    """Mirror of ``left_orthonormalize_core``; transfer goes to core k-1."""
    r0, n, r1 = _plain_core(cores, k).shape
    q, r = _positive_qr(cores[k].reshape(r0, n * r1).T)
    cores[k] = q.T.reshape(q.shape[1], n, r1)
    return r.T


def absorb_right(cores: list, k: int, transfer: np.ndarray) -> None:
    """``absorb_transfer_right`` that also takes a 4D block core at k+1."""
    if cores[k + 1].ndim == 3:
        absorb_transfer_right(cores, k, transfer)
    else:
        cores[k + 1] = np.einsum("xa,aibc->xibc", transfer, cores[k + 1])


def absorb_left(cores: list, k: int, transfer: np.ndarray) -> None:
    """``absorb_transfer_left`` that also takes a 4D block core at k-1."""
    if cores[k - 1].ndim == 3:
        absorb_transfer_left(cores, k, transfer)
    else:
        cores[k - 1] = np.einsum("aibc,cx->aibx", cores[k - 1], transfer)


def is_left_orthonormal(core: np.ndarray, tol: float = 1e-12) -> bool:
    r0, n, r1 = core.shape
    m = core.reshape(r0 * n, r1)
    return bool(np.max(np.abs(np.conj(m.T) @ m - np.eye(r1))) <= tol)


def is_right_orthonormal(core: np.ndarray, tol: float = 1e-12) -> bool:
    r0, n, r1 = core.shape
    m = core.reshape(r0, n * r1)
    return bool(np.max(np.abs(m @ np.conj(m.T) - np.eye(r0))) <= tol)


def block_columns_dense(cores: list, k: int) -> np.ndarray:
    """Densify all columns of the block iterate ``(cores, k)`` into a matrix."""
    b = cores[k].shape[2]
    total = int(np.prod([g.shape[1] for g in cores], dtype=np.int64))
    if total * b > DENSE_CAP:
        raise CapExceededError("dense block would exceed cap")
    columns = []
    for i_b in range(b):
        column = list(cores)
        column[k] = cores[k][:, :, i_b, :]
        columns.append(densify(TTVector(column)))
    return np.stack(columns, axis=1)


def random_operator(rng, sizes, ranks):
    full = [1] + list(ranks) + [1]
    return TTOperator(
        [
            rng.standard_normal((full[k], n, n, full[k + 1]))
            for k, n in enumerate(sizes)
        ]
    )


def orthonormal_block(rng, sizes, b, ranks, index=None):
    """Random block iterate ``(cores, index)`` with an orthonormal frame."""
    m = len(sizes)
    index = m // 2 if index is None else index
    full = list(feasible_ranks(sizes, ranks))
    cores = []
    for k, n in enumerate(sizes):
        if k == index:
            cores.append(rng.standard_normal((full[k], n, b, full[k + 1])))
        else:
            cores.append(rng.standard_normal((full[k], n, full[k + 1])))
    for k in range(index):
        r = left_orthonormalize_core(cores, k)
        absorb_right(cores, k, r)
    for k in range(m - 1, index, -1):
        l = right_orthonormalize_core(cores, k)
        absorb_left(cores, k, l)
    return cores, index
