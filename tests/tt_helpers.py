"""Train helpers that only the tests use: entry evaluation, random and
identity operators, one-core orthonormalization and its checks, orthonormal
block frames, and dense block columns. The solver never calls them, so they
live beside the tests."""

from __future__ import annotations

import numpy as np

from ttmep.tt_core import (
    DENSE_CAP,
    CapExceededError,
    TTOperator,
    TTVector,
    _positive_qr,
    absorb_transfer_left,
    absorb_transfer_right,
    densify,
    feasible_ranks,
)


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
        absorb_transfer_right(cores, k, r)
    for k in range(m - 1, index, -1):
        l = right_orthonormalize_core(cores, k)
        absorb_transfer_left(cores, k, l)
    return cores, index
