"""Operator-determinant construction in tensor-train form.

Every entry of the operator determinant of an m-parameter problem is itself
an m x m scalar determinant of matrix entries. A determinant factors into a
product of structured matrices D_{k,n}(row_k) built by a two-term recursion,
so the operators assemble directly as trains whose interior ranks are the
binomial coefficients C(m, k) -- the (m+1)-st row of Pascal's triangle --
without ever enumerating permutations.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from math import comb

import numpy as np

from .mep_problem import GeneratedProblem, MEProblem
from .tt_core import TTOperator, _round_cores

# default Delta rounding tolerance, for the builders and ``SolverConfig``
DELTA_ROUND_TOL = 1e-13


def determinant_factor(k: int, n: int, a: np.ndarray) -> np.ndarray:
    """Factor D_{k,n}(a) of shape (C(n,k-1), C(n,k)).

    For any square matrix with rows a_1, ..., a_n the product
    D_{1,n}(a_1) D_{2,n}(a_2) ... D_{n,n}(a_n) equals its determinant.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size != n:
        raise ValueError(f"expected a row of length {n}, got {a.size}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    row_of, row, col, sign = _factor_pattern(k, n)
    out = np.zeros((comb(n, k - 1), comb(n, k)))
    out[row, col] = sign * a[row_of]
    return out


@lru_cache(maxsize=None)
def _factor_pattern(k: int, n: int) -> tuple[np.ndarray, ...]:
    """Nonzeros of D_{k,n}(a) as (l, row, col, sign): D[row, col] = sign * a[l].

    D is linear in a, each entry depends on at most one a_l, and the
    coefficient is +-1, so these four arrays describe it completely. They
    are cached and shared, hence read-only.
    """
    if k == 1:
        l = np.arange(n)
        pattern = (l, np.zeros(n, dtype=int), l, np.ones(n))
    elif k == n:
        l = np.arange(n)
        pattern = (l, n - 1 - l, np.zeros(n, dtype=int), (-1.0) ** (n - 1 - l))
    else:
        # a_1 couples the two blocks through a signed identity; a(2:) feeds
        # the factors of order n-1 on the diagonal blocks
        top = _factor_pattern(k - 1, n - 1)  # C(n-1,k-2) x C(n-1,k-1)
        bot = _factor_pattern(k, n - 1)  # C(n-1,k-1) x C(n-1,k)
        rt, ct = comb(n - 1, k - 2), comb(n - 1, k - 1)
        eye = np.arange(ct)
        pattern = (
            np.concatenate([np.zeros(ct, dtype=int), top[0] + 1, bot[0] + 1]),
            np.concatenate([rt + eye, top[1], bot[1] + rt]),
            np.concatenate([eye, top[2], bot[2] + ct]),
            np.concatenate([np.full(ct, (-1.0) ** (k - 1)), top[3], bot[3]]),
        )
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def build_delta0(prob: MEProblem, round_tol: float | None = DELTA_ROUND_TOL) -> TTOperator:
    """Train operator equal to the signed sum over permutations of
    kron(B_{1,sigma_1}, ..., B_{m,sigma_m}).

    Core k places the stack [B_{k1}(i,j), ..., B_{km}(i,j)] on the nonzero
    pattern of the determinant factor, giving interior ranks exactly C(m, k)
    before rounding. Rounding (default tolerance ``DELTA_ROUND_TOL``) usually
    reduces the ranks to at most n_k^2 and is skippable with ``round_tol=None``.
    """
    return _build_delta(prob, replace_col=None, round_tol=round_tol)


def build_delta_i(
    prob: MEProblem, i: int, round_tol: float | None = DELTA_ROUND_TOL
) -> TTOperator:
    """Same construction with column i (1-based) replaced by (A_1, ..., A_m)."""
    if not 1 <= i <= prob.m:
        raise ValueError(f"column index must lie in 1..{prob.m}, got {i}")
    return _build_delta(prob, replace_col=i - 1, round_tol=round_tol)


def _build_delta(prob, replace_col, round_tol) -> TTOperator:
    m = prob.m
    cores = []
    for k in range(m):
        stack = np.stack(
            [
                prob.a[k] if l == replace_col else prob.b[k][l]
                for l in range(m)
            ]
        )  # (m, n, n)
        row_of, row, col, sign = _factor_pattern(k + 1, m)
        values = sign[:, np.newaxis, np.newaxis] * stack[row_of]
        core = np.zeros((comb(m, k), *stack.shape[1:], comb(m, k + 1)), values.dtype)
        core[row, :, :, col] = values
        cores.append(core)
    if round_tol is not None:
        cores = _round_cores(cores, round_tol)  # consumes the unrounded cores
    return TTOperator(cores)


def apply_shift(prob: MEProblem, eta: float) -> MEProblem:
    """Replace A_i by A_i + eta * B_{im}; only lambda_m moves, by exactly eta."""
    a = [prob.a[i] + eta * prob.b[i][prob.m - 1] for i in range(prob.m)]
    b = [[bij.copy() for bij in row] for row in prob.b]
    return MEProblem(a=a, b=b)


def shift_generated(g: GeneratedProblem, eta: float) -> GeneratedProblem:
    """``apply_shift`` for generated problems, keeping the spectra in sync.

    The result shares the factors and ``spectrum_b`` arrays with ``g``.
    """
    return replace(
        g,
        problem=apply_shift(g.problem, eta),
        spectrum_a=g.spectrum_a + eta * g.spectrum_b[:, -1],
    )
