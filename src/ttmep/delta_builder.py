"""Operator-determinant construction in tensor-train form.

Every entry of the operator determinant of an m-parameter problem is itself
an m x m scalar determinant of matrix entries. A determinant factors into a
product of structured matrices D_{k,n}(row_k) built by a two-term recursion,
so the operators assemble directly as trains whose interior ranks are the
binomial coefficients C(m, k) -- the (m+1)-st row of Pascal's triangle --
without ever enumerating permutations.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .mep_problem import GeneratedProblem, MEProblem
from .tt_core import TTOperator, tt_round_operator


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
    # D is linear in a: contract the cached basis stack with the row.
    return np.einsum("l,lab->ab", a, _factor_basis(k, n))


@lru_cache(maxsize=None)
def _factor_basis(k: int, n: int) -> np.ndarray:
    """Stack of D_{k,n}(e_l) over the n unit rows, shape (n, C(n,k-1), C(n,k))."""
    out = np.zeros((n, comb(n, k - 1), comb(n, k)))
    if k == 1:
        for l in range(n):
            out[l, 0, l] = 1.0
    elif k == n:
        for l in range(n):
            out[l, n - 1 - l, 0] = (-1.0) ** (n - 1 - l)
    else:
        top = _factor_basis(k - 1, n - 1)  # acts on a(2:), C(n-1,k-2) x C(n-1,k-1)
        bot = _factor_basis(k, n - 1)  # acts on a(2:), C(n-1,k-1) x C(n-1,k)
        rt, ct = top.shape[1:]
        rb, cb = bot.shape[1:]
        out[0, rt : rt + rb, :ct] = (-1.0) ** (k - 1) * np.eye(ct)
        out[1:, :rt, :ct] = top
        out[1:, rt:, ct:] = bot
    return out


def build_delta0(prob: MEProblem, round_tol: float | None = 1e-13) -> TTOperator:
    """Train operator equal to the signed sum over permutations of
    kron(B_{1,sigma_1}, ..., B_{m,sigma_m}).

    Core k contracts the determinant-factor basis with the stack
    [B_{k1}(i,j), ..., B_{km}(i,j)], giving interior ranks exactly C(m, k)
    before rounding. Rounding (default tolerance 1e-13) usually reduces the
    ranks to at most n_k^2 and is skippable with ``round_tol=None``.
    """
    return _build_delta(prob, replace_col=None, round_tol=round_tol)


def build_delta_i(
    prob: MEProblem, i: int, round_tol: float | None = 1e-13
) -> TTOperator:
    """Same construction with column i (1-based) replaced by (A_1, ..., A_m)."""
    if not 1 <= i <= prob.m:
        raise ValueError(f"column index must lie in 1..{prob.m}, got {i}")
    return _build_delta(prob, replace_col=i - 1, round_tol=round_tol)


def _build_delta(prob, replace_col, round_tol) -> TTOperator:
    m = prob.m
    cores = []
    for k in range(m):
        n = prob.sizes[k]
        stack = np.stack(
            [
                prob.a[k] if l == replace_col else prob.b[k][l]
                for l in range(m)
            ]
        )  # (m, n, n)
        basis = _factor_basis(k + 1, m)  # (m, C(m,k), C(m,k+1))
        core = np.einsum("lij,lab->aijb", stack, basis, optimize=True)
        cores.append(core)
    op = TTOperator(cores)
    if round_tol is not None:
        op = tt_round_operator(op, round_tol)
    return op


def apply_shift(prob: MEProblem, eta: float) -> MEProblem:
    """Replace A_i by A_i + eta * B_{im}; only lambda_m moves, by exactly eta."""
    a = [prob.a[i] + eta * prob.b[i][prob.m - 1] for i in range(prob.m)]
    b = [[bij.copy() for bij in row] for row in prob.b]
    return MEProblem(a=a, b=b)


def shift_generated(g: GeneratedProblem, eta: float) -> GeneratedProblem:
    """``apply_shift`` for generated problems, keeping the spectra in sync."""
    return GeneratedProblem(
        problem=apply_shift(g.problem, eta),
        u_factors=[u.copy() for u in g.u_factors],
        z_factors=[z.copy() for z in g.z_factors],
        spectrum_a=[
            g.spectrum_a[i] + eta * g.spectrum_b[i][g.m - 1] for i in range(g.m)
        ],
        spectrum_b=[[s.copy() for s in row] for row in g.spectrum_b],
        seed=g.seed,
        style=g.style,
    )
