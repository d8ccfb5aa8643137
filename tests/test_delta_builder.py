"""Operator-determinant construction against brute-force oracles."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

import ttmep
from ttmep.delta_builder import (
    apply_shift,
    build_delta0,
    build_delta_i,
    determinant_factor,
)
from ttmep.mep_problem import (
    GeneratedProblem,
    MEProblem,
    generate_random_mep,
    oracle_eigenvalues,
)

from tt_helpers import densify_operator, tt_round_operator


def factor_product(a: np.ndarray) -> float:
    n = a.shape[0]
    acc = determinant_factor(1, n, a[0])
    for k in range(2, n + 1):
        acc = acc @ determinant_factor(k, n, a[k - 1])
    return float(acc[0, 0])


def permutation_sum(mats_grid, replace_col=None, a_mats=None):
    """Signed permutation sum of Kronecker chains (test oracle)."""
    m = len(mats_grid)
    total = None
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        term = None
        for row in range(m):
            mat = (
                a_mats[row]
                if replace_col is not None and perm[row] == replace_col
                else mats_grid[row][perm[row]]
            )
            term = mat if term is None else np.kron(term, mat)
        total = sign * term if total is None else total + sign * term
    return total


def test_factor_shapes_n4():
    a = np.arange(1.0, 5.0)
    shapes = [determinant_factor(k, 4, a).shape for k in range(1, 5)]
    assert shapes == [(1, 4), (4, 6), (6, 4), (4, 1)]


def test_factor_base_cases_n2():
    a = np.array([3.0, 5.0])
    b = np.array([2.0, 7.0])
    assert determinant_factor(1, 2, a).tolist() == [[3.0, 5.0]]
    assert determinant_factor(2, 2, b).tolist() == [[7.0], [-2.0]]
    mat = np.array([a, b])
    assert factor_product(mat) == pytest.approx(np.linalg.det(mat))


def test_factor_product_random_n3():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        det = np.linalg.det(a)
        assert factor_product(a) == pytest.approx(det, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_factor_product_many_sizes(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        a = rng.standard_normal((n, n))
        det = np.linalg.det(a)
        assert factor_product(a) == pytest.approx(det, rel=1e-11, abs=1e-11)


def test_factor_validates_arguments():
    with pytest.raises(ValueError):
        determinant_factor(0, 3, np.ones(3))
    with pytest.raises(ValueError):
        determinant_factor(4, 3, np.ones(3))
    with pytest.raises(ValueError):
        determinant_factor(1, 3, np.ones(2))


def test_delta0_m2_formula():
    g = generate_random_mep(2, 3, seed=1)
    p = g.problem
    ref = np.kron(p.b[0][0], p.b[1][1]) - np.kron(p.b[0][1], p.b[1][0])
    dense = densify_operator(build_delta0(p, round_tol=None))
    assert np.abs(dense - ref).max() <= 1e-12 * np.abs(ref).max()


def test_delta_i_m2_formula():
    g = generate_random_mep(2, 3, seed=2)
    p = g.problem
    ref = np.kron(p.a[0], p.b[1][1]) - np.kron(p.b[0][1], p.a[1])
    dense = densify_operator(build_delta_i(p, 1, round_tol=None))
    assert np.abs(dense - ref).max() <= 1e-12 * np.abs(ref).max()


def test_delta_matches_permutation_sum_m3():
    g = generate_random_mep(3, 2, seed=3)
    p = g.problem
    ref0 = permutation_sum(p.b)
    assert np.abs(densify_operator(build_delta0(p, round_tol=None)) - ref0).max() <= 1e-11
    ref3 = permutation_sum(p.b, replace_col=2, a_mats=p.a)
    assert np.abs(densify_operator(build_delta_i(p, 3, round_tol=None)) - ref3).max() <= 1e-11


def test_delta_ranks_are_pascal_row():
    g = generate_random_mep(4, 2, seed=4)
    d0 = build_delta0(g.problem, round_tol=None)
    assert d0.ranks == (1, 4, 6, 4, 1)
    d2 = build_delta_i(g.problem, 2, round_tol=None)
    assert d2.ranks == (1, 4, 6, 4, 1)


def test_delta_rounding_respects_rank_bounds():
    g = generate_random_mep(5, 2, seed=5)
    d0 = build_delta0(g.problem, round_tol=1e-13)
    for k in range(1, 5):
        assert d0.ranks[k] <= min(comb(5, k), 4)


def _einsum_cores(p: MEProblem, replace_col=None) -> list[np.ndarray]:
    """Unrounded cores as one contraction with the dense factor basis each."""
    m = p.m
    cores = []
    for k in range(m):
        stack = np.stack([p.a[k] if l == replace_col else p.b[k][l] for l in range(m)])
        basis = np.stack([determinant_factor(k + 1, m, row) for row in np.eye(m)])
        basis[basis == 0] = 0.0  # unit rows leave signed zeros off the pattern
        cores.append(np.einsum("lij,lab->aijb", stack, basis, optimize=True))
    return cores


def test_unrounded_cores_equal_the_dense_basis_contraction():
    rng = np.random.default_rng(6)
    real = generate_random_mep(4, 3, seed=6).problem
    cplx = MEProblem(
        a=[x + 1j * rng.standard_normal(x.shape) for x in real.a],
        b=[[x + 1j * rng.standard_normal(x.shape) for x in row] for row in real.b],
    )
    for p in (real, cplx):
        for op, col in ((build_delta0(p, round_tol=None), None),
                        (build_delta_i(p, 2, round_tol=None), 1)):
            ref = _einsum_cores(p, col)
            assert [g.dtype for g in op.cores] == [g.dtype for g in ref]
            assert [g.tobytes() for g in op.cores] == [g.tobytes() for g in ref]
    # exact zeros in the input: the sign of a zero entry may differ
    sparse = MEProblem(
        a=[np.where(np.abs(x) < 0.5, 0.0, x) for x in real.a],
        b=[[np.where(np.abs(x) < 0.5, 0.0, x) for x in row] for row in real.b],
    )
    for got, want in zip(build_delta_i(sparse, 4, round_tol=None).cores,
                         _einsum_cores(sparse, 3)):
        assert np.array_equal(got, want)


def test_build_rounds_like_round_operator_into_compact_cores():
    p = generate_random_mep(5, 3, seed=7).problem
    for build in (build_delta0, lambda q, round_tol=1e-13: build_delta_i(q, 5, round_tol)):
        got = build(p)
        want = tt_round_operator(build(p, round_tol=None), 1e-13)
        assert [g.tobytes() for g in got.cores] == [g.tobytes() for g in want.cores]
        for g in got.cores:
            owner = g if g.base is None else g.base
            assert g.flags["C_CONTIGUOUS"] and owner.nbytes == g.nbytes


def test_delta_build_holds_one_unrounded_train():
    p = generate_random_mep(8, 4, seed=1).problem
    train = sum(g.nbytes for g in build_delta0(p, round_tol=None).cores)
    build_delta0(p)  # the factor patterns are cached after the first build
    tracemalloc.start()
    try:
        build_delta0(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rounding needs the train plus the factors of one core, and
    # LAPACK factors each core in a buffer the rounding owns
    assert peak <= 1.5 * train


# Resident-memory rise of one m=10, n=4 build, read from the kernel's high
# water mark in a fresh process: tracemalloc does not see LAPACK's work
# arrays or the copies numpy.linalg makes inside its gufuncs.
_VMHWM_BUILD = """
from ttmep.delta_builder import build_delta0
from ttmep.mep_problem import generate_random_mep

def vmhwm_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0

prob = generate_random_mep(10, 4, seed=1).problem
before = vmhwm_mb()
build_delta0(prob)
print(vmhwm_mb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_delta_build_resident_peak_m10():
    src = str(Path(ttmep.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _VMHWM_BUILD], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    rise_mb = float(run.stdout.split()[-1])
    # about 30 MB when every QR and SVD overwrites a buffer the rounding
    # owns, 52 MB with numpy.linalg's copies
    assert rise_mb <= 40.0


def test_diagonal_problem_eigen_consistency():
    rng = np.random.default_rng(6)
    m, n = 3, 3
    a_spec = [rng.standard_normal(n) for _ in range(m)]
    b_spec = [[rng.standard_normal(n) + 2.0 for _ in range(m)] for _ in range(m)]
    prob = MEProblem(
        a=[np.diag(s) for s in a_spec],
        b=[[np.diag(s) for s in row] for row in b_spec],
    )
    g = GeneratedProblem(
        problem=prob,
        u_factors=[np.eye(n)] * m,
        z_factors=[np.eye(n)] * m,
        spectrum_a=a_spec,
        spectrum_b=b_spec,
        seed=0,
    )
    tuples, skipped = oracle_eigenvalues(g, n**m, target=0.0)
    assert skipped == 0
    for i in (1, 2, 3):
        d_i = densify_operator(build_delta_i(prob, i, round_tol=None))
        d_0 = densify_operator(build_delta0(prob, round_tol=None))
        got = np.sort(np.linalg.eigvals(np.linalg.solve(d_0, d_i)).real)
        want = np.sort([t.lam[i - 1].real for t in tuples])
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.abs(want).max())


def test_apply_shift_identity_and_oracle_consistency():
    g = generate_random_mep(2, 4, seed=7)
    p = g.problem
    same = apply_shift(p, 0.0)
    assert all(np.array_equal(same.a[i], p.a[i]) for i in range(2))
    shifted = apply_shift(p, 5.0)
    g_shift = GeneratedProblem(
        problem=shifted,
        u_factors=g.u_factors,
        z_factors=g.z_factors,
        spectrum_a=[g.spectrum_a[i] + 5.0 * g.spectrum_b[i][1] for i in range(2)],
        spectrum_b=g.spectrum_b,
        seed=g.seed,
    )
    base, _ = oracle_eigenvalues(g, 16, target=0.0)
    moved, _ = oracle_eigenvalues(g_shift, 16, target=0.0)
    lam1_base = np.sort([t.lam[0].real for t in base])
    lam1_moved = np.sort([t.lam[0].real for t in moved])
    assert np.max(np.abs(lam1_base - lam1_moved)) <= 1e-9
    lam2_base = np.sort([t.lam[1].real for t in base])
    lam2_moved = np.sort([t.lam[1].real for t in moved])
    assert np.max(np.abs(lam2_base + 5.0 - lam2_moved)) <= 1e-9


def test_shift_then_solve_equivalence_through_oracle():
    # tuples of the shifted problem near 0 = tuples of the original near -eta
    g = generate_random_mep(2, 5, seed=8)
    eta = 2.5
    shifted = apply_shift(g.problem, eta)
    g_shift = GeneratedProblem(
        problem=shifted,
        u_factors=g.u_factors,
        z_factors=g.z_factors,
        spectrum_a=[g.spectrum_a[i] + eta * g.spectrum_b[i][1] for i in range(2)],
        spectrum_b=g.spectrum_b,
        seed=g.seed,
    )
    near_zero, _ = oracle_eigenvalues(g_shift, 5, target=0.0)
    near_minus_eta, _ = oracle_eigenvalues(g, 5, target=-eta)
    for t_s, t_o in zip(near_zero, near_minus_eta):
        assert abs(t_s.lam[1] - (t_o.lam[1] + eta)) <= 1e-9
        for v_s, v_o in zip(t_s.vectors, t_o.vectors):
            cos = abs(np.vdot(v_s, v_o))
            assert cos >= 1 - 1e-10


def test_build_delta_validates_index():
    g = generate_random_mep(2, 2, seed=10)
    with pytest.raises(ValueError):
        build_delta_i(g.problem, 0)
    with pytest.raises(ValueError):
        build_delta_i(g.problem, 3)
