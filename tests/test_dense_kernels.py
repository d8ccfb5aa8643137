"""Contracts of the LAPACK-backed dense kernels."""

import numpy as np
import pytest

from ttmep.dense_kernels import (
    GeneralizedEigenResult,
    SingularPencilError,
    generalized_eig,
    principal_cosine,
    select_ritz,
)
from ttmep.delta_builder import build_delta0, build_delta_i
from ttmep.mep_problem import generate_random_mep, oracle_eigenvalues
from ttmep.tt_core import densify_operator


def test_generalized_eig_diagonal():
    res = generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert np.allclose(sorted(res.eigenvalues.real), [1, 2, 3], atol=1e-12)
    assert res.finite.all()


def test_generalized_eig_flags_infinite():
    res = generalized_eig(np.eye(3), np.diag([1.0, 1.0, 0.0]))
    assert int(np.count_nonzero(~res.finite)) == 1
    assert np.isinf(np.abs(res.eigenvalues[~res.finite])).all()
    finite = np.sort(res.eigenvalues[res.finite].real)
    assert np.allclose(finite, [1.0, 1.0], atol=1e-12)


def test_generalized_eig_residuals():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 20))
    n = rng.standard_normal((20, 20))
    res = generalized_eig(m, n)
    scale = np.linalg.norm(m) + np.linalg.norm(n)
    for i in np.nonzero(res.finite)[0]:
        lam = res.eigenvalues[i]
        x = res.right[:, i]
        assert np.linalg.norm(m @ x - lam * (n @ x)) <= 1e-10 * scale * (1 + abs(lam))


def test_generalized_eig_singular_pencil():
    # shared null space: last row/column zero in both operands
    m = np.diag([1.0, 1.0, 0.0])
    n = np.diag([1.0, 0.5, 0.0])
    with pytest.raises(SingularPencilError):
        generalized_eig(m, n)


def test_generalized_eig_validates_shapes():
    with pytest.raises(ValueError):
        generalized_eig(np.eye(3), np.eye(4))


def _result(values):
    lam = np.asarray(values, dtype=complex)
    return GeneralizedEigenResult(
        eigenvalues=lam,
        finite=np.ones(lam.shape, dtype=bool),
        right=np.eye(lam.size, dtype=complex),
    )


def test_select_ritz_positive_real_rule():
    picked, padded = select_ritz(_result([-1.0, 0.5, 2.0]), 2)
    assert [_result([-1.0, 0.5, 2.0]).eigenvalues[i] for i in picked] == [0.5, 2.0]
    assert not padded


def test_select_ritz_complex_pair_ordering():
    res = _result([1 + 2j, 1 - 2j, 3.0])
    picked, padded = select_ritz(res, 2)
    assert res.eigenvalues[picked[0]] == 1 - 2j  # imaginary tie-break ascending
    assert res.eigenvalues[picked[1]] == 1 + 2j
    assert not padded


def test_select_ritz_pads_when_rule_starves():
    res = _result([-0.5, -2.0, -1.0])
    picked, padded = select_ritz(res, 2)
    assert padded
    assert [res.eigenvalues[i] for i in picked] == [-0.5, -1.0]


def test_select_ritz_imag_rule():
    res = _result([1 - 2j, 1 + 2j, 5.0])
    picked, _ = select_ritz(res, 1, rule="positive-imag-part")
    assert res.eigenvalues[picked[0]] == 1 + 2j


def test_select_ritz_skips_infinite():
    lam = np.array([np.inf, 2.0, 1.0], dtype=complex)
    res = GeneralizedEigenResult(
        eigenvalues=lam,
        finite=np.array([False, True, True]),
        right=np.eye(3, dtype=complex),
    )
    picked, _ = select_ritz(res, 3)
    assert 0 not in picked


def test_principal_cosine_basics():
    u = np.array([1.0, 2.0, -1.0])
    assert principal_cosine(u, u) == pytest.approx(1.0)
    assert principal_cosine(u, -u) == pytest.approx(1.0)
    assert principal_cosine([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)
    assert principal_cosine([1, 1j], [1, 1j]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        principal_cosine([0.0, 0.0], [1.0, 0.0])


def test_pencil_eigenvalues_match_linear_system_oracle():
    g = generate_random_mep(3, 4, seed=12)
    tuples, _ = oracle_eigenvalues(g, 64, target=0.0)
    d0 = densify_operator(build_delta0(g.problem, round_tol=None))
    dm = densify_operator(build_delta_i(g.problem, 3, round_tol=None))
    res = generalized_eig(dm, d0)
    got = np.sort_complex(res.eigenvalues[res.finite])
    want = np.sort_complex(np.array([t.lam[2] for t in tuples]))
    assert got.size == want.size
    scale = np.abs(want).max()
    assert np.max(np.abs(got - want)) <= 1e-8 * scale
