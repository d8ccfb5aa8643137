"""Contracts of the LAPACK-backed dense kernels."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from ttmep.dense_kernels import (
    BETA_FLOOR,
    GeneralizedEigenResult,
    SingularPencilError,
    _frobenius,
    generalized_eig,
    principal_cosine,
    select_ritz,
)
from ttmep.delta_builder import build_delta0, build_delta_i
from ttmep.mep_problem import generate_random_mep, oracle_eigenvalues

from tt_helpers import densify_operator


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
        x = res.vector(i)
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


def _scipy_eig(m, n):
    """The solve as ``scipy.linalg.eig`` returns it, flagged by the same rule."""
    (alpha, beta), vr = sla.eig(m, n, homogeneous_eigvals=True, check_finite=False)
    scale_n = max(float(np.linalg.norm(n)), np.finfo(float).tiny)
    finite = np.abs(beta) > BETA_FLOOR * scale_n
    lam = np.full(alpha.shape, complex(np.inf), dtype=complex)
    lam[finite] = alpha[finite] / beta[finite]
    return lam, finite, vr


def _real_spectrum_pencil(rng, d):
    # Q T Z^T and Q S Z^T with triangular T, S: separated real eigenvalues
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    z, _ = np.linalg.qr(rng.standard_normal((d, d)))
    t = np.triu(rng.standard_normal((d, d)), 1) + np.diag(np.arange(1.0, d + 1))
    s = np.triu(rng.standard_normal((d, d)), 1) + np.eye(d)
    return q @ t @ z.T, q @ s @ z.T


def _pencils():
    rng = np.random.default_rng(7)
    real_m, real_n = _real_spectrum_pencil(rng, 12)
    singular_n = rng.standard_normal((15, 15))
    singular_n[:, -2:] = 0.0
    return {
        "real-spectrum": (real_m, real_n),
        "complex-pairs": (rng.standard_normal((30, 30)), rng.standard_normal((30, 30))),
        "complex-pencil": (
            rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25)),
            rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25)),
        ),
        "infinite": (rng.standard_normal((15, 15)), singular_n),
    }


@pytest.mark.parametrize("case", ["real-spectrum", "complex-pairs", "complex-pencil", "infinite"])
def test_generalized_eig_equals_scipy_eig_bytes(case):
    m, n = _pencils()[case]
    lam, finite, vr = _scipy_eig(m, n)
    res = generalized_eig(m, n)
    assert res.eigenvalues.tobytes() == lam.tobytes()
    assert np.array_equal(res.finite, finite)
    for i in range(lam.size):
        v = res.vector(i)
        assert v.dtype == vr.dtype and v.tobytes() == np.ascontiguousarray(vr[:, i]).tobytes()
    if case == "real-spectrum":
        assert res.pair_marks is None and vr.dtype == float
    if case == "complex-pairs":
        assert res.pair_marks is not None and res.pair_marks.any()
    if case == "infinite":
        assert int(np.count_nonzero(~res.finite)) == 2


@pytest.mark.parametrize("case", ["complex-pairs", "complex-pencil"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_generalized_eig_overwrite_false_leaves_inputs(case, order):
    m, n = (np.array(a, order=order) for a in _pencils()[case])
    m0, n0 = m.copy(), n.copy()
    res = generalized_eig(m, n)
    assert m.tobytes() == m0.tobytes() and n.tobytes() == n0.tobytes()
    # in place on Fortran-ordered copies: the same bytes
    inplace = generalized_eig(np.asfortranarray(m0), np.asfortranarray(n0), overwrite=True)
    assert inplace.eigenvalues.tobytes() == res.eigenvalues.tobytes()
    for i in range(res.eigenvalues.size):
        assert inplace.vector(i).tobytes() == res.vector(i).tobytes()


def test_pencil_scale_ignores_layout():
    # the BETA_FLOOR scales sum in C order whatever the pencil's layout
    # (summed in memory order, some of these would differ in the last bit)
    for seed in range(4):
        a = np.random.default_rng(seed).standard_normal((200, 200))
        for mat in (a, a + 1j * a.T):
            assert _frobenius(np.asfortranarray(mat)) == float(np.linalg.norm(mat))


def test_generalized_eig_in_place_peak():
    # at the solver's largest pencil (d=490) the solve owns about one
    # matrix: LAPACK's right vectors; the pencil is factored in its buffers
    rng = np.random.default_rng(8)
    m = np.asfortranarray(rng.standard_normal((490, 490)))
    n = np.asfortranarray(rng.standard_normal((490, 490)))
    tracemalloc.start()
    try:
        generalized_eig(m, n, overwrite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m.nbytes


def _result(values):
    lam = np.asarray(values, dtype=complex)
    return GeneralizedEigenResult(
        eigenvalues=lam,
        finite=np.ones(lam.shape, dtype=bool),
        lapack_right=np.eye(lam.size, dtype=complex),
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


def test_select_ritz_skips_infinite():
    lam = np.array([np.inf, 2.0, 1.0], dtype=complex)
    res = GeneralizedEigenResult(
        eigenvalues=lam,
        finite=np.array([False, True, True]),
        lapack_right=np.eye(3, dtype=complex),
    )
    picked, _ = select_ritz(res, 3)
    assert 0 not in picked


def _two_pass_select_ritz(result, count):
    """The selection rule in two passes: the eligible values sorted, then, to
    pad, a second scan over every finite index not yet taken."""
    lam = result.eigenvalues
    finite = np.nonzero(result.finite)[0]

    def sort_key(i):
        return (abs(lam[i]), lam[i].real, lam[i].imag)

    eligible = sorted((i for i in finite if lam[i].real > 0), key=sort_key)
    chosen = eligible[:count]
    padded = False
    if len(chosen) < count:
        taken = set(chosen)
        rest = sorted((i for i in finite if i not in taken), key=sort_key)
        chosen = chosen + rest[: count - len(chosen)]
        padded = True
    return chosen, padded


def test_select_ritz_equals_the_two_pass_reference():
    rng = np.random.default_rng(21)
    seen_padded = set()
    for _ in range(200):
        # an integer grid gives equal moduli (1+2j, 2-1j) and repeated values
        half = rng.integers(-3, 4, size=(rng.integers(1, 8), 2)) @ np.array([1, 1j])
        real = rng.integers(-3, 4, size=rng.integers(0, 5))
        lam = np.concatenate([half, np.conj(half), real]).astype(complex)
        rng.shuffle(lam)
        finite = rng.random(lam.size) > 0.2
        lam[~finite] = complex(np.inf)
        res = GeneralizedEigenResult(
            eigenvalues=lam, finite=finite, lapack_right=np.eye(lam.size)
        )
        n_eligible = int(np.count_nonzero(lam[finite].real > 0))
        for count in (max(n_eligible - 1, 0), n_eligible, n_eligible + 1, lam.size + 1):
            got = select_ritz(res, count)
            assert got == _two_pass_select_ritz(res, count)
            seen_padded.add(got[1])
    assert seen_padded == {False, True}


def test_real_pencil_vector_is_real_exactly_for_a_real_eigenvalue():
    rng = np.random.default_rng(23)
    kinds = set()
    for trial in range(30):
        d = int(rng.integers(5, 60))
        m = rng.standard_normal((d, d))
        n = rng.standard_normal((d, d))
        if trial % 3 == 0:  # symmetric positive definite N
            n = n @ n.T + d * np.eye(d)
        if trial % 6 == 0:  # and symmetric M: a real spectrum
            m = m + m.T
        res = generalized_eig(m, n)
        for i in np.nonzero(res.finite)[0]:
            real = res.eigenvalues[i].imag == 0
            assert (not np.any(res.vector(i).imag)) == real
            kinds.add(real)
    assert kinds == {False, True}


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
