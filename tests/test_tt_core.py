"""Train-format invariants: evaluation, rounding, frames, block shifts."""

import functools
import itertools

import numpy as np
import pytest

from ttmep.delta_builder import build_delta0
from ttmep.mep_problem import generate_random_mep
from ttmep.tt_core import (
    CapExceededError,
    FrameEnvCache,
    TTOperator,
    TTVector,
    _positive_qr,
    _truncation_rank,
    absorb_transfer_left,
    absorb_transfer_right,
    env_apply,
    env_left_step,
    env_right_step,
    feasible_ranks,
    frame_project,
    rank_one_bilinear,
    shift_block_core,
    svd_split,
    tt_from_json,
    tt_matvec,
    tt_to_json,
)

from tt_helpers import (
    absorb_left,
    block_columns_dense,
    densify,
    densify_frame,
    densify_operator,
    evaluate,
    evaluate_operator,
    identity_operator,
    is_left_orthonormal,
    is_right_orthonormal,
    left_orthonormalize_core,
    orthonormal_block,
    random_operator,
    random_tt,
    right_orthonormalize_core,
    tt_round,
    tt_round_operator,
)


def rank_one(vectors):
    return TTVector([np.asarray(v, float).reshape(1, -1, 1) for v in vectors])


# ---------------------------------------------------------------------------
# evaluate / densify


def test_evaluate_all_scalar_ones():
    v = TTVector([np.ones((1, 1, 1)) for _ in range(4)])
    assert evaluate(v, (0, 0, 0, 0)) == 1.0


def test_evaluate_rank_one_kron_entry():
    v = rank_one([[1.0, 2.0], [3.0, 4.0]])
    # entry x(2) * y(1), 0-based index (1, 0)
    assert evaluate(v, (1, 0)) == pytest.approx(6.0)


def test_evaluate_matches_dense_reconstruction():
    rng = np.random.default_rng(0)
    v = random_tt(rng, (2, 3, 2), (1, 2, 2, 1))
    d = densify(v)
    for idx in itertools.product(range(2), range(3), range(2)):
        flat = np.ravel_multi_index(idx, (2, 3, 2))
        assert d[flat] == pytest.approx(evaluate(v, idx), abs=1e-14)


def test_evaluate_densify_round_trip_exhaustive_order4():
    rng = np.random.default_rng(100)
    sizes = (3, 2, 3, 2)
    v = random_tt(rng, sizes, (1, 2, 3, 2, 1))
    d = densify(v)
    for idx in itertools.product(*(range(n) for n in sizes)):
        flat = np.ravel_multi_index(idx, sizes)
        assert d[flat] == pytest.approx(evaluate(v, idx), abs=1e-13)


def test_evaluate_bounds_error():
    v = rank_one([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(IndexError):
        evaluate(v, (2, 0))
    with pytest.raises(IndexError):
        evaluate(v, (0,))


def test_densify_kron_ordering():
    v = rank_one([[1.0, 0.0], [0.0, 1.0]])
    assert densify(v).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_densify_round_trip_through_rounding():
    rng = np.random.default_rng(1)
    v = random_tt(rng, (3, 4, 3), (1, 3, 3, 1))
    w = tt_round(v, 0.0)
    ref = densify(v)
    assert np.linalg.norm(densify(w) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_densify_cap_refusal():
    v = rank_one([np.ones(10)] * 8)  # 10^8 entries
    with pytest.raises(CapExceededError):
        densify(v)


def test_operator_entry_matches_dense():
    rng = np.random.default_rng(2)
    a = random_operator(rng, (2, 3, 2), (2, 2))
    dense = densify_operator(a)
    for ridx in itertools.product(range(2), range(3), range(2)):
        for cidx in ((0, 0, 0), (1, 2, 1), (0, 1, 1)):
            r = np.ravel_multi_index(ridx, (2, 3, 2))
            c = np.ravel_multi_index(cidx, (2, 3, 2))
            assert dense[r, c] == pytest.approx(
                evaluate_operator(a, ridx, cidx), abs=1e-13
            )


# ---------------------------------------------------------------------------
# matvec


def test_matvec_identity_operator():
    rng = np.random.default_rng(3)
    v = random_tt(rng, (3, 3, 3), (1, 2, 2, 1))
    z = tt_matvec(identity_operator((3, 3, 3)), v)
    assert np.allclose(densify(z), densify(v), atol=1e-13)


def test_matvec_kron_factorization():
    rng = np.random.default_rng(4)
    b11 = rng.standard_normal((3, 3))
    b22 = rng.standard_normal((4, 4))
    x1 = rng.standard_normal(3)
    x2 = rng.standard_normal(4)
    op = TTOperator([b11.reshape(1, 3, 3, 1), b22.reshape(1, 4, 4, 1)])
    z = tt_matvec(op, rank_one([x1, x2]))
    assert np.allclose(densify(z), np.kron(b11 @ x1, b22 @ x2), atol=1e-12)


def test_matvec_against_dense_and_rank_law():
    rng = np.random.default_rng(5)
    a = random_operator(rng, (3, 3, 3), (4, 3))
    v = random_tt(rng, (3, 3, 3), (1, 2, 4, 1))
    z = tt_matvec(a, v)
    assert z.ranks == tuple(ra * rv for ra, rv in zip(a.ranks, v.ranks))
    ref = densify_operator(a) @ densify(v)
    assert np.linalg.norm(densify(z) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_matvec_mode_mismatch():
    rng = np.random.default_rng(6)
    a = random_operator(rng, (3, 3), (2,))
    v = random_tt(rng, (3, 4), (1, 2, 1))
    with pytest.raises(ValueError):
        tt_matvec(a, v)


# ---------------------------------------------------------------------------
# orthonormalization


def test_orthonormalize_identity_transfer_on_orthonormal_core():
    rng = np.random.default_rng(7)
    v = random_tt(rng, (4, 4, 4), (1, 3, 3, 1))
    r = left_orthonormalize_core(v.cores, 0)
    absorb_transfer_right(v.cores, 0, r)
    # re-orthonormalizing gives the identity transfer under the sign fix
    r2 = left_orthonormalize_core(v.cores, 0)
    assert np.allclose(r2, np.eye(r2.shape[0]), atol=1e-13)


def test_left_right_orthonormalize_and_absorb_preserve_tensor():
    rng = np.random.default_rng(8)
    v = random_tt(rng, (3, 4, 3), (1, 3, 3, 1))
    ref = densify(v)
    r = left_orthonormalize_core(v.cores, 1)
    absorb_transfer_right(v.cores, 1, r)
    assert is_left_orthonormal(v.cores[1], tol=1e-13)
    l = right_orthonormalize_core(v.cores, 2)
    absorb_transfer_left(v.cores, 2, l)
    assert is_right_orthonormal(v.cores[2], tol=1e-13)
    assert np.linalg.norm(densify(v) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_orthonormalize_block_core_forbidden():
    rng = np.random.default_rng(9)
    cores = [rng.standard_normal((1, 3, 2, 2)), rng.standard_normal((2, 3, 1))]
    with pytest.raises(ValueError, match="core must be 3D"):
        left_orthonormalize_core(cores, 0)
    # the plain core is fine
    right_orthonormalize_core(cores, 1)


# ---------------------------------------------------------------------------
# rounding


def test_feasible_ranks_size_the_unfoldings_exactly():
    # the unfolding sizes pass 2**63 here, where int64 products wrap
    assert feasible_ranks([10] * 21, [5] * 20) == (1,) + (5,) * 20 + (1,)
    assert feasible_ranks([2] * 70, [5] * 69) == (1, 2, 4) + (5,) * 65 + (4, 2, 1)
    assert feasible_ranks([3, 4, 2], [20, 20]) == (1, 3, 2, 1)


def test_round_recovers_minimal_ranks():
    rng = np.random.default_rng(10)
    x1 = rng.standard_normal(4)
    x2 = rng.standard_normal(5)
    x3 = rng.standard_normal(4)
    v = rank_one([x1, x2, x3])
    # inflate ranks artificially with zero blocks
    cores = []
    for k, g in enumerate(v.cores):
        r0, n, r1 = g.shape
        pad0 = 1 if k == 0 else 3
        pad1 = 1 if k == 2 else 3
        h = np.zeros((pad0, n, pad1))
        h[:r0, :, :r1] = g
        cores.append(h)
    inflated = TTVector(cores)
    rounded = tt_round(inflated, 0.0)
    assert rounded.ranks == (1, 1, 1, 1)
    assert np.allclose(densify(rounded), densify(v), atol=1e-13)


def test_round_error_bound():
    rng = np.random.default_rng(11)
    v = random_tt(rng, (4, 4, 4, 4), (1, 4, 6, 4, 1))
    ref = densify(v)
    for tol in (1e-1, 1e-3, 1e-8):
        w = tt_round(v, tol)
        err = np.linalg.norm(densify(w) - ref)
        assert err <= tol * np.linalg.norm(ref) + 1e-14
        assert all(rw <= rv for rw, rv in zip(w.ranks, v.ranks))


def test_round_operator_identity_with_doubled_ranks():
    ident = identity_operator((3, 3, 3))
    cores = []
    for k, g in enumerate(ident.cores):
        r0, n, _, r1 = g.shape
        pad0 = 1 if k == 0 else 2
        pad1 = 1 if k == 2 else 2
        h = np.zeros((pad0, n, n, pad1))
        h[:r0, :, :, :r1] = g
        cores.append(h)
    rounded = tt_round_operator(TTOperator(cores), 0.0)
    assert rounded.ranks == (1, 1, 1, 1)
    assert np.allclose(densify_operator(rounded), np.eye(27), atol=1e-13)


def test_round_operator_preserves_entries():
    rng = np.random.default_rng(13)
    a = random_operator(rng, (3, 3, 3), (3, 3))
    rounded = tt_round_operator(a, 1e-13)
    assert np.allclose(
        densify_operator(rounded), densify_operator(a), atol=1e-10
    )


def _is_compact(core: np.ndarray) -> bool:
    """C-contiguous, and not a view into a larger buffer."""
    owner = core if core.base is None else core.base
    return core.flags["C_CONTIGUOUS"] and owner.nbytes == core.nbytes


def test_round_never_writes_to_its_input():
    rng = np.random.default_rng(17)
    v = random_tt(rng, (3, 4, 3, 2), (3, 5, 4))
    # a strided core, as einsum with optimize=True returns them
    v.cores[1] = np.ascontiguousarray(v.cores[1].transpose(2, 1, 0)).transpose(2, 1, 0)
    a = random_operator(rng, (3, 2, 3), (4, 4))
    for t, rounder in ((v, lambda t: tt_round(t, 1e-10)),
                       (a, lambda t: tt_round_operator(t, 1e-13))):
        before = [(g.tobytes(), g.strides) for g in t.cores]
        out = rounder(t)
        assert [(g.tobytes(), g.strides) for g in t.cores] == before
        assert not any(np.shares_memory(g, h) for g in out.cores for h in t.cores)


def _zero_padded(cores, extra):
    """The same train with ``extra`` zero slices appended to every interior bond."""
    out = []
    for k, g in enumerate(cores):
        pad = [(0, 0)] * g.ndim
        pad[0] = (0, 0 if k == 0 else extra)
        pad[-1] = (0, 0 if k == len(cores) - 1 else extra)
        out.append(np.pad(g, pad))
    return out


def test_rounded_cores_own_compact_storage():
    # truncation keeps fewer singular vectors than each SVD returns
    rng = np.random.default_rng(19)
    v = TTVector(_zero_padded(random_tt(rng, (4, 5, 4, 3), (2, 3, 2)).cores, 2))
    a = TTOperator(_zero_padded(random_operator(rng, (3, 3, 3), (2, 2)).cores, 2))
    for t, want in ((tt_round(v, 0.0), (1, 2, 3, 2, 1)),
                    (tt_round_operator(a, 1e-13), (1, 2, 2, 1))):
        assert t.ranks == want
        assert all(_is_compact(g) for g in t.cores)


def _numpy_positive_qr(mat):
    """numpy.linalg.qr with the sign fix: the reference for _positive_qr."""
    q, r = np.linalg.qr(mat)
    d = np.sign(np.real(np.diagonal(r))).astype(mat.dtype)
    d[d == 0] = 1.0
    q *= d[np.newaxis, :]
    r *= np.conj(d)[:, np.newaxis]
    return q, r


def _numpy_reference_round(cores, tol):
    """The TT-SVD rounding with numpy.linalg's QR and SVD, in the operand
    layouts numpy returns: C-contiguous cores in, each phase-1 core the
    transposed view of a C-ordered Q, C-ordered transfers."""
    shapes = [g.shape[1:-1] for g in cores]
    cores = [np.ascontiguousarray(g.reshape(g.shape[0], -1, g.shape[-1])) for g in cores]
    m = len(cores)
    for k in range(m - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        q, r = _numpy_positive_qr(cores[k].reshape(r0, n * r1).T)
        cores[k] = q.T.reshape(q.shape[1], n, r1)
        cores[k - 1] = np.einsum("aib,bx->aix", cores[k - 1], r.T)
    if m > 1:
        budget = tol * float(np.linalg.norm(cores[0])) / np.sqrt(m - 1)
        for k in range(m - 1):
            r0, n, r1 = cores[k].shape
            u, s, vh = np.linalg.svd(cores[k].reshape(r0 * n, r1), full_matrices=False)
            r = _truncation_rank(s, budget)
            cores[k] = u[:, :r].reshape(r0, n, r)
            cores[k + 1] = np.einsum("xa,aib->xib", s[:r, np.newaxis] * vh[:r], cores[k + 1])
    return [g.reshape(g.shape[0], *shape, g.shape[-1]) for g, shape in zip(cores, shapes)]


def _same_train_bits(got, want_cores):
    return len(got.cores) == len(want_cores) and all(
        _same_bits(g, w) for g, w in zip(got.cores, want_cores)
    )


def test_rounding_returns_the_numpy_reference_bytes():
    # the seed-0 solve moves with any rounding-level change in the operators,
    # so the in-place LAPACK rounding must return numpy.linalg's bytes
    rng = np.random.default_rng(29)
    strided = random_tt(rng, (3, 4, 3, 2), (3, 5, 4))
    strided.cores[1] = np.ascontiguousarray(strided.cores[1].transpose(2, 1, 0)).transpose(2, 1, 0)
    cplx = random_tt(rng, (3, 2, 4), (3, 4))
    cplx = TTVector([g + 1j * rng.standard_normal(g.shape) for g in cplx.cores])
    deficient = TTVector(_zero_padded(random_tt(rng, (4, 5, 4, 3), (2, 3, 2)).cores, 2))
    vectors = [
        (random_tt(rng, (4, 3, 5, 4, 3), (4, 8, 9, 5)), 1e-10),
        (strided, 1e-10),
        (cplx, 1e-8),
        (random_tt(rng, (5, 4), (4,)), 0.0),  # m = 2
        (deficient, 0.0),
        (deficient, 1e-1),
    ]
    for v, tol in vectors:
        want = _numpy_reference_round(list(v.cores), tol)
        assert _same_train_bits(tt_round(v, tol), want)
    operators = [
        random_operator(rng, (3, 2, 3, 2), (4, 5, 3)),
        random_operator(rng, (3, 4), (5,)),  # m = 2
        TTOperator(_zero_padded(random_operator(rng, (3, 3, 3), (2, 2)).cores, 2)),
    ]
    for a in operators:
        want = _numpy_reference_round(list(a.cores), 1e-13)
        assert _same_train_bits(tt_round_operator(a, 1e-13), want)
    prob = generate_random_mep(6, 3, seed=4).problem
    want = _numpy_reference_round(build_delta0(prob, round_tol=None).cores, 1e-13)
    assert _same_train_bits(build_delta0(prob), want)


@pytest.mark.parametrize("shape", [(12, 5), (7, 7)])
@pytest.mark.parametrize("complex_", [False, True])
def test_positive_qr_returns_numpy_qr_bytes_with_the_sign_fix(shape, complex_):
    rng = np.random.default_rng(31)
    mat = rng.standard_normal(shape)
    if complex_:
        mat = mat + 1j * rng.standard_normal(shape)
    want_q, want_r = _numpy_positive_qr(mat)
    before = mat.tobytes()
    q, r = _positive_qr(mat)
    assert mat.tobytes() == before
    assert _same_bits(q, want_q) and _same_bits(r, want_r)
    assert np.all(np.real(np.diagonal(r)) >= 0)


# ---------------------------------------------------------------------------
# frames


def test_frame_gram_identity():
    rng = np.random.default_rng(14)
    cores, k = orthonormal_block(rng, (3, 3, 3), b=2, ranks=(2, 2))
    f = densify_frame(cores, k)
    assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-12


def _envs(cores, k, a):
    cache = FrameEnvCache((a,), cores, k)
    return cache.left[k][0], cache.right[k][0]


def test_env_cache_refresh_equals_rebuild():
    # walk the block across every mode and back; after each shift the
    # refreshed pair at the new block index must be a fresh cache's, byte
    # for byte
    rng = np.random.default_rng(15)
    sizes = (3, 2, 3, 2)
    cores, k = orthonormal_block(rng, sizes, b=2, ranks=(2, 3, 2), index=0)
    ops = (random_operator(rng, sizes, (2, 3, 2)), random_operator(rng, sizes, (3, 2, 2)))
    cache = FrameEnvCache(ops, cores, 0)
    m = len(sizes)
    for direction in [+1] * (m - 1) + [-1] * (m - 1):
        old = k
        k = shift_block_core(cores, k, direction, 3, enrichment=1, rng=rng)
        cache.refresh_after_shift(cores, old, k)
        fresh = FrameEnvCache(ops, cores, k)
        for got, want in ((cache.left[k], fresh.left[k]), (cache.right[k], fresh.right[k])):
            assert len(got) == len(ops)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert k == 0
    with pytest.raises(ValueError, match="one mode at a time"):
        cache.refresh_after_shift(cores, 0, 2)


def test_frame_project_matches_dense():
    rng = np.random.default_rng(16)
    cores, k = orthonormal_block(rng, (3, 3, 3), b=2, ranks=(2, 2))
    a = random_operator(rng, (3, 3, 3), (3, 2))
    fd = densify_frame(cores, k)
    ad = densify_operator(a)
    p = frame_project(cores, k, a, envs=_envs(cores, k, a))
    assert np.allclose(p, fd.T @ ad @ fd, atol=1e-12)


def test_frame_project_identity_and_symmetry():
    rng = np.random.default_rng(18)
    cores, k = orthonormal_block(rng, (3, 3, 3), b=2, ranks=(2, 2))
    eye = identity_operator((3, 3, 3))
    p = frame_project(cores, k, eye, envs=_envs(cores, k, eye))
    rl, n_k, _, rr = cores[k].shape
    assert np.allclose(p, np.eye(rl * n_k * rr), atol=1e-12)
    sym_cores = []
    for g in random_operator(rng, (3, 3, 3), (2, 2)).cores:
        sym_cores.append(g + g.transpose(0, 2, 1, 3))
    sym = TTOperator(sym_cores)
    p2 = frame_project(cores, k, sym, envs=_envs(cores, k, sym))
    assert np.abs(p2 - p2.T).max() <= 1e-12


def test_frame_project_matches_columnwise_apply():
    rng = np.random.default_rng(19)
    cores, k = orthonormal_block(rng, (3, 3, 3), b=2, ranks=(2, 2))
    a = random_operator(rng, (3, 3, 3), (3, 3))
    left, right = _envs(cores, k, a)
    p = frame_project(cores, k, a, envs=(left, right))
    shape = (left.shape[2], cores[k].shape[1], right.shape[2])
    cols = np.stack(
        [
            env_apply(
                left, a.cores[k], right, np.eye(np.prod(shape))[:, j].reshape(shape)
            ).reshape(-1)
            for j in range(np.prod(shape))
        ],
        axis=1,
    )
    assert np.allclose(p, cols, atol=1e-12)


@pytest.mark.parametrize("sizes,ranks", [((3, 3, 3), (2, 2)), ((4, 5, 4), (4, 4))])
def test_frame_project_is_fortran_ordered_with_c_order_values(sizes, ranks):
    # LAPACK factors the pencil in the solver's buffer only if it is
    # Fortran-ordered; its values stay those of the C-ordered contraction
    rng = np.random.default_rng(21)
    cores, k = orthonormal_block(rng, sizes, b=2, ranks=ranks)
    a = random_operator(rng, sizes, (3, 4))
    left, right = _envs(cores, k, a)
    p = frame_project(cores, k, a, envs=(left, right))
    want = np.einsum(
        "xay,aijc,ucv->xiuyjv", left, a.cores[k], right, optimize=True
    ).reshape(p.shape)
    assert p.flags["F_CONTIGUOUS"]
    assert np.ascontiguousarray(p).tobytes() == want.tobytes()


def test_frame_project_cap():
    rng = np.random.default_rng(20)
    cores, k = orthonormal_block(rng, (30, 30, 30), b=2, ranks=(30, 30))  # local size 27000
    eye = identity_operator((30, 30, 30))
    with pytest.raises(CapExceededError):
        frame_project(cores, k, eye, envs=_envs(cores, k, eye))


# ---------------------------------------------------------------------------
# environment kernels

# (bra complex, ket complex); the operator cores stay real, as in the solver
BRA_KET = [(False, False), (True, True), (False, True), (True, False)]


def _chain(rng, sizes, ranks, complex_):
    cores = random_tt(rng, sizes, ranks).cores
    if complex_:
        cores = [g + 1j * rng.standard_normal(g.shape) for g in cores]
    return cores


@pytest.mark.parametrize("bra_complex,ket_complex", BRA_KET)
def test_env_kernels_match_dense_frame_projection(bra_complex, ket_complex):
    # environments grown step by step from the rank-1 boundaries, applied
    # with env_apply column by column, give Fb^H A Fk at every open mode
    rng = np.random.default_rng(21)
    sizes = (2, 3, 2, 3)
    a = random_operator(rng, sizes, (2, 3, 2))
    bra = _chain(rng, sizes, (2, 3, 2), bra_complex)
    ket = _chain(rng, sizes, (3, 2, 3), ket_complex)
    ad = densify_operator(a)
    m = len(sizes)
    for k in range(m):
        left = np.ones((1, 1, 1))
        for p in range(k):
            left = env_left_step(left, bra[p], a.cores[p], ket[p])
        right = np.ones((1, 1, 1))
        for p in range(m - 1, k, -1):
            right = env_right_step(right, bra[p], a.cores[p], ket[p])
        fb = densify_frame(bra, k)
        fk = densify_frame(ket, k)
        ref = np.conj(fb).T @ ad @ fk
        shape = (left.shape[2], sizes[k], right.shape[2])
        cols = np.stack(
            [
                env_apply(left, a.cores[k], right, e.reshape(shape)).reshape(-1)
                for e in np.eye(fk.shape[1])
            ],
            axis=1,
        )
        assert cols.shape == ref.shape
        assert np.allclose(cols, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("bra_complex,ket_complex", BRA_KET)
def test_env_steps_over_all_modes_give_the_bilinear_form(bra_complex, ket_complex):
    rng = np.random.default_rng(22)
    sizes = (3, 2, 3)
    a = random_operator(rng, sizes, (3, 2))
    bra = _chain(rng, sizes, (2, 3), bra_complex)
    ket = _chain(rng, sizes, (3, 2), ket_complex)
    yd, ad, xd = densify(TTVector(bra)), densify_operator(a), densify(TTVector(ket))
    ref = np.vdot(yd, ad @ xd)
    tol = 1e-12 * np.linalg.norm(yd) * np.linalg.norm(ad, 2) * np.linalg.norm(xd)
    left = np.ones((1, 1, 1))
    for p in range(len(sizes)):
        left = env_left_step(left, bra[p], a.cores[p], ket[p])
    right = np.ones((1, 1, 1))
    for p in reversed(range(len(sizes))):
        right = env_right_step(right, bra[p], a.cores[p], ket[p])
    assert left.shape == right.shape == (1, 1, 1)
    assert abs(left[0, 0, 0] - ref) <= tol
    assert abs(right[0, 0, 0] - ref) <= tol


def _tensordot_left_step(env, bra, op, ket):
    t = np.tensordot(env, ket, ([2], [0]))
    t = np.tensordot(t, op, ([1, 2], [0, 2]))
    return np.tensordot(np.conj(bra), t, ([0, 1], [0, 2])).transpose(0, 2, 1)


def _tensordot_right_step(env, bra, op, ket):
    t = np.tensordot(ket, env, ([2], [2]))
    t = np.tensordot(op, t, ([2, 3], [1, 3]))
    return np.tensordot(np.conj(bra), t, ([1, 2], [1, 3]))


def _tensordot_apply(left, op_core, right, y):
    t = np.tensordot(left, y, ([2], [0]))
    t = np.tensordot(t, op_core, ([1, 2], [0, 2]))
    return np.tensordot(t, right, ([1, 3], [2, 1]))


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and (
        got.tobytes() == want.tobytes()
    )


@pytest.mark.parametrize("bra_complex,ket_complex", BRA_KET)
def test_env_kernels_equal_tensordot_chains_bit_for_bit(bra_complex, ket_complex):
    # the cached environments feed frame_project and the pencil solve, which
    # moves with any rounding-level change, so every kernel must return
    # exactly the bytes of the pairwise tensordot chain it mirrors; each
    # chain starts from the rank-1 boundary and is fed its own outputs
    rng = np.random.default_rng(24)
    sizes = (3, 4, 2, 4, 3)
    a = random_operator(rng, sizes, (5, 7, 6, 4))
    bra = _chain(rng, sizes, (3, 5, 4, 3), bra_complex)
    ket = _chain(rng, sizes, (3, 5, 4, 3), ket_complex)
    m = len(sizes)
    lefts, rights = [np.ones((1, 1, 1))], [np.ones((1, 1, 1))]
    ref_left = ref_right = np.ones((1, 1, 1))
    for p in range(m):
        ref_left = _tensordot_left_step(ref_left, bra[p], a.cores[p], ket[p])
        lefts.append(env_left_step(lefts[-1], bra[p], a.cores[p], ket[p]))
        assert _same_bits(lefts[-1], ref_left)
        q = m - 1 - p
        ref_right = _tensordot_right_step(ref_right, bra[q], a.cores[q], ket[q])
        rights.append(env_right_step(rights[-1], bra[q], a.cores[q], ket[q]))
        assert _same_bits(rights[-1], ref_right)
    for k in range(m):
        left, right = lefts[k], rights[m - 1 - k]
        y = rng.standard_normal((left.shape[2], sizes[k], right.shape[2]))
        if ket_complex:
            y = y + 1j * rng.standard_normal(y.shape)
        got = env_apply(left, a.cores[k], right, y)
        assert _same_bits(got, _tensordot_apply(left, a.cores[k], right, y))


@pytest.mark.parametrize("complex_", [False, True])
def test_rank_one_bilinear_matches_dense(complex_):
    rng = np.random.default_rng(23)
    sizes = (3, 2, 4)
    a = random_operator(rng, sizes, (3, 2))

    def vec(n):
        v = rng.standard_normal(n)
        return v + 1j * rng.standard_normal(n) if complex_ else v

    ys = [vec(n) for n in sizes]
    xs = [vec(n) for n in sizes]
    yd = functools.reduce(np.kron, ys)
    xd = functools.reduce(np.kron, xs)
    ad = densify_operator(a)
    ref = np.vdot(yd, ad @ xd)
    tol = 1e-12 * np.linalg.norm(yd) * np.linalg.norm(ad, 2) * np.linalg.norm(xd)
    assert abs(rank_one_bilinear(ys, a, xs) - ref) <= tol
    # stacked bras: one form per row, in row order
    bras = [[vec(n) for n in sizes] for _ in range(3)] + [ys]
    stacks = [np.stack([b[k] for b in bras]) for k in range(len(sizes))]
    forms = rank_one_bilinear(stacks, a, xs)
    assert forms.shape == (len(bras),)
    for b, form in zip(bras, forms):
        bd = functools.reduce(np.kron, b)
        tol = 1e-12 * np.linalg.norm(bd) * np.linalg.norm(ad, 2) * np.linalg.norm(xd)
        assert abs(form - np.vdot(bd, ad @ xd)) <= tol


# ---------------------------------------------------------------------------
# block shifts


@pytest.mark.parametrize("direction", [+1, -1])
def test_svd_split_numerical_rank_and_cap(direction):
    rng = np.random.default_rng(41)
    mat = rng.standard_normal((6, 3)) @ (
        rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    )
    q, carry = svd_split(mat, direction)
    rebuilt = q @ carry if direction == +1 else carry @ q
    gram = np.conj(q.T) @ q if direction == +1 else q @ np.conj(q.T)
    assert gram.shape == (3, 3)
    assert np.abs(gram - np.eye(3)).max() <= 1e-12
    assert np.linalg.norm(rebuilt - mat) <= 1e-12 * np.linalg.norm(mat)
    q, carry = svd_split(mat, direction, max_rank=2)
    assert (q.shape, carry.shape) == (((6, 2), (2, 5)) if direction == +1 else ((2, 5), (6, 2)))


def test_shift_preserves_single_rank_one_column():
    rng = np.random.default_rng(21)
    cores, k = orthonormal_block(rng, (3, 3, 3), b=1, ranks=(1, 1), index=0)
    before = block_columns_dense(cores, k)
    k = shift_block_core(cores, k, +1, target_rank=3, enrichment=0)
    assert k == 1
    after = block_columns_dense(cores, k)
    assert np.abs(before - after).max() <= 1e-12


def test_shift_keeps_frame_orthonormal_both_directions():
    rng = np.random.default_rng(22)
    cores, k = orthonormal_block(rng, (3, 3, 3), b=2, ranks=(2, 2), index=1)
    k = shift_block_core(cores, k, +1, target_rank=3, enrichment=1, rng=rng)
    f = densify_frame(cores, k)
    assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-12
    k = shift_block_core(cores, k, -1, target_rank=3, enrichment=1, rng=rng)
    k = shift_block_core(cores, k, -1, target_rank=3, enrichment=1, rng=rng)
    f = densify_frame(cores, k)
    assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-12


def test_shift_enrichment_rank_and_orthonormality():
    rng = np.random.default_rng(23)
    cores, k = orthonormal_block(rng, (4, 4, 4), b=2, ranks=(3, 3), index=0)
    before = block_columns_dense(cores, k)
    g = cores[0]
    unfolded = g.reshape(g.shape[0] * g.shape[1], -1)
    numerical_rank = np.linalg.matrix_rank(unfolded)
    k = shift_block_core(cores, k, +1, target_rank=2, enrichment=1, rng=rng)
    rank = cores[0].shape[-1]
    assert rank == min(2, numerical_rank) + 1
    core = cores[0].reshape(-1, rank)
    assert np.abs(core.T @ core - np.eye(rank)).max() <= 1e-12
    # appended zero column: the represented subspace keeps the truncated part
    after = block_columns_dense(cores, k)
    assert after.shape == before.shape


def test_shift_boundary_violation():
    rng = np.random.default_rng(24)
    cores, k = orthonormal_block(rng, (3, 3), b=1, ranks=(1,), index=1)
    with pytest.raises(ValueError):
        shift_block_core(cores, k, +1, target_rank=2)


def test_shift_column_space_preserved_for_converged_columns():
    # rank-one columns survive the shift exactly when the rank allows them
    rng = np.random.default_rng(25)
    vecs = [rng.standard_normal((3, 2)) for _ in range(3)]
    cols = []
    for j in range(2):
        cols.append(rank_one([v[:, j] for v in vecs]))
    # block with those two columns at index 0
    block_core = np.zeros((1, 3, 2, 2))
    g2 = np.zeros((2, 3, 2))
    g3 = np.zeros((2, 3, 1))
    for j in range(2):
        block_core[0, :, j, j] = vecs[0][:, j]
        g2[j, :, j] = vecs[1][:, j]
        g3[j, :, 0] = vecs[2][:, j]
    cores = [block_core, g2, g3]
    for k in (2, 1):
        l = right_orthonormalize_core(cores, k)
        absorb_left(cores, k, l)
    before = block_columns_dense(cores, 0)
    k = shift_block_core(cores, 0, +1, target_rank=2, enrichment=0)
    after = block_columns_dense(cores, k)
    assert np.abs(before - after).max() <= 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_vector_and_operator():
    rng = np.random.default_rng(26)
    v = random_tt(rng, (3, 4, 2), (1, 2, 2, 1))
    v2 = tt_from_json(tt_to_json(v))
    assert all(np.array_equal(a, b) for a, b in zip(v.cores, v2.cores))
    a = random_operator(rng, (3, 2), (2,))
    a2 = tt_from_json(tt_to_json(a))
    assert all(np.array_equal(x, y) for x, y in zip(a.cores, a2.cores))


def test_json_rejects_complex_cores_and_unknown_kinds():
    rng = np.random.default_rng(27)
    v = random_tt(rng, (2, 3), (1, 2, 1))
    v.cores[1] = v.cores[1] + 1j * rng.standard_normal(v.cores[1].shape)
    with pytest.raises(ValueError):
        tt_to_json(v)
    with pytest.raises(ValueError):
        tt_from_json({**tt_to_json(random_tt(rng, (2, 3), (1, 2, 1))), "kind": "tt-block"})


def test_json_rejects_inconsistent_documents():
    rng = np.random.default_rng(28)
    doc = tt_to_json(random_tt(rng, (2, 2, 2), (1, 1, 1, 1)))
    bad = [
        {**doc, "cores": doc["cores"][:2]},  # a 3-mode vector with two cores
        {**doc, "cores": doc["cores"] + [doc["cores"][0]]},  # an extra core
        {**doc, "order": 7},
        {**doc, "ranks": [1, 1]},  # short ranks list
        {**doc, "order": 3.5},  # counts are integers, not truncated
        {**doc, "mode_sizes": [2, 2.5, 2]},
        {**doc, "ranks": [1, 1.5, 1, 1]},
        {**doc, "order": None},
        {**doc, "ranks": [1, -1, 1, 1]},  # reshape would infer the -1
        {**doc, "cores": 5},
        [doc],  # a list in place of the document
    ]
    for d in bad:
        with pytest.raises(ValueError):
            tt_from_json(d)
    assert tt_from_json(doc).mode_sizes == (2, 2, 2)


def test_json_counts_must_be_numbers():
    rng = np.random.default_rng(29)
    doc = tt_to_json(random_tt(rng, (2, 2, 2), (1, 1, 1, 1)))
    bad = [
        ({**doc, "order": "3"}, "order"),
        ({**doc, "order": True}, "order"),
        ({**doc, "mode_sizes": "222"}, "mode_sizes entry"),
        ({**doc, "ranks": [1, "1", 1, 1]}, "ranks entry"),
    ]
    for d, name in bad:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            tt_from_json(d)
    np_doc = {**doc, "order": np.int64(3), "mode_sizes": [np.int64(2)] * 3}
    assert tt_from_json(np_doc).mode_sizes == (2, 2, 2)


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        TTVector([np.ones((2, 2, 1))])
    with pytest.raises(ValueError):
        TTVector([np.ones((1, 2, 2)), np.ones((3, 2, 1))])
    with pytest.raises(ValueError):
        TTOperator([np.ones((1, 2, 3, 1))])
    v, op = np.ones((1, 2, 1)), np.ones((1, 2, 2, 1))
    for make in (lambda: TTVector([v, v]), lambda: TTOperator([op, op])):
        make()  # the well-formed counterparts of the cases below
    cases = [
        ("empty core list", lambda: TTVector([])),
        ("empty core list", lambda: TTOperator([])),
        ("must be 3D", lambda: TTVector([v, op])),
        ("must be 4D", lambda: TTOperator([op, v])),
        ("boundary ranks", lambda: TTVector([np.ones((2, 2, 1))])),
        ("boundary ranks", lambda: TTOperator([np.ones((1, 2, 2, 2))])),
        ("rank mismatch between cores 0 and 1",
         lambda: TTOperator([np.ones((1, 2, 2, 2)), np.ones((3, 2, 2, 1))])),
        ("square modes", lambda: TTOperator([op, np.ones((1, 3, 2, 1))])),
    ]
    for message, make in cases:
        with pytest.raises(ValueError, match=message):
            make()
