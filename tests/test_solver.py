"""Sweep mechanics: frames, selection heuristic, walks, end-to-end solves."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from ttmep import solver as solver_module
from ttmep.delta_builder import apply_shift, build_delta0, build_delta_i
from ttmep.dense_kernels import (
    GeneralizedEigenResult,
    generalized_eig,
    select_ritz,
)
from ttmep.mep_problem import (
    GeneratedProblem,
    MEProblem,
    SingularRayleighError,
    duplicate_check,
    generate_random_mep,
    left_eigenvector_tuple,
    oracle_eigenvalues,
    problem_to_json,
    screen_denominator,
)
from ttmep.solver import (
    WALK_OUTCOMES,
    SolverConfig,
    SweepState,
    _Candidate,
    check_convergence,
    estimate_residual,
    init_iterate,
    make_state,
    rank_one_factor,
    ritz_pairs,
    select_eigenpairs,
    solve,
    sweep_step,
)
from ttmep.tt_core import (
    FrameEnvCache,
    TTOperator,
    TTVector,
    env_apply,
    env_left_step,
    env_right_step,
    rank_one_bilinear,
)

from tt_helpers import densify, densify_frame, densify_operator


def planted_state(g: GeneratedProblem, tuple_index: int, config: SolverConfig):
    """Block iterate whose frame at mode 0 contains an exact eigenvector."""
    tuples, _ = oracle_eigenvalues(g, tuple_index + 1, target=0.0)
    t = tuples[tuple_index]
    xs = [np.real(v) / np.linalg.norm(np.real(v)) for v in t.vectors]
    cores = [xs[0].reshape(1, -1, 1, 1)]
    cores += [x.reshape(1, -1, 1) for x in xs[1:]]
    delta_m = build_delta_i(g.problem, g.m, round_tol=None)
    delta_0 = build_delta0(g.problem, round_tol=None)
    state = SweepState(
        prob=g.problem,
        config=config,
        cores=cores,
        k=0,
        envs=FrameEnvCache((delta_m, delta_0), cores, 0),
        rng=np.random.default_rng(config.seed),
    )
    return state, t, delta_m, delta_0


def shifted_positive(g: GeneratedProblem):
    tuples, _ = oracle_eigenvalues(g, g.n**g.m, target=0.0)
    lam = np.array([t.lam[-1].real for t in tuples])
    eta = -lam.min() + 1.0
    return apply_shift(g.problem, eta), np.sort(lam + eta), eta


# ---------------------------------------------------------------------------
# iterate initialization


def test_init_iterate_frame_orthonormal_and_ranks():
    config = SolverConfig(block_size=2, seed=1)
    cores = init_iterate((3, 3, 3), config, np.random.default_rng(1))
    assert cores[0].ndim == 4 and all(g.ndim == 3 for g in cores[1:])
    assert max(g.shape[-1] for g in cores) <= config.max_rank
    f = densify_frame(cores, 0)
    assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-12


def test_init_iterate_seeded_determinism():
    config = SolverConfig(block_size=3, seed=9)
    x1 = init_iterate((4, 4), config, np.random.default_rng(9))
    x2 = init_iterate((4, 4), config, np.random.default_rng(9))
    for g1, g2 in zip(x1, x2):
        assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# rank-one factorization


def test_rank_one_factor_exact_recovery():
    rng = np.random.default_rng(2)
    for complex_ in (False, True):
        a, mid, c = (rng.standard_normal(k) for k in (3, 5, 2))
        if complex_:
            a, mid, c = (v + 1j * rng.standard_normal(v.size) for v in (a, mid, c))
        t = np.einsum("a,i,b->aib", a, mid, c)
        fm = rank_one_factor(t)
        assert fm.shape == (5,)
        assert abs(np.linalg.norm(fm) - 1) <= 1e-12
        # equal to the unit middle factor up to a phase
        assert abs(np.vdot(fm, mid / np.linalg.norm(mid))) >= 1 - 1e-12


def test_rank_one_factor_extracts_tuple_component_in_frame():
    # a full eigenvector inside the frame projects to a rank-one coefficient
    # whose middle factor is the mode component
    g = generate_random_mep(3, 4, seed=4)
    config = SolverConfig(block_size=1, seed=0)
    state, t, delta_m, delta_0 = planted_state(g, 0, config)
    fd = densify_frame(state.cores, state.k)
    x_full = densify(
        __import__("ttmep.tt_core", fromlist=["TTVector"]).TTVector(
            [np.real(v).reshape(1, -1, 1) for v in t.vectors]
        )
    )
    coeff = (fd.T @ x_full).reshape(1, 4, 1)
    mid = rank_one_factor(coeff)
    ref = np.real(t.vectors[0])
    ref = ref / np.linalg.norm(ref)
    assert abs(np.vdot(mid, ref)) >= 1 - 1e-8


def test_rank_one_factor_rejects_zero():
    with pytest.raises(ValueError):
        rank_one_factor(np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# residual estimate


def test_estimate_residual_small_for_exact_eigenpair():
    g = generate_random_mep(3, 4, seed=5)
    config = SolverConfig(block_size=1, seed=0)
    state, t, delta_m, delta_0 = planted_state(g, 0, config)
    fd = densify_frame(state.cores, state.k)
    from ttmep.tt_core import TTVector

    x_full = densify(TTVector([np.real(v).reshape(1, -1, 1) for v in t.vectors]))
    coeff = (fd.T @ x_full).reshape(1, 4, 1)
    scale = np.abs(densify_operator(delta_m)).max()
    est = estimate_residual(state, complex(t.lam[-1]), coeff, +1)
    assert est <= 1e-10 * max(1.0, scale)


def test_estimate_residual_dominance_random_pairs():
    rng = np.random.default_rng(6)
    g = generate_random_mep(3, 4, seed=6)
    state = make_state(g.problem, 0.0, SolverConfig(block_size=2, seed=0, delta_round_tol=None))
    dm, d0 = (densify_operator(op) for op in state.envs.ops)
    k = state.k
    fd = densify_frame(state.cores, k)
    rl = state.cores[k].shape[0]
    rr = state.cores[k].shape[3]
    for _ in range(100):
        mu = complex(rng.standard_normal(), rng.standard_normal())
        v = rng.standard_normal(fd.shape[1]) + 1j * rng.standard_normal(fd.shape[1])
        v /= np.linalg.norm(v)
        est = estimate_residual(state, mu, v.reshape(rl, 4, rr), +1)
        full = np.linalg.norm((dm - mu * d0) @ (fd @ v))
        assert est <= full + 1e-12


def test_estimate_residual_rejects_zero_vector():
    g = generate_random_mep(2, 3, seed=7)
    state = make_state(g.problem, 0.0, SolverConfig(block_size=1, seed=0, delta_round_tol=None))
    k = state.k
    shape = (
        state.cores[k].shape[0],
        state.cores[k].shape[1],
        state.cores[k].shape[3],
    )
    with pytest.raises(ValueError):
        estimate_residual(state, 1.0, np.zeros(shape), +1)


def test_estimate_residual_rejects_a_hop_past_the_boundary():
    g = generate_random_mep(2, 3, seed=7)
    state = make_state(g.problem, 0.0, SolverConfig(block_size=1, seed=0, delta_round_tol=None))
    core = state.cores[state.k]
    assert state.k == 0
    coeff = np.ones((core.shape[0], core.shape[1], core.shape[3]))
    with pytest.raises(IndexError):
        estimate_residual(state, 1.0, coeff, -1)


# ---------------------------------------------------------------------------
# convergence walk


def _planted_walk():
    """Inputs of a walk from a block frame that holds an exact eigenvector."""
    g = generate_random_mep(3, 4, seed=8)
    work, lam_sorted, eta = shifted_positive(g)
    g_shift = GeneratedProblem(
        problem=work,
        u_factors=g.u_factors,
        z_factors=g.z_factors,
        spectrum_a=[g.spectrum_a[i] + eta * g.spectrum_b[i][-1] for i in range(3)],
        spectrum_b=g.spectrum_b,
        seed=g.seed,
    )
    config = SolverConfig(block_size=1, seed=0)
    state, t, delta_m, delta_0 = planted_state(g_shift, 0, config)
    fd = densify_frame(state.cores, state.k)
    x_full = densify(TTVector([np.real(v).reshape(1, -1, 1) for v in t.vectors]))
    coeff = (fd.T @ x_full).reshape(1, 4, 1)
    return state, t, coeff, delta_0, work, config


def test_check_convergence_accepts_planted_eigenpair():
    state, t, coeff, delta_0, work, config = _planted_walk()
    walk = check_convergence(state, complex(t.lam[-1]), coeff, +1)
    assert walk.converged and walk.admitted and walk.outcome == "admitted"
    assert len(state.found) == 1
    assert state.found[0].residual_norm < 1e-6
    assert abs(state.found[0].lam[-1] - t.lam[-1]) <= 1e-8 * max(1, abs(t.lam[-1]))
    # re-submitting the same pair is converged but rejected as duplicate
    walk2 = check_convergence(state, complex(t.lam[-1]), coeff, +1)
    assert walk2.converged and not walk2.admitted and walk2.outcome == "duplicate"
    assert len(state.found) == 1
    # with the keep list full of tuples nearer the target it is cut first
    nearer = dataclasses.replace(state.found[0], lam=np.zeros_like(t.lam))
    state.found = [nearer] * (4 * config.block_size)
    walk3 = check_convergence(state, complex(t.lam[-1]), coeff, +1)
    assert walk3.converged and walk3.outcome == "keep_cut"


def test_check_convergence_trqi_failure_keeps_the_pair_selectable(monkeypatch):
    # the walk passes eps1 in both cases; then either TRQI misses an eps no
    # residual can meet, or the Rayleigh system of the estimates is singular
    state, t, coeff, delta_0, work, config = _planted_walk()
    state.config = dataclasses.replace(config, eps=1e-300)
    walks = [check_convergence(state, complex(t.lam[-1]), coeff, +1)]
    state.config = config

    def singular(prob, vectors):
        raise SingularRayleighError("singular")

    monkeypatch.setattr("ttmep.solver.tensor_rayleigh_quotient", singular)
    walks.append(check_convergence(state, complex(t.lam[-1]), coeff, +1))
    for walk in walks:
        assert walk.outcome == "trqi_failed" and not walk.converged
        assert walk.est_residual < config.eps1
        _, selected = select_eigenpairs(state, [walk])
        assert selected == [walk]
    assert state.found == []


def test_admitted_tuple_carries_its_screen_denominator():
    state, t, coeff, delta_0, work, config = _planted_walk()
    check_convergence(state, complex(t.lam[-1]), coeff, +1)
    found = state.found[0]
    assert found.delta0_den == screen_denominator(found, delta_0)
    bare = dataclasses.replace(found, delta0_den=None)
    rng = np.random.default_rng(12)
    for cand in ([rng.standard_normal(4) for _ in range(3)], found.vectors):
        assert duplicate_check(cand, [found], delta_0) == duplicate_check(
            cand, [bare], delta_0
        )


def test_check_convergence_aborts_on_large_projected_residual():
    g = generate_random_mep(3, 4, seed=9)
    config = SolverConfig(block_size=2, seed=0, delta_round_tol=None)
    state = make_state(g.problem, 0.0, config)
    k = state.k
    rl = state.cores[k].shape[0]
    rr = state.cores[k].shape[3]
    rng = np.random.default_rng(10)
    coeff = rng.standard_normal((rl, 4, rr))
    walk = check_convergence(state, 0.123, coeff, +1)
    assert not walk.converged and not walk.admitted and walk.outcome == "aborted"
    assert walk.est_residual >= config.eps1
    assert state.found == []
    # the first hop's unit coefficient is kept for the next step's selection
    n_next = state.cores[k + 1].shape[1]
    assert walk.first_hop.shape[1] == n_next
    assert np.linalg.norm(walk.first_hop) == pytest.approx(1.0)
    assert rank_one_factor(walk.first_hop).shape == (n_next,)
    assert np.linalg.norm(rank_one_factor(walk.first_hop)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# selection rules


def _mk_candidate(mu, coeff, middle, est, converged=False):
    return _Candidate(
        mu=mu,
        coeff=coeff,
        middle=middle / np.linalg.norm(middle),
        est_residual=est,
        first_hop=coeff / np.linalg.norm(coeff),
        outcome="duplicate" if converged else "aborted",
    )


def _selection_state(rng, b, estimates=()):
    """What select_eigenpairs reads of a sweep state, at a local size of 12."""
    return SweepState(
        prob=None,
        config=SolverConfig(block_size=b),
        cores=[np.zeros((2, 3, b, 2))],
        k=0,
        envs=None,
        rng=rng,
        estimates=list(estimates),
    )


def test_selection_prefers_matched_by_residual():
    rng = np.random.default_rng(11)
    dim = 12
    mids = [rng.standard_normal(3) for _ in range(4)]
    cands = [
        _mk_candidate(1.0 + i, rng.standard_normal((2, 3, 2)), mids[i], est=float(i))
        for i in range(4)
    ]
    # every candidate matches some previous estimate: overflow rule keeps
    # the smallest estimated residuals
    cols, selected = select_eigenpairs(
        _selection_state(rng, 2, [m / np.linalg.norm(m) for m in mids]), cands
    )
    assert cols.shape == (dim, 2)
    assert [c.est_residual for c in selected] == [0.0, 1.0]


def test_selection_fills_with_smallest_residual_when_none_match():
    rng = np.random.default_rng(12)
    cands = [
        _mk_candidate(
            1.0 + i, rng.standard_normal((2, 3, 2)), rng.standard_normal(3), est=10.0 - i
        )
        for i in range(4)
    ]
    other = rng.standard_normal(3)
    cols, selected = select_eigenpairs(_selection_state(rng, 2), cands)
    assert [c.est_residual for c in selected] == [7.0, 8.0]


def test_selection_planted_estimate_match_wins():
    rng = np.random.default_rng(13)
    winner_mid = rng.standard_normal(3)
    cands = [
        _mk_candidate(2.0, rng.standard_normal((2, 3, 2)), rng.standard_normal(3), est=0.01),
        _mk_candidate(3.0, rng.standard_normal((2, 3, 2)), winner_mid, est=5.0),
    ]
    cols, selected = select_eigenpairs(
        _selection_state(rng, 1, [winner_mid / np.linalg.norm(winner_mid)]), cands
    )
    assert selected[0].mu == 3.0  # cosine 1 beats smaller residual


def test_selection_excludes_converged_and_pads_with_random():
    rng = np.random.default_rng(14)
    dim = 12
    cands = [
        _mk_candidate(1.0, rng.standard_normal((2, 3, 2)), rng.standard_normal(3), 0.1, converged=True)
    ]
    cols, selected = select_eigenpairs(_selection_state(rng, 3), cands)
    assert selected == []
    assert cols.shape == (dim, 3)
    # random columns are unit norm
    assert np.allclose(np.linalg.norm(cols, axis=0), 1.0)


def test_selection_complex_pair_consumes_two_columns():
    rng = np.random.default_rng(15)
    v = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    mid = rng.standard_normal(3)
    pair = _mk_candidate(1.0 + 2.0j, v, mid, est=0.0)
    twin = _mk_candidate(1.0 - 2.0j, np.conj(v), mid, est=0.0)
    real_c = _mk_candidate(1.5, rng.standard_normal((2, 3, 2)), mid, est=1.0)
    cols, selected = select_eigenpairs(_selection_state(rng, 3), [pair, twin, real_c])
    assert len(selected) == 2  # the pair (2 columns) + the real one
    assert np.allclose(cols[:, 0], v.reshape(-1).real)
    assert np.allclose(cols[:, 1], v.reshape(-1).imag)
    # b=2 would not fit the pair plus the real candidate: pair wins, then pad
    cols2, selected2 = select_eigenpairs(_selection_state(rng, 2), [pair, twin, real_c])
    assert len(selected2) == 1 and selected2[0] is pair


def test_selection_consumes_a_twin_conjugate_only_to_the_last_bits():
    # LAPACK's twin has its own beta, so its mu misses conj(mu) in the last bits
    rng = np.random.default_rng(16)
    v = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    mid = rng.standard_normal(3)
    mu = 0.7 + 1.3j
    pair = _mk_candidate(mu, v, mid, est=0.0)
    twin = _mk_candidate(np.conj(mu) * (1 + 4e-16), np.conj(v), mid, est=0.5)
    real_c = _mk_candidate(1.5, rng.standard_normal((2, 3, 2)), mid, est=1.0)
    assert twin.mu != np.conj(mu)
    _, selected = select_eigenpairs(_selection_state(rng, 4), [pair, twin, real_c])
    assert selected == [pair, real_c]


def test_selection_takes_one_column_for_an_exactly_zero_imaginary_part():
    rng = np.random.default_rng(17)
    v = rng.standard_normal((2, 3, 2)).astype(complex)
    mid = rng.standard_normal(3)
    c = _mk_candidate(0.5 + 0j, v, mid, est=0.0)
    other = _mk_candidate(0.9, rng.standard_normal((2, 3, 2)), mid, est=1.0)
    cols, selected = select_eigenpairs(_selection_state(rng, 2), [c, other])
    assert selected == [c, other]
    assert np.array_equal(cols[:, 0], v.reshape(-1).real)


# ---------------------------------------------------------------------------
# projected eigensolve


def _ritz_pencils():
    """Fixed real pencils and counts: complex-conjugate pairs, an infinite
    eigenvalue, and a spectrum that starves the positive-real rule."""
    rng = np.random.default_rng(11)
    singular = rng.standard_normal((10, 10))
    singular[:, -1] = 0.0
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    z, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    starved = np.diag([-1.0, -2.0, -3.0, -4.0, 5.0, -6.0])
    return {
        "complex-pairs": (rng.standard_normal((12, 12)), rng.standard_normal((12, 12)), 6),
        "infinite": (rng.standard_normal((10, 10)), singular, 10),
        "starved": (u @ starved @ z, u @ z, 3),
    }


def _spelled_out_ritz(pm, p0, count):
    """generalized_eig, select_ritz, vector(i) and one more division."""
    geig = generalized_eig(pm, p0, overwrite=True)
    indices, padded = select_ritz(geig, count)
    pairs = []
    for i in indices:
        vec = geig.vector(i)
        pairs.append((geig.eigenvalues[i], vec / np.linalg.norm(vec)))
    return pairs, padded, geig.finite


@pytest.mark.parametrize("case", ["complex-pairs", "infinite", "starved"])
def test_ritz_pairs_equal_the_spelled_out_eigensolve(case):
    m, n, count = _ritz_pencils()[case]
    want, want_padded, finite = _spelled_out_ritz(np.asfortranarray(m), np.asfortranarray(n), count)
    pairs, padded = ritz_pairs(np.asfortranarray(m), np.asfortranarray(n), count)
    got = list(pairs)
    assert padded == want_padded
    assert [mu for mu, _ in got] == [mu for mu, _ in want]
    for (_, v), (_, w) in zip(got, want):
        assert v.dtype == w.dtype and v.tobytes() == w.tobytes()
    assert all(np.isfinite(mu) for mu, _ in got)
    if case == "complex-pairs":
        assert any(mu.imag != 0 for mu, _ in got)
    if case == "infinite":
        assert not finite.all() and len(got) == np.count_nonzero(finite) < count
    if case == "starved":
        assert padded and len(got) == count


def test_ritz_pairs_build_each_vector_when_drawn(monkeypatch):
    built = []
    vector = GeneralizedEigenResult.vector

    def counted(self, i):
        built.append(i)
        return vector(self, i)

    monkeypatch.setattr(GeneralizedEigenResult, "vector", counted)
    m, n, count = _ritz_pencils()["complex-pairs"]
    pairs, _ = ritz_pairs(np.asfortranarray(m), np.asfortranarray(n), count)
    assert built == []
    next(pairs)
    assert len(built) == 1


def test_sweep_step_calls_its_kernels_through_the_solver_namespace(monkeypatch):
    # perfbench times the layers by wrapping the names ttmep.solver resolves
    calls = dict.fromkeys(("generalized_eig", "select_ritz", "check_convergence"), 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(solver_module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, counted)
    g = generate_random_mep(3, 3, seed=16)
    work, _, _ = shifted_positive(g)
    state = make_state(work, 0.0, SolverConfig(block_size=2, seed=3, delta_round_tol=None))
    rec = sweep_step(state, +1)
    assert rec.n_candidates > 0
    assert calls == {
        "generalized_eig": 1,
        "select_ritz": 1,
        "check_convergence": rec.n_candidates,
    }


# ---------------------------------------------------------------------------
# sweep steps


def test_sweep_step_reports_projected_size_and_moves_block():
    g = generate_random_mep(3, 3, seed=16)
    work, _, _ = shifted_positive(g)
    state = make_state(work, 0.0, SolverConfig(block_size=2, seed=3, delta_round_tol=None))
    k = state.k
    expected = (
        state.cores[k].shape[0]
        * state.cores[k].shape[1]
        * state.cores[k].shape[3]
    )
    rec = sweep_step(state, +1)
    assert rec.projected_size == expected
    assert state.k == k + 1
    f = densify_frame(state.cores, state.k)
    assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-12


def test_sweep_step_finds_planted_eigenpair_in_one_step():
    g = generate_random_mep(3, 4, seed=17)
    work, lam_sorted, eta = shifted_positive(g)
    g_shift = GeneratedProblem(
        problem=work,
        u_factors=g.u_factors,
        z_factors=g.z_factors,
        spectrum_a=[g.spectrum_a[i] + eta * g.spectrum_b[i][-1] for i in range(3)],
        spectrum_b=g.spectrum_b,
        seed=g.seed,
    )
    config = SolverConfig(block_size=1, seed=0)
    state, t, delta_m, delta_0 = planted_state(g_shift, 0, config)
    rec = sweep_step(state, +1)
    assert rec.n_converged_new >= 1
    assert any(abs(f.lam[-1] - t.lam[-1]) <= 1e-7 for f in state.found)


def test_full_sweep_keeps_frames_orthonormal():
    g = generate_random_mep(3, 3, seed=18)
    work, _, _ = shifted_positive(g)
    config = SolverConfig(block_size=2, seed=4)
    state = make_state(work, 0.0, config)
    size_cap = (config.max_rank + config.kick) ** 2 * max(work.sizes)
    for direction, modes in ((+1, range(2)), (-1, range(2, 0, -1))):
        state.estimates.clear()
        for mode in modes:
            assert state.k == mode
            rec = sweep_step(state, direction)
            assert rec.projected_size <= size_cap
            f = densify_frame(state.cores, state.k)
            assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-10


def test_rank_one_factors_are_taken_only_where_read(monkeypatch):
    # one factor per candidate for its block-mode middle, one per hop of a
    # walk that reaches TRQI, and one per selected pair for the next step
    g = generate_random_mep(3, 3, seed=0)
    work, _, _ = shifted_positive(g)
    state = make_state(work, 0.0, SolverConfig(block_size=2))
    calls = []

    def counting(tensor):
        calls.append(tensor.shape)
        return rank_one_factor(tensor)

    monkeypatch.setattr("ttmep.solver.rank_one_factor", counting)
    records = []
    for direction, modes in ((+1, range(2)), (-1, range(2, 0, -1))) * 2:
        state.estimates.clear()
        for mode in modes:
            calls.clear()
            rec = sweep_step(state, direction)
            completed = rec.n_candidates - rec.outcomes["aborted"]
            assert len(calls) == rec.n_candidates + completed * (work.m - 1) + rec.n_selected
            records.append(rec)
    # both kinds of walk end occur, so both terms are exercised
    assert any(r.outcomes["aborted"] for r in records)
    assert any(r.n_candidates > r.outcomes["aborted"] for r in records)


def test_make_state_refuses_bad_input_before_any_build(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr("ttmep.solver.build_delta0", no_build)
    monkeypatch.setattr("ttmep.solver.build_delta_i", no_build)
    g = generate_random_mep(2, 3, seed=0)
    one = MEProblem(a=g.problem.a[:1], b=[g.problem.b[0][:1]])
    with pytest.raises(ValueError, match="m >= 2"):
        make_state(one, 0.0, SolverConfig(sweeps=1))
    for target in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="target must be finite"):
            make_state(g.problem, target, SolverConfig(sweeps=1))


def test_make_state_builds_at_the_config_tolerance():
    # unrounded, Delta_m and Delta_0 keep their exact bond ranks C(m, k)
    g = generate_random_mep(4, 3, seed=2)
    state = make_state(g.problem, 0.0, SolverConfig(delta_round_tol=None))
    for op in state.envs.ops:
        assert list(op.ranks) == [math.comb(4, k) for k in range(5)]
    rounded = make_state(g.problem, 0.0, SolverConfig())
    for op, want in zip(rounded.envs.ops, (build_delta_i(g.problem, 4), build_delta0(g.problem))):
        assert all(np.array_equal(a, b) for a, b in zip(op.cores, want.cores))


def test_make_state_holds_the_problem_shifted_by_the_target():
    g = generate_random_mep(3, 3, seed=1)
    state = make_state(g.problem, 0.75, SolverConfig(block_size=2))
    assert problem_to_json(state.prob) == problem_to_json(apply_shift(g.problem, -0.75))
    assert make_state(g.problem, 0.0, SolverConfig(block_size=2)).prob is g.problem


# ---------------------------------------------------------------------------
# full solves


def test_solve_m2_diagonal_matches_oracle():
    rng = np.random.default_rng(19)
    a_spec = [np.abs(rng.standard_normal(4)) + 0.5 for _ in range(2)]
    b_spec = [
        [np.ones(4), rng.standard_normal(4) + 3.0],
        [np.ones(4), rng.standard_normal(4) - 3.0],
    ]
    prob = MEProblem(
        a=[np.diag(s) for s in a_spec],
        b=[[np.diag(s) for s in row] for row in b_spec],
    )
    g = GeneratedProblem(
        problem=prob,
        u_factors=[np.eye(4)] * 2,
        z_factors=[np.eye(4)] * 2,
        spectrum_a=a_spec,
        spectrum_b=b_spec,
        seed=0,
    )
    oracle, _ = oracle_eigenvalues(g, 16, target=0.0)
    config = SolverConfig(block_size=3, sweeps=10, seed=1)
    tuples, report = solve(prob, target=0.0, config=config)
    assert len(tuples) >= config.block_size
    want = np.array([t.lam[-1] for t in oracle])
    for t in tuples:
        assert np.min(np.abs(want - t.lam[-1])) <= 1e-8
        assert t.residual_norm < 1e-6
    # the oracle's block_size smallest |lambda_2| are all recovered
    found = np.array([t.lam[-1] for t in tuples])
    for w in sorted(want, key=abs)[: config.block_size]:
        assert np.min(np.abs(found - w)) <= 1e-8


def test_solve_deterministic_under_fixed_seed():
    g = generate_random_mep(2, 5, seed=20)
    work, _, _ = shifted_positive(g)
    config = SolverConfig(block_size=2, sweeps=6, seed=7)
    t1, r1 = solve(work, target=0.0, config=config)
    t2, r2 = solve(work, target=0.0, config=config)
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.lam, b.lam)
        assert all(np.array_equal(v, w) for v, w in zip(a.vectors, b.vectors))
    strip = lambda rep: [
        {k: v for k, v in s.items() if k not in ("wall_ms", "phase_ms")}
        for s in rep["steps"]
    ]
    assert strip(r1) == strip(r2)
    assert r1["tuples"] == r2["tuples"]


def test_solve_with_target_shifts_back():
    g = generate_random_mep(2, 4, seed=21)
    oracle, _ = oracle_eigenvalues(g, 16, target=0.0)
    lam = np.array([t.lam[-1].real for t in oracle])
    target = float(np.median(lam))
    config = SolverConfig(block_size=2, sweeps=10, seed=2)
    tuples, report = solve(g.problem, target=target, config=config)
    assert len(tuples) >= 1
    for t in tuples:
        assert np.min(np.abs(lam - t.lam[-1].real)) <= 1e-6
        assert t.residual_norm < 1e-6
    keys = [abs(t.lam[-1] - target) for t in tuples]
    assert keys == sorted(keys)
    # the screen denominator belongs to the shifted problem's Delta_0
    assert all(t.delta0_den is None for t in tuples)


def test_solve_empty_result_is_legal():
    # one sweep with an absurdly tight acceptance keeps the found list empty
    g = generate_random_mep(2, 4, seed=22)
    config = SolverConfig(block_size=2, sweeps=1, seed=3, eps=1e-300, eps1=1e-300)
    tuples, report = solve(g.problem, target=0.0, config=config)
    assert tuples == []
    assert report["tuples"] == []
    assert report["sweeps_run"] == 1
    assert report["stop_reason"] == "sweep_cap"


def test_solve_rejects_a_one_parameter_problem(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr("ttmep.solver.build_delta0", no_build)
    monkeypatch.setattr("ttmep.solver.build_delta_i", no_build)
    g = generate_random_mep(2, 3, seed=0)
    one = MEProblem(a=g.problem.a[:1], b=[g.problem.b[0][:1]])
    with pytest.raises(ValueError, match="m >= 2"):
        solve(one, target=0.0, config=SolverConfig(sweeps=1))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(block_size=0)
    with pytest.raises(ValueError):
        SolverConfig(block_size=3, max_rank=2)
    with pytest.raises(ValueError):
        SolverConfig(cos_threshold=1.5)
    with pytest.raises(ValueError):
        SolverConfig(sweeps=0)
    with pytest.raises(ValueError):
        SolverConfig(kick=-3)
    nan, inf = float("nan"), float("inf")
    for bad in ({"eps1": nan}, {"xi": nan}, {"xi": inf}, {"eps": nan}, {"eps": inf},
                {"delta_round_tol": -1.0}, {"delta_round_tol": nan},
                {"delta_round_tol": inf}, {"seed": -1}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(delta_round_tol=None).delta_round_tol is None
    assert SolverConfig(delta_round_tol=0.0).delta_round_tol == 0.0


def test_config_fixes_its_max_rank_when_built():
    assert SolverConfig(block_size=3).max_rank == 4
    assert SolverConfig(block_size=3, max_rank=None).max_rank == 4
    assert SolverConfig(block_size=3, max_rank=7).max_rank == 7
    assert SolverConfig(block_size=3, max_rank=3).max_rank == 3
    # a built config's max_rank is a number, so replace keeps it
    assert dataclasses.replace(SolverConfig(block_size=3), block_size=2).max_rank == 4


def _admitted_per_sweep(report) -> dict[int, int]:
    per: dict[int, int] = {}
    for s in report["steps"]:
        per[s["sweep"]] = per.get(s["sweep"], 0) + s["n_converged_new"]
    return per


def test_solve_stops_after_five_sweeps_without_a_new_tuple():
    g = generate_random_mep(2, 5, seed=20)
    work, _, _ = shifted_positive(g)
    config = SolverConfig(block_size=2, sweeps=30, seed=7)
    _, report = solve(work, target=0.0, config=config)
    per = _admitted_per_sweep(report)
    last_progress = max(sweep for sweep, n in per.items() if n > 0)
    assert report["sweeps_run"] == last_progress + 5
    assert report["sweeps_run"] < config.sweeps
    assert report["stop_reason"] == "no_progress"
    assert max(per) == report["sweeps_run"]


def test_step_records_count_every_walk_outcome():
    g = generate_random_mep(2, 5, seed=20)
    work, _, _ = shifted_positive(g)
    config = SolverConfig(block_size=2, sweeps=3, seed=7)
    _, report = solve(work, target=0.0, config=config)
    assert report["config"] == dataclasses.asdict(config)
    totals = dict.fromkeys(WALK_OUTCOMES, 0)
    for s in report["steps"]:
        assert isinstance(s["ranks"], list) and len(s["ranks"]) == work.m + 1
        assert tuple(s["outcomes"]) == WALK_OUTCOMES
        assert sum(s["outcomes"].values()) == s["n_candidates"]
        assert s["outcomes"]["admitted"] == s["n_converged_new"]
        assert isinstance(s["padded"], bool)
        for name, count in s["outcomes"].items():
            totals[name] += count
    assert totals["admitted"] >= 1 and totals["aborted"] + totals["duplicate"] >= 1


def test_found_list_keeps_four_block_sizes_nearest_the_target():
    g = generate_random_mep(3, 4, seed=9)
    work, _, _ = shifted_positive(g)
    config = SolverConfig(block_size=1, sweeps=30, seed=0)
    tuples, report = solve(work, target=0.0, config=config)
    assert sum(_admitted_per_sweep(report).values()) > 4 * config.block_size
    assert len(tuples) == 4 * config.block_size
    keys = [abs(t.lam[-1]) for t in tuples]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# walk kernels


def _refuse_einsum_path(monkeypatch):
    """Make every einsum path search raise from here to the test's end."""

    def refuse(*args, **kwargs):
        raise AssertionError("einsum path planned")

    monkeypatch.setattr(np, "einsum_path", refuse)
    # np.einsum looks the planner up in its own module's namespace
    monkeypatch.setitem(inspect.unwrap(np.einsum).__globals__, "einsum_path", refuse)
    eye = np.eye(3)
    with pytest.raises(AssertionError, match="einsum path planned"):
        np.einsum("ij,jk,kl->il", eye, eye, eye, optimize=True)


def test_walk_kernels_plan_no_einsum_path(monkeypatch):
    # the five kernels a candidate walk calls on every hop, and the
    # duplicate screen, are fixed dot/matmul chains; an
    # einsum(..., optimize=True) among them would plan its path on every
    # call and fails here
    g = generate_random_mep(3, 3, seed=26)
    d0 = build_delta0(g.problem, round_tol=None)
    tuples, _ = oracle_eigenvalues(g, 4, target=0.0)
    for t in tuples[:3]:
        t.left_vectors = left_eigenvector_tuple(g.problem, t)
    _refuse_einsum_path(monkeypatch)
    rng = np.random.default_rng(31)
    env = rng.standard_normal((2, 3, 2))
    core = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    op = rng.standard_normal((3, 4, 4, 3))
    assert env_left_step(env, core, op, core).shape == (2, 3, 2)
    assert env_right_step(env, core, op, core).shape == (2, 3, 2)
    assert env_apply(env, op, env, core).shape == (2, 4, 2)
    a = TTOperator([rng.standard_normal((1, 4, 4, 3)), rng.standard_normal((3, 4, 4, 1))])
    vecs = [rng.standard_normal(4), rng.standard_normal(4)]
    assert np.isfinite(rank_one_bilinear(vecs, a, vecs))
    assert rank_one_factor(core).shape == (4,)
    accept, ratio = duplicate_check(tuples[3].vectors, tuples[:3], d0)
    assert accept and ratio < 1e-6


def test_admitting_walk_plans_no_einsum_path(monkeypatch):
    state, t, coeff, delta_0, work, config = _planted_walk()
    _refuse_einsum_path(monkeypatch)
    walk = check_convergence(state, complex(t.lam[-1]), coeff, +1)
    assert walk.admitted
