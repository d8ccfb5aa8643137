"""Problem container, generator, oracle, refinement, duplicate metric."""

import dataclasses

import numpy as np
import pytest

from ttmep.delta_builder import build_delta0
from ttmep.mep_problem import (
    EigenTuple,
    GeneratedProblem,
    MEProblem,
    SingularRayleighError,
    chebyshev_lobatto,
    duplicate_check,
    generate_random_mep,
    index_eigenvalues,
    left_eigenvector_tuple,
    load_problem,
    oracle_eigenvalues,
    problem_from_json,
    problem_to_json,
    residual_tuple,
    save_problem,
    screen_denominator,
    tensor_rayleigh_quotient,
    trqi_refine,
)
from ttmep.tt_core import CapExceededError, rank_one_bilinear


def diagonal_generated(rng, m, n, offset=2.0):
    a_spec = [rng.standard_normal(n) for _ in range(m)]
    b_spec = [[rng.standard_normal(n) + offset for _ in range(m)] for _ in range(m)]
    prob = MEProblem(
        a=[np.diag(s) for s in a_spec],
        b=[[np.diag(s) for s in row] for row in b_spec],
    )
    return GeneratedProblem(
        problem=prob,
        u_factors=[np.eye(n)] * m,
        z_factors=[np.eye(n)] * m,
        spectrum_a=a_spec,
        spectrum_b=b_spec,
        seed=0,
    )


# ---------------------------------------------------------------------------
# residuals


def test_residual_zero_for_oracle_tuple():
    rng = np.random.default_rng(0)
    g = diagonal_generated(rng, 3, 3)
    tuples, _ = oracle_eigenvalues(g, 5, target=0.0)
    for t in tuples:
        _, norm = residual_tuple(g.problem, t.lam, t.vectors)
        assert norm <= 1e-12


def test_residual_sensitivity_to_lambda_perturbation():
    rng = np.random.default_rng(1)
    g = diagonal_generated(rng, 2, 3)
    t = oracle_eigenvalues(g, 1, target=0.0)[0][0]
    lam = t.lam.copy()
    lam[-1] += 1e-3
    _, norm = residual_tuple(g.problem, lam, t.vectors)
    row_scale = min(np.abs(s).min() for row in g.spectrum_b for s in row)
    assert norm >= 1e-4 * row_scale


def test_residual_zero_problem():
    prob = MEProblem(
        a=[np.zeros((2, 2)), np.zeros((2, 2))],
        b=[[np.zeros((2, 2))] * 2, [np.zeros((2, 2))] * 2],
    )
    _, norm = residual_tuple(prob, [0.0, 0.0], [np.array([1.0, 0]), np.array([1.0, 0])])
    assert norm == 0.0


def test_residual_validates_dimensions():
    rng = np.random.default_rng(2)
    g = diagonal_generated(rng, 2, 3)
    with pytest.raises(ValueError):
        residual_tuple(g.problem, [1.0], [np.ones(3), np.ones(3)])
    with pytest.raises(ValueError):
        residual_tuple(g.problem, [1.0, 2.0], [np.ones(4), np.ones(3)])


# ---------------------------------------------------------------------------
# generator


def test_chebyshev_lobatto_values():
    x = chebyshev_lobatto(5)
    assert np.allclose(x, np.cos(np.pi * np.arange(5) / 4))
    assert x[0] == pytest.approx(1.0)
    assert x[-1] == pytest.approx(-1.0)


def test_generator_first_power_column_is_ones():
    g = generate_random_mep(3, 6, seed=5)
    for i in range(3):
        assert np.allclose(g.spectrum_b[i][0], np.ones(6))


def test_generator_power_structure_and_intervals():
    m, n = 4, 7
    g = generate_random_mep(m, n, seed=6)
    limits = np.linspace(-1.9, 2.0, 2 * m + 1)[: 2 * m]
    for i in range(m):
        base = g.spectrum_b[i][1]
        lo, hi = sorted((limits[2 * i], limits[2 * i + 1]))
        assert base.min() >= lo - 1e-12 and base.max() <= hi + 1e-12
        for j in range(m):
            assert np.allclose(g.spectrum_b[i][j], base ** j)


def test_generator_bitwise_reproducibility():
    g1 = generate_random_mep(2, 2, seed=42)
    g2 = generate_random_mep(2, 2, seed=42)
    for i in range(2):
        assert np.array_equal(g1.problem.a[i], g2.problem.a[i])
        for j in range(2):
            assert np.array_equal(g1.problem.b[i][j], g2.problem.b[i][j])


def test_generator_reconstruction_invariant():
    g = generate_random_mep(3, 5, seed=7)
    assert g.reconstruction_error() <= 1e-12


def test_generator_distinct_lambda_m():
    g = generate_random_mep(2, 20, seed=8)
    tuples, _ = oracle_eigenvalues(g, 400, target=0.0)
    lam = np.sort([t.lam[-1].real for t in tuples])
    assert np.min(np.diff(lam)) > 1e-10


def test_generated_problem_stacks_its_parts_and_checks_their_shapes():
    g = generate_random_mep(3, 4, seed=3)
    shapes = {"u_factors": (3, 4, 4), "z_factors": (3, 4, 4), "spectrum_a": (3, 4),
              "spectrum_b": (3, 3, 4)}
    for name, shape in shapes.items():
        assert isinstance(getattr(g, name), np.ndarray) and getattr(g, name).shape == shape
    nested = dataclasses.replace(g, spectrum_b=[list(row) for row in g.spectrum_b])
    assert nested.spectrum_b.tobytes() == g.spectrum_b.tobytes()
    for name in shapes:
        with pytest.raises(ValueError, match=f"generator {name} has shape"):
            dataclasses.replace(g, **{name: getattr(g, name)[:2]})
    with pytest.raises(ValueError, match="generator spectrum_b is not an array"):
        dataclasses.replace(g, spectrum_b=[[np.ones(4)] * 3] * 2 + [[np.ones(3)] * 3])
    unequal = MEProblem(
        a=[g.problem.a[0], np.eye(5), g.problem.a[2]],
        b=[g.problem.b[0], [np.eye(5)] * 3, g.problem.b[2]],
    )
    with pytest.raises(ValueError, match=r"equal mode sizes, got \[4, 5, 4\]"):
        dataclasses.replace(g, problem=unequal)


def test_generator_validates_arguments():
    with pytest.raises(ValueError):
        generate_random_mep(1, 4, seed=0)
    with pytest.raises(ValueError):
        generate_random_mep(2, 1, seed=0)
    with pytest.raises(ValueError, match="generator seed must be non-negative"):
        generate_random_mep(2, 3, seed=-1)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_single_index_problem():
    # n = 1: a single 2x2 system, solved exactly
    a_spec = [np.array([3.0]), np.array([-1.0])]
    b_spec = [
        [np.array([2.0]), np.array([1.0])],
        [np.array([1.0]), np.array([-1.0])],
    ]
    g = GeneratedProblem(
        problem=MEProblem(
            a=[np.diag(s) for s in a_spec],
            b=[[np.diag(s) for s in row] for row in b_spec],
        ),
        u_factors=[np.eye(1)] * 2,
        z_factors=[np.eye(1)] * 2,
        spectrum_a=a_spec,
        spectrum_b=b_spec,
        seed=0,
    )
    tuples, skipped = oracle_eigenvalues(g, 1, target=0.0)
    assert skipped == 0 and len(tuples) == 1
    lam = np.linalg.solve(np.array([[2.0, 1.0], [1.0, -1.0]]), np.array([3.0, -1.0]))
    assert np.allclose(tuples[0].lam.real, lam, atol=1e-14)
    assert tuples[0].residual_norm <= 1e-14


def test_oracle_full_enumeration_counts_and_residuals():
    g = generate_random_mep(3, 4, seed=9)
    tuples, skipped = oracle_eigenvalues(g, 64, target=0.0)
    assert len(tuples) + skipped == 64
    assert all(t.residual_norm < 1e-9 for t in tuples)


def test_oracle_soundness_four_parameters():
    g = generate_random_mep(4, 5, seed=30)
    tuples, skipped = oracle_eigenvalues(g, 625, target=0.0)
    assert len(tuples) + skipped == 625
    assert all(t.residual_norm < 1e-9 for t in tuples)


def test_oracle_skips_exactly_the_singular_system():
    # equal B_12 and B_22 spectra at one index make that one 2 x 2 system
    # singular, so the batched solve fails and is halved down to that system
    g = generate_random_mep(2, 4, seed=12)
    g.spectrum_b[1][1][3] = g.spectrum_b[0][1][2]
    idx = np.stack(np.unravel_index(np.arange(16), (4, 4)), axis=1)
    lam, ok = index_eigenvalues(g, idx)
    assert np.flatnonzero(~ok).tolist() == [2 * 4 + 3]
    assert np.all(np.isfinite(lam[ok]))
    tuples, skipped = oracle_eigenvalues(g, 16, target=0.0)
    assert skipped == 1 and len(tuples) + skipped == 16


def test_oracle_halves_a_failing_batch(monkeypatch):
    # equal B_12 and B_22 spectra at (i_1, i_2) make exactly that 2 x 2
    # system singular: flat positions 0, 703 and 1599 of a 1600-system batch
    g = generate_random_mep(2, 40, seed=12)
    singular = [0, 703, 1599]
    for t in singular:
        i1, i2 = divmod(t, 40)
        g.spectrum_b[1][1][i2] = g.spectrum_b[0][1][i1]
    idx = np.stack(np.unravel_index(np.arange(1600), (40, 40)), axis=1)
    ref = [
        np.linalg.solve(
            [[g.spectrum_b[i][j][idx[t, i]] for j in range(2)] for i in range(2)],
            [g.spectrum_a[i][idx[t, i]] for i in range(2)],
        )
        for t in range(1600)
        if t not in singular
    ]
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    lam, ok = index_eigenvalues(g, idx)
    assert np.flatnonzero(~ok).tolist() == singular
    assert lam[ok].tobytes() == np.stack(ref).tobytes()
    assert len(calls) <= 2 * 3 * 11 + 1  # 2 * singular * ceil(log2(1600)) + 1


def test_oracle_cap_refusal():
    g = generate_random_mep(5, 30, seed=10)  # 30^5 systems
    with pytest.raises(CapExceededError):
        oracle_eigenvalues(g, 5)


def test_oracle_rejects_a_count_below_one_or_a_non_finite_target():
    g = generate_random_mep(2, 4, seed=11)
    with pytest.raises(ValueError, match="how_many"):
        oracle_eigenvalues(g, 0)
    with pytest.raises(ValueError, match="target must be finite"):
        oracle_eigenvalues(g, 3, target=float("nan"))


def test_oracle_sorted_by_target_distance():
    g = generate_random_mep(2, 6, seed=11)
    tuples, _ = oracle_eigenvalues(g, 36, target=1.5)
    keys = [abs(t.lam[-1] - 1.5) for t in tuples]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Rayleigh quotient and refinement


def test_rayleigh_exact_on_oracle_tuple():
    g = generate_random_mep(3, 4, seed=12)
    t = oracle_eigenvalues(g, 3, target=0.0)[0][1]
    lam = tensor_rayleigh_quotient(g.problem, t.vectors)
    assert np.max(np.abs(lam - t.lam)) <= 1e-10


def test_rayleigh_diagonal_coordinate_vectors():
    rng = np.random.default_rng(13)
    g = diagonal_generated(rng, 2, 4)
    idx = (2, 1)
    vecs = [np.eye(4)[:, i] for i in idx]
    lam = tensor_rayleigh_quotient(g.problem, vecs)
    mat = np.array(
        [[g.spectrum_b[i][j][idx[i]] for j in range(2)] for i in range(2)]
    )
    rhs = np.array([g.spectrum_a[i][idx[i]] for i in range(2)])
    assert np.allclose(lam.real, np.linalg.solve(mat, rhs), atol=1e-12)


def test_rayleigh_scale_invariance():
    g = generate_random_mep(2, 5, seed=14)
    t = oracle_eigenvalues(g, 1, target=0.0)[0][0]
    lam1 = tensor_rayleigh_quotient(g.problem, t.vectors)
    lam2 = tensor_rayleigh_quotient(
        g.problem, [2.0 * t.vectors[0], t.vectors[1]]
    )
    assert np.allclose(lam1, lam2, atol=1e-12)


def test_rayleigh_singular_system_raises():
    prob = MEProblem(
        a=[np.eye(2), np.eye(2)],
        b=[[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]],
    )
    with pytest.raises(SingularRayleighError):
        tensor_rayleigh_quotient(prob, [np.array([1.0, 0]), np.array([1.0, 0])])


def test_trqi_fixed_point_on_exact_tuple():
    g = generate_random_mep(3, 5, seed=15)
    t = oracle_eigenvalues(g, 1, target=0.0)[0][0]
    refined = trqi_refine(g.problem, t)
    assert np.max(np.abs(refined.lam - t.lam)) <= 1e-12
    for v1, v2 in zip(refined.vectors, t.vectors):
        assert abs(np.vdot(v1, v2)) >= 1 - 1e-12


def test_trqi_recovers_perturbed_oracle_tuples():
    g = generate_random_mep(3, 6, seed=16)
    tuples, _ = oracle_eigenvalues(g, 10, target=0.0)
    successes = 0
    trials = 100
    rng = np.random.default_rng(17)
    for trial in range(trials):
        t = tuples[trial % len(tuples)]
        noisy_vectors = [
            v + 1e-4 * rng.standard_normal(v.shape) for v in t.vectors
        ]
        seed = EigenTuple.build(g.problem, t.lam, noisy_vectors)
        refined = trqi_refine(g.problem, seed, max_iter=5, tol=1e-12)
        if refined.residual_norm < 1e-10:
            successes += 1
    assert successes >= 90


def test_trqi_flags_a_vanished_update():
    # B_12 x_1 = 0, so the first equation's update is the zero vector
    prob = MEProblem(
        a=[np.array([[1.0, 2.0], [0.5, 3.0]]), np.array([[2.0, 1.0], [1.0, -1.0]])],
        b=[[np.eye(2), np.diag([0.0, 1.0])], [np.eye(2), 2.0 * np.eye(2)]],
    )
    vectors = [np.array([1.0, 0.0]), np.array([0.6, 0.8])]
    seed = EigenTuple.build(prob, np.array([0.3, 0.7]), vectors)
    refined = trqi_refine(prob, seed)
    assert refined.flags == ("refine-solve-failed",)
    assert np.array_equal(refined.lam, seed.lam)
    assert refined.residual_norm == seed.residual_norm
    for v1, v2 in zip(refined.vectors, seed.vectors):
        assert np.array_equal(v1, v2)


def test_trqi_monotone_acceptance():
    g = generate_random_mep(2, 4, seed=18)
    rng = np.random.default_rng(19)
    for _ in range(20):
        lam = rng.standard_normal(2)
        vectors = [rng.standard_normal(4) for _ in range(2)]
        seed = EigenTuple.build(g.problem, lam, vectors)
        refined = trqi_refine(g.problem, seed, max_iter=3)
        assert refined.residual_norm <= seed.residual_norm + 1e-12


# ---------------------------------------------------------------------------
# left tuples and the duplicate metric


def test_left_tuple_symmetric_problem():
    rng = np.random.default_rng(20)
    mats = []
    for _ in range(5):
        s = rng.standard_normal((4, 4))
        mats.append(s + s.T)
    prob = MEProblem(
        a=[mats[0], mats[1]],
        b=[[mats[2] + 8 * np.eye(4), mats[3]], [mats[3], mats[4] + 8 * np.eye(4)]],
    )
    d0 = build_delta0(prob, round_tol=None)
    from tt_helpers import densify_operator
    from ttmep.dense_kernels import generalized_eig
    from ttmep.delta_builder import build_delta_i

    dm = densify_operator(build_delta_i(prob, 2, round_tol=None))
    d0d = densify_operator(d0)
    res = generalized_eig(dm, d0d)
    # take a real finite eigenvalue, build the tuple from rank-one structure
    i = int(np.argmin(np.abs(res.eigenvalues)))
    vec = res.vector(i).reshape(4, 4)
    u, s, vh = np.linalg.svd(vec)
    x1, x2 = u[:, 0], vh[0]
    lam = tensor_rayleigh_quotient(prob, [x1, x2])
    t = trqi_refine(prob, EigenTuple.build(prob, lam, [x1, x2]))
    assert t.residual_norm < 1e-8
    y = left_eigenvector_tuple(prob, t)
    for yi, xi in zip(y, t.vectors):
        assert abs(np.vdot(yi, xi)) >= 1 - 1e-8


def test_left_tuple_residual_on_transposed_problem():
    g = generate_random_mep(3, 4, seed=21)
    t = oracle_eigenvalues(g, 1, target=0.0)[0][0]
    y = left_eigenvector_tuple(g.problem, t)
    tprob = MEProblem(
        a=[m.T.copy() for m in g.problem.a],
        b=[[m.T.copy() for m in row] for row in g.problem.b],
    )
    _, norm = residual_tuple(tprob, np.conj(t.lam), y)
    assert norm < 1e-6


def _complex_rows(g, seed):
    """g's problem with each equation's rows scaled by a complex matrix.

    The tuples and right vectors stay those of g; the left vectors and the
    operator determinants become complex.
    """
    rng = np.random.default_rng(seed)
    n = g.n
    scales = [np.eye(n) + 0.5j * rng.standard_normal((n, n)) for _ in range(g.m)]
    return MEProblem(
        a=[s @ a for s, a in zip(scales, g.problem.a)],
        b=[[s @ b for b in row] for s, row in zip(scales, g.problem.b)],
    )


def test_left_tuple_on_complex_matrices():
    # rows scaled by complex S_i keep the tuples and right vectors; the left
    # vectors must annihilate the complex A_i - sum_j lam_j B_ij from the left
    g = generate_random_mep(2, 4, seed=5)
    prob = _complex_rows(g, seed=1)
    tuples, _ = oracle_eigenvalues(g, 3, target=0.0)
    assert len(tuples) == 3
    for t in tuples:
        y = left_eigenvector_tuple(prob, t)
        for i in range(2):
            mat = prob.a[i] - sum(t.lam[j] * prob.b[i][j] for j in range(2))
            assert abs(np.linalg.norm(y[i]) - 1) <= 1e-12
            assert np.linalg.norm(np.conj(y[i]) @ mat) <= 1e-12 * np.linalg.norm(mat, 2)


def test_duplicate_check_biorthogonality_and_rejection():
    g = generate_random_mep(3, 4, seed=22)
    tuples, _ = oracle_eigenvalues(g, 2, target=0.0)
    d0 = build_delta0(g.problem, round_tol=None)
    first, second = tuples
    first.left_vectors = left_eigenvector_tuple(g.problem, first)
    # empty found list accepts anything
    accept, ratio = duplicate_check(second.vectors, [], d0)
    assert accept and ratio == 0.0
    # a distinct tuple is accepted with a tiny ratio
    accept, ratio = duplicate_check(second.vectors, [first], d0)
    assert accept and ratio < 1e-6
    # the same tuple is rejected with ratio ~ 1
    accept, ratio = duplicate_check(first.vectors, [first], d0)
    assert not accept and ratio == pytest.approx(1.0, abs=1e-8)


def test_duplicate_check_scale_invariance():
    g = generate_random_mep(2, 4, seed=23)
    tuples, _ = oracle_eigenvalues(g, 2, target=0.0)
    d0 = build_delta0(g.problem, round_tol=None)
    first, second = tuples
    first.left_vectors = left_eigenvector_tuple(g.problem, first)
    _, r1 = duplicate_check(second.vectors, [first], d0)
    scaled = [7.0 * v for v in second.vectors]
    _, r2 = duplicate_check(scaled, [first], d0)
    assert r1 == pytest.approx(r2, rel=1e-12)
    # a unit phase as well, on a candidate whose ratio lies far above
    # rounding: second's ratio is rounding noise, which a phase reshuffles
    mixed = [f + 0.5 * v for f, v in zip(first.vectors, second.vectors)]
    _, r1 = duplicate_check(mixed, [first], d0)
    assert r1 > 1e-3
    for scale in (7.0, np.exp(0.7j)):
        _, r2 = duplicate_check([scale * v for v in mixed], [first], d0)
        assert r1 == pytest.approx(r2, rel=1e-12)


def test_duplicate_check_batch_matches_per_tuple_loop():
    # the one-pass screen over stacked left vectors gives the ratio of a
    # loop over the found tuples, one rank_one_bilinear per form
    g = generate_random_mep(3, 3, seed=25)
    prob = _complex_rows(g, seed=3)
    d0 = build_delta0(prob, round_tol=None)
    tuples, _ = oracle_eigenvalues(g, 5, target=0.0)
    rng = np.random.default_rng(4)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    found = []
    for t, phase in zip(tuples[:4], phases):
        t.vectors = [phase * v for v in t.vectors]
        t.left_vectors = left_eigenvector_tuple(prob, t)
        found.append(t)
    found[0].delta0_den = screen_denominator(found[0], d0)

    def unit(vs):
        return [v / np.linalg.norm(v) for v in vs]

    def reference(cand):
        x = unit(cand)
        return max(
            abs(rank_one_bilinear(unit(f.left_vectors), d0, x))
            / abs(rank_one_bilinear(unit(f.left_vectors), d0, unit(f.vectors)))
            for f in found
        )

    noise = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
    candidates = [tuples[4].vectors, [1j * v for v in found[2].vectors], noise]
    decisions = []
    for cand in candidates:
        accept, ratio = duplicate_check(cand, found, d0)
        ref = reference(cand)
        # ratios are in units of a duplicate's 1; a new tuple's is noise
        assert ratio == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert accept == (ref < 1e-4)
        decisions.append(accept)
    assert decisions == [True, False, False]


def test_duplicate_check_requires_left_vectors():
    g = generate_random_mep(2, 3, seed=24)
    tuples, _ = oracle_eigenvalues(g, 2, target=0.0)
    d0 = build_delta0(g.problem, round_tol=None)
    with pytest.raises(ValueError):
        duplicate_check(tuples[0].vectors, [tuples[0]], d0)
    # checked before any form, so a vanishing denominator ahead of the
    # tuple without left vectors does not hide it
    tuples[1].left_vectors = left_eigenvector_tuple(g.problem, tuples[1])
    tuples[1].delta0_den = 0.0
    with pytest.raises(ValueError):
        duplicate_check(tuples[0].vectors, [tuples[1], tuples[0]], d0)


# ---------------------------------------------------------------------------
# files


def test_problem_json_round_trip(tmp_path):
    g = generate_random_mep(3, 4, seed=25)
    path = tmp_path / "problem.json"
    save_problem(path, g)
    loaded = load_problem(path)
    assert isinstance(loaded, GeneratedProblem)
    for i in range(3):
        assert np.allclose(loaded.problem.a[i], g.problem.a[i], atol=1e-12)
    # oracle works after reload
    t1, _ = oracle_eigenvalues(g, 3, target=0.0)
    t2, _ = oracle_eigenvalues(loaded, 3, target=0.0)
    assert np.allclose([t.lam[-1] for t in t1], [t.lam[-1] for t in t2], atol=1e-12)


def test_problem_json_plain_matrices(tmp_path):
    g = generate_random_mep(2, 3, seed=26)
    doc = problem_to_json(g.problem)
    assert "generator" not in doc
    back = problem_from_json(doc)
    assert isinstance(back, MEProblem)
    assert np.allclose(back.a[0], g.problem.a[0])


def test_problem_json_ignores_the_style_of_older_files():
    g = generate_random_mep(2, 3, seed=27)
    doc = problem_to_json(g)
    assert "style" not in doc["generator"]
    doc["generator"]["style"] = "cheb-powers"
    back = problem_from_json(doc)
    assert isinstance(back, GeneratedProblem)
    assert problem_to_json(back) == problem_to_json(g)


def test_problem_json_detects_tampering(tmp_path):
    g = generate_random_mep(2, 3, seed=27)
    doc = problem_to_json(g)
    doc["A"][0][0][0] += 1.0
    with pytest.raises(ValueError):
        problem_from_json(doc)


def test_problem_json_counts_must_be_numbers():
    doc = problem_to_json(generate_random_mep(2, 3, seed=29))
    bad = [
        ({**doc, "m": "2"}, "m"),
        ({**doc, "m": True}, "m"),
        ({**doc, "sizes": "33"}, "sizes entry"),  # would read as [3, 3]
        ({**doc, "generator": {**doc["generator"], "seed": "0"}}, "generator seed"),
    ]
    for d, name in bad:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            problem_from_json(d)
    # numpy integers are numbers too
    np_doc = {**doc, "m": np.int64(2), "sizes": [np.int64(3)] * 2}
    assert problem_to_json(problem_from_json(np_doc)) == problem_to_json(problem_from_json(doc))


def test_problem_rejects_an_empty_problem_and_non_matrices():
    g = generate_random_mep(2, 3, seed=28)
    with pytest.raises(ValueError, match="at least one equation"):
        MEProblem(a=[], b=[])
    for bad in (np.float64(1.0), np.ones(3), np.ones((3, 3, 3))):
        with pytest.raises(ValueError, match="A_1 is not a square matrix"):
            MEProblem(a=[bad, g.problem.a[1]], b=g.problem.b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_matrices(bad):
    g = generate_random_mep(2, 3, seed=28)
    a = [mat.copy() for mat in g.problem.a]
    b = [[mat.copy() for mat in row] for row in g.problem.b]
    a[1][0, 2] = bad
    with pytest.raises(ValueError, match="A_2"):
        MEProblem(a=a, b=b)
    a[1][0, 2] = 0.0
    b[0][1][2, 2] = bad
    with pytest.raises(ValueError, match="B_12"):
        MEProblem(a=a, b=b)
