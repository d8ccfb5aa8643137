"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines of passing criteria). The slow end-to-end criteria (6, 7, 9)
dominate the runtime; the whole suite is sized for a small workstation.
"""

import csv
import itertools
import time
import warnings

import numpy as np

from ttmep.cli import main as cli_main
from ttmep.delta_builder import (
    build_delta0,
    build_delta_i,
    determinant_factor,
    shift_generated,
)
from ttmep.dense_kernels import generalized_eig, principal_cosine
from ttmep.mep_problem import (
    EigenTuple,
    duplicate_check,
    generate_random_mep,
    left_eigenvector_tuple,
    oracle_eigenvalues,
    residual_tuple,
    trqi_refine,
)
from ttmep.solver import SolverConfig, make_state, solve, sweep_step
from ttmep.tt_core import tt_matvec

from tt_helpers import (
    densify,
    densify_frame,
    densify_operator,
    evaluate_operator,
    random_tt,
    tt_round_operator,
)

_EXTERIOR_CACHE: dict = {}


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    label = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {label}{' - ' + detail if detail else ''}")


def _exterior_setup(m: int, seed: int):
    """Shifted problem with all lambda_m positive, plus its full oracle."""
    key = (m, seed)
    if key not in _EXTERIOR_CACHE:
        g = generate_random_mep(m, 10, seed=seed)
        tuples, _ = oracle_eigenvalues(g, 10**m, target=0.0)
        lam = np.array([t.lam[-1].real for t in tuples])
        shifted = shift_generated(g, -lam.min() + 1.0)
        _EXTERIOR_CACHE[key] = (shifted, np.sort(lam - lam.min() + 1.0))
    return _EXTERIOR_CACHE[key]


def test_criterion_01_determinant_factorization():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 8):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            a = rng.standard_normal((n, n))
            acc = determinant_factor(1, n, a[0])
            for k in range(2, n + 1):
                acc = acc @ determinant_factor(k, n, a[k - 1])
            det = np.linalg.det(a)
            worst = max(worst, abs(acc[0, 0] - det) / max(1.0, abs(det)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-11 and elapsed < 10.0
    _verdict(1, "determinant factorization", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-11
    assert elapsed < 10.0


def _permutation_sum(mats_grid, replace_col=None, a_mats=None):
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


def test_criterion_02_delta_operator_correctness():
    from math import comb

    start = time.monotonic()
    worst = 0.0
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            g = generate_random_mep(m, n, seed=10 * m + n)
            p = g.problem
            ops = [(None, build_delta0(p, round_tol=None))]
            ops += [(i, build_delta_i(p, i, round_tol=None)) for i in range(1, m + 1)]
            for col, op in ops:
                assert op.ranks == tuple(comb(m, k) for k in range(m + 1))
                ref = _permutation_sum(
                    p.b, replace_col=None if col is None else col - 1, a_mats=p.a
                )
                err = np.abs(densify_operator(op) - ref).max()
                worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-11 and elapsed < 30.0
    _verdict(2, "delta operators vs permutation sums", ok, f"worst abs err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-11
    assert elapsed < 30.0


def test_criterion_03_pencil_equivalence():
    start = time.monotonic()
    g = generate_random_mep(3, 3, seed=33)
    tuples, _ = oracle_eigenvalues(g, 27, target=0.0)
    d0 = densify_operator(build_delta0(g.problem, round_tol=None))
    worst_gap = 0.0
    worst_cos = 1.0
    for i in (1, 2, 3):
        di = densify_operator(build_delta_i(g.problem, i, round_tol=None))
        res = generalized_eig(di, d0)
        lam_dense = np.sort(res.eigenvalues[res.finite].real)
        lam_oracle = np.sort([t.lam[i - 1].real for t in tuples])
        assert lam_dense.size == 27
        worst_gap = max(worst_gap, float(np.max(np.abs(lam_dense - lam_oracle))))
        for idx in np.nonzero(res.finite)[0]:
            lam = res.eigenvalues[idx]
            nearest = min(tuples, key=lambda t: abs(t.lam[i - 1] - lam))
            kron_vec = np.kron(
                nearest.vectors[0], np.kron(nearest.vectors[1], nearest.vectors[2])
            )
            worst_cos = min(worst_cos, principal_cosine(res.vector(idx), kron_vec))
    elapsed = time.monotonic() - start
    scale = max(abs(t.lam[i - 1]) for t in tuples for i in (1, 2, 3))
    ok = worst_gap <= 1e-8 * max(1.0, scale) and worst_cos >= 1 - 1e-8 and elapsed < 10.0
    _verdict(
        3,
        "pencil equivalence",
        ok,
        f"lambda gap {worst_gap:.2e}, min cosine {1 - worst_cos:.2e} below 1, {elapsed:.1f}s",
    )
    assert worst_gap <= 1e-8 * max(1.0, scale)
    assert worst_cos >= 1 - 1e-8
    assert elapsed < 10.0


def test_criterion_04_rounding_rank_bound_m9():
    """Verbatim criterion; the rank clause is expected to fail.

    The operator family here provably has interior ranks
    min(n^k, n^(m-k), s(m, k)) with s(9, 4) around 42: the entrywise
    determinant reduces, after stripping mode-local factors (which cannot
    change train ranks), to the Vandermonde product prod_{p<q}(x_q - x_p)
    with x_k depending only on mode k, and its grid/polynomial bond ranks
    exceed n^2 = 9 from the third bond on (singular values there sit around
    1e-6 relative, far above any 1e-13-style truncation). The entry-accuracy
    clause and the runtime clause hold and are asserted afterwards.
    """
    start = time.monotonic()
    g = generate_random_mep(9, 3, seed=9)
    d0 = build_delta0(g.problem, round_tol=None)
    rounded = tt_round_operator(d0, 1e-13)
    interior = rounded.ranks[1:-1]
    ranks_ok = all(r <= 9 for r in interior)

    rng = np.random.default_rng(49)
    worst = 0.0
    b = g.problem.b
    for _ in range(10_000):
        ridx = rng.integers(0, 3, 9)
        cidx = rng.integers(0, 3, 9)
        entry = np.array(
            [[b[i][j][ridx[i], cidx[i]] for j in range(9)] for i in range(9)]
        )
        worst = max(
            worst, abs(evaluate_operator(rounded, ridx, cidx) - np.linalg.det(entry))
        )
    elapsed = time.monotonic() - start
    entries_ok = worst <= 1e-9
    time_ok = elapsed < 60.0
    _verdict(
        4,
        "order-9 rounding rank bound",
        ranks_ok and entries_ok and time_ok,
        f"interior ranks {interior}, worst entry err {worst:.2e}, {elapsed:.1f}s",
    )
    assert entries_ok
    assert time_ok
    assert ranks_ok, (
        f"interior ranks {interior} exceed n^2 = 9; this operator family has "
        "exact bond ranks min(n^k, n^(m-k), ~42) -- see the test docstring"
    )


def test_criterion_05_residual_estimate_dominance():
    from ttmep.solver import estimate_residual

    g = generate_random_mep(3, 4, seed=55)
    delta_m = build_delta_i(g.problem, 3, round_tol=None)
    delta_0 = build_delta0(g.problem, round_tol=None)
    dm = densify_operator(delta_m)
    d0 = densify_operator(delta_0)
    checked = 0
    for frame_seed in range(5):
        config = SolverConfig(block_size=2, seed=frame_seed)
        state = make_state(g.problem, delta_m, delta_0, config)
        k = state.k
        fd = densify_frame(state.cores, k)
        rl, n_k, _, rr = state.cores[k].shape
        rng = np.random.default_rng(1000 + frame_seed)
        for _ in range(100):
            mu = complex(rng.standard_normal(), rng.standard_normal())
            v = rng.standard_normal(fd.shape[1]) + 1j * rng.standard_normal(fd.shape[1])
            v /= np.linalg.norm(v)
            est = estimate_residual(state, mu, v.reshape(rl, n_k, rr), +1)
            full = np.linalg.norm((dm - mu * d0) @ (fd @ v))
            assert est <= full + 1e-12
            checked += 1
    _verdict(5, "residual estimate dominance", True, f"{checked} instances")


def _grade_exterior(m: int, seed: int):
    shifted, lam_sorted = _exterior_setup(m, seed)
    config = SolverConfig(sweeps=20, seed=seed)
    tuples, _ = solve(shifted.problem, target=0.0, config=config)
    want20 = lam_sorted[:20]
    hits = 0
    spurious = 0
    for t in tuples:
        _, res = residual_tuple(shifted.problem, t.lam, t.vectors)
        in_oracle = np.min(np.abs(lam_sorted - t.lam[-1])) <= 1e-6
        if res >= 1e-6 or not in_oracle:
            spurious += 1
        if np.min(np.abs(want20 - t.lam[-1])) <= 1e-6:
            hits += 1
    return hits, spurious, len(tuples)


def test_criterion_06_exterior_recovery():
    start = time.monotonic()
    summary = []
    ok = True
    for m in (3, 4):
        good_seeds = 0
        for seed in range(10):
            hits, spurious, found = _grade_exterior(m, seed)
            if hits >= 5 and spurious == 0:
                good_seeds += 1
            summary.append(f"m={m} seed={seed}: {hits} hits, {spurious} spurious, {found} found")
        ok = ok and good_seeds >= 8
        summary.append(f"m={m}: {good_seeds}/10 seeds succeeded")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 900.0
    _verdict(6, "exterior recovery", ok, f"{elapsed:.0f}s; " + "; ".join(summary[-2:]))
    for line in summary:
        print("  " + line)
    assert ok


def test_criterion_07_interior_soundness():
    start = time.monotonic()
    details = []
    for m in (3, 4):
        for seed in range(3):
            shifted, lam_sorted = _exterior_setup(m, seed)
            target = float(np.median(lam_sorted))
            config = SolverConfig(sweeps=100, seed=seed)
            tuples, _ = solve(shifted.problem, target=target, config=config)
            assert len(tuples) >= 1, f"m={m} seed={seed}: nothing found"
            for t in tuples:
                _, res = residual_tuple(shifted.problem, t.lam, t.vectors)
                assert res < 1e-6
                assert np.min(np.abs(lam_sorted - t.lam[-1])) <= 1e-6, (
                    f"m={m} seed={seed}: spurious {t.lam[-1]}"
                )
            details.append(f"m={m} seed={seed}: {len(tuples)} genuine")
    elapsed = time.monotonic() - start
    _verdict(7, "interior soundness", True, f"{elapsed:.0f}s; " + "; ".join(details))


def test_criterion_08_property_suite():
    # frame orthonormality after every sweep step
    g = generate_random_mep(3, 3, seed=88)
    shifted, _ = _exterior_setup(3, 0)
    work = shifted.problem
    delta_m = build_delta_i(work, 3, round_tol=1e-13)
    delta_0 = build_delta0(work, round_tol=1e-13)
    config = SolverConfig(block_size=3, seed=8)
    state = make_state(work, delta_m, delta_0, config)
    worst_gram = 0.0
    for _sweep in range(2):
        for direction, modes in ((+1, range(2)), (-1, range(2, 0, -1))):
            state.estimates.clear()
            for mode in modes:
                sweep_step(state, direction)
                f = densify_frame(state.cores, state.k)
                worst_gram = max(
                    worst_gram, float(np.abs(f.T @ f - np.eye(f.shape[1])).max())
                )
    assert worst_gram <= 1e-10

    # train matvec against the dense oracle
    rng = np.random.default_rng(8)
    op = build_delta0(generate_random_mep(3, 3, seed=3).problem, round_tol=None)
    v = random_tt(rng, (3, 3, 3), (1, 3, 3, 1))
    ref = densify_operator(op) @ densify(v)
    err_mv = np.linalg.norm(densify(tt_matvec(op, v)) - ref) / np.linalg.norm(ref)
    assert err_mv <= 1e-12

    # refinement fixed point and monotone acceptance
    g2 = generate_random_mep(3, 5, seed=81)
    t_exact = oracle_eigenvalues(g2, 1, target=0.0)[0][0]
    refined = trqi_refine(g2.problem, t_exact)
    assert np.max(np.abs(refined.lam - t_exact.lam)) <= 1e-12
    rng2 = np.random.default_rng(82)
    for _ in range(10):
        seed_tuple = EigenTuple.build(
            g2.problem,
            rng2.standard_normal(3),
            [rng2.standard_normal(5) for _ in range(3)],
        )
        out = trqi_refine(g2.problem, seed_tuple, max_iter=4)
        assert out.residual_norm <= seed_tuple.residual_norm + 1e-12

    # duplicate rejection at the default threshold
    d0_dup = build_delta0(g2.problem, round_tol=None)
    t_exact.left_vectors = left_eigenvector_tuple(g2.problem, t_exact)
    accept, ratio = duplicate_check(t_exact.vectors, [t_exact], d0_dup, xi=1e-4)
    assert not accept and ratio > 1e-4

    # bitwise deterministic runs
    config_det = SolverConfig(block_size=2, sweeps=5, seed=4)
    t1, r1 = solve(work, target=0.0, config=config_det)
    t2, r2 = solve(work, target=0.0, config=config_det)
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.lam, b.lam)
        assert all(np.array_equal(x, y) for x, y in zip(a.vectors, b.vectors))
    strip = lambda rep: [
        {k: v for k, v in s.items() if k not in ("wall_ms", "phase_ms")}
        for s in rep["steps"]
    ]
    assert strip(r1) == strip(r2) and r1["tuples"] == r2["tuples"]
    _verdict(
        8,
        "property suite",
        True,
        f"max gram dev {worst_gram:.2e}, matvec err {err_mv:.2e}",
    )


def test_criterion_09_timing_qualitative(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench",
            "--m-range",
            "3:8",
            "--n",
            "10",
            "--seed",
            "0",
            "--sweeps",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    table: dict = {}
    for row in rows:
        table[(int(row["param"]), row["phase"], row["rounded"])] = float(row["seconds"])
    phases = ("projection", "eigensolve", "select_converge", "mode_update")
    notes = []
    for m in range(3, 9):
        for rounded in ("0", "1"):
            for phase in phases + ("total",):
                assert (m, phase, rounded) in table, f"missing {m}/{phase}/{rounded}"
            eig = table[(m, "eigensolve", rounded)]
            others = max(table[(m, p, rounded)] for p in phases if p != "eigensolve")
            if eig <= others:
                msg = f"m={m} rounded={rounded}: eigensolve {eig:.2f}s not dominant"
                notes.append(msg)
                warnings.warn(msg)
        if m >= 7 and table[(m, "projection", "1")] > table[(m, "projection", "0")]:
            msg = f"m={m}: rounding did not reduce projection time"
            notes.append(msg)
            warnings.warn(msg)
    _verdict(9, "timing qualitative", True, "; ".join(notes) if notes else "eigensolve dominates")
