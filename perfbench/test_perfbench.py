"""Tests of the benchmark's own checker and tracer.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import numpy as np
import pytest

import ttmep.solver
from checks import check_list, oracle_indices
from spans import Tracer, layer_metrics, self_times
from ttmep.mep_problem import generate_random_mep
from ttmep.solver import SolverConfig, solve
from workloads import exact_lambdas, spectra

TARGET = 0.0


def exact_list(seed: int, count: int = 6, m: int = 3, n: int = 4):
    """The ``count`` exact tuples nearest TARGET, built from the generator."""
    g = generate_random_mep(m, n, seed=seed)
    a_spec, b_spec = spectra(g)
    z_inv = [np.linalg.inv(z) for z in g.z_factors]
    tuples = []
    for index in sorted(oracle_indices(m, n, a_spec, b_spec, TARGET, count)):
        lam = exact_lambdas(a_spec, b_spec, np.array([index]))[0].astype(complex)
        vectors = [z_inv[i][:, k] / np.linalg.norm(z_inv[i][:, k]) for i, k in enumerate(index)]
        tuples.append((lam, [v.astype(complex) for v in vectors]))
    tuples.sort(key=lambda t: abs(t[0][-1] - TARGET))
    return g, a_spec, b_spec, tuples


def errors_of(tuples, g, a_spec, b_spec):
    return check_list(tuples, g.problem.a, g.problem.b, a_spec, b_spec, TARGET).errors


@pytest.fixture(scope="module")
def exact():
    return exact_list(seed=3)


def test_exact_tuples_pass(exact):
    g, a_spec, b_spec, tuples = exact
    check = check_list(tuples, g.problem.a, g.problem.b, a_spec, b_spec, TARGET)
    assert check.errors == []
    assert len(check.found) == len(tuples)


def test_rejects_moved_lambda_m(exact):
    g, a_spec, b_spec, tuples = exact
    lam, vectors = tuples[0]
    moved = lam.copy()
    moved[-1] += 1e-3
    assert errors_of([(moved, vectors)] + tuples[1:], g, a_spec, b_spec)


def test_rejects_tuple_of_other_problem(exact):
    g, a_spec, b_spec, tuples = exact
    other = exact_list(seed=4)[3]
    assert errors_of([other[0]] + tuples[1:], g, a_spec, b_spec)


def test_rejects_repeated_tuple(exact):
    g, a_spec, b_spec, tuples = exact
    errors = errors_of([tuples[0]] + tuples, g, a_spec, b_spec)
    assert any("repeats" in e for e in errors)


def test_rejects_unsorted_list(exact):
    g, a_spec, b_spec, tuples = exact
    assert abs(tuples[0][0][-1]) < abs(tuples[-1][0][-1])
    errors = errors_of(tuples[::-1], g, a_spec, b_spec)
    assert any("nearer the target" in e for e in errors)


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, None],
        ["grandchild", 2.0, 3.0, 1, None],
        ["child", 5.0, 6.0, 0, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(ttmep.solver, "duplicate_check")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = layer_metrics(tracer)
    for key in ("mep_problem.dedup_s", "mep_problem.dedup_calls", "mep_problem.dedup_admit_ratio"):
        assert absent[key] == ["mep_problem.duplicate_check"]
        assert metrics[key]["value"] == 0
    assert "solver.walks" not in absent


def test_missing_extra_target_is_listed(monkeypatch):
    import ttmep.tt_core

    monkeypatch.delattr(ttmep.tt_core, "env_right_step")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["ttmep.tt_core.env_right_step"]


def test_traced_solve_agrees_with_untraced_and_report():
    prob = generate_random_mep(2, 4, seed=1).problem
    config = SolverConfig(block_size=2, sweeps=2, seed=0)
    plain, _ = solve(prob, target=0.0, config=config)
    original = ttmep.solver.generalized_eig
    tracer = Tracer()
    tracer.install()
    try:
        traced, report = ttmep.solver.solve(prob, target=0.0, config=config)
    finally:
        tracer.uninstall()
    assert ttmep.solver.generalized_eig is original
    assert [t.lam.tolist() for t in traced] == [t.lam.tolist() for t in plain]
    metrics, absent = layer_metrics(tracer)
    assert absent == {}
    assert metrics["dense_kernels.eig_calls"]["value"] == len(report["steps"])
    assert metrics["solver.admitted"]["value"] == sum(
        s["n_converged_new"] for s in report["steps"]
    )
    assert 0 < metrics["solver.admitted"]["value"] <= metrics["solver.walks"]["value"]
    assert min(self_times(tracer.spans)) >= 0.0
