"""The generator and oracle digests of tools/result_digest.py."""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

from result_digest import digest_workload, generator_digest, tuples_digest  # noqa: E402
from workloads import PROBLEM_SEED, WORKLOADS  # noqa: E402

from ttmep.mep_problem import generate_random_mep, oracle_eigenvalues  # noqa: E402


def test_generator_digest_reads_nested_lists_as_stacked_arrays():
    g = generate_random_mep(3, 4, seed=2)
    nested = SimpleNamespace(
        problem=g.problem,
        u_factors=list(g.u_factors),
        z_factors=list(g.z_factors),
        spectrum_a=list(g.spectrum_a),
        spectrum_b=[list(row) for row in g.spectrum_b],
    )
    before = generator_digest(g)
    assert generator_digest(nested) == before
    g.spectrum_b[2, 1, 3] += 1.0  # a part the matrices do not show
    assert generator_digest(g) != before


def test_oracle_digest_only_on_the_enumerable_workloads(monkeypatch):
    # the digests of the solve are not under test here: stub what they run
    monkeypatch.setattr("ttmep.solver.solve", lambda *a, **k: ([], {"steps": [], "sweeps_run": 0}))
    no_cores = SimpleNamespace(cores=[])
    no_state = SimpleNamespace(envs=SimpleNamespace(ops=(no_cores, no_cores)))
    monkeypatch.setattr("ttmep.solver.make_state", lambda *a, **k: no_state)
    assert {w.enumerable for w in WORKLOADS.values()} == {True, False}
    for w in WORKLOADS.values():
        line = digest_workload(w, 0)
        g = generate_random_mep(w.m, w.n, seed=PROBLEM_SEED)
        assert line["generator"] == generator_digest(g)
        if w.enumerable:
            assert line["oracle"] == tuples_digest(oracle_eigenvalues(g, 20)[0])
        else:
            assert line["oracle"] is None
