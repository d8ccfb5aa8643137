"""Command-line front end: files, determinism, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from ttmep.cli import _build_parser, main
from ttmep.dense_kernels import SingularPencilError
from ttmep.mep_problem import (
    SingularRayleighError,
    generate_random_mep,
    oracle_eigenvalues,
    problem_to_json,
    save_problem,
)
from ttmep.delta_builder import shift_generated
from ttmep.solver import SolverConfig


@pytest.fixture()
def small_problem(tmp_path):
    """Shifted 2EP whose smallest lambda_2 sit at positive values."""
    g = generate_random_mep(2, 4, seed=3)
    tuples, _ = oracle_eigenvalues(g, 16, target=0.0)
    lam = np.array([t.lam[-1].real for t in tuples])
    shifted = shift_generated(g, -lam.min() + 1.0)
    path = tmp_path / "problem.json"
    save_problem(path, shifted)
    return path


def test_generate_is_byte_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["generate", "--m", "3", "--n", "4", "--seed", "5", "--out", str(p1)]) == 0
    assert main(["generate", "--m", "3", "--n", "4", "--seed", "5", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_round_trips_losslessly(tmp_path):
    path = tmp_path / "big.json"
    assert main(["generate", "--m", "2", "--n", "30", "--seed", "1", "--out", str(path)]) == 0
    from ttmep.mep_problem import GeneratedProblem, load_problem

    loaded = load_problem(path)
    assert isinstance(loaded, GeneratedProblem)
    ref = generate_random_mep(2, 30, seed=1)
    for i in range(2):
        assert np.array_equal(loaded.problem.a[i], ref.problem.a[i])


def test_solve_writes_report_csv_and_sidecar(tmp_path, small_problem):
    out = tmp_path / "run.json"
    code = main(
        [
            "solve",
            str(small_problem),
            "--target",
            "0.0",
            "--b",
            "2",
            "--sweeps",
            "6",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "run.json").read_text())
    assert report["config"]["block_size"] == 2
    assert report["config"]["sweeps"] == 6
    assert report["config"]["max_rank"] == 3
    rows = list(csv.DictReader(open(tmp_path / "run.csv")))
    assert len(rows) == len(report["tuples"])
    assert all(isinstance(t["flags"], list) for t in report["tuples"])
    assert set(rows[0]) == {
        "rank_index",
        "lambda_m_real",
        "lambda_m_imag",
        "residual",
        "found_flag",
    }
    sidecar = json.loads((tmp_path / "run.vectors.json").read_text())
    assert len(sidecar["tuples"]) == len(report["tuples"])
    from ttmep.tt_core import tt_from_json

    first = sidecar["tuples"][0]
    real = tt_from_json(first["real"])
    assert real.mode_sizes == (4, 4)


def test_solve_empty_found_still_succeeds(tmp_path, small_problem):
    out = tmp_path / "empty.json"
    code = main(
        [
            "solve",
            str(small_problem),
            "--eps",
            "1e-300",
            "--eps1",
            "1e-300",
            "--sweeps",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tuples"] == []
    assert report["warnings"] == ["no converged tuples"]
    assert list(csv.DictReader(open(tmp_path / "empty.csv"))) == []


def test_solve_records_config_overrides(tmp_path, small_problem):
    out = tmp_path / "cfg.json"
    assert (
        main(
            [
                "solve",
                str(small_problem),
                "--sweeps",
                "2",
                "--no-round",
                "--ritz-rule",
                "positive-imag-part",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads(out.read_text())
    assert report["config"]["sweeps"] == 2
    assert report["config"]["delta_round_tol"] is None
    assert report["config"]["ritz_rule"] == "positive-imag-part"


def test_every_config_field_has_a_solve_flag():
    # every config flag given: the namespace holds every SolverConfig field,
    # so a field no caller can set fails here
    flags = ["--b", "3", "--sweeps", "2", "--kick", "0", "--max-rank", "4",
             "--eps", "1e-5", "--eps1", "1e-7", "--xi", "1e-3", "--cos-threshold", "0.9",
             "--round-tol", "1e-3", "--ritz-rule", "positive-imag-part", "--seed", "1"]
    args = _build_parser().parse_args(["solve", "p.json", "--out", "o", *flags])
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields <= set(vars(args))


def test_round_tol_and_no_round_exclude_each_other(tmp_path, small_problem, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran with conflicting rounding flags")

    monkeypatch.setattr("ttmep.cli.solve", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(small_problem), "--out", str(tmp_path / "o"),
              "--round-tol", "1e-3", "--no-round"])
    assert exc.value.code == 2
    assert not (tmp_path / "o.json").exists()


def test_oracle_deterministic_and_counts(tmp_path, small_problem):
    o1 = tmp_path / "oracle1.csv"
    o2 = tmp_path / "oracle2.csv"
    assert main(["oracle", str(small_problem), "--how-many", "10", "--out", str(o1)]) == 0
    assert main(["oracle", str(small_problem), "--how-many", "10", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    rows = list(csv.DictReader(open(o1)))
    assert len(rows) == 10
    assert float(rows[0]["residual"]) < 1e-9


def test_oracle_thousand_systems_fast(tmp_path):
    import time

    path = tmp_path / "p310.json"
    assert main(["generate", "--m", "3", "--n", "10", "--seed", "2", "--out", str(path)]) == 0
    out = tmp_path / "oracle.csv"
    t0 = time.monotonic()
    assert main(["oracle", str(path), "--how-many", "20", "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 5.0
    assert len(list(csv.DictReader(open(out)))) == 20


def test_oracle_requires_generator_metadata(tmp_path):
    from ttmep.mep_problem import generate_random_mep, problem_to_json

    g = generate_random_mep(2, 3, seed=0)
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(problem_to_json(g.problem)))
    out = tmp_path / "oracle.csv"
    assert main(["oracle", str(path), "--out", str(out)]) == 2


def test_oracle_cap_refusal_exit_code(tmp_path):
    path = tmp_path / "big.json"
    assert main(["generate", "--m", "5", "--n", "30", "--seed", "0", "--out", str(path)]) == 0
    out = tmp_path / "oracle.csv"
    assert main(["oracle", str(path), "--how-many", "5", "--out", str(out)]) == 4


def test_compare_perfect_run_is_spurious_free(tmp_path, small_problem):
    solve_out = tmp_path / "run.json"
    assert (
        main(
            [
                "solve",
                str(small_problem),
                "--b",
                "2",
                "--sweeps",
                "8",
                "--seed",
                "0",
                "--out",
                str(solve_out),
            ]
        )
        == 0
    )
    oracle_out = tmp_path / "oracle.csv"
    assert main(["oracle", str(small_problem), "--how-many", "16", "--out", str(oracle_out)]) == 0
    cmp_out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(solve_out),
            str(oracle_out),
            "--tol",
            "1e-6",
            "--wanted",
            "16",
            "--out",
            str(cmp_out),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "cmp.json").read_text())
    assert summary["spurious"] == 0
    assert summary["found_among_wanted"] >= 2
    table = list(csv.DictReader(open(tmp_path / "cmp.csv")))
    assert len(table) == 16
    assert {row["found_flag"] for row in table} <= {"0", "1"}


def test_compare_tol_zero_only_exact(tmp_path, small_problem):
    solve_out = tmp_path / "run.json"
    main(
        [
            "solve",
            str(small_problem),
            "--b",
            "2",
            "--sweeps",
            "4",
            "--seed",
            "0",
            "--out",
            str(solve_out),
        ]
    )
    oracle_out = tmp_path / "oracle.csv"
    main(["oracle", str(small_problem), "--how-many", "16", "--out", str(oracle_out)])
    code = main(
        ["compare", str(solve_out), str(oracle_out), "--tol", "0", "--wanted", "8"]
    )
    assert code == 0


def test_compare_flags_planted_spurious(tmp_path, small_problem):
    solve_out = tmp_path / "run.json"
    main(
        [
            "solve",
            str(small_problem),
            "--b",
            "2",
            "--sweeps",
            "6",
            "--seed",
            "0",
            "--out",
            str(solve_out),
        ]
    )
    report = json.loads(solve_out.read_text())
    report["tuples"].append({"lambda": [[0.0, 0.0], [1234.5, 0.0]], "residual": 0.0})
    solve_out.write_text(json.dumps(report))
    oracle_out = tmp_path / "oracle.csv"
    main(["oracle", str(small_problem), "--how-many", "16", "--out", str(oracle_out)])
    cmp_out = tmp_path / "cmp2"
    main(
        [
            "compare",
            str(solve_out),
            str(oracle_out),
            "--tol",
            "1e-6",
            "--wanted",
            "16",
            "--out",
            str(cmp_out),
        ]
    )
    summary = json.loads((tmp_path / "cmp2.json").read_text())
    assert summary["spurious"] == 1


def test_bench_schema_and_phases(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--m-range",
            "2:3",
            "--n",
            "3",
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
    assert set(rows[0]) == {"param", "phase", "rounded", "seconds"}
    phases = {row["phase"] for row in rows}
    assert phases == {"projection", "eigensolve", "select_converge", "mode_update", "total"}
    for value in ("2", "3"):
        for rounded in ("0", "1"):
            sub = [r for r in rows if r["param"] == value and r["rounded"] == rounded]
            total = next(float(r["seconds"]) for r in sub if r["phase"] == "total")
            phase_sum = sum(
                float(r["seconds"]) for r in sub if r["phase"] != "total"
            )
            assert phase_sum <= total * 1.1


def test_generate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["generate", "--m", "2", "--n", "3", "--seed", "-1", "--out", str(out)]) == 2
    assert "generator seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solve_non_finite_problem_exits_2(tmp_path, bad):
    g = generate_random_mep(2, 3, seed=0)
    g.problem.a[0][1, 2] = bad
    doc = {
        "m": 2,
        "sizes": [3, 3],
        "A": [mat.tolist() for mat in g.problem.a],
        "B": [[mat.tolist() for mat in row] for row in g.problem.b],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flag", [
    ["--sweeps", "0"], ["--kick", "-3"],
    ["--eps1", "nan"], ["--xi", "nan"], ["--xi", "inf"], ["--eps", "nan"], ["--eps", "inf"],
    ["--round-tol", "-1"], ["--round-tol", "nan"], ["--round-tol", "inf"], ["--seed", "-1"],
])
def test_solve_bad_config_flag_exits_2(tmp_path, small_problem, flag, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran with an invalid config")

    monkeypatch.setattr("ttmep.cli.solve", no_solve)
    assert main(["solve", str(small_problem), "--out", str(tmp_path / "o"), *flag]) == 2
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("error", [
    SingularPencilError, SingularRayleighError, np.linalg.LinAlgError, FloatingPointError,
])
def test_numerical_failure_exits_3(tmp_path, small_problem, error, monkeypatch, capsys):
    def failing_solve(*args, **kwargs):
        raise error("stub failure")

    monkeypatch.setattr("ttmep.cli.solve", failing_solve)
    assert main(["solve", str(small_problem), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: stub failure" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_solve_non_finite_target_exits_2(tmp_path, small_problem, target, capsys):
    out = tmp_path / "o"
    assert main(["solve", str(small_problem), "--out", str(out), "--target", target]) == 2
    assert "target" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_oracle_non_positive_how_many_exits_2(tmp_path, small_problem, count):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", str(small_problem), "--how-many", count, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_oracle_non_finite_target_exits_2(tmp_path, small_problem, target, capsys):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", str(small_problem), "--target", target, "--out", str(out)]) == 2
    assert f"target must be finite, got {float(target)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, warned", [
    (["--n-range", "8:8", "--m", "3"], False),
    (["--m-range", "8:8", "--n", "2"], True),
])
def test_bench_warning_keyed_on_m(tmp_path, flag, warned, monkeypatch, capsys):
    # a stub solve whose rounded projection is always the slower one
    def slower_rounded(prob, target, config):
        ms = 1.0 if config.delta_round_tol is None else 2.0
        return [], {"steps": [{"phase_ms": {"projection": ms}}]}

    monkeypatch.setattr("ttmep.cli.solve", slower_rounded)
    assert main(["bench", *flag, "--out", str(tmp_path / "bench.csv")]) == 0
    err = capsys.readouterr().err
    assert ("rounding did not speed up projection formation" in err) == warned


@pytest.mark.parametrize("flag", [
    ["--m-range", "3:2"], ["--n-range", "5:3"], ["--n-range", "3:5:0"], ["--n-range", "5:3:-1"],
    ["--n-range", "3:3:1:9"], ["--m-range", "3"], ["--m-range", "2:2:5"],
])
def test_bench_empty_or_reversed_range_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "bench.csv"
    assert main(["bench", *flag, "--n", "3", "--m", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert flag[0] in capsys.readouterr().err


def test_compare_negative_wanted_or_tol_exits_2(tmp_path):
    report = tmp_path / "run.json"
    report.write_text(json.dumps({"tuples": [{"lambda": [[0.0, 0.0], [1.0, 0.0]]}]}))
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("rank_index,lambda_m_real,lambda_m_imag\n0,1.0,0.0\n1,2.0,0.0\n")
    assert main(["compare", str(report), str(oracle)]) == 0
    assert main(["compare", str(report), str(oracle), "--wanted", "-1"]) == 2
    assert main(["compare", str(report), str(oracle), "--tol", "-1"]) == 2
    assert main(["compare", str(report), str(oracle), "--tol", "inf"]) == 2
    assert main(["compare", str(report), str(oracle), "--tol", "nan"]) == 2
    for doc in ([{"lambda": [[0.0, 0.0], [1.0, 0.0]]}], {"tuples": [{"lambda": 1.0}]}):
        report.write_text(json.dumps(doc))
        assert main(["compare", str(report), str(oracle)]) == 2


@pytest.mark.parametrize("doc", [
    {"tuples": {}},
    {"tuples": ""},
    {"tuples": [{"lambda": {"re": 1.0, "im": 0.0}}]},
], ids=["tuples-object", "tuples-string", "lambda-object"])
def test_compare_rejects_a_report_without_a_tuples_list(tmp_path, capsys, doc):
    report = tmp_path / "run.json"
    report.write_text(json.dumps(doc))
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("rank_index,lambda_m_real,lambda_m_imag\n0,1.0,0.0\n")
    assert main(["compare", str(report), str(oracle)]) == 2
    assert "invalid input: malformed report" in capsys.readouterr().err


@pytest.mark.parametrize("oracle_text", [
    "a,b\n1,2\n",
    "",
    "rank_index,lambda_m_real,lambda_m_imag\n0,1.0\n",
], ids=["no-lambda-m-columns", "empty-file", "short-row"])
def test_compare_rejects_a_bad_oracle_table(tmp_path, capsys, oracle_text):
    report = tmp_path / "run.json"
    report.write_text(json.dumps({"tuples": [{"lambda": [[0.0, 0.0], [1.0, 0.0]]}]}))
    oracle = tmp_path / "oracle.csv"
    oracle.write_text(oracle_text)
    assert main(["compare", str(report), str(oracle)]) == 2
    assert f"oracle table {oracle}" in capsys.readouterr().err


def test_compare_accepts_a_header_only_oracle_table(tmp_path, capsys):
    # oracle writes only the header when every system is singular
    report = tmp_path / "run.json"
    report.write_text(json.dumps({"tuples": [{"lambda": [[0.0, 0.0], [1.0, 0.0]]}]}))
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("rank_index,lambda_m_real,lambda_m_imag,residual\n")
    assert main(["compare", str(report), str(oracle)]) == 0
    assert json.loads(capsys.readouterr().out)["wanted_considered"] == 0


@pytest.mark.parametrize("command", ["generate", "solve", "oracle", "compare"])
def test_a_directory_for_a_file_exits_2(tmp_path, small_problem, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "generate": ["generate", "--m", "2", "--n", "3", "--out", str(folder)],
        "solve": ["solve", str(folder), "--out", str(tmp_path / "run")],
        "oracle": ["oracle", str(folder), "--out", str(tmp_path / "oracle.csv")],
        "compare": ["compare", str(folder), str(small_problem)],
    }[command]
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


def _malformed_problem_documents() -> dict:
    base = problem_to_json(generate_random_mep(2, 3, seed=0))

    def copy(generator=True):
        doc = json.loads(json.dumps(base))
        if not generator:
            del doc["generator"]
        return doc

    number, flat, short_a, short_b_row = copy(False), copy(False), copy(), copy()
    number["A"][0] = 1.0
    flat["A"][0] = [1.0, 2.0, 3.0]
    short_a["generator"]["a"].pop()
    short_b_row["generator"]["b"][1].pop()
    null_seed = copy()
    null_seed["generator"]["seed"] = None
    negative_seed = copy()
    negative_seed["generator"]["seed"] = -1
    a_numbers, length_1, ragged_b, nan_a, unequal = (copy() for _ in range(5))
    a_numbers["generator"]["a"] = [1.0, 2.0]
    length_1["generator"]["a"] = [s[:1] for s in base["generator"]["a"]]
    length_1["generator"]["b"] = [[s[:1] for s in row] for row in base["generator"]["b"]]
    ragged_b["generator"]["b"][1][1].pop()
    nan_a["generator"]["a"][1][2] = float("nan")
    unequal["sizes"] = [3, 4]
    unequal["A"][1] = np.eye(4).tolist()
    unequal["B"][1] = [np.eye(4).tolist()] * 2
    return {
        "list": [base],
        "m-null": {**copy(), "m": None},
        "sizes-number": {**copy(), "sizes": 3},
        "B-flat": {**copy(False), "B": [1.0, 2.0]},
        "generator-number": {**copy(), "generator": 5},
        "generator-seed-null": null_seed,
        "generator-seed-negative": negative_seed,
        "empty": {"m": 0, "sizes": [], "A": [], "B": []},
        "one-parameter": {"m": 1, "sizes": [3], "A": base["A"][:1], "B": [base["B"][0][:1]]},
        "A_1-number": number,
        "A_1-flat": flat,
        "generator-short-a": short_a,
        "generator-short-b-row": short_b_row,
        "generator-a-numbers": a_numbers,
        "generator-spectra-length-1": length_1,
        "generator-b-ragged": ragged_b,
        "generator-a-nan": nan_a,
        "sizes-fraction": {**copy(), "sizes": [3.5, 3]},
        "m-fraction": {**copy(), "m": 2.7},
        "m-infinite": {**copy(), "m": float("inf")},
        "m-string": {**copy(), "m": "2"},
        "m-bool": {**copy(), "m": True},
        "sizes-string": {**copy(), "sizes": "33"},
        "generator-seed-string": {**copy(), "generator": {**base["generator"], "seed": "0"}},
        "generator-unequal-sizes": unequal,
    }


MALFORMED_PROBLEMS = _malformed_problem_documents()
# what the message of a malformed document says about the part at fault
NAMED_PART = {
    "generator-a-numbers": "generator spectrum_a",
    "generator-spectra-length-1": "generator spectrum_a",
    "generator-b-ragged": "generator spectrum_b",
    "generator-a-nan": "generator spectrum_a has non-finite entries",
    "sizes-fraction": "sizes entry must be an integer",
    "m-fraction": "m must be an integer",
    "m-infinite": "m must be an integer",
    "m-string": "m must be an integer",
    "m-bool": "m must be an integer",
    "sizes-string": "sizes entry must be an integer",
    "generator-seed-string": "generator seed must be an integer",
    "generator-unequal-sizes": "generator needs equal mode sizes",
    "generator-seed-negative": "generator seed must be non-negative",
}


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("name", sorted(MALFORMED_PROBLEMS))
def test_malformed_problem_file_exits_2(tmp_path, name, command, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_PROBLEMS[name]))
    out = tmp_path / ("o" if command == "solve" else "o.csv")
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and NAMED_PART.get(name, "") in err
    assert list(tmp_path.iterdir()) == [path]
