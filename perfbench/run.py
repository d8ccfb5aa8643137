"""Benchmark of the ttmep solver: one seeded workload per run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload exterior-m3 --seed 0 --seconds 15 --trace 0

It builds the workload's inputs, starts worker.py with single-threaded
BLAS to make the program's calls, checks every returned tuple with
checks.py, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced solve. An operation is one solve; it fails if it raises or if any
of its tuples fails a check, and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_lines() -> int:
    """Physical lines of every .py file under src/ttmep."""
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ttmep").rglob("*.py"))
    )


def run_worker(workload: str, eta: float, seconds: float, trace_file: Path | None):
    """Start worker.py; returns (its result, the clock reading at its start)."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--eta", repr(eta), "--seconds", repr(seconds)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def as_tuples(op: dict):
    lam = [[complex(re, im) for re, im in row] for row in op["lam"]]
    vectors = [[[complex(re, im) for re, im in x] for x in vecs] for vecs in op["vectors"]]
    return list(zip(lam, vectors))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="accepted and unused: each workload's inputs are pinned (see workloads.py)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "ttmep" / "__init__.py").is_file():
        print(f"perfbench: no ttmep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from checks import check_list, oracle_indices
    from ttmep.mep_problem import generate_random_mep
    from workloads import (
        ORACLE_FLOOR, ORACLE_WANTED, PROBLEM_SEED, WORKLOADS,
        exterior_shift, shifted_matrices, shifted_spectra, spectra,
    )

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    g = generate_random_mep(w.m, w.n, seed=PROBLEM_SEED)
    a_spec, b_spec = spectra(g)
    eta = exterior_shift(w, a_spec, b_spec)
    a_spec, b_spec = shifted_spectra(a_spec, b_spec, eta)
    a, b = shifted_matrices(g, eta)
    oracle = oracle_indices(w.m, w.n, a_spec, b_spec, 0.0, ORACLE_WANTED) if w.enumerable else None

    trace_file = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{w.name}.jsonl"
    try:
        result, spawned = run_worker(w.name, eta, args.seconds, trace_file)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = []
    if result["threads"] != 1:
        problems.append(f"worker ran {result['threads']} threads, not 1")
    if not Path(result["ttmep_file"]).is_relative_to(SRC):
        problems.append(f"worker imported ttmep from {result['ttmep_file']}")

    ops = result["ops"]
    failed = 0
    found = []
    checked = []
    for i, op in enumerate(ops):
        if op["error"] is not None:
            failed += 1
            found.append(0)
            checked.append(None)
            print(f"perfbench: solve {i} raised {op['error']}", file=sys.stderr)
            continue
        check = check_list(as_tuples(op), a, b, a_spec, b_spec, 0.0)
        errors = list(check.errors)
        hits = None
        if oracle is not None:
            hits = len(oracle & check.found)
            if hits < ORACLE_FLOOR:
                errors.append(f"{hits} of the {ORACLE_WANTED} nearest exact tuples found, "
                              f"fewer than {ORACLE_FLOOR}")
        failed += bool(errors)
        found.append(len(check.found))
        checked.append((check, hits))
        for e in errors:
            print(f"perfbench: solve {i}: {e}", file=sys.stderr)
        print(f"perfbench: solve {i}: {op['wall_s']:.3f} s wall, {len(op['lam'])} tuples, "
              f"{len(check.found)} pass, oracle hits {hits}, sweeps {op['sweeps_run']}",
              file=sys.stderr)

    if not args.trace:
        metrics = {
            "solve_s": metric(statistics.median(op["wall_s"] for op in ops), "s"),
            "setup_s": metric(result["setup_end"] - spawned, "s"),
            "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
            "tuples_found": metric(min(found), "count"),
        }
    else:
        untraced, traced = ops
        metrics = dict(result["layers"])
        for name in result["missing"]:
            print(f"perfbench: not wrapped: {name} does not exist", file=sys.stderr)
        for key, lost in result["absent"].items():
            print(f"perfbench: absent: {key} (no {', '.join(lost)})", file=sys.stderr)
        if traced["lam"] != untraced["lam"]:
            problems.append("traced solve returned other tuples than the untraced one")
        layers = result["layers"]
        for key, count, what in (("solver.admitted", traced["admitted"], "admitted tuples"),
                                 ("dense_kernels.eig_calls", traced["steps"], "steps")):
            if key not in result["absent"] and layers[key]["value"] != count:
                problems.append(f"{key} is {layers[key]['value']}, the report has {count} {what}")
        check, hits = checked[1] or (None, 0)
        metrics.update({
            "delta_builder.max_rank": metric(traced["delta_max_rank"], "rank"),
            "solver.sweeps_run": metric(traced["sweeps_run"], "count"),
            "solver.steps": metric(traced["steps"], "count"),
            "quality.oracle_hits": metric(hits or 0, "count"),
            "quality.max_residual": metric(check.max_residual if check else 0.0, "norm"),
            "run.cpu_s": metric(untraced["cpu_s"], "s"),
            "run.trace_overhead_s": metric(traced["wall_s"] - untraced["wall_s"], "s"),
        })
        metrics["src.lines"] = metric(source_lines(), "lines")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {entry["name"] for entry in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != names:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ names)}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
