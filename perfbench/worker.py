"""The process that makes the program's calls; run.py starts and reads it.

It builds the workload's problem from the shift run.py hands over, times
the operator set-up the way ``solve()`` does it before its first sweep,
then runs the workload's minimum of whole solves and more while the next
one is expected to end within ``--seconds``. With
``--trace 1`` it runs one untraced solve and then the same solve traced.
It prints one JSON line: the clock reading at the end of set-up, its peak
resident memory, the BLAS thread count and every solve's tuples.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import ttmep
import ttmep.solver
from ttmep.delta_builder import build_delta0, build_delta_i
from ttmep.mep_problem import MEProblem, generate_random_mep
from ttmep.solver import SolverConfig

from spans import Tracer, layer_metrics
from workloads import PROBLEM_SEED, SOLVER_SEED, WORKLOADS, shifted_matrices


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def one_solve(prob: MEProblem, config: SolverConfig) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        # looked up at call time, so a traced run calls the wrapped solve
        tuples, report = ttmep.solver.solve(prob, target=0.0, config=config)
        error = None
    except Exception as exc:  # a failed operation, counted by run.py
        traceback.print_exc()
        tuples, error = [], f"{type(exc).__name__}: {exc}"
        report = {"sweeps_run": 0, "steps": [], "delta_ranks": {"delta_m": [0], "delta_0": [0]}}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "lam": [[[v.real, v.imag] for v in t.lam] for t in tuples],
        "vectors": [[[[z.real, z.imag] for z in x] for x in t.vectors] for t in tuples],
        "sweeps_run": report["sweeps_run"],
        "steps": len(report["steps"]),
        "admitted": sum(s["n_converged_new"] for s in report["steps"]),
        "delta_max_rank": max(report["delta_ranks"]["delta_m"] + report["delta_ranks"]["delta_0"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--eta", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    g = generate_random_mep(w.m, w.n, seed=PROBLEM_SEED)
    a, b = shifted_matrices(g, args.eta)
    prob = MEProblem(a=a, b=b)
    config = SolverConfig(sweeps=w.sweeps, seed=SOLVER_SEED)
    build_delta_i(prob, prob.m, round_tol=config.delta_round_tol)
    build_delta0(prob, round_tol=config.delta_round_tol)
    setup_end = time.perf_counter()

    ops = []
    layers = absent = missing = None
    if args.trace_file is None:
        start = time.perf_counter()
        while (len(ops) < w.min_solves
               or time.perf_counter() - start + ops[-1]["wall_s"] <= args.seconds):
            ops.append(one_solve(prob, config))
    else:
        ops.append(one_solve(prob, config))
        tracer = Tracer()
        tracer.install()
        try:
            ops.append(one_solve(prob, config))
        finally:
            tracer.uninstall()
        tracer.write(args.trace_file)
        layers, absent = layer_metrics(tracer)
        missing = tracer.missing

    print(json.dumps({
        "setup_end": setup_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": thread_count(),
        "ttmep_file": str(Path(ttmep.__file__).resolve()),
        "ops": ops,
        "layers": layers,
        "absent": absent,
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
