"""What the solver finds on the perfbench workloads, per solver seed.

Usage, from the root of the repository:

    python3 tools/quality_spread.py                      # all workloads
    python3 tools/quality_spread.py --workload exterior-m8n4 \
        --solver-seed 0 --solver-seed 1 --solver-seed 2 --solver-seed 3
    python3 tools/quality_spread.py --src /path/to/other/tree/src

The switches are those of ``tools/result_digest.py``. For each workload,
at its pinned problem seed, it solves the shifted problem the benchmark
solves and prints one JSON line per solver seed with:

- ``tuples_found``: returned tuples that pass perfbench's ``checks.py``
  (perfbench's ``tuples_found`` at the pinned seed);
- ``oracle_hits``: how many of the 20 exact tuples nearest the target are
  among them, or null where the workload is too large to enumerate;
- ``sweeps_run`` and ``last_admitting_sweep``, the last sweep that
  admitted a tuple (0 if none did);
- ``outcomes``: the walk outcomes of the report's steps, summed;
- ``solve_s``: the wall time of ``solve()``, operator set-up included.

The solve is chaotic at rounding level, so one seed's figures say little
about a change that moves the trajectory; the spread over several seeds
does. Pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) when
comparing trees.
"""

from __future__ import annotations

import json
import sys
import time

from result_digest import selected_runs, workload_problem


def report_summary(report: dict) -> dict:
    """Sweeps run, the last admitting sweep and the summed walk outcomes."""
    outcomes: dict[str, int] = {}
    for step in report["steps"]:
        for name, count in step["outcomes"].items():
            outcomes[name] = outcomes.get(name, 0) + count
    admitting = [step["sweep"] for step in report["steps"] if step["n_converged_new"] > 0]
    return {
        "sweeps_run": report["sweeps_run"],
        "last_admitting_sweep": max(admitting, default=0),
        "outcomes": outcomes,
    }


def quality_line(w, solver_seed: int) -> dict:
    from checks import check_list, oracle_indices
    from ttmep.solver import SolverConfig, solve
    from workloads import ORACLE_WANTED

    prob, (a_spec, b_spec) = workload_problem(w)
    t0 = time.perf_counter()
    tuples, report = solve(prob, target=0.0, config=SolverConfig(sweeps=w.sweeps, seed=solver_seed))
    solve_s = time.perf_counter() - t0
    check = check_list([(t.lam, t.vectors) for t in tuples], prob.a, prob.b, a_spec, b_spec, 0.0)
    hits = None
    if w.enumerable:
        hits = len(oracle_indices(w.m, w.n, a_spec, b_spec, 0.0, ORACLE_WANTED) & check.found)
    return {
        "workload": w.name,
        "solver_seed": solver_seed,
        "tuples_found": len(check.found),
        "oracle_hits": hits,
        **report_summary(report),
        "solve_s": round(solve_s, 3),
    }


def main() -> int:
    for w, seed in selected_runs(__doc__.split("\n\n")[0]):
        print(json.dumps(quality_line(w, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
