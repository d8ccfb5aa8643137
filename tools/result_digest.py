"""SHA-256 digests of what the solver computes on the perfbench workloads.

Usage, from the root of the repository:

    python3 tools/result_digest.py                      # all workloads
    python3 tools/result_digest.py --workload sweep1-m9
    python3 tools/result_digest.py --solver-seed 1 --solver-seed 2
    python3 tools/result_digest.py --src /path/to/other/tree/src

For each workload, at its pinned problem seed (see
``perfbench/workloads.py``), it builds the shifted problem the benchmark
solves and prints one JSON line per solver seed with the SHA-256 digests
of:

- ``delta_m`` and ``delta_0``: the bytes of every rounded Delta_m and
  Delta_0 core, with their shapes and dtypes;
- ``tuples``: the returned tuples (lambda, right and left vectors,
  residual norm, flags), in the order ``solve`` returns them;
- ``steps``: the report steps without their timings ``wall_ms`` and
  ``phase_ms``; ``padded`` and ``outcomes`` are digested, so the walk
  outcomes of every candidate count too;
- ``generator``: the unshifted generated problem's matrices, factors and
  spectra, each taken through ``np.asarray``, so a record that holds
  nested lists and one that holds stacked arrays digest alike;
- ``oracle``: the 20 exact tuples of that problem nearest 0, by
  ``oracle_eigenvalues``, digested as ``tuples`` is; only on workloads
  small enough to enumerate (null on the others).

The solver seed is the benchmark's pinned one unless ``--solver-seed``
(repeatable) names others; one seed's trajectory can hide a difference
another shows, so checks of result identity should run several. Two
trees that print the same lines compute the same operators and the same
solves, bit for bit. Run it on both trees of a change that claims to
leave the results alone; ``--src`` picks the ``ttmep`` sources to import,
so one copy of this script serves both. Pin the BLAS thread count (as
perfbench does, ``OPENBLAS_NUM_THREADS=1``) when comparing trees. One run
over the three workloads at one seed takes about half a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# fields of a report step that are timings
UNDIGESTED_STEP_FIELDS = ("wall_ms", "phase_ms")


def _update_array(h, arr) -> None:
    arr = np.asarray(arr)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def operator_digest(op) -> str:
    h = hashlib.sha256()
    for core in op.cores:
        _update_array(h, core)
    return h.hexdigest()


def tuples_digest(tuples) -> str:
    h = hashlib.sha256()
    for t in tuples:
        _update_array(h, t.lam)
        for vec in t.vectors:
            _update_array(h, vec)
        for vec in t.left_vectors or ():
            _update_array(h, vec)
        h.update(b"left" if t.left_vectors is not None else b"no-left")
        _update_array(h, np.float64(t.residual_norm))
        h.update(repr(tuple(t.flags)).encode())
    return h.hexdigest()


def generator_digest(g) -> str:
    h = hashlib.sha256()
    for part in (g.problem.a, g.problem.b, g.u_factors, g.z_factors, g.spectrum_a, g.spectrum_b):
        _update_array(h, part)
    return h.hexdigest()


def steps_digest(steps) -> str:
    kept = [{k: v for k, v in s.items() if k not in UNDIGESTED_STEP_FIELDS} for s in steps]
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def workload_problem(w):
    """The shifted problem a workload solves, and its shifted spectra."""
    from ttmep.mep_problem import MEProblem, generate_random_mep
    from workloads import PROBLEM_SEED, exterior_shift, shifted_matrices, shifted_spectra, spectra

    g = generate_random_mep(w.m, w.n, seed=PROBLEM_SEED)
    eta = exterior_shift(w, *spectra(g))
    a, b = shifted_matrices(g, eta)
    return MEProblem(a=a, b=b), shifted_spectra(*spectra(g), eta)


def digest_workload(w, solver_seed: int) -> dict:
    from ttmep.delta_builder import build_delta0, build_delta_i
    from ttmep.mep_problem import generate_random_mep, oracle_eigenvalues
    from ttmep.solver import SolverConfig, solve
    from workloads import PROBLEM_SEED

    prob, _ = workload_problem(w)
    g = generate_random_mep(w.m, w.n, seed=PROBLEM_SEED)
    config = SolverConfig(sweeps=w.sweeps, seed=solver_seed)
    out = {
        "workload": w.name,
        "solver_seed": solver_seed,
        "delta_m": operator_digest(build_delta_i(prob, prob.m, round_tol=config.delta_round_tol)),
        "delta_0": operator_digest(build_delta0(prob, round_tol=config.delta_round_tol)),
    }
    tuples, report = solve(prob, target=0.0, config=config)
    out.update(
        tuples=tuples_digest(tuples),
        steps=steps_digest(report["steps"]),
        n_tuples=len(tuples),
        sweeps_run=report["sweeps_run"],
        generator=generator_digest(g),
        oracle=tuples_digest(oracle_eigenvalues(g, 20)[0]) if w.enumerable else None,
    )
    return out


def selected_runs(description: str) -> list:
    """Parse --workload, --solver-seed and --src; return (workload, seed) pairs.

    The ``ttmep`` package under ``--src`` and perfbench's modules go on the
    import path. A bad switch exits with status 2.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable); default: every workload")
    parser.add_argument("--solver-seed", type=int, action="append",
                        help="solver seed (repeatable); default: the benchmark's pinned seed")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the ttmep package to run")
    args = parser.parse_args()
    if not (args.src / "ttmep" / "__init__.py").is_file():
        parser.error(f"no ttmep package under {args.src}")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]

    from workloads import SOLVER_SEED, WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; one of {sorted(WORKLOADS)}")
    return [(WORKLOADS[name], seed) for name in names for seed in args.solver_seed or [SOLVER_SEED]]


def main() -> int:
    for w, seed in selected_runs(__doc__.split("\n\n")[0]):
        print(json.dumps(digest_workload(w, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
