"""Batch command-line front end.

Subcommands: ``generate`` (seeded random problems with exact spectra),
``solve`` (run the sweep solver, emit a JSON report plus CSV and a vector
sidecar), ``oracle`` (brute-force enumeration of the exact tuples),
``compare`` (match a solve report against an oracle table), and ``bench``
(phase timings across a parameter range, with and without operator
rounding).

Exit codes: 0 success (an empty found list is success), 2 validation
error, 3 numerical failure, 4 resource-cap refusal. BLAS threads are set
through the usual environment variables (``OPENBLAS_NUM_THREADS`` and the
like) before the process starts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from .delta_builder import apply_shift
from .dense_kernels import RITZ_RULES
from .mep_problem import (
    GeneratedProblem,
    generate_random_mep,
    index_eigenvalues,
    load_problem,
    oracle_eigenvalues,
    save_problem,
)
from .solver import SolverConfig, solve
from .tt_core import CapExceededError, TTVector, tt_to_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttmep",
        description="Tensor-train subspace solver for multiparameter eigenvalue problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a seeded random problem file")
    p_gen.add_argument("--m", type=int, required=True, help="number of parameters")
    p_gen.add_argument("--n", type=int, required=True, help="matrix size")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output problem JSON path")

    # a config flag that is not given stays out of the namespace, so the
    # SolverConfig default applies
    p_solve = sub.add_parser("solve", help="run the sweep solver on a problem file",
                             argument_default=argparse.SUPPRESS)
    p_solve.add_argument("problem", help="problem JSON path")
    p_solve.add_argument("--target", type=float, default=0.0)
    p_solve.add_argument("--out", required=True, help="output base path (or .json)")
    _add_config_flags(p_solve)

    p_oracle = sub.add_parser("oracle", help="enumerate exact tuples of a generated problem")
    p_oracle.add_argument("problem", help="problem JSON path (with generator metadata)")
    p_oracle.add_argument("--target", type=float, default=0.0)
    p_oracle.add_argument("--how-many", type=int, default=20)
    p_oracle.add_argument("--out", required=True, help="output CSV path")

    p_cmp = sub.add_parser("compare", help="match solve results against an oracle table")
    p_cmp.add_argument("report", help="solve report JSON path")
    p_cmp.add_argument("oracle", help="oracle CSV path")
    p_cmp.add_argument("--tol", type=float, default=1e-6)
    p_cmp.add_argument("--wanted", type=int, default=20, help="top oracle rows to grade")
    p_cmp.add_argument("--out", default=None, help="output base path for the match table")

    p_bench = sub.add_parser("bench", help="phase timings over a parameter range")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--m-range", help="A:B inclusive range of m at fixed --n")
    group.add_argument("--n-range", help="A:B[:STEP] inclusive range of n at fixed --m")
    p_bench.add_argument("--m", type=int, default=4, help="fixed m for --n-range")
    p_bench.add_argument("--n", type=int, default=10, help="fixed n for --m-range")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--sweeps", type=int, default=1)
    p_bench.add_argument("--out", required=True, help="output CSV path")
    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per ``SolverConfig`` field, parsed under the field's name."""
    p.add_argument("--b", dest="block_size", metavar="B", type=int, help="block size")
    p.add_argument("--sweeps", type=int)
    p.add_argument("--kick", type=int, help="random enrichment columns")
    p.add_argument("--max-rank", type=int)
    p.add_argument("--eps", type=float, help="residual tolerance")
    p.add_argument("--eps1", type=float, help="projected-residual walk tolerance")
    p.add_argument("--xi", type=float, help="duplicate-rejection threshold")
    p.add_argument("--cos-threshold", type=float)
    rounding = p.add_mutually_exclusive_group()
    rounding.add_argument("--round-tol", dest="delta_round_tol", metavar="ROUND_TOL",
                          type=float, help="operator rounding tolerance")
    rounding.add_argument("--no-round", dest="delta_round_tol", action="store_const",
                          const=None, help="skip operator rounding")
    p.add_argument("--ritz-rule", choices=RITZ_RULES)
    p.add_argument("--seed", type=int)


# multi-indices sampled by ``bench`` to place its exterior shift
SHIFT_SAMPLES = 20_000


def _config_from_args(args) -> SolverConfig:
    names = {f.name for f in dataclasses.fields(SolverConfig)}
    return SolverConfig(**{k: v for k, v in vars(args).items() if k in names})


def _out_base(path: str) -> Path:
    p = Path(path)
    return p.with_suffix("") if p.suffix == ".json" else p


def cmd_generate(args) -> int:
    g = generate_random_mep(args.m, args.n, args.seed)
    save_problem(args.out, g)
    print(f"wrote {args.out} (m={args.m}, n={args.n}, seed={args.seed})")
    return 0


def cmd_solve(args) -> int:
    loaded = load_problem(args.problem)
    prob = loaded.problem if isinstance(loaded, GeneratedProblem) else loaded
    config = _config_from_args(args)
    tuples, report = solve(prob, target=args.target, config=config)
    base = _out_base(args.out)
    base.parent.mkdir(parents=True, exist_ok=True)
    report["problem"] = str(args.problem)
    report["vectors_file"] = str(base) + ".vectors.json"
    if not tuples:
        report["warnings"] = ["no converged tuples"]
    Path(str(base) + ".json").write_text(json.dumps(report, indent=1) + "\n")
    with open(str(base) + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank_index", "lambda_m_real", "lambda_m_imag", "residual", "found_flag"]
        )
        for i, t in enumerate(tuples):
            writer.writerow(
                [i, repr(float(t.lam[-1].real)), repr(float(t.lam[-1].imag)), repr(float(t.residual_norm)), 1]
            )
    sidecar = {
        "tuples": [
            {
                "index": i,
                "real": tt_to_json(
                    TTVector([v.real.reshape(1, -1, 1).copy() for v in t.vectors])
                ),
                "imag": tt_to_json(
                    TTVector([v.imag.reshape(1, -1, 1).copy() for v in t.vectors])
                ),
            }
            for i, t in enumerate(tuples)
        ]
    }
    Path(report["vectors_file"]).write_text(json.dumps(sidecar) + "\n")
    if not tuples:
        print("warning: no converged tuples", file=sys.stderr)
    print(f"found {len(tuples)} tuples; report at {base}.json")
    return 0


def cmd_oracle(args) -> int:
    loaded = load_problem(args.problem)
    if not isinstance(loaded, GeneratedProblem):
        raise ValueError("oracle needs a problem file with generator metadata")
    t0 = time.perf_counter()
    tuples, skipped = oracle_eigenvalues(loaded, args.how_many, target=args.target)
    elapsed = time.perf_counter() - t0
    m = loaded.m
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["rank_index", "lambda_m_real", "lambda_m_imag", "residual"]
        for j in range(1, m + 1):
            header += [f"lambda_{j}_real", f"lambda_{j}_imag"]
        writer.writerow(header)
        for i, t in enumerate(tuples):
            row = [i, repr(float(t.lam[-1].real)), repr(float(t.lam[-1].imag)), repr(float(t.residual_norm))]
            for j in range(m):
                row += [repr(float(t.lam[j].real)), repr(float(t.lam[j].imag))]
            writer.writerow(row)
    print(
        f"enumerated {loaded.n ** m} systems in {elapsed:.2f}s, "
        f"skipped {skipped} singular, wrote {len(tuples)} tuples to {args.out}"
    )
    return 0


def cmd_compare(args) -> int:
    if args.wanted < 0 or not 0 <= args.tol < np.inf:
        raise ValueError("--wanted must be non-negative and --tol non-negative and finite")
    report = json.loads(Path(args.report).read_text())
    try:
        if not isinstance(report["tuples"], list):
            raise TypeError("tuples is not a list")
        found = [complex(t["lambda"][-1][0], t["lambda"][-1][1]) for t in report["tuples"]]
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"malformed report: {exc}") from exc
    with open(args.oracle, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"lambda_m_real", "lambda_m_imag"} <= set(reader.fieldnames or ()):
            raise ValueError(f"oracle table {args.oracle} lacks the lambda_m_real/_imag columns")
        try:
            oracle_rows = [complex(float(r["lambda_m_real"]), float(r["lambda_m_imag"])) for r in reader]
        except (TypeError, ValueError) as exc:  # a short row reads None
            raise ValueError(f"oracle table {args.oracle}: bad lambda_m value ({exc})") from None
    wanted = oracle_rows[: args.wanted]
    tol = args.tol
    matched_flags = []
    for w in wanted:
        matched_flags.append(any(abs(w - f) <= tol for f in found))
    spurious = sum(1 for f in found if not any(abs(f - o) <= tol for o in oracle_rows))
    summary = {
        "wanted_considered": len(wanted),
        "found_among_wanted": int(sum(matched_flags)),
        "spurious": int(spurious),
        "tol": tol,
        "n_found": len(found),
    }
    if args.out:
        base = _out_base(args.out)
        with open(str(base) + ".csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank_index", "lambda_m_real", "lambda_m_imag", "found_flag"])
            for i, (w, flag) in enumerate(zip(wanted, matched_flags)):
                writer.writerow([i, repr(float(w.real)), repr(float(w.imag)), int(flag)])
        Path(str(base) + ".json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def _sampled_lambda_m_min(g, seed: int) -> float:
    """Approximate min real lambda_m from ``SHIFT_SAMPLES`` random multi-indices.

    Enough for choosing an exteriorizing shift when full enumeration (n^m
    systems) is out of reach.
    """
    m, n = g.m, g.n
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(min(SHIFT_SAMPLES, n**m), m))
    lam, ok = index_eigenvalues(g, idx)
    return float(lam[ok, m - 1].real.min())


def _bench_range(flag: str, text: str, stepped: bool) -> range:
    """The inclusive range ``text`` gives ``flag``: ``A:B``, or ``A:B[:STEP]`` if ``stepped``."""
    form = "A:B[:STEP]" if stepped else "A:B"
    parts = text.split(":")
    if not 2 <= len(parts) <= (3 if stepped else 2):
        raise ValueError(f"{flag} takes {form}, got {text!r}")
    try:
        lo, hi, step = (int(x) for x in parts + ["1"] * (3 - len(parts)))
    except ValueError:
        raise ValueError(f"{flag} takes {form} in integers, got {text!r}") from None
    if lo > hi or step < 1:
        rule = "A <= B and STEP >= 1" if stepped else "A <= B"
        raise ValueError(f"{flag} got {text!r}, but {form} needs {rule}")
    return range(lo, hi + 1, step)


def cmd_bench(args) -> int:
    if args.m_range:
        params = [("m", v, v, args.n) for v in _bench_range("--m-range", args.m_range, False)]
    else:
        params = [("n", v, args.m, v) for v in _bench_range("--n-range", args.n_range, True)]
    config = SolverConfig(sweeps=args.sweeps, seed=args.seed)
    runs = ((False, dataclasses.replace(config, delta_round_tol=None)), (True, config))
    rows = []
    warnings = []
    for label, value, m, n in params:
        g = generate_random_mep(m, n, args.seed)
        # shift so the searched lambda_m sit at positive values (exterior target)
        shifted = apply_shift(g.problem, -_sampled_lambda_m_min(g, seed=args.seed) + 1.0)
        projection = {}
        for rounded, run_config in runs:
            t0 = time.perf_counter()
            _tuples, report = solve(shifted, target=0.0, config=run_config)
            total = time.perf_counter() - t0
            phase_sums: dict[str, float] = {}
            for step_rec in report["steps"]:
                for phase, ms in step_rec["phase_ms"].items():
                    phase_sums[phase] = phase_sums.get(phase, 0.0) + ms / 1e3
            for phase, seconds in phase_sums.items():
                rows.append((value, phase, rounded, seconds))
            rows.append((value, "total", rounded, total))
            projection[rounded] = phase_sums.get("projection", 0.0)
        if m >= 8 and projection[True] > projection[False]:
            warnings.append(
                f"{label}={value}: rounding did not speed up projection formation"
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "phase", "rounded", "seconds"])
        for value, phase, rounded, seconds in rows:
            writer.writerow([value, phase, int(rounded), repr(float(seconds))])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(rows)} timing rows to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "oracle": cmd_oracle,
        "compare": cmd_compare,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (LinAlgError, ArithmeticError) as exc:  # LinAlgError is a ValueError: test it first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
