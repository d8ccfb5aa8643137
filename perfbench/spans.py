"""Spans recorded from outside the program, and the per-layer figures.

``Tracer.install`` replaces functions in the namespaces ``solve()`` looks
them up in with wrappers that record a span per call: name, start, end and
the index of the enclosing span. Spans stay in memory until ``write``. A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# Wrapped beyond every public function of ttmep.solver: the environment
# steps FrameEnvCache takes inside tt_core, and the Rayleigh quotients
# trqi_refine and left_eigenvector_tuple take inside mep_problem.
EXTRA_TARGETS = (
    ("ttmep.tt_core", "env_left_step"),
    ("ttmep.tt_core", "env_right_step"),
    ("ttmep.mep_problem", "tensor_rayleigh_quotient"),
)

# What a span keeps of its call besides the times.
_NOTES = {
    "dense_kernels.generalized_eig": lambda args, result: int(args[0].shape[0]),
    "solver.check_convergence": lambda args, result: bool(result.admitted),
}

RAYLEIGH = "mep_problem.tensor_rayleigh_quotient"
LEFT_TUPLE = "mep_problem.left_eigenvector_tuple"

# metric -> (kind, span names, unit). Kinds: "self" sums self time,
# "calls" counts spans.
SPAN_METRICS = {
    "delta_builder.build_s": ("self", ("delta_builder.build_delta_i", "delta_builder.build_delta0"), "s"),
    "dense_kernels.eig_s": ("self", ("dense_kernels.generalized_eig",), "s"),
    "dense_kernels.eig_calls": ("calls", ("dense_kernels.generalized_eig",), "count"),
    "dense_kernels.select_ritz_s": ("self", ("dense_kernels.select_ritz",), "s"),
    "mep_problem.dedup_s": ("self", ("mep_problem.duplicate_check",), "s"),
    "mep_problem.dedup_calls": ("calls", ("mep_problem.duplicate_check",), "count"),
    "mep_problem.trqi_s": ("self", ("mep_problem.trqi_refine", RAYLEIGH), "s"),
    "mep_problem.rayleigh_calls": ("calls", (RAYLEIGH,), "count"),
    "mep_problem.left_tuple_s": ("self", (LEFT_TUPLE,), "s"),
    "tt_core.env_step_s": ("self", ("tt_core.env_left_step", "tt_core.env_right_step"), "s"),
    "tt_core.env_step_calls": ("calls", ("tt_core.env_left_step", "tt_core.env_right_step"), "count"),
    "tt_core.env_apply_s": ("self", ("tt_core.env_apply",), "s"),
    "tt_core.env_apply_calls": ("calls", ("tt_core.env_apply",), "count"),
    "tt_core.project_s": ("self", ("tt_core.frame_project", "tt_core.frame_apply"), "s"),
    "tt_core.shift_s": ("self", ("tt_core.shift_block_core",), "s"),
    "solver.walks": ("calls", ("solver.check_convergence",), "count"),
    "solver.walk_s": ("self", ("solver.check_convergence",), "s"),
    "solver.rank_one_factor_s": ("self", ("solver.rank_one_factor",), "s"),
    "solver.rank_one_factor_calls": ("calls", ("solver.rank_one_factor",), "count"),
}

# Figures derived from notes and counts, with the spans they need.
DERIVED_METRICS = {
    "dense_kernels.max_pencil_dim": (("dense_kernels.generalized_eig",), "rows"),
    "solver.admitted": (("solver.check_convergence",), "count"),
    "solver.walk_admit_ratio": (("solver.check_convergence",), "ratio"),
    "mep_problem.dedup_admit_ratio": (("solver.check_convergence", "mep_problem.duplicate_check"), "ratio"),
}


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index or -1, note]
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every public function of ttmep.solver and EXTRA_TARGETS."""
        solver = importlib.import_module("ttmep.solver")
        targets = [
            ("ttmep.solver", attr)
            for attr, value in vars(solver).items()
            if not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__.startswith("ttmep.")
        ]
        for module_name, attr in targets + list(EXTRA_TARGETS):
            module = importlib.import_module(module_name)
            if callable(getattr(module, attr, None)):
                self._wrap(module, attr)
            else:
                self.missing.append(f"{module_name}.{attr}")

    def _wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if note is not None:
                try:
                    span[4] = note(args, result)
                except (AttributeError, IndexError, TypeError):
                    span[4] = None
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        self.wrapped.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer figures of the recorded spans, and the absent ones.

    A Rayleigh quotient taken inside left_eigenvector_tuple counts towards
    the left tuple's time, every other one towards TRQI. A figure whose
    spans were never wrapped, because the function no longer exists, is
    reported as absent with the value 0; a time or count over several
    functions is absent only when all of them are gone.
    """
    spans = tracer.spans
    own = self_times(spans)
    time_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    for (name, _, _, parent, _), t in zip(spans, own):
        calls_by[name] = calls_by.get(name, 0) + 1
        bucket = name
        if name == RAYLEIGH and parent >= 0 and spans[parent][0] == LEFT_TUPLE:
            bucket = LEFT_TUPLE
        time_by[bucket] = time_by.get(bucket, 0.0) + t

    metrics: dict[str, dict] = {}
    absent: dict[str, list[str]] = {}

    def put(key, value, unit, lost):
        if lost:
            absent[key] = lost
            value = 0
        metrics[key] = {"value": value, "unit": unit}

    def missing(names):
        return [n for n in names if n not in tracer.wrapped]

    for key, (kind, names, unit) in SPAN_METRICS.items():
        if kind == "self":
            value = sum(time_by.get(n, 0.0) for n in names)
        else:
            value = sum(calls_by.get(n, 0) for n in names)
        # a figure over several functions stays while any of them exists
        lost = missing(names)
        put(key, value, unit, lost if len(lost) == len(names) else [])

    notes = {}
    for name, _, _, _, note in spans:
        notes.setdefault(name, []).append(note)
    dims = [d for d in notes.get("dense_kernels.generalized_eig", []) if d is not None]
    walks = notes.get("solver.check_convergence", [])
    admitted = sum(1 for a in walks if a is True)
    dedup_calls = calls_by.get("mep_problem.duplicate_check", 0)
    derived = {
        "dense_kernels.max_pencil_dim": max(dims, default=0),
        "solver.admitted": admitted,
        "solver.walk_admit_ratio": admitted / len(walks) if walks else 0.0,
        "mep_problem.dedup_admit_ratio": admitted / dedup_calls if dedup_calls else 0.0,
    }
    for key, (names, unit) in DERIVED_METRICS.items():
        put(key, derived[key], unit, missing(names))
    return metrics, absent
