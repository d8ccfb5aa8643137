"""Alternating sweep solver for the smallest-|lambda_m| eigenvalue tuples.

The operator-determinant pencil of the problem is kept in train form; a
block iterate with one distinguished core sweeps left-to-right and back,
solving the projected dense pencil at each mode, picking block_size Ritz
pairs by a residual/angle heuristic, and transporting single-pair frames
across the modes to estimate residuals cheaply and to assemble candidate
eigenvector tuples. The estimate at each mode is the dominant singular
vector of the transported coefficient's mode unfolding. Converged tuples
are polished by Rayleigh quotient iteration, given a left tuple (per
equation the left null vector of A_i - sum_j lam_j B_ij, one SVD each),
screened against the already-found list, and kept only while among the
closest to the target.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

import numpy as np

from .dense_kernels import RITZ_RULES, generalized_eig, principal_cosine, select_ritz
from .delta_builder import DELTA_ROUND_TOL, apply_shift, build_delta0, build_delta_i
from .mep_problem import (
    EigenTuple,
    MEProblem,
    SingularRayleighError,
    duplicate_check,
    left_eigenvector_tuple,
    screen_denominator,
    tensor_rayleigh_quotient,
    trqi_refine,
)
from .tt_core import (
    FrameEnvCache,
    TTOperator,
    env_apply,
    feasible_ranks,
    frame_project,
    shift_block_core,
    svd_split,
)

# solve() stops after this many consecutive sweeps admit no new tuple
NO_PROGRESS_SWEEPS = 5
# What a candidate's walk ended as, in the order check_convergence tests them
WALK_OUTCOMES = ("aborted", "trqi_failed", "keep_cut", "duplicate", "admitted")


@dataclass
class SolverConfig:
    """Sweep parameters; defaults follow the reference experiment setup.

    Every field has a ``ttmep solve`` flag. The found list keeps the
    ``4 * block_size`` tuples nearest the target, and a solve stops after
    ``NO_PROGRESS_SWEEPS`` sweeps without a new tuple.
    """

    block_size: int = 5
    kick: int = 1
    max_rank: int | None = None  # None becomes block_size + 1 when the config is built
    sweeps: int = 20
    eps: float = 1e-6
    eps1: float = 1e-8
    xi: float = 1e-4
    cos_threshold: float = 0.99
    delta_round_tol: float | None = DELTA_ROUND_TOL  # None skips operator rounding
    seed: int = 0
    ritz_rule: str = RITZ_RULES[0]

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block size must be positive")
        if self.sweeps < 1:
            raise ValueError("sweeps must be positive")
        if self.kick < 0:
            raise ValueError("kick must be non-negative")
        if self.max_rank is None:
            self.max_rank = self.block_size + 1
        if self.max_rank < self.block_size:
            raise ValueError("max rank must be at least the block size")
        if not 0 < self.cos_threshold <= 1:
            raise ValueError("cosine threshold must lie in (0, 1]")
        for name in ("eps", "eps1", "xi"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.delta_round_tol is not None and not 0 <= self.delta_round_tol < math.inf:
            raise ValueError("rounding tolerance must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.ritz_rule not in RITZ_RULES:
            raise ValueError(f"unknown Ritz rule {self.ritz_rule!r}")


@dataclass
class StepRecord:
    sweep: int
    mode: int  # 1-based
    direction: int
    projected_size: int
    n_candidates: int
    n_selected: int
    n_converged_new: int
    wall_ms: float
    phase_ms: dict[str, float] = field(default_factory=dict)
    ranks: list[int] = field(default_factory=list)
    padded: bool = False  # select_ritz found too few qualifying Ritz values
    outcomes: dict[str, int] = field(default_factory=dict)  # per WALK_OUTCOMES


@dataclass
class SweepState:
    prob: MEProblem  # the problem as solved, shifted by the target
    config: SolverConfig
    cores: list[np.ndarray]  # the block iterate: its 4D block core sits at k
    k: int
    envs: FrameEnvCache  # the pencil (Delta_m, Delta_0) and its environments
    rng: np.random.Generator
    found: list[EigenTuple] = field(default_factory=list)
    # transported middle factors of the last step's selection, for the block mode
    estimates: list[np.ndarray] = field(default_factory=list)
    sweep: int = 0


@dataclass
class _Candidate:
    """One Ritz pair and what its walk found, recorded at the walk's first hop."""

    mu: complex
    coeff: np.ndarray  # (r_left, n_k, r_right), unit norm
    middle: np.ndarray  # rank-one middle factor at the block mode
    est_residual: float  # projected residual after the first hop
    first_hop: np.ndarray  # unit coefficient tensor at the first hop's mode
    outcome: str = "aborted"  # one of WALK_OUTCOMES

    @property
    def converged(self) -> bool:
        """TRQI met eps; the tuple is never re-selected, admitted or not."""
        return self.outcome in ("keep_cut", "duplicate", "admitted")

    @property
    def admitted(self) -> bool:
        return self.outcome == "admitted"


# ---------------------------------------------------------------------------
# rank-one factorization of a coefficient tensor


def rank_one_factor(tensor: np.ndarray) -> np.ndarray:
    """Unit middle-mode factor of a 3-way tensor: its dominant mode-2 vector.

    The leading left singular vector of the mode-2 unfolding (the middle
    index against the two bond indices) is the middle factor of the
    truncated multilinear SVD, and exact for a rank-one tensor.
    """
    t = np.asarray(tensor)
    if t.ndim != 3:
        raise ValueError("expected a 3-way tensor")
    rl, n, rr = t.shape
    if np.linalg.norm(t) == 0:
        raise ValueError("zero tensor has no rank-one factor")
    unfolding = t.transpose(1, 0, 2).reshape(n, rl * rr)
    return np.linalg.svd(unfolding, full_matrices=False)[0][:, 0]


def _walk(cores, envs: FrameEnvCache, k: int, coeff, direction: int, mu: complex):
    """Single-pair frame transported from block mode k toward a boundary.

    Each hop moves the pair's unit coefficient tensor into the next mode in
    ``direction`` by an SVD split, while the traversed core joins the frame,
    which stays orthonormal; so the projected residual at every visited mode
    underestimates the true full-space residual. Yields (mode, unit
    coefficient, projected residual norm) after each hop.
    """
    left, right = envs.left[k], envs.right[k]
    v = coeff
    for pos in range(k, len(cores) - 1 if direction == +1 else 0, direction):
        nxt = pos + direction
        a, n, c = v.shape
        if direction == +1:
            chain_core, carry = svd_split(v.reshape(a * n, c), +1)
            left = envs.step(+1, left, pos, chain_core.reshape(a, n, -1))
            v = np.einsum("sc,cjt->sjt", carry, cores[nxt])
            right = envs.right[nxt]
        else:
            chain_core, carry = svd_split(v.reshape(a, n * c), -1)
            right = envs.step(-1, right, pos, chain_core.reshape(-1, n, c))
            v = np.einsum("xja,as->xjs", cores[nxt], carry)
            left = envs.left[nxt]
        nv = np.linalg.norm(v)
        if nv == 0:
            raise ValueError("transported coefficient vanished")
        v = v / nv
        zm, z0 = (
            env_apply(lt, op.cores[nxt], rt, v)
            for lt, op, rt in zip(left, envs.ops, right)
        )
        yield nxt, v, float(np.linalg.norm(zm - mu * z0))


def estimate_residual(
    state: SweepState, mu: complex, coeff: np.ndarray, direction: int
) -> float:
    """Projected residual of a Ritz pair in its own one-step-ahead frame.

    The pair's coefficient vector is normalized, transported one mode in
    ``direction`` through an exact (numerical-rank) SVD split, and the
    residual of the pencil projected on that single-pair frame is returned.
    It never exceeds the pair's full-space residual norm.
    """
    coeff = np.asarray(coeff)
    nv = np.linalg.norm(coeff)
    if nv == 0:
        raise ValueError("degenerate candidate vector")
    for _mode, _v, res in _walk(state.cores, state.envs, state.k, coeff / nv, direction, mu):
        return res
    raise IndexError("walked past the boundary")


def check_convergence(
    state: SweepState, mu: complex, coeff: np.ndarray, direction: int
) -> _Candidate:
    """Walk single-pair frames over all modes and admit the tuple if sound.

    Hops proceed in ``direction`` until the boundary, then restart from the
    block mode in the reverse direction. Any projected residual at or above
    eps1 aborts the walk. Once the walk completes, the tuple (the block
    mode's middle factor and the rank-one factor of each hop's coefficient)
    is refined by Rayleigh quotient iteration, tested against the full
    residual tolerance eps, dropped unless among the ``4 * block_size``
    closest to the target, screened for duplicates at xi, and inserted into
    the found list. Returns the pair's candidate record, built at the first
    hop; its ``outcome`` names the test that ended the walk (``WALK_OUTCOMES``).
    """
    prob, config, delta_0, k = state.prob, state.config, state.envs.ops[1], state.k
    unit = np.asarray(coeff) / np.linalg.norm(coeff)
    hops = chain(_walk(state.cores, state.envs, k, unit, direction, mu),
                 _walk(state.cores, state.envs, k, unit, -direction, mu))
    first = next(hops)  # make_state refuses m < 2, so every walk hops
    cand = _Candidate(mu, coeff, rank_one_factor(unit), est_residual=first[2], first_hop=first[1])
    kept = {}  # mode -> unit coefficient of each passing hop
    for pos, v, res in chain([first], hops):
        if res >= config.eps1:
            return cand
        kept[pos] = v
    vectors = [cand.middle if p == k else rank_one_factor(kept[p]) for p in range(prob.m)]
    cand.outcome = "trqi_failed"
    try:
        lam = tensor_rayleigh_quotient(prob, vectors)
    except SingularRayleighError:
        return cand
    t = trqi_refine(prob, EigenTuple.build(prob, lam, vectors))
    if not np.isfinite(t.residual_norm) or t.residual_norm >= config.eps:
        return cand
    cand.outcome = "keep_cut"
    keep = 4 * config.block_size
    if len(state.found) >= keep and abs(t.lam[-1]) >= abs(state.found[-1].lam[-1]):
        return cand
    cand.outcome = "duplicate"
    accept, _ratio = duplicate_check(t.vectors, state.found, delta_0, config.xi)
    if not accept:
        return cand
    t.left_vectors = left_eigenvector_tuple(prob, t)
    t.delta0_den = screen_denominator(t, delta_0)
    state.found.append(t)
    state.found.sort(key=lambda f: (abs(f.lam[-1]), f.lam[-1].real, f.lam[-1].imag))
    del state.found[keep:]
    cand.outcome = "admitted"
    return cand


# ---------------------------------------------------------------------------
# selection


def select_eigenpairs(state: SweepState, candidates: list[_Candidate]):
    """Pick the block's columns at mode ``state.k`` from the processed Ritz candidates.

    Converged candidates are never re-selected. Candidates whose current
    rank-one middle factor matches one of ``state.estimates`` (cosine above
    the config's threshold) come first, ordered by estimated residual; the
    remainder fill up by estimated residual, and random unit columns of the
    block core's local size, drawn from ``state.rng``, complete the block of
    ``block_size`` columns. A vector with no imaginary part at all (``vector``
    zeroes it for a real eigenvalue) takes one column, any other its real and
    imaginary parts; that pair's twin, conjugate to 1e-12 relative since LAPACK
    gives it its own beta, is consumed with it.
    """
    b, cos_threshold = state.config.block_size, state.config.cos_threshold
    priority = sorted(
        (c for c in candidates if not c.converged),
        key=lambda c: (
            not any(principal_cosine(c.middle, e) > cos_threshold for e in state.estimates),
            c.est_residual,
        ),
    )

    columns: list[np.ndarray] = []
    selected: list[_Candidate] = []
    consumed: set[int] = set()
    for c in priority:
        if len(columns) >= b:
            break
        vec = c.coeff.reshape(-1)
        parts = (vec.real, vec.imag) if np.any(vec.imag) else (vec.real,)
        if id(c) in consumed or len(columns) + len(parts) > b:
            continue
        columns.extend(parts)
        selected.append(c)
        if len(parts) == 2:
            # the twin's own beta makes its mu conj(mu) only to the last bits
            consumed.update(id(o) for o in priority
                            if abs(o.mu - np.conj(c.mu)) <= 1e-12 * (1 + abs(c.mu)))
    rl, n_k, _, rr = state.cores[state.k].shape
    while len(columns) < b:
        vec = state.rng.standard_normal(rl * n_k * rr)
        columns.append(vec / np.linalg.norm(vec))
    return np.stack(columns, axis=1), selected


# ---------------------------------------------------------------------------
# sweep driver


def init_iterate(sizes, config: SolverConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Cores of a random block iterate, block at mode 0, frame orthonormal."""
    sizes = tuple(int(n) for n in sizes)
    m = len(sizes)
    b = config.block_size
    # the block index rides on mode 0, so it widens that mode's unfoldings
    ranks = feasible_ranks((b * sizes[0], *sizes[1:]), [config.max_rank] * (m - 1))
    cores: list[np.ndarray] = [rng.standard_normal((1, sizes[0], b, ranks[1]))]
    for k in range(1, m):
        gauss = rng.standard_normal((sizes[k] * ranks[k + 1], ranks[k]))
        q, _ = np.linalg.qr(gauss)
        cores.append(q.T.reshape(ranks[k], sizes[k], ranks[k + 1]))
    return cores


def make_state(
    prob: MEProblem,
    delta_m: TTOperator,
    delta_0: TTOperator,
    config: SolverConfig,
) -> SweepState:
    if prob.m < 2:
        raise ValueError(f"the sweep solver needs m >= 2 parameters, got {prob.m}")
    rng = np.random.default_rng(config.seed)
    cores = init_iterate(prob.sizes, config, rng)
    envs = FrameEnvCache((delta_m, delta_0), cores, 0)
    return SweepState(prob=prob, config=config, cores=cores, k=0, envs=envs, rng=rng)


def ritz_pairs(pm: np.ndarray, p0: np.ndarray, count: int, rule: str):
    """Ritz pairs of the pencil (pm, p0), factored in place: returns a generator
    of ``select_ritz``'s (mu, unit vector) pairs, each vector built when drawn
    (after the caller has dropped the pencil), and ``select_ritz``'s ``padded``."""
    geig = generalized_eig(pm, p0, overwrite=True)
    indices, padded = select_ritz(geig, count, rule)
    vectors = ((i, geig.vector(i)) for i in indices)
    # vector(i) is unit already; dividing again moves the last bits, and the
    # solve's trajectory depends on them
    return ((geig.eigenvalues[i], v / np.linalg.norm(v)) for i, v in vectors), padded


def sweep_step(state: SweepState, direction: int) -> StepRecord:
    """One mode update: project, solve, select, write block, shift."""
    cores, k, config = state.cores, state.k, state.config
    delta_m, delta_0 = state.envs.ops
    b = config.block_size
    rl, n_k, _, rr = cores[k].shape
    dim = rl * n_k * rr
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    (lm, l0), (rm, r0) = state.envs.left[k], state.envs.right[k]
    pm = frame_project(cores, k, delta_m, envs=(lm, rm))
    p0 = frame_project(cores, k, delta_0, envs=(l0, r0))
    t_proj = time.perf_counter() - t0

    t0 = time.perf_counter()
    pairs, padded = ritz_pairs(pm, p0, 2 * b + len(state.found), config.ritz_rule)
    del pm, p0  # factored in place; the vectors are built only after this
    t_eig = time.perf_counter() - t0

    t0 = time.perf_counter()
    candidates = [check_convergence(state, mu, v.reshape(rl, n_k, rr), direction)
                  for mu, v in pairs]
    columns, selected = select_eigenpairs(state, candidates)
    t_sel = time.perf_counter() - t0

    t0 = time.perf_counter()
    cores[k] = np.ascontiguousarray(columns.reshape(rl, n_k, rr, b).transpose(0, 1, 3, 2))
    state.k = shift_block_core(
        cores, k, direction, config.max_rank, enrichment=config.kick, rng=state.rng
    )
    state.envs.refresh_after_shift(cores, k, state.k)
    state.estimates = [rank_one_factor(c.first_hop) for c in selected]
    t_upd = time.perf_counter() - t0

    return StepRecord(
        sweep=state.sweep,
        mode=k + 1,
        direction=direction,
        projected_size=dim,
        n_candidates=len(candidates),
        n_selected=len(selected),
        n_converged_new=sum(c.admitted for c in candidates),
        wall_ms=1e3 * (time.perf_counter() - t_start),
        phase_ms={
            "projection": 1e3 * t_proj,
            "eigensolve": 1e3 * t_eig,
            "select_converge": 1e3 * t_sel,
            "mode_update": 1e3 * t_upd,
        },
        ranks=[1, *(g.shape[-1] for g in cores)],
        padded=padded,
        outcomes={o: sum(c.outcome == o for c in candidates) for o in WALK_OUTCOMES},
    )


def solve(
    prob: MEProblem,
    target: float = 0.0,
    config: SolverConfig | None = None,
):
    """Find eigenvalue tuples with lambda_m closest to the target.

    The problem is shifted so the target sits at zero, swept until the
    sweep cap or until ``NO_PROGRESS_SWEEPS`` sweeps pass without a new
    tuple, and the found lambda_m values are shifted back. At most the
    ``4 * block_size`` tuples nearest the target are kept. The report's
    ``stop_reason`` says which of the two ended the loop: ``"sweep_cap"``
    or ``"no_progress"``. Returns (tuples sorted by |lambda_m - target|,
    report dict). Raises ``ValueError`` for a problem with m < 2.
    """
    config = config or SolverConfig()
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    if prob.m < 2:
        raise ValueError(f"the sweep solver needs m >= 2 parameters, got {prob.m}")
    work = apply_shift(prob, -target) if target != 0.0 else prob
    # the smaller rounded operator, Delta_0, is the one held while the other is built
    delta_0 = build_delta0(work, round_tol=config.delta_round_tol)
    delta_m = build_delta_i(work, work.m, round_tol=config.delta_round_tol)
    state = make_state(work, delta_m, delta_0, config)
    m = work.m
    records: list[StepRecord] = []
    last_progress_sweep = 0
    stop_reason = "sweep_cap"
    for sweep in range(1, config.sweeps + 1):
        state.sweep = sweep
        first_step = len(records)
        for direction, modes in ((+1, range(m - 1)), (-1, range(m - 1, 0, -1))):
            state.estimates.clear()  # estimates are one step ahead only
            for mode in modes:
                assert state.k == mode
                records.append(sweep_step(state, direction))
        if any(r.n_converged_new for r in records[first_step:]):
            last_progress_sweep = sweep
        if sweep - last_progress_sweep >= NO_PROGRESS_SWEEPS:
            stop_reason = "no_progress"
            break
    shift = np.zeros(m, dtype=complex)
    shift[m - 1] = target
    final = [replace(t, lam=t.lam + shift, delta0_den=None) for t in state.found]
    final.sort(key=lambda t: (abs(t.lam[-1] - target), t.lam[-1].real, t.lam[-1].imag))
    report = {
        "target": target,
        "config": asdict(config),
        "sweeps_run": state.sweep,
        "stop_reason": stop_reason,
        "delta_ranks": {"delta_m": list(delta_m.ranks), "delta_0": list(delta_0.ranks)},
        "steps": [asdict(r) for r in records],
        "tuples": [
            {
                "lambda": [[float(v.real), float(v.imag)] for v in t.lam],
                "residual": t.residual_norm,
                "flags": list(t.flags),
                "vectors_ref": i,
            }
            for i, t in enumerate(final)
        ],
    }
    return final, report
