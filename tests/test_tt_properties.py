"""Property tests of the train-format invariants: the rounding error bound,
frame orthonormality under block shifts, and exact serialization."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttmep.tt_core import (
    TTOperator,
    TTVector,
    shift_block_core,
    tt_from_json,
    tt_to_json,
)

from tt_helpers import (
    densify,
    densify_frame,
    orthonormal_block,
    random_tt,
    tt_round,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
orders = st.integers(2, 4)


@st.composite
def trains(draw):
    """A random train, real or complex, with one core possibly strided."""
    m = draw(orders)
    sizes = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    ranks = draw(st.lists(st.integers(1, 5), min_size=m - 1, max_size=m - 1))
    rng = np.random.default_rng(draw(seeds))
    cores = random_tt(rng, sizes, ranks).cores
    if draw(st.booleans()):
        cores = [g + 1j * rng.standard_normal(g.shape) for g in cores]
    k = draw(st.integers(0, m - 1))
    if draw(st.booleans()):  # the layout np.einsum(optimize=True) may return
        cores[k] = np.ascontiguousarray(cores[k].transpose(2, 1, 0)).transpose(2, 1, 0)
    return TTVector(cores)


@PROPERTY_SETTINGS
@given(v=trains(), tol=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.3]))
def test_round_error_is_within_tol_and_the_input_is_untouched(v, tol):
    before = [(g.tobytes(), g.strides) for g in v.cores]
    ref = densify(v)
    w = tt_round(v, tol)
    assert [(g.tobytes(), g.strides) for g in v.cores] == before
    assert not any(np.shares_memory(g, h) for g in w.cores for h in v.cores)
    assert all(rw <= rv for rw, rv in zip(w.ranks, v.ranks))
    # Oseledets (SISC 2011): tol/sqrt(m-1) per truncation bounds the
    # error by tol * ||v||; the slack covers the rounding of densify
    norm = np.linalg.norm(ref)
    assert np.linalg.norm(densify(w) - ref) <= tol * norm + 1e-12 * norm


@st.composite
def block_shifts(draw):
    """An orthonormal block frame and a feasible shift of its block core."""
    m = draw(orders)
    sizes = draw(st.lists(st.integers(2, 4), min_size=m, max_size=m))
    ranks = draw(st.lists(st.integers(1, 4), min_size=m - 1, max_size=m - 1))
    index = draw(st.integers(0, m - 1))
    direction = draw(st.sampled_from([d for d in (+1, -1) if 0 <= index + d < m]))
    b = draw(st.integers(1, 3))
    return sizes, ranks, index, direction, b, draw(seeds)


def _frame_gram_error(cores, k) -> float:
    f = densify_frame(cores, k)
    return float(np.abs(f.T @ f - np.eye(f.shape[1])).max())


@PROPERTY_SETTINGS
@given(case=block_shifts(), target_rank=st.integers(1, 5), enrichment=st.integers(0, 2))
def test_shift_keeps_the_frame_orthonormal(case, target_rank, enrichment):
    sizes, ranks, index, direction, b, seed = case
    rng = np.random.default_rng(seed)
    cores, k = orthonormal_block(rng, sizes, b, ranks, index=index)
    assert _frame_gram_error(cores, k) <= 1e-12
    k = shift_block_core(cores, k, direction, target_rank, enrichment=enrichment,
                         rng=rng if enrichment else None)
    assert k == index + direction
    assert _frame_gram_error(cores, k) <= 1e-12
    # and back, so every frame is checked in both directions
    k = shift_block_core(cores, k, -direction, target_rank, enrichment=enrichment,
                         rng=rng if enrichment else None)
    assert k == index
    assert _frame_gram_error(cores, k) <= 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def serializable(draw):
    """A vector or operator train holding arbitrary finite float64 values."""
    m = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    full = [1] + draw(st.lists(st.integers(1, 3), min_size=m - 1, max_size=m - 1)) + [1]
    operator = draw(st.booleans())
    shapes = [
        (full[k], n, n, full[k + 1]) if operator else (full[k], n, full[k + 1])
        for k, n in enumerate(sizes)
    ]
    cores = [draw(arrays(np.float64, shape, elements=finite)) for shape in shapes]
    return TTOperator(cores) if operator else TTVector(cores)


def _same_train(a, b) -> bool:
    return type(a) is type(b) and len(a.cores) == len(b.cores) and all(
        g.shape == h.shape and g.dtype == h.dtype and g.tobytes() == h.tobytes()
        for g, h in zip(a.cores, b.cores)
    )


@PROPERTY_SETTINGS
@given(t=serializable())
def test_json_round_trip_is_exact(t):
    # bytes compare -0.0 apart from 0.0, so the round trip is exact
    assert _same_train(tt_from_json(json.loads(json.dumps(tt_to_json(t)))), t)
