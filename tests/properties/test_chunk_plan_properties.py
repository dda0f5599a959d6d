"""Property tests of the fragment chunk plan (the 266→268 enabler).

The chunk plan must tile the weight-matrix rows so that every row is
multiplied exactly once (overlap rows zeroed), no load ever reaches past
the matrix end, and the chunk count matches Eq. 13's ``⌈k²/4⌉``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.chunks import chunk_plan
from repro.core.simulated import _weight_fragments
from repro.utils.arrays import ceil_div
from repro.utils.rng import default_rng

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=64)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(min_value=1, max_value=200))
def test_chunk_plan_invariants(rows):
    plan = chunk_plan(rows)
    # Eq. 13: exactly ceil(rows/4) chunks (a single padded one below 4)
    assert len(plan) == max(1, ceil_div(rows, 4))
    covered = np.zeros(rows, dtype=int)
    for start, zero_prefix in plan:
        assert start >= 0
        if rows >= 4:
            assert start + 4 <= rows  # loads never overshoot the matrix
        live = range(start + zero_prefix, min(start + 4, rows))
        for r in live:
            covered[r] += 1
    # every row multiplied exactly once
    np.testing.assert_array_equal(covered, 1)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    g=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_fragment_chain_equals_full_product(rows, g, seed):
    """Multiplying chunk-by-chunk (with overlap zeroing) must equal the
    single full product for any operand."""
    rng = default_rng(seed)
    w = rng.standard_normal((rows, g))
    data = rng.standard_normal((8, max(rows, 4)))
    acc = np.zeros((8, 8))
    for start, frag in _weight_fragments(w):
        acc += data[:, start : start + 4] @ frag
    expected = np.zeros((8, 8))
    expected[:, :g] = data[:, :rows] @ w
    np.testing.assert_allclose(acc, expected, rtol=1e-10, atol=1e-10)
