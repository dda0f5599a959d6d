"""Property tests crossing execution paths: simulated vs vectorised vs
blocked — all must agree for arbitrary kernels/shapes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.api import ConvStencil
from repro.core.blocked import run_simulated_2d_blocked
from repro.core.simulated import run_simulated_2d
from repro.stencils.kernel import StencilKernel
from repro.utils.rng import default_rng

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=64)


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=8, max_value=22),
    n=st.integers(min_value=8, max_value=26),
)
def test_simulated_equals_vectorised(data, m, n):
    """Tile-by-tile fragment execution == batched einsum, always."""
    w = data.draw(arrays(np.float64, (3, 3), elements=finite))
    kernel = StencilKernel(name="p", weights=w)
    x = data.draw(arrays(np.float64, (m, n), elements=finite))
    sim_out = run_simulated_2d(x, kernel).output
    vec_out = ConvStencil(kernel).apply_valid(x)
    np.testing.assert_allclose(sim_out, vec_out, rtol=1e-10, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(
    bx=st.integers(min_value=4, max_value=16),
    by=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_blocked_equals_unblocked_any_block(bx, by, seed):
    """The blocked launch is numerically invariant to the block tile.

    Blocks whose width is not a multiple of the group width shift the
    stencil2row group boundaries, reassociating the FP64 sums — so the
    guarantee is reassociation-level, not bit-level, for arbitrary tiles.
    """
    kernel = StencilKernel.box(2, 1, weights=default_rng(seed).random(9))
    x = default_rng(seed + 1).random((26, 30))
    blocked = run_simulated_2d_blocked(x, kernel, block=(bx, by)).output
    unblocked = run_simulated_2d(x, kernel).output
    np.testing.assert_allclose(blocked, unblocked, rtol=1e-12, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_counters_always_consistent(seed):
    """Simulator invariants: non-negative counts, conflicts <= replay bound,
    useful fragment columns <= total."""
    rng = default_rng(seed)
    kernel = StencilKernel.box(2, 1, weights=rng.random(9))
    x = rng.random((12 + seed % 6, 14 + seed % 5))
    c = run_simulated_2d(x, kernel).counters
    for name, value in vars(c).items():
        assert value >= 0, name
    assert c.fragment_columns_useful <= c.fragment_columns_total
    assert c.shared_load_conflicts <= 31 * c.shared_load_requests
    assert c.ideal_global_transactions <= c.global_transactions
