"""Property tests on stencil algebra: linearity, fusion, bank analysis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.api import ConvStencil
from repro.gpu.banks import analyze_shared_request
from repro.gpu.coalescing import transactions_for_access
from repro.stencils.kernel import StencilKernel
from repro.stencils.reference import run_reference
from repro.utils.rng import default_rng

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64)


@settings(max_examples=20, deadline=None)
@given(
    w1=arrays(np.float64, (3,), elements=finite),
    w2=arrays(np.float64, (5,), elements=finite),
    w3=arrays(np.float64, (3,), elements=finite),
)
def test_composition_is_associative(w1, w2, w3):
    k1 = StencilKernel(name="a", weights=w1)
    k2 = StencilKernel(name="b", weights=w2)
    k3 = StencilKernel(name="c", weights=w3)
    left = k1.compose(k2).compose(k3)
    right = k1.compose(k2.compose(k3))
    np.testing.assert_allclose(left.weights, right.weights, rtol=1e-12, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=3),
    steps_extra=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_fused_execution_equals_stepped_periodic(depth, steps_extra, seed):
    kernel = StencilKernel.box(2, 1, weights=default_rng(seed).random(9))
    x = default_rng(seed + 1).random((20, 20))
    steps = depth * 2 + steps_extra
    fused = ConvStencil(kernel, fusion=depth).run(x, steps=steps, boundary="periodic")
    stepped = run_reference(x, kernel, steps, "periodic")
    np.testing.assert_allclose(fused, stepped, rtol=1e-9, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    words=st.lists(st.integers(min_value=0, max_value=4096), min_size=1, max_size=32)
)
def test_bank_replays_bounded(words):
    words = np.array(words)
    replays, conflicts = analyze_shared_request(words)
    assert 1 <= replays <= 32
    assert conflicts == replays - 1
    # replays never exceed the number of distinct words
    assert replays <= np.unique(words).size


@settings(max_examples=50, deadline=None)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=2**20), min_size=1, max_size=32
    ),
    elem=st.sampled_from([2, 4, 8]),
)
def test_transactions_bounded(addrs, elem):
    stats = transactions_for_access(np.array(addrs), elem)
    assert stats.ideal_transactions <= stats.transactions
    # each element touches at most two 128B segments
    assert stats.transactions <= 2 * len(addrs)
    assert stats.bytes_accessed == len(addrs) * elem


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    alpha=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_convstencil_linearity(seed, alpha):
    rng = default_rng(seed)
    kernel = StencilKernel.box(2, 1, weights=rng.random(9))
    cs = ConvStencil(kernel)
    x, y = rng.random((2, 14, 14))
    lhs = cs.run(alpha * x + y, steps=1)
    rhs = alpha * cs.run(x, steps=1) + cs.run(y, steps=1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
