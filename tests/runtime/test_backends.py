"""Differential backend tests: serial and tiled must match reference bit for bit."""

import numpy as np
import pytest

from repro.core.api import PinnedStencil
from repro.errors import ReproError
from repro.runtime import (
    Backend,
    ReferenceBackend,
    SerialBackend,
    TiledBackend,
    get_backend,
    list_backends,
    plan_for,
    register_backend,
)
from repro.stencils.catalog import get_kernel
from repro.stencils.reference import run_reference
from repro.utils.rng import default_rng

SHAPES = {1: (301,), 2: (33, 37), 3: (11, 12, 13)}
STEPS = 3


@pytest.fixture(scope="module")
def tiled():
    """One multi-tile backend shared by the module (pool spin-up is slow)."""
    backend = TiledBackend(workers=2, min_rows_per_tile=2)
    yield backend
    backend.close()


@pytest.mark.parametrize("boundary", ["constant", "periodic"])
@pytest.mark.parametrize("fusion", [1, "auto"])
def test_backends_bit_identical(kernel_name, boundary, fusion, tiled):
    """Every kernel, both boundaries, fused and unfused: identical bits."""
    kernel = get_kernel(kernel_name)
    x = default_rng(11).random(SHAPES[kernel.ndim])
    outs = {
        name: PinnedStencil(kernel, "gemm", fusion=fusion, backend=backend).run(
            x, steps=STEPS, boundary=boundary
        )
        for name, backend in [
            ("reference", "reference"),
            ("serial", "serial"),
            ("tiled", tiled),
        ]
    }
    np.testing.assert_array_equal(outs["serial"], outs["reference"])
    np.testing.assert_array_equal(outs["tiled"], outs["reference"])
    if fusion == 1 or boundary == "periodic":
        # Unfused (or fused-periodic, where fusion is exact everywhere)
        # must also track the shifted-view ground truth numerically.
        np.testing.assert_allclose(
            outs["reference"],
            run_reference(x, kernel, STEPS, boundary),
            rtol=1e-10,
            atol=1e-12,
        )


def test_batch_bit_identical_across_backends(tiled):
    kernel = get_kernel("box-2d9p")
    batch = default_rng(5).random((5, 24, 26))
    outs = [
        PinnedStencil(kernel, "gemm", backend=b).run_batch(batch, steps=STEPS)
        for b in ("reference", "serial", tiled)
    ]
    np.testing.assert_array_equal(outs[1], outs[0])
    np.testing.assert_array_equal(outs[2], outs[0])


def test_batch_matches_per_grid(tiled):
    """The batched fast path equals running each grid alone."""
    kernel = get_kernel("heat-2d")
    batch = default_rng(6).random((4, 20, 21))
    cs = PinnedStencil(kernel, "gemm", backend=tiled)
    got = cs.run_batch(batch, steps=2)
    for i in range(batch.shape[0]):
        np.testing.assert_array_equal(got[i], cs.run(batch[i], steps=2))


@pytest.mark.parametrize("backend", list_backends())
def test_apply_pass_matches_apply_pass_batch(kernel_name, backend):
    """A run hands every ``gemm`` pass over through ``apply_pass_batch``;
    ``apply_pass``, one grid, must give the bits of a batch of one and of
    its grid in a stack of several (a backend's stacked path)."""
    kernel = get_kernel(kernel_name)
    pp = plan_for(kernel, SHAPES[kernel.ndim], fusion=1, strategy="gemm").fused_pass
    stack = default_rng(12).standard_normal((2,) + pp.padded_shape)
    engine = get_backend(backend)
    got = engine.apply_pass(pp, stack[0])
    one = engine.apply_pass_batch(pp, stack[:1])
    both = engine.apply_pass_batch(pp, stack)
    assert one.shape == (1,) + got.shape and both.shape == (2,) + got.shape
    assert got.tobytes() == one[0].tobytes() == both[0].tobytes()


class TestRegistry:
    def test_builtins_listed(self):
        names = list_backends()
        assert {"serial", "tiled", "reference"} <= set(names)
        assert names == sorted(names)

    def test_get_by_name_returns_singleton(self):
        assert get_backend("serial") is get_backend("serial")
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)

    def test_instance_passthrough(self):
        inst = SerialBackend()
        assert get_backend(inst) is inst

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="unknown backend"):
            get_backend("warp-drive")

    def test_register_custom_backend(self):
        class Doubling(SerialBackend):
            name = "doubling"

            def apply_pass(self, pp, padded):
                return 2.0 * super().apply_pass(pp, padded)

        register_backend("doubling", Doubling)
        try:
            kernel = get_kernel("heat-1d")
            x = default_rng(0).random(50)
            doubled = PinnedStencil(kernel, "gemm", backend="doubling").run(x, steps=1)
            plain = PinnedStencil(kernel, "gemm", backend="serial").run(x, steps=1)
            np.testing.assert_array_equal(doubled, 2.0 * plain)
            assert "doubling" in list_backends()
        finally:
            from repro.runtime import backends as backends_mod

            with backends_mod._registry_lock:
                backends_mod._factories.pop("doubling", None)
                backends_mod._instances.pop("doubling", None)

    def test_register_rejects_bad_name(self):
        with pytest.raises(ReproError):
            register_backend("", SerialBackend)

    def test_abstract_backend_not_instantiable(self):
        with pytest.raises(TypeError):
            Backend()
