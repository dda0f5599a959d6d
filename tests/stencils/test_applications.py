"""Application kernel library: construction + mathematical properties."""

import numpy as np
import pytest

from repro.core.api import ConvStencil
from repro.errors import KernelError
from repro.stencils.applications import application_kernels, get_application_kernel
from repro.stencils.reference import apply_stencil_reference


def test_library_listing():
    names = application_kernels()
    assert "laplace-2d-5p" in names
    assert len(names) >= 9


def test_unknown_name():
    with pytest.raises(KernelError):
        get_application_kernel("nonsense")


@pytest.mark.parametrize("name", list(application_kernels()))
def test_every_kernel_runs_through_convstencil(name, rng):
    kernel = get_application_kernel(name)
    shape = {1: (64,), 2: (24, 26), 3: (10, 11, 12)}[kernel.ndim]
    x = rng.random(shape)
    got = ConvStencil(kernel).run(x, steps=1)
    ref = apply_stencil_reference(x, kernel)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)


class TestDifferentialExactness:
    """FD operators must annihilate/reproduce polynomials exactly."""

    @staticmethod
    def _apply_interior(kernel, field):
        out = apply_stencil_reference(field, kernel)
        r = kernel.radius
        sl = tuple(slice(2 * r, -2 * r) for _ in range(field.ndim))
        return out[sl]

    def test_laplacians_kill_linear_fields(self, rng):
        yy, xx = np.mgrid[0:20, 0:22].astype(float)
        field = 3.0 * xx - 2.0 * yy + 7.0
        for name in ("laplace-2d-5p", "laplace-2d-9p-compact", "laplace-2d-13p"):
            kernel = get_application_kernel(name)
            interior = self._apply_interior(kernel, field)
            np.testing.assert_allclose(interior, 0.0, atol=1e-10, err_msg=name)

    def test_laplacians_on_quadratic(self):
        yy, xx = np.mgrid[0:20, 0:22].astype(float)
        field = xx**2 + yy**2  # ∇² = 4 everywhere
        for name in ("laplace-2d-5p", "laplace-2d-13p"):
            kernel = get_application_kernel(name)
            interior = self._apply_interior(kernel, field)
            np.testing.assert_allclose(interior, 4.0, rtol=1e-10, err_msg=name)

    def test_biharmonic_kills_cubics(self):
        yy, xx = np.mgrid[0:24, 0:24].astype(float)
        field = xx**3 - 2 * xx * yy**2 + yy**3
        kernel = get_application_kernel("biharmonic-2d-13p")
        interior = self._apply_interior(kernel, field)
        np.testing.assert_allclose(interior, 0.0, atol=1e-8)

    def test_gradient_measures_slope(self):
        yy, xx = np.mgrid[0:16, 0:16].astype(float)
        field = 5.0 * xx
        kernel = get_application_kernel("gradient-x-2d")
        interior = self._apply_interior(kernel, field)
        # Sobel is normalised to the unit-spacing derivative... along axis 1
        np.testing.assert_allclose(interior, 5.0, rtol=1e-10)

    def test_gaussian_preserves_constants(self):
        kernel = get_application_kernel("gaussian-3x3")
        field = np.full((12, 12), 3.5)
        interior = self._apply_interior(kernel, field)
        np.testing.assert_allclose(interior, 3.5, rtol=1e-12)

    def test_mehrstellen_3d_kills_linear(self):
        zz, yy, xx = np.mgrid[0:10, 0:10, 0:10].astype(float)
        field = xx + 2 * yy - zz
        kernel = get_application_kernel("mehrstellen-3d-19p")
        interior = self._apply_interior(kernel, field)
        np.testing.assert_allclose(interior, 0.0, atol=1e-10)

    def test_advection_transports(self, rng):
        """Upwind advection moves a pulse in +x with nu-weighted averaging."""
        kernel = get_application_kernel("advection-1d-upwind")
        x = np.zeros(60)
        x[20] = 1.0
        out = ConvStencil(kernel).run(x, steps=25)
        # centre of mass advects by nu * steps = 0.4 * 25 = 10 cells
        com = (np.arange(60) * out).sum() / out.sum()
        assert com == pytest.approx(30.0, abs=0.5)

    def test_conservation_properties(self):
        """Mass-conserving kernels have weights summing to 1; differential
        operators to 0."""
        sums = {
            "gaussian-3x3": 1.0,
            "advection-1d-upwind": 1.0,
            "laplace-2d-5p": 0.0,
            "laplace-2d-13p": 0.0,
            "biharmonic-2d-13p": 0.0,
            "gradient-x-2d": 0.0,
            "mehrstellen-3d-19p": 0.0,
        }
        for name, total in sums.items():
            k = get_application_kernel(name)
            assert np.isclose(k.weights.sum(), total, atol=1e-12), name
