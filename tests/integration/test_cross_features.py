"""Cross-feature integration: block configs feed codegen, application
kernels flow through every layer."""

import numpy as np
import pytest

from repro.codegen import generate_cuda_2d
from repro.core.api import ConvStencil
from repro.stencils.applications import get_application_kernel
from repro.stencils.catalog import get_kernel
from repro.stencils.initial_conditions import gaussian_pulse
from repro.stencils.reference import run_reference


class TestAutotuneToCodegen:
    def test_tuned_block_generates_valid_source(self):
        kernel = get_kernel("box-2d9p")
        block, depth = (64, 64), 3
        src, spec = generate_cuda_2d(kernel, block=block, fusion=depth)
        assert spec.block == block
        assert spec.fusion_depth == depth
        assert src.count("{") == src.count("}")
        assert spec.plan.fits()  # a feasible config yields a fitting plan


class TestApplicationsEverywhere:
    def test_application_kernel_batched(self):
        kernel = get_application_kernel("laplace-2d-5p")
        batch = np.stack([gaussian_pulse((20, 20), width=w) for w in (2.0, 4.0, 8.0)])
        got = ConvStencil(kernel).run_batch(batch, steps=1)
        for i in range(3):
            np.testing.assert_allclose(
                got[i], run_reference(batch[i], kernel, 1), rtol=1e-12, atol=1e-13
            )

    def test_codegen_for_custom_application_kernel(self):
        kernel = get_application_kernel("gaussian-3x3")
        src, spec = generate_cuda_2d(kernel, fusion=1)
        assert spec.edge == 3
        for w in kernel.weights.reshape(-1):
            assert repr(float(w)) in src


class TestInitialConditionPhysics:
    def test_plane_wave_preserved_by_gaussian_blur_shape(self):
        """Low-pass smoothing damps but does not displace a plane wave."""
        from repro.stencils.initial_conditions import plane_wave

        kernel = get_application_kernel("gaussian-3x3")
        wave = plane_wave((64, 16), wavelength=32.0)
        out = ConvStencil(kernel).run(wave, steps=4, boundary="periodic")
        # same zero crossings (no phase shift), reduced amplitude
        assert np.sign(out[8, 0]) == np.sign(wave[8, 0])
        assert np.abs(out).max() < np.abs(wave).max()

    def test_checkerboard_is_killed_by_diffusion(self):
        from repro.solvers import HeatSolver
        from repro.stencils.initial_conditions import checkerboard

        field = checkerboard((32, 32), tile=1)
        # note r = 0.25 is exactly marginal for the Nyquist mode
        # (amplification 1-8r = -1: the checkerboard flips forever);
        # r = 0.2 damps it by 0.6 per step
        out = HeatSolver(ndim=2, r=0.2).run(field, steps=10, boundary="periodic")
        assert np.abs(out).max() < 0.05 * np.abs(field).max()

    def test_checkerboard_marginal_mode_at_quarter(self):
        from repro.solvers import HeatSolver
        from repro.stencils.initial_conditions import checkerboard

        # the textbook edge case: at r = 1/4 the Nyquist eigenvalue is -1,
        # so the checkerboard oscillates with constant amplitude
        field = checkerboard((16, 16), tile=1)
        out = HeatSolver(ndim=2, r=0.25).run(field, steps=2, boundary="periodic")
        np.testing.assert_allclose(out, field, atol=1e-12)
