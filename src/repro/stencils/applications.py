"""Application stencils beyond the paper's benchmark set.

The paper motivates ConvStencil with "various scientific and engineering
applications" (§1: fluid dynamics, earth modelling, weather simulation).
This module provides the classic discretisations those applications use —
each a plain :class:`StencilKernel`, so every engine, baseline, and model
in the package applies to them unchanged:

=====================  ======  =====  =======================================
name                   shape   pts    application
=====================  ======  =====  =======================================
laplace-2d-5p          star       5   Poisson/Laplace relaxation (2nd order)
laplace-2d-9p-compact  box        9   compact 4th-order Laplacian (Mehrstellen)
laplace-2d-13p         star      13   4th-order wide Laplacian (wave kernels)
biharmonic-2d-13p      custom    13   plate bending / thin-film (∇⁴)
gradient-x-2d          custom     6   Sobel-style x-derivative (imaging)
gaussian-3x3           box        9   separable Gaussian blur (σ≈0.85)
fdtd-ez-2d             star       5   FDTD E_z update curl term
advection-1d-upwind    star       3   first-order upwind transport
mehrstellen-3d-19p     custom    19   4th-order compact 3-D Laplacian
=====================  ======  =====  =======================================

Weights are the textbook finite-difference/imaging coefficients, recorded
with their usual normalisation; tests cross-check the differential ones
against polynomial exactness properties.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import KernelError
from repro.stencils.kernel import StencilKernel

__all__ = ["application_kernels", "get_application_kernel"]


def _laplace_5p() -> StencilKernel:
    # standard 2nd-order five-point Laplacian (unit grid spacing)
    return StencilKernel.star(
        2, 1, weights=[1.0, 1.0, -4.0, 1.0, 1.0], name="laplace-2d-5p"
    )


def _laplace_9p_compact() -> StencilKernel:
    # Mehrstellen 9-point compact Laplacian: (1/6) [1 4 1; 4 -20 4; 1 4 1]
    w = np.array([[1, 4, 1], [4, -20, 4], [1, 4, 1]], dtype=float) / 6.0
    return StencilKernel(name="laplace-2d-9p-compact", weights=w, shape_kind="box")


def _laplace_13p() -> StencilKernel:
    # 4th-order wide star: (1/12) [-1 16 -30 16 -1] along each axis
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    w = np.zeros((5, 5))
    w[2, :] += d2
    w[:, 2] += d2
    return StencilKernel(name="laplace-2d-13p", weights=w, shape_kind="star")


def _biharmonic_13p() -> StencilKernel:
    # 13-point biharmonic operator (∇⁴, 2nd-order accurate)
    w = np.zeros((5, 5))
    w[2, 2] = 20.0
    for dx, dy, v in [
        (1, 0, -8.0), (-1, 0, -8.0), (0, 1, -8.0), (0, -1, -8.0),
        (1, 1, 2.0), (1, -1, 2.0), (-1, 1, 2.0), (-1, -1, 2.0),
        (2, 0, 1.0), (-2, 0, 1.0), (0, 2, 1.0), (0, -2, 1.0),
    ]:
        w[2 + dx, 2 + dy] = v
    return StencilKernel(name="biharmonic-2d-13p", weights=w, shape_kind="custom")


def _gradient_x() -> StencilKernel:
    # Sobel x-derivative (imaging): [[-1 0 1], [-2 0 2], [-1 0 1]] / 8
    w = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float) / 8.0
    return StencilKernel(name="gradient-x-2d", weights=w, shape_kind="custom")


def _gaussian_3x3() -> StencilKernel:
    # separable binomial Gaussian: outer([1 2 1], [1 2 1]) / 16
    b = np.array([1.0, 2.0, 1.0])
    return StencilKernel(
        name="gaussian-3x3", weights=np.outer(b, b) / 16.0, shape_kind="box"
    )


def _fdtd_ez() -> StencilKernel:
    # E_z curl update term of 2-D FDTD (normalised Courant number 0.2)
    c = 0.2
    return StencilKernel.star(
        2, 1, weights=[-c, -c, 1.0, c, c], name="fdtd-ez-2d"
    )


def _advection_upwind() -> StencilKernel:
    # u_t + a u_x = 0, first-order upwind, a*dt/dx = 0.4
    nu = 0.4
    return StencilKernel.star(1, 1, weights=[nu, 1.0 - nu, 0.0], name="advection-1d-upwind")


def _mehrstellen_3d() -> StencilKernel:
    # 19-point compact 3-D Laplacian: centre -24, faces 2, edges 1 (× 1/6)
    w = np.zeros((3, 3, 3))
    w[1, 1, 1] = -24.0
    for axis in range(3):
        for off in (-1, 1):
            idx = [1, 1, 1]
            idx[axis] += off
            w[tuple(idx)] = 2.0
    for a in (-1, 1):
        for b in (-1, 1):
            w[1 + a, 1 + b, 1] = 1.0
            w[1 + a, 1, 1 + b] = 1.0
            w[1, 1 + a, 1 + b] = 1.0
    return StencilKernel(
        name="mehrstellen-3d-19p", weights=w / 6.0, shape_kind="custom"
    )


_FACTORIES = {
    "laplace-2d-5p": _laplace_5p,
    "laplace-2d-9p-compact": _laplace_9p_compact,
    "laplace-2d-13p": _laplace_13p,
    "biharmonic-2d-13p": _biharmonic_13p,
    "gradient-x-2d": _gradient_x,
    "gaussian-3x3": _gaussian_3x3,
    "fdtd-ez-2d": _fdtd_ez,
    "advection-1d-upwind": _advection_upwind,
    "mehrstellen-3d-19p": _mehrstellen_3d,
}


def application_kernels() -> Tuple[str, ...]:
    """Names of the application-kernel library."""
    return tuple(_FACTORIES)


def get_application_kernel(name: str) -> StencilKernel:
    """Instantiate an application kernel by name (case-insensitive)."""
    key = name.lower()
    if key not in _FACTORIES:
        raise KernelError(
            f"unknown application kernel {name!r}; available: {', '.join(_FACTORIES)}"
        )
    return _FACTORIES[key]()
