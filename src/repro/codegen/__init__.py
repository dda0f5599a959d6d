"""Reference CUDA source generation.

The original ConvStencil is CUDA C++; this package emits equivalent
reference kernels — with the stencil2row lookup tables, triangular weight
matrices, conflict-free pitch, and dual-tessellation WMMA loop baked in
from this repository's verified Python implementations — so a user with an
actual A100 can take the generated ``.cu`` straight to ``nvcc``.

The sources are *generated artifacts*: they are structurally tested here
(constants match the Python planner, braces balance, every weight appears)
but not compiled in this GPU-less environment.

The package also hosts the runnable half of codegen: the plan-driven
Python specializer behind the ``compiled`` backend
(:mod:`repro.codegen.compiled`) and the target-independent spec
extraction both emitters share (:mod:`repro.codegen.specs`).
"""

from repro.codegen.compiled import (
    CompiledPass,
    clear_compiled_cache,
    compiled_entry,
    compiled_source,
    get_compiled_pass,
)
from repro.codegen.cuda import CudaKernelSpec, generate_cuda_1d, generate_cuda_2d
from repro.codegen.specs import GemmSpec, gemm_spec, gemm_spec_from_pass, weight_fragments

__all__ = [
    "CompiledPass",
    "CudaKernelSpec",
    "GemmSpec",
    "clear_compiled_cache",
    "compiled_entry",
    "compiled_source",
    "gemm_spec",
    "gemm_spec_from_pass",
    "generate_cuda_1d",
    "generate_cuda_2d",
    "get_compiled_pass",
    "weight_fragments",
]
