"""ConvStencil core: layout transformation, compute adaptation, conflict removal."""

from repro.core.api import ConvStencil, convstencil_valid
from repro.core.chunks import chunk_plan
from repro.core.engine1d import convstencil_valid_1d
from repro.core.engine2d import convstencil_valid_2d
from repro.core.engine3d import convstencil_valid_3d, plane_decomposition
from repro.core.fusion import FusionPlan, fused_edge, plan_fusion, recommended_depth
from repro.core.im2row import (
    im2row_expansion_factor,
    im2row_matrix_1d,
    im2row_matrix_2d,
    im2row_shape,
    im2row_stencil_1d,
    im2row_stencil_2d,
)
from repro.core.stencil2row import (
    Stencil2RowLayout,
    memory_saving_vs_im2row,
    stencil2row_a_index,
    stencil2row_b_index,
    stencil2row_expansion_factor,
    stencil2row_matrices_1d,
    stencil2row_matrices_2d,
    stencil2row_shape,
    stencil2row_views_2d,
)
from repro.core.weights import (
    weight_blocks_2d,
    weight_matrices_1d,
    weight_matrices_2d,
    weight_matrix_a_1d,
    weight_matrix_b_1d,
)

__all__ = [
    "ConvStencil",
    "FusionPlan",
    "Stencil2RowLayout",
    "chunk_plan",
    "convstencil_valid",
    "convstencil_valid_1d",
    "convstencil_valid_2d",
    "convstencil_valid_3d",
    "fused_edge",
    "im2row_expansion_factor",
    "im2row_matrix_1d",
    "im2row_matrix_2d",
    "im2row_shape",
    "im2row_stencil_1d",
    "im2row_stencil_2d",
    "memory_saving_vs_im2row",
    "plan_fusion",
    "plane_decomposition",
    "recommended_depth",
    "stencil2row_a_index",
    "stencil2row_b_index",
    "stencil2row_expansion_factor",
    "stencil2row_matrices_1d",
    "stencil2row_matrices_2d",
    "stencil2row_shape",
    "stencil2row_views_2d",
    "weight_blocks_2d",
    "weight_matrices_1d",
    "weight_matrices_2d",
    "weight_matrix_a_1d",
    "weight_matrix_b_1d",
]
