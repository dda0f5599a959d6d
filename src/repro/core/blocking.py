"""Thread-block planning: tiles, shared-memory budget, and occupancy.

The paper executes ConvStencil with 32×64 thread-block tiles (Table 4).
Each block stages the stencil2row matrices of its input tile in shared
memory; this module derives, from first principles, the quantities that
planning involves:

* the input tile a block must read (output tile + kernel halo);
* the shared-memory geometry of its two stencil2row matrices — for the
  paper's 32×64 block with a 7-edge kernel this is exactly the **266-column
  row padded to 268** that Figure 5 uses as its worked example;
* whether the allocation fits the A100's 164 KiB per SM (§2.3), how many
  blocks co-reside per SM, and how many *waves* the grid needs — the
  occupancy mechanics behind the Figure-8 small-grid behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.padding import PaddingPlan, plan_padding
from repro.errors import TessellationError
from repro.gpu.specs import A100, DeviceSpec
from repro.stencils.kernel import StencilKernel
from repro.telemetry.log import get_logger
from repro.utils.arrays import ceil_div

__all__ = ["BlockPlan", "plan_blocks_1d", "plan_blocks_2d"]

_log = get_logger("core.blocking")

#: Output tile per thread block, from the paper's Table 4 (2-D kernels).
DEFAULT_BLOCK_2D = (32, 64)
#: 1-D benchmarks use 1024-point blocks (Table 4).
DEFAULT_BLOCK_1D = 1024


@dataclass(frozen=True)
class BlockPlan:
    """Resolved block decomposition of one ConvStencil problem."""

    #: Valid output extents of the whole problem.
    out_shape: Tuple[int, ...]
    #: Output tile computed per block.
    block_shape: Tuple[int, ...]
    #: Input tile (output tile + halo) each block stages.
    input_tile: Tuple[int, ...]
    #: stencil2row geometry per block: (rows incl. band padding, live cols).
    s2r_rows: int
    s2r_cols: int
    #: Shared-memory padding plan (pitch, dirty slot) for each matrix row.
    padding: PaddingPlan
    #: Total blocks in the launch grid.
    blocks: int

    @property
    def pitch(self) -> int:
        """Row pitch of the block's stencil2row matrices (FP64 elements)."""
        return self.padding.pitch

    @property
    def shared_bytes(self) -> int:
        """Shared memory per block: two pitched stencil2row matrices."""
        return 2 * self.s2r_rows * self.pitch * 8

    def fits(self, spec: DeviceSpec = A100) -> bool:
        """Whether one block's staging fits the SM's shared memory."""
        return self.shared_bytes <= spec.shared_mem_per_sm

    def blocks_per_sm(self, spec: DeviceSpec = A100) -> int:
        """Co-resident blocks per SM, limited by shared memory."""
        if not self.fits(spec):
            return 0
        return spec.shared_mem_per_sm // self.shared_bytes

    def waves(self, spec: DeviceSpec = A100) -> int:
        """Launch waves needed to run all blocks."""
        per_wave = self.blocks_per_sm(spec) * spec.sm_count
        if per_wave == 0:
            raise TessellationError(
                f"block needs {self.shared_bytes} B shared memory, exceeding "
                f"{spec.shared_mem_per_sm} B per SM; shrink the block tile"
            )
        return ceil_div(self.blocks, per_wave)

    def occupancy(self, spec: DeviceSpec = A100) -> float:
        """Fraction of the last-wave-quantised capacity actually used.

        1.0 when the grid fills every wave exactly; small grids that leave
        most SMs idle score proportionally lower — the first-principles
        version of the saturation factor the throughput model calibrates.
        """
        per_wave = self.blocks_per_sm(spec) * spec.sm_count
        if per_wave == 0:
            return 0.0
        return self.blocks / (self.waves(spec) * per_wave)


def plan_blocks_2d(
    out_shape: Tuple[int, int],
    kernel: StencilKernel,
    block: Tuple[int, int] = DEFAULT_BLOCK_2D,
    padding: bool = True,
    dirty_bits: bool = True,
) -> BlockPlan:
    """Plan the 2-D block decomposition (paper default: 32×64 tiles).

    The block's stencil2row matrices cover its input tile
    ``(bx + k - 1, by + k - 1)``: ``ceil((by + k - 1)/(k+1))`` row groups
    (padded to whole 8-row bands) of ``k · (bx + k - 1)`` elements.
    """
    if kernel.ndim != 2:
        raise TessellationError("plan_blocks_2d requires a 2-D kernel")
    bx, by = block
    if bx < 1 or by < 1:
        raise TessellationError(f"invalid block tile {block}")
    k, g = kernel.edge, kernel.edge + 1
    tile_m, tile_n = bx + k - 1, by + k - 1
    s2r_groups = ceil_div(tile_n, g)
    s2r_rows = ceil_div(s2r_groups, 8) * 8
    s2r_cols = k * tile_m
    # the final fragment chunk overlaps rather than overshooting
    # (core.chunks.chunk_plan), so only the live width needs padding
    pad = plan_padding(s2r_cols, padding, dirty_bits)
    blocks = ceil_div(out_shape[0], bx) * ceil_div(out_shape[1], by)
    _log.debug(
        "block plan 2d: %s out=%s tile=%dx%d input=%dx%d s2r=%dx%d pitch=%d "
        "blocks=%d shared=%dB",
        kernel.name, out_shape, bx, by, tile_m, tile_n, s2r_rows, s2r_cols,
        pad.pitch, blocks, 2 * s2r_rows * pad.pitch * 8,
    )
    return BlockPlan(
        out_shape=tuple(out_shape),
        block_shape=(bx, by),
        input_tile=(tile_m, tile_n),
        s2r_rows=s2r_rows,
        s2r_cols=s2r_cols,
        padding=pad,
        blocks=blocks,
    )


def plan_blocks_1d(
    out_length: int,
    kernel: StencilKernel,
    block: int = DEFAULT_BLOCK_1D,
    padding: bool = True,
    dirty_bits: bool = True,
) -> BlockPlan:
    """Plan the 1-D block decomposition (paper default: 1024-point blocks)."""
    if kernel.ndim != 1:
        raise TessellationError("plan_blocks_1d requires a 1-D kernel")
    if block < 1:
        raise TessellationError(f"invalid block length {block}")
    k, g = kernel.edge, kernel.edge + 1
    tile = block + k - 1
    s2r_groups = ceil_div(tile, g)
    s2r_rows = ceil_div(s2r_groups, 8) * 8
    overshoot = 4 - k if k < 4 else 0
    pad = plan_padding(k + overshoot, padding, dirty_bits)
    _log.debug(
        "block plan 1d: %s out=%d tile=%d s2r=%dx%d pitch=%d blocks=%d",
        kernel.name, out_length, tile, s2r_rows, k, pad.pitch,
        ceil_div(out_length, block),
    )
    return BlockPlan(
        out_shape=(out_length,),
        block_shape=(block,),
        input_tile=(tile,),
        s2r_rows=s2r_rows,
        s2r_cols=k,
        padding=pad,
        blocks=ceil_div(out_length, block),
    )
