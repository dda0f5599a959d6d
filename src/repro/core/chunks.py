"""Fragment chunking of the k-dimension for m8n8k4 MMA chains (Eq. 13).

The dual-tessellation GEMMs contract over ``k`` (1-D) or ``k²`` (2-D)
weight rows, but an m8n8k4 Tensor Core fragment only covers 4 of them per
``mma_sync`` — so every emitter (the CUDA generator, the compiled Python
specializer, the hardware simulator) needs the same decomposition of the
contraction dimension into 4-row chunks.  The paper's trick (§3.3,
Figure 5) is that the final partial chunk *overlaps* the previous one
instead of reading past the matrix end: it re-reads the last 4 rows and
zeroes the already-accumulated prefix, which is exactly what lets the
266-column block matrices pad to 268 rather than a full fragment stride.

:func:`chunk_plan` is the single public source of that decomposition.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["chunk_plan"]


def chunk_plan(total_rows: int) -> List[Tuple[int, int]]:
    """k-dimension chunking of a weight matrix into 4-row fragments.

    Returns ``(start, zero_prefix)`` pairs.  When ``total_rows`` is not a
    multiple of 4 (and at least 4), the final chunk *overlaps* the
    previous one — it re-reads the last 4 rows and zeroes the
    already-accumulated prefix — instead of reading past the matrix end.
    ``len(chunk_plan(rows))`` is the per-matrix ``mma_sync`` count, i.e.
    Eq. 13's ``ceil(k²/4)`` for a 2-D kernel of edge ``k``.
    """
    if total_rows < 4:
        return [(0, 0)]  # single zero-padded chunk (1-D kernels with k < 4)
    starts = list(range(0, total_rows - 3, 4))
    if total_rows % 4 != 0:
        overlap_start = total_rows - 4
        starts.append(overlap_start)
        plan = [(s, 0) for s in starts[:-1]]
        prev_end = starts[-2] + 4
        plan.append((overlap_start, prev_end - overlap_start))
        return plan
    return [(s, 0) for s in starts]
