"""Row-tiled backend: one pass split into halo-overlapped slabs on threads.

Each slab of output rows is computed by the plan-free engines on its own
slice of the padded input (its rows plus a ``edge - 1`` halo), one slab
per thread; BLAS releases the GIL, so the GEMMs of different slabs can
overlap.  A run hands over every pass as a stack, and each grid of it is
split into slabs in turn (the base class's per-grid loop).

Nothing selects this backend by default.  The repository benchmark
times one pass of it per spot cell (``runtime.backend.tiled.*.pass_ms``
in ``BENCHMARK.json``), next to ``serial`` and ``compiled``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

import numpy as np

from repro.core.engine1d import convstencil_valid_1d
from repro.core.engine2d import convstencil_valid_2d
from repro.core.engine3d import convstencil_valid_3d
from repro.runtime.backends import SerialBackend, register_backend
from repro.runtime.plan import PassPlan

__all__ = ["TiledBackend"]

#: Below this many output rows per slab, thread overhead dominates and the
#: pass runs serially instead.
DEFAULT_MIN_ROWS_PER_TILE = 128

_ENGINES = {1: convstencil_valid_1d, 2: convstencil_valid_2d, 3: convstencil_valid_3d}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


class TiledBackend(SerialBackend):
    """Split axis 0 of each pass into slabs and run them on a thread pool.

    Parameters
    ----------
    workers:
        Slab (and thread) count; ``None`` means the CPUs this process may
        use.  With one worker every pass runs on the inherited serial path.
    min_rows_per_tile:
        Smallest slab worth a thread; thinner grids run serially.
    """

    name = "tiled"

    def __init__(
        self, workers: Optional[int] = None, min_rows_per_tile: Optional[int] = None
    ) -> None:
        if workers is None:
            workers = _usable_cpus()
        if min_rows_per_tile is None:
            min_rows_per_tile = DEFAULT_MIN_ROWS_PER_TILE
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if min_rows_per_tile < 1:
            raise ValueError(f"min_rows_per_tile must be >= 1, got {min_rows_per_tile}")
        self.workers = int(workers)
        self.min_rows_per_tile = int(min_rows_per_tile)

    def bounds(self, pp: PassPlan, extent: int) -> Tuple[Tuple[int, int], ...]:
        """``(lo, hi)`` slabs of ``extent`` output rows for one pass of ``pp``.

        1-D dual tessellation groups input columns in runs of ``edge + 1``;
        cutting on multiples of that width keeps each output's summation
        split, and so its bits, the same as on ``serial``.
        """
        align = pp.kernel.edge + 1 if pp.ndim == 1 else 1
        tiles = min(self.workers, extent // max(align, self.min_rows_per_tile))
        if tiles <= 1:
            return ((0, extent),)
        cuts = sorted({(extent * i // tiles) // align * align for i in range(1, tiles)} - {0})
        starts = [0] + cuts + [extent]
        return tuple(zip(starts[:-1], starts[1:]))

    def apply_pass(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        edge = pp.kernel.edge
        out_shape = tuple(s - edge + 1 for s in padded.shape)
        bounds = self.bounds(pp, out_shape[0])
        if len(bounds) <= 1:
            return super().apply_pass(pp, padded)
        engine = _ENGINES[pp.ndim]
        out = np.empty(out_shape, dtype=np.float64)

        def run_slab(lo: int, hi: int) -> None:
            out[lo:hi] = engine(padded[lo : hi + edge - 1], pp.kernel)

        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            for future in [pool.submit(run_slab, lo, hi) for lo, hi in bounds]:
                future.result()
        return out


register_backend("tiled", TiledBackend)
