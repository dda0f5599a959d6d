"""Pluggable execution backends for the ConvStencil runtime.

A backend is the engine that runs a *pinned* dual-tessellation (``gemm``)
pass.  The execution strategy of each pass is chosen in the plan
(:func:`~repro.runtime.plan.choose_strategy`), and the rule never picks
``gemm``, so only the caller that pins a pass chooses its backend:
:class:`~repro.core.api.PinnedStencil`, ``execute``/``execute_batch``/
``execute_pass(backend=)``, ``repro verify --backend`` and the benchmark
sweep.  There is no process-wide switch; ``None`` means ``serial``.

* :class:`Backend` — the protocol: apply one plan-described pass to a
  halo-padded array (and, optionally, to a batch of them);
* :class:`SerialBackend` — the vectorised engines, plan-driven so no
  per-pass LUT/weight rebuilds occur (name ``"serial"``, the default);
* :class:`ReferenceBackend` — the same engines invoked plan-free in the
  plainest straight-line way: the ground truth optimised backends must
  match **bit for bit** (name ``"reference"``);
* :mod:`repro.runtime.compiled` registers ``"compiled"`` — shape-pinned
  generated kernels.

Custom backends register via :func:`register_backend`; anything accepting
a plan-described pass can slot in (a GPU runtime, an out-of-core
executor, a remote pool)::

    from repro.core.api import PinnedStencil
    from repro.runtime import Backend, register_backend

    class MyBackend(Backend):
        name = "mine"
        def apply_pass(self, pp, padded):
            ...

    register_backend("mine", MyBackend)
    PinnedStencil(kernel, "gemm", backend="mine").run(grid, steps=4)

A run hands a backend only its ``gemm`` passes, always as a stack
through :meth:`Backend.apply_pass_batch` (a single grid is a stack of
one); :meth:`Backend.apply_pass` takes one grid.  Passes whose plan
carries the ``direct`` or ``toeplitz`` strategy — all the strategy rule
picks — run in the pass sequencer (:mod:`repro.runtime.execute`),
whatever the backend.  Such a pass can still reach a backend when a
caller hands it over explicitly, as the benchmark sweep does to time
every engine on the same pass; it carries no GEMM tables until
:meth:`~repro.runtime.plan.PassPlan.ensure_tables` builds them, so a
backend that reads the tables calls it first.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Dict, List, Union

import numpy as np

from repro.core.engine1d import convstencil_valid_1d
from repro.core.engine2d import convstencil_valid_2d, convstencil_valid_2d_batched
from repro.core.engine3d import convstencil_valid_3d
from repro.errors import ReproError
from repro.runtime.plan import PassPlan

__all__ = [
    "Backend",
    "ReferenceBackend",
    "SerialBackend",
    "get_backend",
    "list_backends",
    "register_backend",
]


def _empty_batch_result(pp: PassPlan, padded: np.ndarray) -> np.ndarray:
    """The well-defined result of a pass over zero grids: an empty float64
    stack with the valid-region spatial shape."""
    valid = tuple(s - pp.kernel.edge + 1 for s in padded.shape[1:])
    return np.empty((0,) + valid, dtype=np.float64)


class Backend(abc.ABC):
    """One way to execute plan-described dual-tessellation passes.

    Implementations are stateless with respect to grid data: all
    shape-derived state lives in the :class:`~repro.runtime.plan.PassPlan`,
    so one backend instance serves any number of concurrent runs.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def apply_pass(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        """One valid-region pass over an already halo-padded array."""

    def apply_pass_batch(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        """One pass over a batch of padded grids (leading batch axis).

        This is what a run calls for every ``gemm`` pass; a single grid
        arrives as a batch of one.  The default loops :meth:`apply_pass`
        per grid (one grid needs no stacking); backends with a faster
        ensemble path (one stacked GEMM across the stack) override this.
        An empty batch short-circuits to an empty result rather than
        surfacing a raw ``np.stack`` error.
        """
        if padded.shape[0] == 1:
            return self.apply_pass(pp, padded[0])[None]
        if padded.shape[0] == 0:
            return _empty_batch_result(pp, padded)
        return np.stack([self.apply_pass(pp, grid) for grid in padded])

    def close(self) -> None:
        """Release backend resources (the built-ins hold none)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class SerialBackend(Backend):
    """Plan-driven single-process execution through the vectorised engines.

    Receives every shape-invariant table (gather LUTs, weight matrices,
    plane decompositions) from the plan, so the per-pass work is exactly
    the gathers and GEMMs — the §3.4 precompute-once discipline applied
    to the Python engines.
    """

    name = "serial"

    def apply_pass(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        pp = pp.ensure_tables()
        if pp.ndim == 1:
            return convstencil_valid_1d(
                padded, pp.kernel, offsets=pp.offsets, weights=pp.weights
            )
        if pp.ndim == 2:
            return convstencil_valid_2d(
                padded, pp.kernel, offsets=pp.offsets, weights=pp.weights
            )
        return convstencil_valid_3d(
            padded,
            pp.kernel,
            planes=list(pp.planes) if pp.planes is not None else None,
            offsets=pp.offsets,
            weights_by_plane=pp.weights_by_plane,
        )

    def apply_pass_batch(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        if pp.ndim == 2 and len(padded) and type(self).apply_pass is SerialBackend.apply_pass:
            # Ensemble fast path: one stacked-GEMM sweep covers the whole
            # batch.  A subclass that overrides apply_pass gets it per grid.
            pp = pp.ensure_tables()
            return convstencil_valid_2d_batched(
                padded, pp.kernel, offsets=pp.offsets, weights=pp.weights
            )
        return super().apply_pass_batch(pp, padded)


class ReferenceBackend(Backend):
    """Ground-truth executor for differential testing.

    Runs the engines plan-free and straight-line — exactly the pre-runtime
    code path, with every table rebuilt from the kernel on the spot.  The
    optimised backends (``serial``, ``compiled``) must reproduce its output
    bit for bit for every catalogued kernel; the differential suite in
    ``tests/runtime/test_backends.py`` enforces that.
    """

    name = "reference"

    def apply_pass(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        if pp.ndim == 1:
            return convstencil_valid_1d(padded, pp.kernel)
        if pp.ndim == 2:
            return convstencil_valid_2d(padded, pp.kernel)
        return convstencil_valid_3d(padded, pp.kernel)

    def apply_pass_batch(self, pp: PassPlan, padded: np.ndarray) -> np.ndarray:
        if pp.ndim == 2 and len(padded) and type(self).apply_pass is ReferenceBackend.apply_pass:
            return convstencil_valid_2d_batched(padded, pp.kernel)
        return super().apply_pass_batch(pp, padded)


_registry_lock = threading.Lock()
_factories: Dict[str, Callable[[], Backend]] = {}
_instances: Dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory`` is called lazily, once, on first :func:`get_backend`; the
    instance is then shared process-wide (backends are stateless w.r.t.
    grid data, see :class:`Backend`).
    """
    if not name or not isinstance(name, str):
        raise ReproError(f"backend name must be a non-empty string, got {name!r}")
    with _registry_lock:
        _factories[name] = factory
        _instances.pop(name, None)


def list_backends() -> List[str]:
    """Sorted names of every registered backend."""
    with _registry_lock:
        return sorted(_factories)


def get_backend(backend: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves the default, ``"serial"``.
    """
    if isinstance(backend, Backend):
        return backend
    name = backend if backend is not None else "serial"
    with _registry_lock:
        instance = _instances.get(name)
        if instance is None:
            factory = _factories.get(name)
            if factory is None:
                known = ", ".join(sorted(_factories))
                raise ReproError(f"unknown backend {name!r} (registered: {known})")
            instance = _instances[name] = factory()
    return instance


register_backend("serial", SerialBackend)
register_backend("reference", ReferenceBackend)
