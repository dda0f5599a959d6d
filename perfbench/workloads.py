"""Seeded inputs and measurement loops for the three benchmark workloads.

Every input is a pure function of the seed (and of ``tiny``, which shrinks
sizes for the smoke test), so one seed yields bit-identical arrays, problem
streams and arrival schedules across runs.  The program only ever receives
arrays and :class:`repro.Request` objects built from them.

Each workload object has the same life cycle: ``setup()`` (construction
and warm-up, the ``setup_s`` interval), ``measure(seconds)`` (one timed
phase; outputs are checked after each timed call, outside its interval)
and ``close()``.  ``measure`` may be called more than once: the traced
run measures an untraced phase and a traced phase on one set-up.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import (
    BoundaryCondition,
    ConvStencil,
    Request,
    ServeConfig,
    StencilService,
    get_kernel,
)
from repro.stencils.reference import run_reference
from repro.verify.differential import DEFAULT_TIGHT_ULP, max_ulp

clock = time.perf_counter

#: Consecutive windows a phase's samples are split into for medians.
WINDOWS = 5

#: The ROADMAP spot cells: (kernel, grid shape, steps).
SOLVE_CELLS = (
    ("heat-1d", (262144,), 8),
    ("heat-2d", (384, 384), 8),
    ("box-2d25p", (256, 256), 4),
    ("star-2d13p", (256, 256), 4),
    ("box-2d49p", (192, 192), 4),
    ("heat-3d", (48, 48, 48), 4),
)
TINY_SOLVE_CELLS = (
    ("heat-1d", (4096,), 2),
    ("heat-2d", (48, 48), 2),
    ("box-2d25p", (40, 40), 1),
    ("star-2d13p", (40, 40), 1),
    ("box-2d49p", (40, 40), 1),
    ("heat-3d", (12, 12, 12), 1),
)

CHURN_KERNELS = (
    "heat-2d", "box-2d9p", "star-2d9p", "box-2d25p", "star-2d13p", "box-2d49p",
    "heat-3d", "box-3d27p",
)
CHURN_FUSIONS = (1, "auto")
CHURN_BOUNDARIES = ("constant", "periodic")
#: Shapes per (kernel, fusion, boundary) combination: 8 × 2 × 2 × 16 = 512
#: distinct plan keys, eight times the plan cache's 64 slots.
CHURN_SHAPES_PER_COMBO = 16
#: Stream problems run untimed in set-up so the plan cache starts full.
CHURN_WARMUP = 64

#: Open-loop arrival rate (requests/s): about half the rate at which the
#: default-config service's latency starts to climb on a shared 2-core
#: machine in its slow periods.  In a quiet period the backlog grows only
#: from ~400 req/s, but when other tenants load the host p50 and p95
#: already climb at 50 req/s and nearly double at 100 req/s; at 25 req/s
#: they stay at their floor.
SERVE_RATE = 25.0
SERVE_TENANTS = 4
SERVE_KERNELS = ("heat-2d", "box-2d9p")
SERVE_STEPS = (2, 4)
#: Distinct request grids; requests draw one by index.
SERVE_POOL = 32
#: Period of the direct-floor samples taken during a serve phase.
DIRECT_PERIOD_S = 0.05


class Tally:
    """Calls attempted and failed; a failure is a raise, a rejection or a
    wrong output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def _timed(fn: Callable[[], np.ndarray]) -> Tuple[np.ndarray, float]:
    t0 = clock()
    out = fn()
    return out, clock() - t0


def _paired(call, direct, call_first: bool):
    """Time ``call`` and ``direct`` back to back, alternating which runs
    first so neither always inherits the other's warm caches."""
    if call_first:
        out, t_call = _timed(call)
        ref, t_direct = _timed(direct)
    else:
        ref, t_direct = _timed(direct)
        out, t_call = _timed(call)
    return out, t_call, ref, t_direct


def _digest(array: np.ndarray) -> bytes:
    """Content hash standing in for an array kept only to compare bits."""
    return hashlib.blake2b(array.tobytes(), digest_size=16).digest() + repr(
        (array.dtype.str, array.shape)
    ).encode()


def _pct(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _windowed(summarise, *series) -> Dict[str, float]:
    """Each metric ``summarise`` computes, as its median over ``WINDOWS``
    consecutive windows of the samples.

    ``series`` are aligned per-sample lists in time order; ``summarise``
    gets one slice of each.  A burst of interference from outside the
    program then moves one or two windows, not the reported value.
    """
    k = max(1, min(WINDOWS, *(len(s) for s in series)))
    per_window = [
        summarise(*(s[i * len(s) // k:(i + 1) * len(s) // k] for s in series))
        for i in range(k)
    ]
    return {key: statistics.median(w[key] for w in per_window) for key in per_window[0]}


def _check_ulp(tally: Tally, out: np.ndarray, ref: np.ndarray, what) -> None:
    ulp = max_ulp(out, ref)
    tally.record(ulp <= DEFAULT_TIGHT_ULP, f"{what}: {ulp:.3g} ULP from run_reference")


@contextlib.contextmanager
def _tracing(tracer):
    """Install ``tracer``'s wrappers (if any) for the enclosed block."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.remove()


# ---------------------------------------------------------------------------
# solve: warm single-grid runs round-robin over the spot cells


@dataclass
class Cell:
    name: str
    shape: Tuple[int, ...]
    steps: int
    data: np.ndarray
    kernel: object = None
    solver: object = None
    call_s: List[float] = field(default_factory=list)
    direct_s: List[float] = field(default_factory=list)

    @property
    def updates(self) -> int:
        return int(np.prod(self.shape)) * self.steps


def solve_cells(seed: int, tiny: bool = False) -> List[Cell]:
    """The spot cells with their seeded input grids."""
    rng = np.random.default_rng([seed, 0])
    return [
        Cell(name, shape, steps, rng.random(shape))
        for name, shape, steps in (TINY_SOLVE_CELLS if tiny else SOLVE_CELLS)
    ]


class Solve:
    """Closed loop, one caller: ``ConvStencil.run`` round-robin over the
    spot cells, each call paired with the same call via ``run_reference``."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed, self.tiny = seed, tiny
        self.cells: List[Cell] = []

    def setup(self) -> None:
        self.cells = solve_cells(self.seed, self.tiny)
        for cell in self.cells:
            cell.kernel = get_kernel(cell.name)
            cell.solver = ConvStencil(cell.kernel)
            for _ in range(2):
                cell.solver.run(cell.data, steps=cell.steps)
            run_reference(cell.data, cell.kernel, cell.steps)

    def measure(self, seconds: float, tally: Tally, tracer=None) -> Dict[str, float]:
        for cell in self.cells:
            cell.call_s, cell.direct_s = [], []
        with _tracing(tracer):
            deadline = clock() + seconds
            rnd = 0
            # Whole rounds only, so every cell has the same number of calls.
            while rnd == 0 or clock() < deadline:
                for cell in self.cells:
                    try:
                        out, t_call, ref, t_direct = _paired(
                            lambda: cell.solver.run(cell.data, steps=cell.steps),
                            lambda: run_reference(cell.data, cell.kernel, cell.steps),
                            call_first=rnd % 2 == 0,
                        )
                    except Exception as exc:  # a failed call is counted, not fatal
                        tally.record(False, f"{cell.name}: {type(exc).__name__}: {exc}")
                        continue
                    _check_ulp(tally, out, ref, cell.name)
                    cell.call_s.append(t_call)
                    cell.direct_s.append(t_direct)
                rnd += 1
        cells = [c for c in self.cells if c.call_s]
        if not cells:
            return {"calls": 0.0}

        # Per-cell statistics combined over the cells: the pooled samples
        # are six separate modes, whose pooled median would jump between
        # them.
        def summarise(*parts):
            calls, directs = parts[0::2], parts[1::2]
            medians = [_pct(p, 50) for p in calls]
            return {
                # One round of median calls.
                "throughput_mpts": sum(c.updates for c in cells) / sum(medians) / 1e6,
                "latency_ms_p50": statistics.fmean(medians) * 1e3,
                "latency_ms_p95": statistics.fmean(_pct(p, 95) for p in calls) * 1e3,
                # Geometric mean over cells of median direct ÷ median call.
                "speedup_vs_direct": statistics.geometric_mean(
                    _pct(d, 50) / m for d, m in zip(directs, medians)
                ),
            }

        metrics = _windowed(summarise, *[s for c in cells for s in (c.call_s, c.direct_s)])
        metrics["calls"] = float(sum(len(c.call_s) for c in cells))
        return metrics

    def per_cell(self) -> List[Tuple[str, float, float]]:
        """(cell, median call ms, median direct ms) of the last phase."""
        return [
            (c.name, _pct(c.call_s, 50) * 1e3, _pct(c.direct_s, 50) * 1e3)
            for c in self.cells
            if c.call_s
        ]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# churn: a stream of small, distinct problems, each on a fresh ConvStencil


@dataclass(frozen=True)
class Problem:
    kernel: str
    shape: Tuple[int, ...]
    fusion: "int | str"
    boundary: str
    steps: int
    data_seed: int

    def data(self) -> np.ndarray:
        return np.random.default_rng(self.data_seed).random(self.shape)


def churn_pool(seed: int, tiny: bool = False) -> List[Problem]:
    """512 distinct problems (32 in tiny mode).

    Every (kernel, fusion, boundary) combination gets the same shapes: each
    side stratified over its range (the trailing sides through fixed
    permutations of the strata) and the step count cycled 1–3.  The seed
    draws the grid values and the stream order, so seeds share one mix of
    work and differ only in data and order.
    """
    rng = np.random.default_rng([seed, 1])
    per_combo = 2 if tiny else CHURN_SHAPES_PER_COMBO
    sides = {2: (16, 24) if tiny else (32, 160), 3: (8, 10) if tiny else (12, 32)}
    pool = []
    for name in CHURN_KERNELS:
        ndim = 3 if "3d" in name else 2
        lo, hi = sides[ndim]
        shapes = [
            tuple(
                lo + (hi - lo) * ((j * stride + offset) % per_combo) // (per_combo - 1)
                for stride, offset in ((1, 0), (7, 3), (11, 5))[:ndim]
            )
            for j in range(per_combo)
        ]
        for fusion in CHURN_FUSIONS:
            for boundary in CHURN_BOUNDARIES:
                for j, shape in enumerate(shapes):
                    pool.append(
                        Problem(
                            kernel=name,
                            shape=shape,
                            fusion=fusion,
                            boundary=boundary,
                            steps=j % 3 + 1,
                            data_seed=int(rng.integers(2**32)),
                        )
                    )
    return pool


class Churn:
    """Closed loop, one caller: seeded uniform draws from ``churn_pool``.

    The timed call is construction plus ``run``; the paired direct call is
    the same pass sequence via ``run_reference`` (fused passes, then the
    unfused remainder), which is also the output check.
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed, self.tiny = seed, tiny
        self.order = np.random.default_rng([seed, 2])

    def setup(self) -> None:
        self.pool = churn_pool(self.seed, self.tiny)
        self.kernels = {name: get_kernel(name) for name in CHURN_KERNELS}
        # Fusion plans for the direct side only; timed calls build their own.
        self.fused = {
            (name, fusion): ConvStencil(kernel, fusion=fusion)
            for name, kernel in self.kernels.items()
            for fusion in CHURN_FUSIONS
        }
        for _ in range(8 if self.tiny else CHURN_WARMUP):
            p = self._draw()
            self._call(p, p.data())

    def _draw(self) -> Problem:
        return self.pool[int(self.order.integers(len(self.pool)))]

    def _call(self, p: Problem, x: np.ndarray) -> np.ndarray:
        solver = ConvStencil(self.kernels[p.kernel], fusion=p.fusion)
        return solver.run(x, steps=p.steps, boundary=p.boundary)

    def _direct(self, p: Problem, x: np.ndarray) -> np.ndarray:
        plan = self.fused[(p.kernel, p.fusion)]
        bc = BoundaryCondition(p.boundary)
        passes, remainder = divmod(p.steps, plan.fusion_depth)
        out = run_reference(x, plan.fused_kernel, passes, bc)
        return run_reference(out, plan.kernel, remainder, bc)

    def measure(self, seconds: float, tally: Tally, tracer=None) -> Dict[str, float]:
        call_s, direct_s, updates = [], [], []
        with _tracing(tracer):
            deadline = clock() + seconds
            n = 0
            while n == 0 or clock() < deadline:
                n += 1
                p = self._draw()
                x = p.data()
                try:
                    out, t_call, ref, t_direct = _paired(
                        lambda: self._call(p, x),
                        lambda: self._direct(p, x),
                        call_first=n % 2 == 0,
                    )
                except Exception as exc:  # a failed call is counted, not fatal
                    tally.record(False, f"{p}: {type(exc).__name__}: {exc}")
                    continue
                _check_ulp(tally, out, ref, p)
                call_s.append(t_call)
                direct_s.append(t_direct)
                updates.append(x.size * p.steps)
        if not call_s:
            return {"calls": 0.0}

        def summarise(call, direct, work):
            call = np.asarray(call)
            # Medians of per-call ratios: a stall moves one call, not a sum.
            return {
                "throughput_mpts": float(np.median(np.asarray(work) / call)) / 1e6,
                "latency_ms_p50": _pct(call, 50) * 1e3,
                "latency_ms_p95": _pct(call, 95) * 1e3,
                "speedup_vs_direct": float(np.median(np.asarray(direct) / call)),
            }

        metrics = _windowed(summarise, call_s, direct_s, updates)
        metrics["calls"] = float(len(call_s))
        return metrics

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve: open-loop Poisson arrivals into a default-config StencilService


@dataclass(frozen=True)
class Arrival:
    due: float
    tenant: int
    kernel: str
    steps: int
    grid: int


def serve_pool(seed: int, tiny: bool = False) -> List[np.ndarray]:
    rng = np.random.default_rng([seed, 3])
    side = 16 if tiny else 64
    return [rng.random((side, side)) for _ in range(SERVE_POOL)]


def serve_schedule(
    seed: int, seconds: float, rate: float = SERVE_RATE, phase: int = 0
) -> List[Arrival]:
    """Poisson arrivals over ``seconds``: due time (s from phase start),
    tenant, kernel, steps and grid index, all drawn from ``seed``."""
    rng = np.random.default_rng([seed, 4, phase])
    out: List[Arrival] = []
    t = float(rng.exponential(1.0 / rate))
    while t < seconds:
        out.append(
            Arrival(
                due=t,
                tenant=int(rng.integers(SERVE_TENANTS)),
                kernel=SERVE_KERNELS[int(rng.integers(len(SERVE_KERNELS)))],
                steps=SERVE_STEPS[int(rng.integers(len(SERVE_STEPS)))],
                grid=int(rng.integers(SERVE_POOL)),
            )
        )
        t += float(rng.exponential(1.0 / rate))
    return out


class Serve:
    """Open loop from one asyncio thread into ``StencilService(ServeConfig())``.

    Latency runs from each request's due time to the moment its response
    is back in the generator, so a stall also charges the requests queued
    behind it.  The direct floor is sampled during the phase, on the same
    thread, so both sides of ``speedup_vs_direct`` see the same load.
    Each accepted response is compared bit for bit with an unbatched
    ``ConvStencil.run`` of the same request after the phase.
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed, self.tiny = seed, tiny
        self.phases = 0
        self.runner = asyncio.Runner()
        # Filled by measure(); read by the traced run.
        self.latency_s: List[float] = []
        self.late_s: List[float] = []
        self.served: List[Arrival] = []
        self.unbatched_s: Dict[Tuple[str, int, int], float] = {}
        self.wall_s = 0.0

    def setup(self) -> None:
        self.pool = serve_pool(self.seed, self.tiny)
        self.kernels = {name: get_kernel(name) for name in SERVE_KERNELS}
        self.runner.run(self._start())

    async def _start(self) -> None:
        self.service = StencilService(ServeConfig())
        # Two sequential passes over every (kernel, steps) pair: plans
        # built, both lanes adopted and warm.
        for _ in range(2):
            for name in SERVE_KERNELS:
                for steps in SERVE_STEPS:
                    response = await self.service.submit(
                        Request("warmup", kernel=self.kernels[name], data=self.pool[0], steps=steps)
                    )
                    if not response.ok:
                        raise RuntimeError(f"warm-up request rejected: {response.reason}")

    def _direct(self, arrival: Arrival) -> np.ndarray:
        return run_reference(self.pool[arrival.grid], self.kernels[arrival.kernel], arrival.steps)

    def measure(self, seconds: float, tally: Tally, tracer=None) -> Dict[str, float]:
        schedule = serve_schedule(self.seed, seconds, SERVE_RATE, self.phases)
        self.phases += 1
        # The output check runs ConvStencil itself, so it stays untraced.
        with _tracing(tracer):
            responses, direct_s = self.runner.run(self._phase(schedule, tally))
        self._check(responses, tally)
        if not self.latency_s:
            return {"calls": 0.0}

        def summarise(latency, direct):
            p50 = _pct(latency, 50)
            return {
                "latency_ms_p50": p50 * 1e3,
                # The tails are printed but not gated: they swing with
                # outside load on the host by close to the largest bound.
                "latency_ms_p95": _pct(latency, 95) * 1e3,
                "latency_ms_p99": _pct(latency, 99) * 1e3,
                # A request served vs the same request as one direct call.
                "speedup_vs_direct": _pct(direct, 50) / p50,
            }

        metrics = _windowed(summarise, self.latency_s, direct_s)
        updates = sum(self.pool[a.grid].size * a.steps for a in self.served)
        metrics["throughput_mpts"] = updates / self.wall_s / 1e6
        metrics["calls"] = float(len(self.latency_s))
        return metrics

    async def _phase(self, schedule: List[Arrival], tally: Tally):
        self.latency_s, self.late_s = [], []
        responses, direct_s = [], []
        done = asyncio.Event()

        async def one(arrival: Arrival, request: Request, due: float) -> None:
            try:
                response = await self.service.submit(request)
            except Exception as exc:  # a failed request is counted, not fatal
                tally.record(False, f"request raised {type(exc).__name__}: {exc}")
                return
            end = clock()
            if not response.ok:
                tally.record(False, f"request rejected: {response.reason}")
                return
            self.latency_s.append(end - due)
            responses.append((arrival, _digest(response.data)))

        async def floor() -> None:
            # One direct call of a scheduled request every 50 ms.
            rng = np.random.default_rng([self.seed, 5, self.phases])
            while not done.is_set():
                await asyncio.sleep(DIRECT_PERIOD_S)
                arrival = schedule[int(rng.integers(len(schedule)))]
                direct_s.append(_timed(lambda: self._direct(arrival))[1])

        prober = asyncio.create_task(floor())
        tasks = []
        start = clock() + 0.01
        for i, arrival in enumerate(schedule):
            request = Request(
                f"tenant-{arrival.tenant}",
                kernel=self.kernels[arrival.kernel],
                data=self.pool[arrival.grid],
                steps=arrival.steps,
                request_id=f"r{self.phases}-{i}",
            )
            due = start + arrival.due
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_s.append(max(0.0, clock() - due))
            tasks.append(asyncio.create_task(one(arrival, request, due)))
        await asyncio.gather(*tasks)
        self.wall_s = clock() - start
        done.set()
        await prober
        return responses, direct_s

    def _check(self, responses, tally: Tally) -> None:
        """Bit-identity against unbatched runs, and the unbatched time of
        each distinct request (median of three) for ``batching_gain``."""
        expected: Dict[Tuple[str, int, int], bytes] = {}
        self.served = []
        for arrival, digest in responses:
            key = (arrival.kernel, arrival.steps, arrival.grid)
            if key not in expected:
                solver = ConvStencil(self.kernels[arrival.kernel])
                runs = [
                    _timed(lambda: solver.run(self.pool[arrival.grid], steps=arrival.steps))
                    for _ in range(3)
                ]
                expected[key] = _digest(runs[0][0])
                self.unbatched_s[key] = statistics.median(t for _, t in runs)
            tally.record(digest == expected[key], f"served {key} differs from an unbatched run")
            self.served.append(arrival)

    def unbatched_total_s(self) -> float:
        """Unbatched ``ConvStencil.run`` time of every request served in the
        last phase."""
        return sum(self.unbatched_s[(a.kernel, a.steps, a.grid)] for a in self.served)

    def close(self) -> None:
        try:
            if hasattr(self, "service"):
                self.runner.run(self.service.stop())
        finally:
            self.runner.close()


WORKLOADS = {"solve": Solve, "churn": Churn, "serve": Serve}
