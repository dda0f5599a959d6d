"""Command-line interface mirroring the paper artifact (§A.4/A.5).

The artifact ships ``convstencil_{1,2,3}d shape input_size… iterations``;
this reproduction exposes the same surface::

    python -m repro 2d box2d1r 10240 10240 10240
    python -m repro 1d 1d1r 10240000 100000
    python -m repro 3d box3d1r 1024 1024 1024 1024 --breakdown

and prints the artifact's output format (§A.5)::

    INFO: shape = box2d1r, m = 10240, n = 10240, times = 10240
    ConvStencil(2D):
    Time = 17080[ms]
    GStencil/s = 188.569311

``Time`` and ``GStencil/s`` come from the calibrated A100 performance model
(there is no GPU here); ``--verify`` additionally executes a scaled-down
grid functionally under each execution strategy (``gemm`` and ``direct``)
and checks it against the reference, and ``--custom``
accepts user weights exactly like the artifact's ``--custom`` option.
Functional runs (``--verify``/``--trace``) execute on a
:mod:`repro.runtime` backend selected by ``--backend`` (or the
``REPRO_BACKEND`` environment variable).

Observability (see :mod:`repro.telemetry`): ``--trace FILE`` enables
telemetry, executes the requested run *functionally* at the given extents
(so keep them laptop-scale), and writes the span trace to ``FILE``;
``--metrics`` folds a scaled-down simulated pass's hardware counters into
the obs collector and prints its counters and gauges; and the separate
``telemetry-report TRACE`` subcommand renders a Fig.-6-style phase
breakdown from a previously saved trace.

Conformance (see :mod:`repro.verify`): the ``verify`` subcommand runs the
seeded differential harness — random cases across every registered
backend against the reference oracles, plus a mutation smoke-check —
e.g. ``python -m repro verify --quick --seed 0`` or
``python -m repro verify --cases 50 --report verify.json``.

Static analysis (see :mod:`repro.staticcheck`): the ``lint`` subcommand
runs the determinism/safety linter and the plan-invariant verifier as a
gate — e.g. ``python -m repro lint --format json`` — exiting nonzero on
error-severity findings while keeping stdout machine-parseable.

Performance watch (see :mod:`repro.perfwatch`): the ``bench`` subcommand
measures the pinned workload suite with bootstrap confidence intervals
and paper-derived efficiency counters, writing a schema-versioned
``BENCH_PR<N>.json`` — ``python -m repro bench --quick``; ``bench
--check BASELINE`` re-measures and gates noise-aware (exit 2 on a real
regression), and ``bench --report`` renders the cross-PR trajectory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro import obs, telemetry
from repro.analysis.breakdown import run_breakdown
from repro.core.api import ConvStencil, PinnedStencil
from repro.errors import ReproError, StaticCheckError
from repro.gpu.specs import A100, H100, V100, DeviceSpec
from repro.model.convstencil_model import convstencil_throughput
from repro.runtime import list_backends
from repro.runtime.plan import STRATEGIES
from repro.stencils.catalog import ARTIFACT_ALIASES, get_kernel
from repro.stencils.kernel import StencilKernel
from repro.stencils.reference import run_reference
from repro.utils.rng import default_rng

__all__ = ["build_parser", "main", "run"]

_DEVICES = {"A100": A100, "V100": V100, "H100": H100}
_DIM_NAMES = {"1d": 1, "2d": 2, "3d": 3}
_VERIFY_SHAPES = {1: (4096,), 2: (96, 96), 3: (20, 20, 20)}


def build_parser() -> argparse.ArgumentParser:
    """Construct the artifact-style argument parser."""
    parser = argparse.ArgumentParser(
        prog="convstencil",
        description="ConvStencil reproduction — artifact-compatible driver",
    )
    parser.add_argument(
        "dim", choices=sorted(_DIM_NAMES), help="dimensionality (1d/2d/3d)"
    )
    parser.add_argument(
        "shape",
        help=(
            "stencil shape: an artifact name "
            f"({', '.join(sorted(ARTIFACT_ALIASES))}) or a catalog name"
        ),
    )
    parser.add_argument(
        "sizes",
        type=int,
        nargs="+",
        help="input extents (one per dimension) followed by the iteration count",
    )
    parser.add_argument(
        "--custom",
        metavar="W1,W2,...",
        help="comma-separated custom stencil weights (artifact --custom)",
    )
    parser.add_argument(
        "--device", choices=sorted(_DEVICES), default="A100", help="modelled GPU"
    )
    parser.add_argument(
        "--fusion",
        default="auto",
        help='temporal fusion depth: integer or "auto" (default)',
    )
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="print the Figure-6 per-variant breakdown (artifact breakdown mode)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also execute a scaled-down grid and check it against the reference",
    )
    parser.add_argument(
        "--cuda",
        metavar="FILE.cu",
        help="write the reference CUDA kernel for this shape (2-D only)",
    )
    parser.add_argument(
        "--report",
        metavar="REPORT.md",
        help="regenerate every paper table/figure into a markdown report",
    )
    parser.add_argument(
        "--backend",
        choices=list_backends(),
        default=None,
        help=(
            "execution backend for functional runs (--verify/--trace): "
            "serial (default), compiled, or reference; "
            "defaults to $REPRO_BACKEND if set"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "enable telemetry, execute the requested run functionally, and "
            "write the span trace to FILE (.jsonl -> JSONL, else Chrome "
            "trace_event)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "enable telemetry, fold a scaled-down simulated pass's hardware "
            "counters into the obs collector, and print the snapshot"
        ),
    )
    return parser


def _resolve_kernel(args: argparse.Namespace, ndim: int) -> StencilKernel:
    kernel = get_kernel(args.shape)
    if kernel.ndim != ndim:
        raise ReproError(
            f"shape {args.shape!r} is {kernel.ndim}-D but the command requested {ndim}-D"
        )
    if args.custom:
        weights = [float(w) for w in args.custom.split(",") if w.strip()]
        dense = np.zeros_like(kernel.weights).reshape(-1)
        nz = np.flatnonzero(kernel.weights.reshape(-1) != 0.0)
        if len(weights) != nz.size:
            raise ReproError(
                f"--custom needs {nz.size} weights for shape {args.shape!r}, "
                f"got {len(weights)}"
            )
        dense[nz] = weights
        kernel = StencilKernel(
            name=f"{kernel.name}-custom",
            weights=dense.reshape(kernel.weights.shape),
            shape_kind=kernel.shape_kind,
        )
    return kernel


def _fusion(arg: str):
    return arg if arg == "auto" else int(arg)


def _run_telemetry_report(argv: List[str]) -> List[str]:
    """The ``telemetry-report`` subcommand: phase table from a saved trace."""
    parser = argparse.ArgumentParser(
        prog="convstencil telemetry-report",
        description="Render a Fig.-6-style phase breakdown from a saved trace",
    )
    parser.add_argument("trace", help="trace file (JSONL or Chrome trace_event)")
    parser.add_argument(
        "--top", type=int, default=0, help="show only the N largest phases"
    )
    parser.add_argument(
        "--request-id",
        default=None,
        metavar="ID",
        help=(
            "render one request's serve-stage waterfall instead of the "
            "phase table (span JSONL: a tracer export or a black-box dump)"
        ),
    )
    args = parser.parse_args(argv)
    if args.request_id:
        from repro import flight

        return flight.render_request_report(args.trace, args.request_id)
    return telemetry.render_phase_report(args.trace, top=args.top).splitlines()


def _run_verify(argv: List[str]) -> List[str]:
    """The ``verify`` subcommand: the seeded differential conformance sweep."""
    parser = argparse.ArgumentParser(
        prog="convstencil verify",
        description=(
            "Differential conformance: random cases across all registered "
            "backends vs the reference oracles, with failure shrinking and "
            "a mutation smoke-check"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help="number of random cases (default 25, or 8 with --quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small extents — the CI smoke configuration",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=list_backends(),
        default=None,
        metavar="NAME",
        help="restrict to this backend (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE.json",
        help="also write the full report (including minimal repros) as JSON",
    )
    parser.add_argument(
        "--max-ulp",
        type=float,
        default=None,
        metavar="U",
        help="override the mirror-oracle ULP budget",
    )
    parser.add_argument(
        "--no-mutation",
        action="store_true",
        help="skip the stencil2row LUT mutation smoke-check",
    )
    args = parser.parse_args(argv)
    if args.cases is not None and args.cases < 1:
        raise ReproError(f"--cases must be positive, got {args.cases}")

    from repro.verify import run_verification

    report = run_verification(
        seed=args.seed,
        cases=args.cases if args.cases is not None else (8 if args.quick else 25),
        backends=args.backend,
        quick=args.quick,
        tight_ulp=args.max_ulp,
        mutation=not args.no_mutation,
    )
    lines = report.summary_lines()
    if args.report:
        lines.append(f"REPORT: wrote {report.write(args.report)}")
    if not report.ok:
        for line in lines:
            print(line)
        raise ReproError(
            f"differential verification failed ({len(report.failures)} "
            "failing case(s))"
        )
    return lines


def _run_lint(argv: List[str]) -> List[str]:
    """The ``lint`` subcommand: every staticcheck layer as a gate.

    Report lines (text, one JSON document, or one SARIF 2.1.0 document)
    go to stdout only; on error-severity findings the report is still
    printed before the nonzero-exit
    :class:`~repro.errors.StaticCheckError` is raised, whose message
    ``main`` routes to stderr — so ``--format json``/``sarif`` stdout
    stays machine-parseable either way.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil lint",
        description=(
            "Static determinism & safety checks: the AST linter "
            "(RPR001-006), the plan/LUT verifier over the kernel catalog "
            "(RPR201-207), the concurrency discipline rules (RPR102-103), "
            "the generated-kernel prover (RPR400-406), and the asyncio "
            "serve-layer rules (RPR301-304)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text; json/sarif emit one document)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of known findings to suppress "
        "(default .staticcheck-baseline.json if present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline entries that no longer match any finding, "
        "then exit 0",
    )
    parser.add_argument(
        "--no-plans",
        action="store_true",
        help="skip the plan-invariant and generated-kernel layers "
        "(AST rules only)",
    )
    args = parser.parse_args(argv)

    from repro.staticcheck import (
        load_baseline,
        prune_baseline,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        write_baseline,
    )
    from repro.staticcheck.report import DEFAULT_BASELINE

    baseline_path = args.baseline if args.baseline else DEFAULT_BASELINE
    subtract = not (args.write_baseline or args.prune_baseline)
    baseline = load_baseline(baseline_path) if subtract else []
    result = run_lint(
        paths=args.paths or None,
        include_plans=not args.no_plans,
        baseline=baseline,
    )
    if args.write_baseline:
        n = write_baseline(baseline_path, result)
        return [f"staticcheck: wrote baseline {baseline_path} ({n} findings)"]
    if args.prune_baseline:
        kept, pruned = prune_baseline(baseline_path, result)
        return [
            f"staticcheck: pruned {pruned} stale baseline entr"
            + ("y" if pruned == 1 else "ies")
            + f" from {baseline_path} ({kept} kept)"
        ]
    if args.format == "json":
        lines = render_json(result).splitlines()
    elif args.format == "sarif":
        lines = render_sarif(result).splitlines()
    else:
        lines = render_text(result)
    if not result.ok:
        for line in lines:
            print(line)
        raise StaticCheckError(
            f"staticcheck found {len(result.errors)} error-severity finding(s)"
        )
    return lines


def _run_obs_snapshot(argv: List[str]) -> List[str]:
    """The ``obs-snapshot`` subcommand: one-shot live-observability dump.

    Prints the collector's health snapshot as JSON (default) or
    Prometheus exposition text; ``--demo`` first runs a small serial
    workload so the snapshot is populated, ``--serve`` additionally
    serves ``/metrics`` + ``/health`` for a bounded window (what the CI
    smoke scrapes), and ``--profile-out`` exports the sampler's flame
    data (``.json`` → Chrome trace, else collapsed stacks).
    """
    parser = argparse.ArgumentParser(
        prog="convstencil obs-snapshot",
        description="One-shot snapshot of the live observability layer",
    )
    parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="output format (default json; prom = Prometheus text)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a small serial demo workload first so gauges are non-empty",
    )
    parser.add_argument(
        "--demo-runs",
        type=int,
        default=3,
        metavar="N",
        help="demo workload repetitions (default 3)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the snapshot JSON to FILE",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="export profiler flame data (.json Chrome trace, else collapsed)",
    )
    parser.add_argument(
        "--serve",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve /metrics and /health for this many seconds before exiting",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="exporter port for --serve (default $REPRO_OBS_PORT or 9109; 0 = ephemeral)",
    )
    args = parser.parse_args(argv)

    import json
    import time as _time

    from repro.obs.exporter import render_prometheus, start_exporter
    from repro.obs.top import run_demo_workload

    if args.demo:
        run_demo_workload(runs=args.demo_runs)
    if not obs.enabled():
        raise ReproError(
            "obs layer is disabled; set REPRO_OBS=metrics or higher "
            "(or pass --demo, which raises it to metrics)"
        )
    snap = obs.snapshot()
    lines: List[str] = []
    if args.format == "prom":
        lines.extend(render_prometheus(snap).splitlines())
    else:
        lines.extend(json.dumps(snap, indent=2, sort_keys=True).splitlines())
    if args.output:
        from repro.utils.io import dump_json

        dump_json(args.output, snap)
        lines.append(f"OBS: wrote {args.output}")
    if args.profile_out:
        profiler = obs.get_profiler()
        if profiler is None:
            lines.append("OBS: no profiler data (sampler never started)")
        else:
            profiler.export(args.profile_out)
            lines.append(
                f"OBS: wrote {args.profile_out} ({profiler.samples} samples)"
            )
    if args.serve is not None:
        server = start_exporter(port=args.port)
        lines.append(f"OBS: serving {server.url}/metrics for {args.serve:.1f}s")
        for line in lines:
            print(line)
        lines = []
        _time.sleep(max(0.0, args.serve))
        server.stop()
        lines.append("OBS: exporter stopped")
    return lines


def _serve_config_from_args(args) -> "ServeConfig":
    from repro.serve import ServeConfig, TenantQuota

    quota = (
        TenantQuota(rate=args.quota_rate, burst=args.quota_burst)
        if args.quota_rate is not None
        else TenantQuota()
    )
    return ServeConfig(
        lanes=args.lanes,
        max_batch=args.max_batch,
        max_queue_depth=args.queue_depth,
        quota=quota,
        backend=args.backend,
        slo_ms=args.slo_ms,
    )


def _serve_args(parser: argparse.ArgumentParser) -> None:
    """Knobs shared by ``repro serve`` and ``repro loadgen``."""
    parser.add_argument("--seed", type=int, default=0, help="trace seed (default 0)")
    parser.add_argument(
        "--requests", type=int, default=96, help="requests per trace (default 96)"
    )
    parser.add_argument(
        "--tenants", type=int, default=3, help="distinct tenants (default 3)"
    )
    parser.add_argument(
        "--waves", type=int, default=2, help="submission bursts per trace (default 2)"
    )
    parser.add_argument(
        "--lanes", type=int, default=2, help="executor lanes (default 2)"
    )
    parser.add_argument(
        "--max-batch", type=int, default=32, help="flush-at batch size (default 32)"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="backpressure bound on admitted requests (default 256)",
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        help="per-tenant token refill rate per second (default unlimited)",
    )
    parser.add_argument(
        "--quota-burst",
        type=float,
        default=32.0,
        help="per-tenant token bucket capacity (default 32)",
    )
    parser.add_argument(
        "--backend", default=None, help="runtime backend (default process default)"
    )
    parser.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="per-request SLO budget in ms (default $REPRO_OBS_SLO_MS)",
    )


def _render_serve_report(report: dict) -> List[str]:
    lines = [
        f"SERVE: {report['ok']}/{report['requests']} ok, "
        f"{report['rejected']} rejected, "
        f"{report['coalesced']} served in coalesced batches",
        f"SERVE: {report['batches']} batch(es), "
        f"mean {report['mean_batch']:.2f} / max {report['max_batch']} coalesced, "
        f"affinity {100.0 * report['affinity_hit_rate']:.1f}%",
    ]
    for tenant, entry in report["tenants"].items():
        lines.append(
            f"  {tenant}: {entry['ok']}/{entry['requests']} ok "
            f"({entry['rejected']} rejected), "
            f"p50 {entry['p50_ms']:.2f}ms, p99 {entry['p99_ms']:.2f}ms"
        )
    return lines


def _run_loadgen(argv: List[str]) -> List[str]:
    """The ``loadgen`` subcommand: seeded replay + bit-identity gate.

    Replays a deterministic mixed-tenant trace through an in-process
    :class:`~repro.serve.service.StencilService` and verifies every
    served result bitwise against a direct ``ConvStencil.run`` — the
    acceptance gate for the coalescing/affinity machinery.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil loadgen",
        description="Replay a seeded mixed-tenant trace through the serving layer",
    )
    _serve_args(parser)
    parser.add_argument(
        "--no-identity",
        action="store_true",
        help="skip the bitwise served-vs-direct comparison",
    )
    parser.add_argument(
        "--expect-coalescing",
        action="store_true",
        help="fail unless at least one batch coalesced more than one request",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    parser.add_argument(
        "--flight-dump",
        metavar="FILE.jsonl",
        default=None,
        help=(
            "trace the replay (raising REPRO_OBS to trace) and export its "
            "spans to FILE.jsonl (replayable via repro flight)"
        ),
    )
    args = parser.parse_args(argv)

    from repro.serve import TraceSpec, run_loadgen
    from repro.telemetry.trace import write_spans_jsonl

    tracer = telemetry.get_tracer()
    mark = tracer.total_recorded
    level = obs.get_level()
    raised = bool(args.flight_dump) and not telemetry.enabled()
    if raised:
        obs.set_level("trace")
    spec = TraceSpec(seed=args.seed, requests=args.requests, tenants=args.tenants)
    try:
        report = run_loadgen(
            spec=spec,
            config=_serve_config_from_args(args),
            waves=args.waves,
            check_identity=not args.no_identity,
        )
    finally:
        if raised:
            obs.set_level(level)
    if args.flight_dump:
        write_spans_jsonl(args.flight_dump, tracer.spans_since(mark))
    if report["identity_checked"] and not report["identity_ok"]:
        raise ReproError(
            f"served results diverged from direct ConvStencil.run for "
            f"{len(report['mismatches'])} request(s): "
            f"{', '.join(report['mismatches'][:5])}"
        )
    if args.expect_coalescing and report["max_batch"] <= 1:
        raise ReproError(
            "no coalesced batches observed (max batch size 1); raise "
            "--requests or lower --waves"
        )
    if args.json:
        import json

        return json.dumps(report, indent=2, sort_keys=True, default=str).splitlines()
    lines = _render_serve_report(report)
    if report["identity_checked"]:
        lines.append(
            f"SERVE: bit-identity vs direct ConvStencil.run: "
            f"{'ok' if report['identity_ok'] else 'FAIL'} "
            f"({report['ok']} served result(s) compared)"
        )
    flight_report = report.get("flight") or {}
    if flight_report.get("enabled"):
        lines.append(
            f"FLIGHT: {flight_report['complete']}/{flight_report['checked']} "
            f"complete traces, {flight_report['multi_request_traces']} "
            f"multi-request (coalesced) trace(s)"
        )
        if args.flight_dump:
            lines.append(f"FLIGHT: spans exported to {args.flight_dump}")
    return lines


def _flight_self_test(dump_dir: "str | None") -> List[str]:
    """The ``flight --self-test`` drill: a scripted-clock burn-rate episode.

    Deterministically drives one alert through ok → pending → firing →
    ok against synthetic traffic counters (one sample per scripted
    minute), with the black-box alert hook attached so every transition
    dumps a private span ring of synthetic requests.  Ends by replaying
    the victim request's waterfall out of the dump it just wrote — the
    whole observe→alert→dump→replay loop in one command, no service
    needed.
    """
    import tempfile

    from repro import flight
    from repro.obs.alerts import AlertEngine, AlertPolicy
    from repro.telemetry.trace import Tracer

    target = Path(dump_dir) if dump_dir else Path(tempfile.mkdtemp(prefix="flight-"))
    tracer = Tracer(max_spans=256)

    # A handful of synthetic served requests so dumps have batch context.
    members = [f"selftest-{i:02d}" for i in range(4)]
    for i, rid in enumerate(members):
        base = 0.010 * i
        stamp = {"trace_id": f"tselftest-{i:02d}", "request_id": rid, "tenant": "selftest"}
        for name, start, end, attrs in (
            ("admit", 0.0, 0.0002, {"outcome": "admitted"}),
            ("queue_wait", 0.0002, 0.0012, {}),
            ("coalesce", 0.0012, 0.0015, {"batch_id": "b-self"}),
            ("execute", 0.0015, 0.0085, {"batch_id": "b-self", "links": list(members)}),
            ("split", 0.0085, 0.0090, {"status": "ok", "reason": "", "slo_breached": False}),
        ):
            tracer.record_span(f"serve.{name}", base + start, base + end, dict(stamp, **attrs))

    # Scripted minute-by-minute counters: an hour of clean traffic, an
    # 8-minute half-breach burst (fast window trips first, then slow),
    # then a clean recovery that clears the fast window.
    clock_now = [0.0]
    counters = {"total": 0, "breached": 0}
    engine = AlertEngine(
        supplier=lambda: (counters["total"], counters["breached"]),
        policies=[AlertPolicy()],
        clock=lambda: clock_now[0],
    )
    flight.attach_alert_hook(engine, tracer=tracer, dump_dir=target, max_dumps=8)
    states: List[str] = []

    def _minute(breached_per_minute: int) -> None:
        clock_now[0] += 60.0
        counters["total"] += 10
        counters["breached"] += breached_per_minute
        states.append(engine.tick()["slo-burn"])

    for _ in range(60):
        _minute(0)  # slow-window history: 600 requests, 0 breached
    for _ in range(8):
        _minute(5)  # burst: 50% breach rate
    for _ in range(8):
        _minute(0)  # recovery
    observed = [s for s, prev in zip(states, [None] + states[:-1]) if s != prev]
    expected = ["ok", "pending", "firing", "ok"]
    if observed != expected:
        raise ReproError(
            f"flight self-test: state sequence {observed} != {expected} — "
            "the burn-rate engine is not deterministic under a scripted clock"
        )
    dumps = sorted(target.glob("flight-*.jsonl"))
    if len(dumps) < 3:  # pending, firing, and recovery transitions
        raise ReproError(
            f"flight self-test: expected >= 3 alert-transition dumps in "
            f"{target}, found {len(dumps)}"
        )

    lines = [
        "FLIGHT self-test: ok -> pending -> firing -> ok "
        f"({engine.alerts[0].transitions} transitions over "
        f"{len(states)} scripted minutes)",
        f"FLIGHT self-test: {len(dumps)} black-box dump(s) in {target}:",
    ]
    lines.extend(f"  {p.name}" for p in dumps)
    lines.append("")
    lines.extend(flight.render_request_report(dumps[-1], members[-1]))
    lines.append("FLIGHT self-test: OK")
    return lines


def _run_flight(argv: List[str]) -> List[str]:
    """The ``flight`` subcommand: replay requests from span JSONL."""
    parser = argparse.ArgumentParser(
        prog="convstencil flight",
        description=(
            "Inspect span JSONL (black-box dumps or tracer exports): list "
            "recorded requests, replay one request's stage waterfall, or "
            "run the scripted-clock alert self-test"
        ),
    )
    parser.add_argument(
        "--dump",
        metavar="FILE.jsonl",
        default=None,
        help="span JSONL to inspect (a black-box dump or a tracer export)",
    )
    parser.add_argument(
        "--request-id",
        metavar="ID",
        default=None,
        help="render this request's stage waterfall from --dump",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_ids",
        help="list the requests recorded in --dump (the default action)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "drive the burn-rate alert through ok/pending/firing/ok under "
            "a scripted clock and replay the dump it writes"
        ),
    )
    parser.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="self-test dump directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return _flight_self_test(args.dir)
    if not args.dump:
        raise ReproError(
            "repro flight needs --dump FILE.jsonl (with --request-id or "
            "--list) or --self-test"
        )

    from repro import flight

    if args.request_id:
        return flight.render_request_report(args.dump, args.request_id)
    return flight.render_request_list(args.dump)


def _run_serve(argv: List[str]) -> List[str]:
    """The ``serve`` subcommand: run the service under load with obs export.

    Enables the obs layer, starts the Prometheus/JSON exporter, and
    drives repeating seeded load through one long-lived service for
    ``--duration`` seconds — the serve-smoke CI job scrapes per-tenant
    gauges from the exporter while this runs.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil serve",
        description="Run the serving layer under seeded load with live metrics",
    )
    _serve_args(parser)
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to keep serving load (default 10)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="exporter port (default $REPRO_OBS_PORT or 9109; 0 = ephemeral)",
    )
    parser.add_argument(
        "--no-exporter",
        action="store_true",
        help="skip the HTTP exporter (stats still print)",
    )
    args = parser.parse_args(argv)

    from repro import flight
    from repro.serve import TraceSpec
    from repro.serve.loadgen import run_server

    if not obs.enabled():
        obs.set_level("metrics")
    # Burn-rate alerting over the collector's SLO counters; while spans
    # are recorded (REPRO_OBS=trace) every transition dumps the ring.
    engine = obs.configure_alerts()
    if telemetry.enabled():
        flight.attach_alert_hook(engine)
    server = None
    lines: List[str] = []
    if not args.no_exporter:
        from repro.obs.exporter import start_exporter

        server = start_exporter(port=args.port)
        print(f"SERVE: exporter at {server.url}/metrics (and /health)")
    spec = TraceSpec(seed=args.seed, requests=args.requests, tenants=args.tenants)
    try:
        report = run_server(
            spec=spec,
            config=_serve_config_from_args(args),
            duration_s=args.duration,
            waves=args.waves,
        )
    finally:
        if server is not None:
            server.stop()
    lines.append(
        f"SERVE: ran {report['cycles']} load cycle(s) over {args.duration:.1f}s"
    )
    lines.extend(_render_serve_report(report))
    if server is not None:
        lines.append("SERVE: exporter stopped")
    return lines


def _run_top(argv: List[str]) -> List[str]:
    """The ``top`` subcommand: ANSI live view of the obs snapshot."""
    parser = argparse.ArgumentParser(
        prog="convstencil top",
        description=(
            "Live terminal view: per-plan-key latency histograms, SLO "
            "breaches, efficiency gauges, worker state, profiler phases"
        ),
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (deterministic; used by CI)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until interrupted)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default 2.0)",
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="poll a running exporter's /health instead of the local collector",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a small serial demo workload before each frame",
    )
    parser.add_argument(
        "--no-color",
        action="store_true",
        help="plain text: no ANSI colour or screen clearing",
    )
    args = parser.parse_args(argv)

    from repro.obs import top as obs_top

    color = not args.no_color
    if args.once:
        if args.demo:
            obs_top.run_demo_workload(runs=1)
        if args.url:
            snap = obs_top.fetch_snapshot(args.url)
        else:
            snap = obs.snapshot()
        return obs_top.render_top(snap, color=color)
    frames = obs_top.run_live(
        interval=args.interval,
        frames=args.frames,
        url=args.url,
        demo=args.demo,
        color=color,
    )
    return [f"TOP: rendered {frames} frame(s)"]


def _run_bench(argv: List[str]) -> List[str]:
    """The ``bench`` subcommand: the perfwatch suite, gate, and dashboard.

    Three modes share the flag surface: the default *measure* mode runs
    the pinned suite and writes ``BENCH_PR<N>.json``; ``--check BASELINE``
    re-measures and applies the noise-aware gate (verdicts are printed
    before the nonzero-exit :class:`~repro.errors.ReproError` on a real
    regression, so ``--json`` stdout stays machine-parseable); and
    ``--report`` renders the cross-PR trajectory without measuring.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil bench",
        description=(
            "Statistically gated performance watch: pinned workloads x "
            "backends timed with bootstrap CIs and paper-derived "
            "efficiency counters (Eq. 13 / Table 3)"
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        metavar="BASELINE",
        help=(
            "re-measure and gate against this baseline: exit 2 iff a "
            "workload's CIs are disjoint AND the slowdown exceeds the "
            "threshold (or a baseline cell went missing)"
        ),
    )
    mode.add_argument(
        "--report",
        action="store_true",
        help="render the trajectory across committed BENCH_PR<N>.json files",
    )
    flavour = parser.add_mutually_exclusive_group()
    flavour.add_argument(
        "--quick",
        action="store_true",
        help="the small CI-smoke suite (default; --check follows its baseline)",
    )
    flavour.add_argument(
        "--full",
        action="store_true",
        help="the full suite: bigger grids, more batches, process-pool tiling",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="baseline path to write (default ./BENCH_PR<N>.json; measure mode)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="regression threshold as a fraction (default 0.20)",
    )
    parser.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="directory to discover baselines in for --report (default cwd)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document on stdout instead of tables",
    )
    args = parser.parse_args(argv)

    import json

    from repro.perfwatch import (
        default_baseline_path,
        load_baseline,
        make_report,
        render_run,
        render_trajectory,
        run_check,
        run_suite,
        write_baseline,
    )
    from repro.perfwatch.baseline import DEFAULT_THRESHOLD

    if args.report:
        return render_trajectory(args.dir).splitlines()

    if args.check:
        baseline = load_baseline(args.check)
        # Gate against the baseline's own suite flavour unless overridden,
        # so `--check BENCH_PR5.json` always measures comparable cells.
        quick = not args.full if (args.quick or args.full) else (
            baseline.get("suite") != "full"
        )
        threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
        result, _ = run_check(baseline, threshold=threshold, quick=quick)
        obs.count("perfwatch.checks")
        for _ in result.regressions:
            obs.count("perfwatch.regressions")
        if args.json:
            lines = json.dumps(result.to_dict(), indent=2, sort_keys=True).splitlines()
        else:
            lines = [v.describe() for v in result.verdicts]
            lines.append(
                f"GATE: {'ok' if result.ok else 'FAIL'} — "
                f"{len(result.regressions)} regression(s), "
                f"{len(result.missing)} missing, threshold {threshold:.0%}"
            )
        if not result.ok:
            for line in lines:
                print(line)
            raise ReproError(
                f"performance gate failed against {args.check}: "
                f"{len(result.regressions)} regression(s), "
                f"{len(result.missing)} missing workload(s)"
            )
        return lines

    quick = not args.full
    report = make_report(run_suite(quick=quick))
    path = write_baseline(
        args.output if args.output else default_baseline_path(), report
    )
    note = f"BENCH: wrote {path} ({len(report['entries'])} entries)"
    if args.json:
        # stdout carries exactly one JSON document; the note goes to stderr.
        print(note, file=sys.stderr)
        return json.dumps(report, indent=2, sort_keys=True).splitlines()
    return render_run(report).splitlines() + [note]


def _run_codegen(argv: List[str]) -> List[str]:
    """The ``codegen`` subcommand: emit a kernel's generated source.

    Writes either the ``compiled`` backend's shape-pinned Python kernel
    (``--target python``, requires a grid shape to pin) or the reference
    CUDA text (``--target cuda``) to ``--output``/stdout.  CI's
    codegen-smoke job generates a kernel, lints it with ``repro lint``,
    and runs the differential harness on the compiled backend.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil codegen",
        description="emit generated kernel source (compiled-python or CUDA)",
    )
    parser.add_argument("kernel", help="catalogued kernel name (see repro --help)")
    parser.add_argument(
        "--shape",
        default=None,
        help="grid shape to pin, e.g. 96x96 (required for --target python)",
    )
    parser.add_argument(
        "--target",
        choices=("python", "cuda"),
        default="python",
        help="which emitter to run (default python)",
    )
    parser.add_argument(
        "--fusion",
        default="auto",
        help='temporal fusion depth or "auto" (default auto)',
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="emit the batch-axis variant (python target, 2-D only)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="write the source here (default: print to stdout)",
    )
    args = parser.parse_args(argv)
    from repro.stencils import get_kernel

    kernel = get_kernel(args.kernel)
    fusion = args.fusion if args.fusion == "auto" else int(args.fusion)
    if args.target == "cuda":
        from repro.codegen import generate_cuda_1d, generate_cuda_2d

        if kernel.ndim == 1:
            source, spec = generate_cuda_1d(kernel, fusion=fusion)
        elif kernel.ndim == 2:
            source, spec = generate_cuda_2d(kernel, fusion=fusion)
        else:
            raise ReproError("cuda target supports 1-D and 2-D kernels")
        summary = (
            f"codegen: cuda {args.kernel} edge={spec.edge} "
            f"chunks={spec.chunks} mma/tile={spec.mma_per_tile}"
        )
    else:
        if not args.shape:
            raise ReproError("--target python requires --shape to pin the kernel")
        shape = tuple(int(s) for s in args.shape.lower().split("x"))
        from repro.codegen import compiled_entry
        from repro.runtime import plan_for

        plan = plan_for(kernel, shape, fusion=fusion)
        entry = compiled_entry(plan.fused_pass, batched=args.batched)
        source = entry.source
        summary = (
            f"codegen: python {entry.name} gather={entry.gather} "
            f"chunks={entry.gemm.chunks} lines={len(source.splitlines())}"
        )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(source)
        return [summary, f"wrote {args.output}"]
    return source.splitlines() + [summary]


def run(argv: Sequence[str]) -> List[str]:
    """Execute the CLI and return the output lines (also printed by main)."""
    argv = list(argv)
    if argv and argv[0] == "telemetry-report":
        return _run_telemetry_report(argv[1:])
    if argv and argv[0] == "codegen":
        return _run_codegen(argv[1:])
    if argv and argv[0] == "verify":
        return _run_verify(argv[1:])
    if argv and argv[0] == "lint":
        return _run_lint(argv[1:])
    if argv and argv[0] == "bench":
        return _run_bench(argv[1:])
    if argv and argv[0] == "obs-snapshot":
        return _run_obs_snapshot(argv[1:])
    if argv and argv[0] == "top":
        return _run_top(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "loadgen":
        return _run_loadgen(argv[1:])
    if argv and argv[0] == "flight":
        return _run_flight(argv[1:])
    args = build_parser().parse_args(argv)
    if (args.trace or args.metrics) and not telemetry.enabled():
        obs.set_level("trace")
    ndim = _DIM_NAMES[args.dim]
    if len(args.sizes) != ndim + 1:
        raise ReproError(
            f"{args.dim} expects {ndim} extent(s) + 1 iteration count, "
            f"got {len(args.sizes)} numbers"
        )
    *extents, iterations = args.sizes
    if iterations < 1 or any(e < 1 for e in extents):
        raise ReproError("extents and iteration count must be positive")
    kernel = _resolve_kernel(args, ndim)
    spec: DeviceSpec = _DEVICES[args.device]

    dims = ", ".join(f"{n} = {v}" for n, v in zip("mnp", extents))
    lines = [f"INFO: shape = {args.shape}, {dims}, times = {iterations}"]

    est = convstencil_throughput(
        kernel, tuple(extents), spec=spec, fusion=_fusion(args.fusion)
    )
    passes = -(-iterations // est.steps_per_pass)
    total_time = passes * est.time_per_pass
    gst = iterations * est.grid_points / total_time / 1e9
    lines.append(f"ConvStencil({ndim}D):")
    lines.append(f"Time = {total_time * 1e3:.4g}[ms]")
    lines.append(f"GStencil/s = {gst:.6f}")

    if args.breakdown:
        lines.append("")
        lines.append("Breakdown (variants I..V, modelled time per step):")
        for row in run_breakdown(kernel.name if not args.custom else "heat-2d"):
            lines.append(
                f"  {row.variant:>3}: {row.time * 1e6:9.3f} us  "
                f"(+{100 * (row.speedup_vs_prev - 1):.0f}% vs prev)"
            )

    if args.verify:
        shape = _VERIFY_SHAPES[ndim]
        x = default_rng(0).random(shape)
        steps = 2
        ref = run_reference(x, kernel, steps)
        # Each strategy in turn, whatever the strategy rule would pick
        # at this size, so the backend's GEMM path is always checked.
        err = max(
            float(
                np.abs(
                    PinnedStencil(
                        kernel, strategy, fusion=_fusion(args.fusion),
                        backend=args.backend,
                    ).run(x, steps=steps)
                    - ref
                ).max()
            )
            for strategy in STRATEGIES
        )
        lines.append("")
        lines.append(
            f"VERIFY: {steps} steps on {'x'.join(map(str, shape))} grid "
            f"({' and '.join(STRATEGIES)}), "
            f"max |err| = {err:.3e} -> {'OK' if err < 1e-10 else 'FAIL'}"
        )
        if err >= 1e-10:
            raise ReproError("functional verification failed")

    if args.cuda:
        from repro.codegen import generate_cuda_2d

        if ndim != 2:
            raise ReproError("--cuda currently supports 2-D shapes")
        src, cuda_spec = generate_cuda_2d(kernel, fusion=_fusion(args.fusion))
        with open(args.cuda, "w") as fh:
            fh.write(src)
        lines.append("")
        lines.append(
            f"CUDA: wrote {args.cuda} ({len(src.splitlines())} lines, "
            f"pitch {cuda_spec.plan.pitch}, fused x{cuda_spec.fusion_depth})"
        )

    if args.report:
        from repro.analysis.report import write_report

        path = write_report(args.report, include_breakdown=False)
        lines.append("")
        lines.append(f"REPORT: wrote {path}")

    if args.metrics:
        from repro.core.simulated import run_simulated

        shape = _VERIFY_SHAPES[ndim]
        run_simulated(default_rng(0).random(shape), kernel)
        lines.append("")
        lines.append(
            f"Metrics (simulated pass on {'x'.join(map(str, shape))} grid):"
        )
        snap = obs.get_collector().snapshot()
        named = {**snap["counters"], **snap["gauges"]}
        for name in sorted(named):
            lines.append(f"  {name} = {named[name]:.6g}")

    if args.trace:
        x = default_rng(0).random(tuple(extents))
        with telemetry.span(
            "cli.run", shape=args.shape, device=args.device, iterations=iterations
        ):
            ConvStencil(
                kernel, fusion=_fusion(args.fusion), backend=args.backend
            ).run(x, steps=iterations)
        tracer = telemetry.get_tracer()
        path = tracer.export(args.trace)
        lines.append("")
        lines.append(f"TRACE: wrote {path} ({len(tracer)} spans)")
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point.

    Failures exit nonzero with the error on **stderr**; library log
    records are routed to stderr too, so stdout carries nothing but the
    report lines (the ``--format json`` machine-parseability contract).
    """
    telemetry.configure_logging("WARNING")  # stderr; stdout stays machine-readable
    try:
        for line in run(sys.argv[1:] if argv is None else list(argv)):
            print(line)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/`head` closed stdout mid-report; exit quietly
        # like any well-behaved filter (stdout is gone, so say nothing).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
