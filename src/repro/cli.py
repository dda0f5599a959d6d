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
grid functionally under each execution strategy (``gemm``, ``direct`` and
``toeplitz``) and checks it against the reference, and ``--custom``
accepts user weights exactly like the artifact's ``--custom`` option.
Functional runs (``--verify``/``--trace``) take no backend: ``--trace``
runs the strategy rule's plan, which hands no pass to a backend, and
``--verify`` runs its pinned ``gemm`` pass on the default ``serial``
engine (``repro verify --backend`` checks the others).

Observability (see :mod:`repro.telemetry`): ``--trace FILE`` enables
telemetry, executes the requested run *functionally* at the given extents
(so keep them laptop-scale), and writes the span trace to ``FILE``;
``--metrics`` folds a scaled-down simulated pass's hardware counters into
the obs collector and prints its counters and gauges.  The ``report``
subcommand is the one report surface: ``report TRACE`` renders a
Fig.-6-style phase breakdown from a saved trace, ``--requests`` and
``--request-id ID`` list and replay served requests from span JSONL,
and ``--live [URL]`` renders the obs snapshot (``--format text|json|prom``).

Conformance (see :mod:`repro.verify`): the ``verify`` subcommand runs the
seeded differential harness — random cases across every registered
backend against the reference oracles, plus a mutation smoke-check —
e.g. ``python -m repro verify --quick --seed 0`` or
``python -m repro verify --cases 50 --report verify.json``.

Static analysis (see :mod:`repro.staticcheck`): the ``lint`` subcommand
runs the determinism/safety linter and the plan-invariant verifier as a
gate — e.g. ``python -m repro lint --format json`` — exiting nonzero on
error-severity findings while keeping stdout machine-parseable.
"""

from __future__ import annotations

import argparse
import os
import sys
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

    Report lines (text, or one JSON document) go to stdout only; on
    error-severity findings the report is still printed before the
    nonzero-exit :class:`~repro.errors.StaticCheckError` is raised, whose
    message ``main`` routes to stderr — so ``--format json`` stdout stays
    machine-parseable either way.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil lint",
        description=(
            "Static determinism & safety checks: the AST rules "
            "(RPR002, RPR004, RPR006), the plan/LUT verifier over the "
            "kernel catalog (RPR201-204, RPR206, RPR207), the concurrency "
            "discipline rules (RPR102-103), the generated-kernel prover "
            "(RPR400-401, RPR403-406), and the asyncio serve-layer rules (RPR301-305); "
            "RPR000 marks a module that does not parse"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text; json emits one document)",
    )
    parser.add_argument(
        "--no-plans",
        action="store_true",
        help="skip the plan-invariant and generated-kernel layers "
        "(AST rules only)",
    )
    args = parser.parse_args(argv)

    from repro.staticcheck import render_json, render_text, run_lint

    result = run_lint(paths=args.paths or None, include_plans=not args.no_plans)
    if args.format == "json":
        lines = render_json(result).splitlines()
    else:
        lines = render_text(result)
    if not result.ok:
        for line in lines:
            print(line)
        raise StaticCheckError(
            f"staticcheck found {len(result.errors)} error-severity finding(s)"
        )
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
            "spans to FILE.jsonl (replayable via repro report FILE --request-id)"
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


def _status(message: str) -> None:
    """A status line: stderr, so stdout carries only the report."""
    print(message, file=sys.stderr)


#: ``report`` options that belong to one source; the rest are rejected.
_FILE_OPTIONS = ("top", "requests", "request_id")
_LIVE_OPTIONS = ("format", "demo", "interval", "profile_out", "serve", "port")


def _run_report(argv: List[str]) -> List[str]:
    """The ``report`` subcommand: every observability view from one verb.

    Exactly one source picks the view.  A span ``FILE`` (a tracer export
    or a black-box dump) renders the Fig.-6 phase table, the recorded
    request list (``--requests``) or one request's stage waterfall
    (``--request-id``, which takes a request id or a trace id).
    ``--live [URL]`` renders the obs snapshot of this process, or of the
    exporter at ``URL``, as the ``top`` frame, JSON or Prometheus text.
    """
    parser = argparse.ArgumentParser(
        prog="convstencil report",
        description=(
            "Where did the time go: phase tables and request waterfalls "
            "from span files or the live obs snapshot"
        ),
    )
    parser.add_argument(
        "file",
        nargs="?",
        metavar="FILE",
        help="span file (JSONL or Chrome trace_event): the phase table",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N", help="show only the N largest phases"
    )
    pick = parser.add_mutually_exclusive_group()
    pick.add_argument(
        "--requests", action="store_true", help="list the requests recorded in FILE"
    )
    pick.add_argument(
        "--request-id",
        default=None,
        metavar="ID",
        help="render one request's stage waterfall (a request id or a trace id)",
    )
    parser.add_argument(
        "--live",
        nargs="?",
        const="",
        default=None,
        metavar="URL",
        help="render the obs snapshot of this process, or of the exporter at URL",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default=None,
        help="live output: text (the top frame, default), json or prom",
    )
    parser.add_argument(
        "--demo",
        type=int,
        default=None,
        metavar="N",
        help="run a small serial workload N times first so the snapshot has data",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render the text view every SECONDS until interrupted",
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
        help="exporter port for --serve (default 9109; 0 = ephemeral)",
    )
    args = parser.parse_args(argv)

    sources = {"FILE": args.file, "--live": args.live}
    chosen = [name for name, value in sources.items() if value is not None]
    if len(chosen) != 1:
        raise ReproError(
            "repro report needs one source: a span FILE or --live [URL]"
            + (f" (got {' and '.join(chosen)})" if chosen else "")
        )
    own = {"FILE": _FILE_OPTIONS, "--live": _LIVE_OPTIONS}[chosen[0]]
    stray = [
        "--" + name.replace("_", "-")
        for name in _FILE_OPTIONS + _LIVE_OPTIONS
        if name not in own and getattr(args, name) not in (None, False)
    ]
    if stray:
        raise ReproError(f"{', '.join(stray)} does not apply to {chosen[0]}")

    if args.live is not None:
        return _report_live(args)

    from repro import flight

    if args.request_id:
        return flight.render_request_report(args.file, args.request_id)
    if args.requests:
        return flight.render_request_list(args.file)
    return telemetry.render_phase_report(args.file, top=args.top or 0).splitlines()


def _report_live(args: argparse.Namespace) -> List[str]:
    """``report --live``: one frame of the obs snapshot, or a refreshing view.

    Colour is on only when stdout is a terminal.  ``--serve`` prints the
    frame first, then holds the exporter open for the CI scrape.
    """
    import json
    import time as _time

    from repro.obs import top as obs_top
    from repro.obs.exporter import render_prometheus, start_exporter

    fmt = args.format or "text"
    color = fmt == "text" and sys.stdout.isatty()
    lines: List[str] = []
    if args.interval is not None:
        if fmt != "text" or args.serve is not None:
            raise ReproError(
                "--interval re-renders the text view until interrupted; "
                "it takes no --format or --serve"
            )
        frames = obs_top.run_live(
            interval=args.interval, url=args.live or None, demo=args.demo or 0, color=color
        )
        _status(f"OBS: rendered {frames} frame(s)")
    else:
        if args.demo:
            obs_top.run_demo_workload(runs=args.demo)
        if args.live:
            snap = obs_top.fetch_snapshot(args.live)
        elif not obs.enabled():
            raise ReproError(
                "obs layer is disabled; set REPRO_OBS=metrics or higher "
                "(or pass --demo N, which raises it to metrics)"
            )
        else:
            snap = obs.snapshot()
        if fmt == "prom":
            lines = render_prometheus(snap).splitlines()
        elif fmt == "json":
            lines = json.dumps(snap, indent=2, sort_keys=True).splitlines()
        else:
            lines = obs_top.render_top(snap, color=color)
    if args.profile_out:
        profiler = obs.get_profiler()
        if profiler is None:
            _status("OBS: no profiler data (sampler never started)")
        else:
            profiler.export(args.profile_out)
            _status(f"OBS: wrote {args.profile_out} ({profiler.samples} samples)")
    if args.serve is not None:
        for line in lines:
            print(line)
        sys.stdout.flush()
        lines = []
        server = start_exporter(port=args.port)
        _status(f"OBS: serving {server.url}/metrics for {args.serve:.1f}s")
        _time.sleep(max(0.0, args.serve))
        server.stop()
        _status("OBS: exporter stopped")
    return lines


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
        help="exporter port (default 9109; 0 = ephemeral)",
    )
    parser.add_argument(
        "--no-exporter",
        action="store_true",
        help="skip the HTTP exporter (stats still print)",
    )
    args = parser.parse_args(argv)

    from repro.serve import TraceSpec
    from repro.serve.loadgen import run_server

    if not obs.enabled():
        obs.set_level("metrics")
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


def _run_codegen(argv: List[str]) -> List[str]:
    """The ``codegen`` subcommand: emit a kernel's generated source.

    Writes either the ``compiled`` backend's shape-pinned Python kernel
    (``--target python``, requires a grid shape to pin; a 2-D kernel takes
    a stack of grids) or the reference CUDA text (``--target cuda``) to
    ``--output``/stdout.  CI's
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

        # Generated kernels are dual tessellation: pin it, whatever the rule picks.
        plan = plan_for(kernel, shape, fusion=fusion, strategy="gemm")
        entry = compiled_entry(plan.fused_pass)
        source = entry.source
        summary = (
            f"codegen: python {entry.name} "
            f"chunks={entry.gemm.chunks} lines={len(source.splitlines())}"
        )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(source)
        return [summary, f"wrote {args.output}"]
    return source.splitlines() + [summary]


#: The subcommands; anything else is the artifact-style model driver.
_SUBCOMMANDS = {
    "codegen": _run_codegen,
    "lint": _run_lint,
    "loadgen": _run_loadgen,
    "report": _run_report,
    "serve": _run_serve,
    "verify": _run_verify,
}


def run(argv: Sequence[str]) -> List[str]:
    """Execute the CLI and return the output lines (also printed by main)."""
    argv = list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
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
        # at this size, so the GEMM path is always checked.
        err = max(
            float(
                np.abs(
                    PinnedStencil(
                        kernel, strategy, fusion=_fusion(args.fusion)
                    ).run(x, steps=steps)
                    - ref
                ).max()
            )
            for strategy in STRATEGIES
        )
        lines.append("")
        lines.append(
            f"VERIFY: {steps} steps on {'x'.join(map(str, shape))} grid "
            f"({', '.join(STRATEGIES)}), "
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
            ConvStencil(kernel, fusion=_fusion(args.fusion)).run(
                x, steps=iterations
            )
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
