"""Command-line interface.

Installed as ``repro-router``.  Subcommands:

``tables``
    Regenerate the paper's Tables 1-3 on the standard or small suite.
``route``
    Route a netlist file (``.rnl``), placing it first if no placement
    file is given, and print (or JSON-dump) the signed-off report.
``generate``
    Emit a synthetic benchmark netlist (and optional placement) to disk.
``trace``
    Inspect a JSONL run trace (``trace summarize out.jsonl`` prints the
    per-phase time and winning-criterion breakdown).
``compare-runs``
    Diff two run manifests, or two sweep rollups job by job, against
    regression thresholds.
``batch``
    Run an experiment sweep on the parallel batch engine
    (:mod:`repro.exec`): N worker processes, per-job timeout, bounded
    retry, and a content-addressed result cache so warm re-runs and
    interrupted sweeps skip completed jobs.
``serve``
    Run the routing service (:mod:`repro.service`): a long-lived
    HTTP/JSON job server executing route/explain/compare submissions on
    the batch engine, with the result cache as shared artifact store.

Exit codes: 0 success; 1 operational failure (violations, failed batch
jobs); 2 unusable input (missing, empty, or malformed file).

Examples::

    repro-router tables --suite small
    repro-router generate demo --gates 60 --out demo.rnl --placement-out demo.rpl
    repro-router route demo.rnl --placement demo.rpl --constraints 6
    repro-router route demo.rnl --constraints 6 --trace out.jsonl --metrics
    repro-router trace summarize out.jsonl
    repro-router batch --suite small --workers 4 --retries 1 --cache-dir .cache
    repro-router serve --port 8177 --workers 2 --cache-dir .cache
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .bench.circuits import (
    CircuitSpec,
    generate_circuit,
    generate_constraints,
    small_suite,
    standard_suite,
)
from .bench.runner import RunRecord, run_flow, run_suite
from .bench.tables import format_table1, format_table2, format_table3
from .core.config import RouterConfig
from .engines import engine_names
from .errors import ReproError
from .io.json_report import (
    global_result_to_dict,
    signoff_to_dict,
    write_json_report,
)
from .io.netlist_format import (
    read_circuit,
    read_placement,
    write_circuit,
    write_placement,
)
from .layout.placer import FeedStyle, PlacerConfig, place_circuit
from .netlist.cell_library import standard_ecl_library
from .tech import Technology


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description="Timing- and area-driven bipolar global router "
        "(Harada & Kitazawa, DAC 1994 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="regenerate Tables 1-3")
    tables.add_argument(
        "--suite", choices=("standard", "small"), default="small"
    )
    tables.add_argument("--table", type=int, choices=(1, 2, 3))

    route = sub.add_parser("route", help="route a netlist file")
    route.add_argument("netlist", type=Path)
    route.add_argument("--placement", type=Path, default=None)
    route.add_argument("--rows", type=int, default=None)
    route.add_argument(
        "--feed-fraction", type=float, default=0.12,
        help="feed cells per row as a fraction of row cells",
    )
    route.add_argument(
        "--constraints", type=int, default=0,
        help="number of auto-derived critical-path constraints",
    )
    route.add_argument(
        "--factor", type=float, default=1.25,
        help="constraint budget factor over the estimated path delay",
    )
    route.add_argument(
        "--unconstrained", action="store_true",
        help="route with the area-only baseline configuration",
    )
    route.add_argument(
        "--order", choices=("slack", "netlist", "fanout", "hpwl"),
        default=None,
        help="feedthrough-assignment net order (default: the paper's "
        "slack order when constrained, netlist order otherwise)",
    )
    route.add_argument(
        "--estimator", choices=("spt", "steiner"), default="spt",
        help="tentative-tree estimator",
    )
    route.add_argument(
        "--engine", choices=engine_names(), default="edge-deletion",
        help="routing engine: the paper's edge-deletion loop or the "
        "PathFinder-style negotiated-congestion engine",
    )
    route.add_argument(
        "--anneal", type=int, default=0, metavar="MOVES",
        help="refine the placement with simulated annealing for up to "
        "MOVES moves before routing (0 = off; only without --placement)",
    )
    route.add_argument(
        "--verify", action="store_true",
        help="run the independent routing verifier and report violations",
    )
    route.add_argument("--json", type=Path, default=None)
    route.add_argument(
        "--report", action="store_true",
        help="print the full routing report (wires, channels, skew, "
        "critical paths)",
    )
    route.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="write a structured JSONL event trace of the run "
        "(inspect with 'repro-router trace summarize PATH')",
    )
    route.add_argument(
        "--decisions", default=None, metavar="POLICY",
        help="deletion-decision record sampling in the trace: 'all', "
        "'off', or 'nth:N' (default nth:25; only meaningful with "
        "--trace)",
    )
    route.add_argument(
        "--metrics", action="store_true",
        help="print the run's metrics registry and per-phase profile",
    )
    route.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="write a machine-readable run manifest (config, dataset, "
        "source revision, the signed-off result row, final metrics); "
        "with --json, a manifest is written alongside the report "
        "automatically",
    )

    generate = sub.add_parser(
        "generate", help="emit a synthetic benchmark netlist"
    )
    generate.add_argument("name")
    generate.add_argument("--gates", type=int, default=80)
    generate.add_argument("--flops", type=int, default=12)
    generate.add_argument("--inputs", type=int, default=8)
    generate.add_argument("--outputs", type=int, default=6)
    generate.add_argument("--diff-pairs", type=int, default=1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True)
    generate.add_argument("--placement-out", type=Path, default=None)
    generate.add_argument("--rows", type=int, default=None)

    trace = sub.add_parser("trace", help="inspect a JSONL run trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase time and winning-criterion breakdown",
    )
    summarize.add_argument("path", type=Path)
    explain = trace_sub.add_parser(
        "explain",
        help="decision records and per-constraint margin attribution",
    )
    explain.add_argument("path", type=Path)
    explain.add_argument(
        "--constraint", default=None, metavar="P",
        help="show only this constraint's margin attribution",
    )
    explain.add_argument(
        "--deletion", type=int, default=None, metavar="N",
        help="show the decision record of deletion #N (0-based)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit JSON instead of text",
    )
    tail = trace_sub.add_parser(
        "tail",
        help="follow a live NDJSON trace/spool, one status line per "
        "event",
    )
    tail.add_argument(
        "target",
        help="path to a spool/--trace file, or a job id with --url",
    )
    tail.add_argument(
        "--url", default=None, metavar="URL",
        help="routing-service base URL; TARGET is then a job id whose "
        "event stream is followed over HTTP",
    )
    tail.add_argument(
        "--once", action="store_true",
        help="drain what is already in the file and exit (no follow)",
    )
    tail.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="stop following a file after S seconds without run_end "
        "(default: 600)",
    )
    heatmap = trace_sub.add_parser(
        "heatmap",
        help="channel-density snapshots at phase boundaries",
    )
    heatmap.add_argument("path", type=Path)
    heatmap.add_argument(
        "--label", default=None, metavar="LABEL",
        help="show one snapshot (initial, post_deletion, post_recovery, "
        "post_improvement; default: summary plus the final snapshot)",
    )
    heatmap.add_argument(
        "--channel", type=int, default=None, metavar="C",
        help="restrict the rendering to one channel",
    )
    heatmap.add_argument(
        "--json", action="store_true",
        help="emit JSON instead of text",
    )

    compare_runs = sub.add_parser(
        "compare-runs",
        help="diff two run manifests, or two sweep rollups job by job, "
        "against regression thresholds",
    )
    compare_runs.add_argument("old", type=Path)
    compare_runs.add_argument("new", type=Path)
    compare_runs.add_argument(
        "--trace", nargs=2, type=Path, default=None,
        metavar=("OLD", "NEW"),
        help="also diff two JSONL traces (deletion-sequence divergence, "
        "per-channel C_M/C_m deltas); run manifests only",
    )
    compare_runs.add_argument(
        "--max-delay-pct", type=float, default=5.0,
        help="fail if critical delay grows more than this percent",
    )
    compare_runs.add_argument(
        "--max-length-pct", type=float, default=5.0,
        help="fail if total wire length grows more than this percent",
    )
    compare_runs.add_argument(
        "--max-peak-delta", type=float, default=8.0,
        help="fail if peak density (or a channel's C_M/C_m) grows by "
        "more than this many tracks",
    )
    compare_runs.add_argument(
        "--max-violations-delta", type=int, default=0,
        help="fail if more constraints are violated than before",
    )
    compare_runs.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the diff as JSON",
    )

    batch = sub.add_parser(
        "batch",
        help="run an experiment sweep on the parallel batch engine",
    )
    batch.add_argument(
        "--suite", choices=("standard", "small"), default="small"
    )
    batch.add_argument(
        "--mode",
        choices=("both", "constrained", "unconstrained"),
        default="both",
        help="which routing mode(s) to sweep per dataset",
    )
    batch.add_argument(
        "--engine", choices=engine_names(), default="edge-deletion",
        help="routing engine for every job of the sweep",
    )
    batch.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="run only the first N jobs of the sweep",
    )
    batch.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count; 0 = inline)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (requires workers >= 1)",
    )
    batch.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts for a failed job",
    )
    batch.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its completed jobs",
    )
    batch.add_argument(
        "--cache-dir", type=Path, default=Path(".repro-cache"),
        metavar="DIR",
        help="content-addressed result cache location",
    )
    batch.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache (recompute and discard)",
    )
    batch.add_argument(
        "--manifests", type=Path, default=None, metavar="DIR",
        help="write per-job run manifests and the sweep rollup here",
    )
    batch.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the sweep rollup manifest here (compare-runs diffs "
        "two of them job by job)",
    )
    _add_cache_cap_args(batch)
    batch.add_argument(
        "--cache-stats", action="store_true",
        help="print the result cache's occupancy and hit/miss counters "
        "after the sweep",
    )

    serve = sub.add_parser(
        "serve", help="run the routing service (HTTP/JSON job server)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8177,
        help="TCP port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (each runs on the batch engine)",
    )
    serve.add_argument(
        "--no-isolation", action="store_true",
        help="run jobs inline instead of in a killable subprocess "
        "(faster startup, no crash isolation; traced jobs stream "
        "either way)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (enforced by the pool)",
    )
    serve.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts for a failed job",
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=Path(".repro-cache"),
        metavar="DIR",
        help="content-addressed result cache (shared artifact store)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="run without a result cache (every job recomputes; no "
        "queue checkpoint across restarts)",
    )
    serve.add_argument(
        "--quota", type=float, default=0.0, metavar="TOKENS",
        help="per-tenant token-bucket capacity (0 = quotas off)",
    )
    serve.add_argument(
        "--quota-refill", type=float, default=1.0, metavar="PER_S",
        help="token refill rate per second (with --quota)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=256, metavar="N",
        help="reject submissions with 429 once this many jobs queue",
    )
    _add_cache_cap_args(serve)
    return parser


def _add_cache_cap_args(parser) -> None:
    parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="evict least-recently-used cache entries beyond N",
    )
    parser.add_argument(
        "--cache-max-mb", type=float, default=None, metavar="MB",
        help="evict least-recently-used cache entries beyond MB "
        "megabytes",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "compare-runs":
            return _cmd_compare_runs(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def _input_error(message: str) -> int:
    """Report an unusable input file: one line on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_tables(args) -> int:
    specs = standard_suite() if args.suite == "standard" else small_suite()
    wanted = {args.table} if args.table else {1, 2, 3}
    if 1 in wanted:
        from .bench.circuits import make_dataset

        print(format_table1([make_dataset(spec) for spec in specs]))
        print()
    if wanted & {2, 3}:
        pairs = run_suite(specs)
        if 2 in wanted:
            print(format_table2(pairs))
            print()
        if 3 in wanted:
            print(format_table3(pairs))
    return 0


def _cmd_route(args) -> int:
    library = standard_ecl_library()
    technology = Technology()
    try:
        circuit = read_circuit(args.netlist, library)
    except (OSError, ReproError) as exc:
        return _input_error(f"cannot read netlist {args.netlist}: {exc}")
    if args.placement is not None:
        try:
            placement = read_placement(args.placement, circuit)
        except (OSError, ReproError) as exc:
            return _input_error(
                f"cannot read placement {args.placement}: {exc}"
            )
    else:
        placement = place_circuit(
            circuit,
            PlacerConfig(
                n_rows=args.rows, feed_fraction=args.feed_fraction
            ),
            technology,
        )
        if args.anneal > 0:
            from .layout.anneal import AnnealConfig, anneal_placement

            stats = anneal_placement(
                circuit,
                placement,
                AnnealConfig(max_moves=args.anneal),
                technology,
            )
            print(
                f"annealed placement: HPWL "
                f"{stats.improvement_pct:+.1f}% "
                f"({stats.moves_accepted}/{stats.moves_tried} moves)"
            )
    constraints = []
    if args.constraints > 0:
        from .layout.floorplan import assign_external_pins

        assign_external_pins(circuit, placement)
        constraints = generate_constraints(
            circuit,
            args.constraints,
            args.factor,
            placement=placement,
            technology=technology,
        )
    config = RouterConfig(
        technology=technology,
        assignment_order=args.order,
        tree_estimator=args.estimator,
        routing_engine=args.engine,
    )
    if args.unconstrained:
        config = config.unconstrained()

    from .obs import (
        DecisionPolicy,
        JsonlTraceSink,
        PhaseProfiler,
        Tracer,
        build_run_manifest,
    )

    profiler = PhaseProfiler()
    try:
        DecisionPolicy.parse(args.decisions)
    except ValueError as exc:
        return _input_error(str(exc))
    sink = JsonlTraceSink(args.trace) if args.trace is not None else None
    tracer = Tracer.of(sink)
    try:
        flow = run_flow(
            circuit, placement, constraints, config,
            trace_sink=tracer, profiler=profiler,
            decision_sampling=args.decisions,
        )
    finally:
        tracer.close()
    router, global_result, channel_result, report, _ = flow
    if args.report:
        from .analysis.report import full_report

        print(
            full_report(
                circuit, placement, global_result, channel_result,
                report, constraints, technology, gd=router.gd,
            ).format()
        )
        print()
    print(global_result.summary())
    print(f"  signed-off delay {report.critical_delay_ps:9.1f} ps")
    print(f"  signed-off area  {report.area_mm2:9.4f} mm^2")
    if report.constraint_margins:
        worst = min(report.constraint_margins.values())
        print(
            f"  constraints      {len(report.violations)} violated, "
            f"worst margin {worst:+.1f} ps"
        )
    if args.verify:
        from .core.verify import verify_routing

        violations = verify_routing(
            circuit, placement, global_result, router.assignment
        )
        if violations:
            for violation in violations:
                print(f"  VIOLATION: {violation}")
            return 1
        print("  verifier: clean")
    if args.trace is not None:
        print(f"  wrote trace {args.trace} ({sink.emitted} events)")
    if args.metrics:
        print()
        print("metrics:")
        print(router.metrics.format())
        print()
        print(profiler.format())
    if args.json is not None:
        payload = {
            "global": global_result_to_dict(global_result),
            "signoff": signoff_to_dict(report),
            "margin_attribution": {
                name: attribution.to_dict()
                for name, attribution in
                router.margin_attribution().items()
            },
        }
        write_json_report(payload, args.json)
        print(f"  wrote {args.json}")
    manifest_path = args.manifest
    if manifest_path is None and args.json is not None:
        manifest_path = args.json.with_suffix(".manifest.json")
    if manifest_path is not None:
        manifest = build_run_manifest(
            config=config,
            dataset={
                "netlist": str(args.netlist),
                "placement": (
                    str(args.placement) if args.placement else None
                ),
                "circuit": circuit.name,
                "nets": len(circuit.routable_nets),
                "constraints": len(constraints),
            },
            record=RunRecord.from_flow(flow, circuit.name),
            profiler=profiler,
        )
        manifest.write(manifest_path)
        print(f"  wrote manifest {manifest_path}")
    return 0


def _cmd_generate(args) -> int:
    spec = CircuitSpec(
        args.name,
        n_gates=args.gates,
        n_flops=args.flops,
        n_inputs=args.inputs,
        n_outputs=args.outputs,
        n_diff_pairs=args.diff_pairs,
        seed=args.seed,
    )
    circuit = generate_circuit(spec)
    placement = None
    if args.placement_out is not None:
        # Placement adds feed cells to the circuit, so it must happen
        # before the netlist is written out.
        placement = place_circuit(circuit, PlacerConfig(n_rows=args.rows))
    args.out.write_text(write_circuit(circuit))
    print(f"wrote {args.out} ({len(circuit.logic_cells)} cells, "
          f"{len(circuit.routable_nets)} nets)")
    if placement is not None:
        args.placement_out.write_text(write_placement(placement))
        print(f"wrote {args.placement_out} ({placement.n_rows} rows)")
    return 0


def _read_trace_or_none(path: Path):
    """Load a trace tolerantly, or None after an exit-2 style message.

    Malformed or truncated lines (a worker killed mid-write leaves at
    most one) are warned about and skipped, never fatal — only a missing
    or fully unreadable file is.
    """
    from .obs import read_spool

    try:
        events, bad_lines = read_spool(path)
    except OSError as exc:
        print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
        return None
    if not events:
        detail = (
            f" ({bad_lines} malformed line(s))" if bad_lines else ""
        )
        print(
            f"error: trace {path} contains no events{detail}",
            file=sys.stderr,
        )
        return None
    if bad_lines:
        print(
            f"warning: skipped {bad_lines} malformed/truncated line(s) "
            f"in {path} (worker crash or concurrent write?)",
            file=sys.stderr,
        )
    return events


def _cmd_trace(args) -> int:
    if args.trace_command == "summarize":
        return _cmd_trace_summarize(args)
    if args.trace_command == "explain":
        return _cmd_trace_explain(args)
    if args.trace_command == "heatmap":
        return _cmd_trace_heatmap(args)
    if args.trace_command == "tail":
        try:
            return _cmd_trace_tail(args)
        except BrokenPipeError:
            # Downstream reader closed the pipe (`trace tail ... | head`)
            # — a normal way to stop tailing.  Point stdout at devnull so
            # the interpreter's shutdown flush doesn't complain.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    raise AssertionError("unreachable")


def _cmd_trace_tail(args) -> int:
    """Follow a live spool/trace file (or a service job's event stream)
    and render one status line per event."""
    import time as time_module

    from .obs import SpoolTailer, format_event_line

    if args.url:
        from .service.client import ServiceClient, ServiceError

        client = ServiceClient(args.url)
        try:
            for payload in client.events(str(args.target)):
                print(format_event_line(payload), flush=True)
        except ServiceError as exc:
            return _input_error(f"job {args.target}: {exc.message}")
        except KeyboardInterrupt:
            pass
        return 0

    path = Path(args.target)
    if args.once and not path.exists():
        return _input_error(f"no trace file {path}")
    tailer = SpoolTailer(path)
    deadline = time_module.monotonic() + args.timeout
    saw_end = False
    try:
        while True:
            for event in tailer.poll():
                print(format_event_line(event.to_dict()), flush=True)
                if event.kind == "run_end":
                    saw_end = True
            if saw_end:
                # channel_routed events land shortly after run_end;
                # give the writer a beat, then the final drain below
                # picks them up.
                time_module.sleep(0.3)
                break
            if args.once:
                break
            if time_module.monotonic() >= deadline:
                print(
                    f"warning: no run_end after {args.timeout:.0f}s; "
                    "stopping",
                    file=sys.stderr,
                )
                break
            time_module.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        for event in tailer.finish():
            print(format_event_line(event.to_dict()), flush=True)
    if tailer.bad_lines:
        print(
            f"warning: skipped {tailer.bad_lines} malformed/truncated "
            "line(s)",
            file=sys.stderr,
        )
    return 0


def _cmd_trace_summarize(args) -> int:
    from .obs import partition_events, summarize_trace

    events = _read_trace_or_none(args.path)
    if events is None:
        return 2
    known, unknown = partition_events(events)
    for kind in sorted(unknown):
        print(
            f"warning: skipping {unknown[kind]} event(s) of unknown "
            f"kind {kind!r} (newer trace schema?)",
            file=sys.stderr,
        )
    if not known:
        return _input_error(
            f"trace {args.path}: no recognized events "
            f"(unknown kinds: {', '.join(sorted(unknown))})"
        )
    print(summarize_trace(known))
    return 0


def _cmd_trace_explain(args) -> int:
    import json as json_module

    from .analysis import attributions_from_events, format_attribution

    events = _read_trace_or_none(args.path)
    if events is None:
        return 2
    decisions = [e for e in events if e.kind == "deletion_decision"]
    attributions = attributions_from_events(events)
    if args.constraint is not None:
        attributions = [
            a for a in attributions
            if a.get("constraint") == args.constraint
        ]
        if not attributions:
            return _input_error(
                f"trace {args.path}: no margin attribution for "
                f"constraint {args.constraint!r}"
            )
    selected_decisions = decisions
    if args.deletion is not None:
        selected_decisions = [
            e for e in decisions
            if e.data.get("deletion_index") == args.deletion
        ]
        if not selected_decisions:
            return _input_error(
                f"trace {args.path}: no decision record for deletion "
                f"#{args.deletion} (sampled out? re-run with "
                "--decisions all)"
            )
    if args.json:
        print(json_module.dumps(
            {
                "decisions": [e.data for e in selected_decisions],
                "margin_attribution": attributions,
            },
            indent=2, sort_keys=True,
        ))
        return 0
    if args.deletion is not None:
        for event in selected_decisions:
            print(_format_decision(event.data))
        if args.constraint is None:
            return 0
    else:
        print(
            f"{len(decisions)} decision records in trace "
            "(--deletion N shows one)"
        )
    if attributions:
        for payload in attributions:
            print()
            print(format_attribution(payload))
    elif args.deletion is None:
        print("no margin attribution in trace (unconstrained run?)")
    return 0


def _format_decision(data) -> str:
    lines = [
        "deletion #{index}: net {net} edge {edge} (channel {channel}, "
        "phase {phase}, mode {mode})".format(
            index=data.get("deletion_index", "?"),
            net=data.get("net", "?"),
            edge=data.get("edge", "?"),
            channel=data.get("channel", "?"),
            phase=data.get("phase", "?"),
            mode=data.get("mode", "?"),
        ),
        f"  won on: {data.get('criterion', '?')} "
        f"(depth {data.get('criterion_depth', '?')})",
    ]
    winner = data.get("winner_key") or {}
    runner = data.get("runner_up")
    names = [n for n in winner if n not in ("net", "edge")]
    if runner is None:
        lines.append("  sole candidate (no runner-up)")
        lines.append("  " + "  ".join(f"{n}={winner[n]}" for n in names))
    else:
        lines.append(
            f"  {'condition':<10s} {'winner':>14s} {'runner-up':>14s}"
        )
        for name in names:
            marker = (
                " <- decided" if name == data.get("criterion") else ""
            )
            lines.append(
                f"  {name:<10s} {winner.get(name)!s:>14s} "
                f"{runner.get(name)!s:>14s}{marker}"
            )
        lines.append(
            f"  runner-up was net {runner.get('net')} "
            f"edge {runner.get('edge')}"
        )
    return "\n".join(lines)


def _cmd_trace_heatmap(args) -> int:
    import json as json_module

    from .analysis import (
        format_heatmap,
        format_snapshot,
        snapshots_from_events,
    )

    events = _read_trace_or_none(args.path)
    if events is None:
        return 2
    snapshots = snapshots_from_events(events)
    if not snapshots:
        return _input_error(
            f"trace {args.path} contains no density snapshots"
        )
    if args.label is not None:
        snapshots = [s for s in snapshots if s.label == args.label]
        if not snapshots:
            return _input_error(
                f"trace {args.path}: no snapshot labelled {args.label!r}"
            )
    if args.channel is not None and any(
        s.channel(args.channel) is None for s in snapshots
    ):
        return _input_error(
            f"trace {args.path}: no channel {args.channel} in its "
            "density snapshots"
        )
    if args.json:
        print(json_module.dumps(
            [s.to_dict(channel=args.channel) for s in snapshots],
            indent=2, sort_keys=True,
        ))
    elif args.label is None:
        print(format_heatmap(snapshots, channel=args.channel))
    else:
        for snapshot in snapshots:
            print(format_snapshot(snapshot, channel=args.channel))
    return 0


def _cmd_compare_runs(args) -> int:
    import json as json_module

    from .analysis.run_diff import DiffThresholds, diff_runs

    documents = []
    for path in (args.old, args.new):
        try:
            documents.append(json_module.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            return _input_error(f"cannot read {path}: {exc}")
    thresholds = DiffThresholds(
        max_delay_pct=args.max_delay_pct,
        max_length_pct=args.max_length_pct,
        max_peak_delta=args.max_peak_delta,
        max_violations_delta=args.max_violations_delta,
    )
    old_events = new_events = None
    if args.trace is not None:
        old_events = _read_trace_or_none(args.trace[0])
        if old_events is None:
            return 2
        new_events = _read_trace_or_none(args.trace[1])
        if new_events is None:
            return 2
    try:
        diff = diff_runs(
            documents[0], documents[1], thresholds,
            old_events=old_events, new_events=new_events,
            sources=(str(args.old), str(args.new)),
        )
    except ValueError as exc:
        return _input_error(str(exc))
    print(diff.format())
    if args.json is not None:
        Path(args.json).write_text(
            json_module.dumps(diff.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    return 0 if diff.ok else 1


def _cmd_batch(args) -> int:
    import os

    from .exec import JobSpec, ProgressPrinter, run_batch, sweep_id_of

    if args.resume and args.no_cache:
        return _input_error(
            "--resume needs the result cache; drop --no-cache"
        )
    specs = standard_suite() if args.suite == "standard" else small_suite()
    modes = {
        "both": (True, False),
        "constrained": (True,),
        "unconstrained": (False,),
    }[args.mode]
    # The default engine keeps config=None so cache keys stay identical
    # to every sweep recorded before engines existed.
    job_config = (
        None
        if args.engine == "edge-deletion"
        else RouterConfig(routing_engine=args.engine)
    )
    jobs = [
        JobSpec(spec, constrained=mode, config=job_config)
        for spec in specs
        for mode in modes
    ]
    if args.limit is not None:
        jobs = jobs[: args.limit]
    if not jobs:
        return _input_error("sweep selects no jobs")
    workers = args.workers
    if workers is None:
        workers = os.cpu_count() or 1

    cache = None if args.no_cache else _make_cache(args)
    if args.resume:
        checkpoint = (
            cache.root / "sweeps" / f"sweep-{sweep_id_of(jobs)}.json"
        )
        if checkpoint.is_file():
            print(f"resuming sweep from {checkpoint}")
        else:
            print("no prior checkpoint for this sweep; running all jobs")

    sweep = run_batch(
        jobs,
        workers=workers,
        timeout_s=args.timeout,
        retries=args.retries,
        cache=cache,
        on_event=ProgressPrinter(),
        manifest_dir=args.manifests,
    )

    print()
    header = f"{'job':<14} {'status':<8} {'delay(ps)':>10} {'attempts':>8}"
    print(header)
    for outcome in sweep.outcomes:
        delay = (
            f"{outcome.record.delay_ps:>10.1f}" if outcome.record
            else f"{'-':>10}"
        )
        print(
            f"{outcome.spec.job_id:<14} {outcome.status:<8} "
            f"{delay} {outcome.attempts:>8d}"
        )
    print()
    print(sweep.summary())
    print(f"cache hits: {sweep.n_cached}/{len(jobs)}")
    if args.cache_stats:
        if cache is None:
            print("cache stats: cache disabled (--no-cache)")
        else:
            print(_format_cache_stats(cache.stats()))
    if args.out is not None:
        sweep.rollup.write(args.out)
        print(f"wrote sweep rollup {args.out}")
    return 0 if sweep.all_ok else 1


def _make_cache(args):
    """A :class:`ResultCache` honoring the shared eviction-cap flags."""
    from .exec import ResultCache

    max_bytes = None
    if args.cache_max_mb is not None:
        max_bytes = int(args.cache_max_mb * 1024 * 1024)
    return ResultCache(
        args.cache_dir,
        max_entries=args.cache_max_entries,
        max_bytes=max_bytes,
    )


def _format_cache_stats(stats) -> str:
    size_mb = stats["bytes"] / (1024 * 1024)
    caps = []
    if stats["max_entries"] is not None:
        caps.append(f"max {stats['max_entries']} entries")
    if stats["max_bytes"] is not None:
        caps.append(f"max {stats['max_bytes'] / (1024 * 1024):.1f} MB")
    cap_note = f" ({', '.join(caps)})" if caps else " (uncapped)"
    return (
        f"cache stats: {stats['entries']} entries, {size_mb:.2f} MB"
        f"{cap_note}; this process: {stats['hits']} hit(s), "
        f"{stats['misses']} miss(es), {stats['evictions']} "
        f"eviction(s), {stats['corrupt']} quarantined"
    )


def _cmd_serve(args) -> int:
    import asyncio

    from .service import RoutingService, ServiceConfig

    cache = None if args.no_cache else _make_cache(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        isolation=not args.no_isolation,
        job_timeout_s=args.timeout,
        retries=args.retries,
        quota_capacity=args.quota,
        quota_refill_per_s=args.quota_refill,
        max_queue_depth=args.max_queue_depth,
    )
    service = RoutingService(config, cache=cache)

    async def _serve() -> None:
        await service.start()
        print(
            f"routing service listening on "
            f"http://{config.host}:{service.port} "
            f"({config.workers} worker(s), cache "
            f"{'off' if cache is None else cache.root})",
            flush=True,
        )
        await service.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("routing service stopped (queue checkpointed)", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
