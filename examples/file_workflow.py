#!/usr/bin/env python3
"""File-based workflow: generate → save → reload → route → report.

Shows the on-disk interchange a team would actually use: the ``.rnl``
netlist and ``.rpl`` placement formats, the JSON result report, the
paper's Table 2 for both routing modes and a timing report — the same
flow as the ``repro-router`` CLI, but scripted.

Run:  python examples/file_workflow.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro import RouterConfig, Technology, standard_ecl_library
from repro.analysis import format_timing_reports, render_routed_chip
from repro.bench import (
    CircuitSpec,
    RunRecord,
    format_table2,
    generate_circuit,
    generate_constraints,
    pair_records,
    run_flow,
)
from repro.io import (
    global_result_to_dict,
    read_circuit,
    read_placement,
    write_circuit,
    write_json_report,
    write_placement,
)
from repro.layout import PlacerConfig, assign_external_pins, place_circuit
from repro.timing import ConstraintGraph, StaticTimingAnalyzer


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro_demo_")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    library = standard_ecl_library()
    technology = Technology()

    # 1. Generate a chip and persist netlist + placement.
    spec = CircuitSpec(
        "filedemo", n_gates=60, n_flops=8, n_inputs=6, n_outputs=4,
        n_diff_pairs=1, seed=42,
    )
    circuit = generate_circuit(spec)
    placement = place_circuit(
        circuit, PlacerConfig(feed_fraction=0.1), technology
    )
    (workdir / "chip.rnl").write_text(write_circuit(circuit))
    (workdir / "chip.rpl").write_text(write_placement(placement))
    print(f"saved netlist and placement under {workdir}")

    # 2. Reload from disk (a fresh process would start here).
    circuit = read_circuit(workdir / "chip.rnl", library)
    placement = read_placement(workdir / "chip.rpl", circuit)
    assign_external_pins(circuit, placement)
    constraints = generate_constraints(
        circuit, 5, 1.3, placement=placement, technology=technology
    )

    # 3. Route both modes and print them as the paper's Table 2.
    config = RouterConfig(technology=technology)
    flow = run_flow(circuit, placement, constraints, config)
    constrained = flow.global_result
    circuit_b = read_circuit(workdir / "chip.rnl", library)
    placement_b = read_placement(workdir / "chip.rpl", circuit_b)
    assign_external_pins(circuit_b, placement_b)
    constraints_b = generate_constraints(
        circuit_b, 5, 1.3, placement=placement_b, technology=technology
    )
    flow_b = run_flow(
        circuit_b, placement_b, constraints_b, config.unconstrained()
    )
    pair = pair_records(
        RunRecord.from_flow(flow, spec.name),
        RunRecord.from_flow(flow_b, spec.name),
    )
    print()
    print(format_table2([pair]))

    # 4. Timing report of the constrained run.
    from repro.timing import GlobalDelayGraph

    gd = GlobalDelayGraph.of(circuit)
    analyzer = StaticTimingAnalyzer(
        gd, [ConstraintGraph.of(gd, c) for c in constraints]
    )
    print()
    print(
        format_timing_reports(
            analyzer, constrained.wire_caps, limit=2
        )
    )

    # 5. Persist the JSON report and draw the chip.
    write_json_report(
        global_result_to_dict(constrained), workdir / "result.json"
    )
    print(f"\nwrote {workdir / 'result.json'}")
    print()
    print(render_routed_chip(placement, constrained, max_width=80))


if __name__ == "__main__":
    main()
