#!/usr/bin/env python3
"""Quickstart: build a tiny bipolar netlist, place it, route it.

Walks the full public API surface in ~80 lines:

1. instantiate the ECL cell library and describe a netlist,
2. place it into standard-cell rows (feed cells included),
3. state one critical-path constraint,
4. run the flow — global router, channel router, sign-off — with an
   in-memory trace attached,
5. print the signed-off delay / area / length report plus a peek at the
   router's decision trace.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro import (
    Circuit,
    GlobalDelayGraph,
    MemorySink,
    PathConstraint,
    PinSide,
    PlacerConfig,
    RouterConfig,
    Technology,
    TerminalDirection,
    place_circuit,
    run_flow,
    standard_ecl_library,
)


def build_circuit() -> Circuit:
    """A 2-stage pipeline: din -> logic -> FF -> logic -> dout."""
    circuit = Circuit("quickstart", standard_ecl_library())

    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    clk = circuit.add_external_pin("clk", TerminalDirection.INPUT)
    dout = circuit.add_external_pin(
        "dout", TerminalDirection.OUTPUT, side=PinSide.TOP
    )

    g1 = circuit.add_cell("g1", "NOR2")
    g2 = circuit.add_cell("g2", "XOR2")
    g3 = circuit.add_cell("g3", "INV1")
    ff = circuit.add_cell("ff", "DFF")
    g4 = circuit.add_cell("g4", "BUF1")

    circuit.connect(
        circuit.add_net("n_in").name,
        din, g1.terminal("I0"), g1.terminal("I1"),
    )
    circuit.connect(
        circuit.add_net("n1").name,
        g1.terminal("O"), g2.terminal("I0"), g3.terminal("I0"),
    )
    circuit.connect(
        circuit.add_net("n2").name, g3.terminal("O"), g2.terminal("I1")
    )
    circuit.connect(
        circuit.add_net("n3").name, g2.terminal("O"), ff.terminal("D")
    )
    circuit.connect(
        circuit.add_net("n_clk").name, clk, ff.terminal("CLK")
    )
    circuit.connect(
        circuit.add_net("n4").name, ff.terminal("Q"), g4.terminal("I0")
    )
    circuit.connect(
        circuit.add_net("n_out").name, g4.terminal("O"), dout
    )
    return circuit


def main() -> None:
    technology = Technology()
    circuit = build_circuit()
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=2, feed_fraction=0.4), technology
    )
    print(f"placed: {placement}")

    # Constrain the din -> ff.D path to 1 ns.
    gd = GlobalDelayGraph.of(circuit)
    constraint = PathConstraint(
        name="din_to_ff",
        sources=frozenset(
            [gd.vertex_of(circuit.external_pin("din")).index]
        ),
        sinks=frozenset(
            [gd.vertex_of(circuit.cell("ff").terminal("D")).index]
        ),
        limit_ps=1000.0,
    )

    # Attach an in-memory trace sink to watch the router decide.  For a
    # file on disk use the CLI:  repro route ... --trace run.jsonl
    trace = MemorySink()
    flow = run_flow(
        circuit, placement, [constraint],
        RouterConfig(technology=technology),
        trace_sink=trace,
    )
    global_result = flow.global_result
    print()
    print(global_result.summary())

    deleted = trace.of_kind("edge_deleted")
    assert len(deleted) == global_result.deletions
    criteria = Counter(e.data["criterion"] for e in deleted)
    print()
    print(f"trace: {len(trace)} events; deletions by winning criterion:")
    for criterion, count in criteria.most_common():
        print(f"  {criterion:<14} {count}")

    report = flow.signoff
    print()
    print("after channel routing:")
    print(f"  critical delay : {report.critical_delay_ps:8.1f} ps")
    print(f"  chip area      : {report.area_mm2:8.4f} mm^2")
    print(f"  wire length    : {report.total_length_mm:8.3f} mm")
    margin = report.constraint_margins["din_to_ff"]
    status = "MET" if margin >= 0 else "VIOLATED"
    print(f"  din_to_ff      : margin {margin:+.1f} ps ({status})")


if __name__ == "__main__":
    main()
