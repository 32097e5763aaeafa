"""Property-based tests of the Section 4.3 completeness guarantee.

Random crossing demand (mixed widths) against random initial slot supply:
after feed-cell insertion, the second assignment pass must *always*
complete, every row must grow by exactly the same column count, and every
granted corridor must be physically adjacent and exclusively owned.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.layout.feedcell import FeedCellInserter
from repro.layout.placement import Placement
from repro.netlist import Circuit, standard_ecl_library


@st.composite
def demand_strategy(draw):
    n_single = draw(st.integers(0, 6))
    n_wide = draw(st.integers(0, 3))
    feeds_per_row = draw(st.integers(0, 4))
    return n_single, n_wide, feeds_per_row


def build_case(n_single, n_wide, feeds_per_row):
    """Nets from row 0 to row 2; all must cross row 1."""
    library = standard_ecl_library()
    circuit = Circuit("prop", library)
    rows = [[], [circuit.add_cell("mid", "NOR3")], []]
    nets = []
    for i in range(n_single):
        a = circuit.add_cell(f"a{i}", "NOR2")
        b = circuit.add_cell(f"b{i}", "NOR2")
        rows[0].append(a)
        rows[2].append(b)
        net = circuit.add_net(f"s{i}")
        circuit.connect(f"s{i}", a.terminal("O"), b.terminal("I0"))
        nets.append(net)
    for i in range(n_wide):
        a = circuit.add_cell(f"wa{i}", "CLKBUF")
        b = circuit.add_cell(f"wb{i}", "DFF")
        rows[0].append(a)
        rows[2].append(b)
        net = circuit.add_net(f"w{i}", width_pitches=2)
        circuit.connect(f"w{i}", a.terminal("O"), b.terminal("CLK"))
        nets.append(net)
    rows = [row + [feeds_per_row] for row in rows]
    return circuit, Placement(circuit, rows), nets


@given(demand_strategy())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_insertion_always_completes(case):
    n_single, n_wide, feeds_per_row = case
    if n_single + n_wide == 0:
        return
    circuit, placement, nets = build_case(
        n_single, n_wide, feeds_per_row
    )
    widths_before = [
        placement.row_width(r) for r in range(placement.n_rows)
    ]
    inserter = FeedCellInserter(circuit, placement)
    planner, assignment, report = inserter.ensure_assignment(nets)

    # 1. Complete: every net has its row-1 crossing, at its width.
    assert assignment.complete
    occupied_columns = set()
    for net in nets:
        slots = assignment.of_net(net)
        assert 1 in slots
        slot = slots[1]
        assert slot.width == net.width_pitches
        columns = set(slot.columns)
        # adjacency
        assert columns == set(
            range(slot.x, slot.x + slot.width)
        )
        # exclusivity
        assert not (columns & occupied_columns)
        occupied_columns |= columns

    # 2. Uniform widening: every row grew by the same amount.
    growth = {
        placement.row_width(r) - widths_before[r]
        for r in range(placement.n_rows)
    }
    assert len(growth) == 1
    assert growth.pop() == report.widening_columns

    # 3. Every granted column is an actual feed column.
    feed_columns = {(1, x) for x in placement.feed_columns(1)}
    for net in nets:
        for column in assignment.of_net(net)[1].columns:
            assert (1, column) in feed_columns
