"""Feed columns as placement runs, against the item model they replaced.

Section 4.3's insertion widens runs of the placement rows instead of
splicing named feed cells into item lists, and the annealer draws its
moves over numbered items instead of row lists holding feed cells; both
must give, column for column, what the item model gave
(``tests/feedcell_reference.py``).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.circuits import (
    generate_circuit,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.core import GlobalRouter, RouterConfig
from repro.errors import PlacementError
from repro.layout.anneal import AnnealConfig, anneal_placement
from repro.layout.feedcell import FeedCellInserter, InsertionReport
from repro.layout.placement import Placement
from repro.layout.placer import PlacerConfig, place_circuit
from repro.netlist import Circuit, TerminalDirection, standard_ecl_library
from repro.netlist.cell_library import CellType, TerminalDef

from .feedcell_reference import (
    ItemPlacement,
    ReferenceInserter,
    reference_anneal,
    same_geometry,
)

TYPES = ("INV1", "NOR2", "NOR3", "XOR2", "DFF")  # widths 4, 5, 6, 7, 10


# ----------------------------------------------------------------------
# Insertion
# ----------------------------------------------------------------------
@st.composite
def insertion_cases(draw):
    """Random rows of cells and runs, pass-1 corridors inside the runs,
    and a shortfall ``F(w, r)`` per row and width."""
    circuit = Circuit("runs", standard_ecl_library())
    rows = []
    for r in range(draw(st.integers(1, 4))):
        n_cells = draw(st.integers(0, 6))
        runs = draw(
            st.lists(
                st.integers(0, 5), min_size=n_cells + 1,
                max_size=n_cells + 1,
            )
        )
        items = [runs[0]]
        for i in range(n_cells):
            items.append(
                circuit.add_cell(f"c{r}_{i}", draw(st.sampled_from(TYPES)))
            )
            items.append(runs[i + 1])
        rows.append(items)
    placement = Placement(circuit, rows)
    corridors = []
    for row in range(placement.n_rows):
        columns = placement.feed_columns(row)
        at = 0
        while at < len(columns):
            width = draw(st.integers(0, 3))
            span = columns[at:at + width]
            if width >= 2 and span == list(range(span[0], span[0] + width)):
                corridors.append((row, span[0], width))
                at += width
            else:
                at += 1
    shortfall = {}
    for row in range(placement.n_rows):
        for width in (1, 2, 3):
            count = draw(st.integers(0, 3))
            if count:
                shortfall[(row, width)] = count
    return circuit, placement, corridors, shortfall


@settings(max_examples=300, deadline=None)
@given(insertion_cases())
def test_run_insertion_matches_splicing(case):
    circuit, placement, corridors, shortfall = case
    per_row_cost = {r: 0 for r in range(placement.n_rows)}
    for (row, width), count in shortfall.items():
        per_row_cost[row] += width * count
    widening = max(per_row_cost.values())
    reference = ItemPlacement.of(placement)
    assert same_geometry(placement, reference) == []

    expected_report = InsertionReport()
    expected = ReferenceInserter(reference).insert_feed_cells(
        shortfall, per_row_cost, widening, corridors, expected_report
    )
    report = InsertionReport()
    flagged = FeedCellInserter(circuit, placement)._insert_feed_cells(
        shortfall, per_row_cost, widening, corridors, report
    )
    assert flagged == expected
    assert same_geometry(placement, reference) == []
    assert report == expected_report
    assert len(circuit.cells) == sum(len(row) for row in placement.rows)
    for row, start, width in flagged:
        feeds = set(placement.feed_columns(row))
        assert set(range(start, start + width)) <= feeds


def test_widen_feed_runs_shifts_only_cells_to_the_right(library):
    circuit = Circuit("w", library)
    a = circuit.add_cell("a", "NOR2")
    b = circuit.add_cell("b", "INV1")
    c = circuit.add_cell("c", "DFF")
    placement = Placement(circuit, [[a, 2, b, c, 1]])
    placement.widen_feed_runs(0, [(2, 3), (3, 1)])
    assert placement.location_of(a) == (0, 0)
    assert placement.location_of(b) == (0, 7)
    assert placement.location_of(c) == (0, 14)
    assert placement.feed_runs(0) == (0, 2, 3, 2)
    assert placement.feed_columns(0) == [5, 6, 11, 12, 13, 24, 25]
    assert placement.width_columns == 26
    with pytest.raises(PlacementError):
        placement.widen_feed_runs(0, [(4, 1)])


def test_routed_design_keeps_its_netlist():
    """Routing widens the placement only: the circuit keeps every cell
    generation made, and no feed-type cell."""
    dataset = make_dataset(standard_suite()[1])  # C1P2: feeds aside
    circuit = dataset.circuit
    before = circuit.cells
    revision = circuit.revision
    width = dataset.placement.width_columns
    router = GlobalRouter(
        circuit, dataset.placement, dataset.constraints, RouterConfig()
    )
    result = router.route()
    assert result.feed_cells_inserted > 0
    assert circuit.cells == before
    assert circuit.revision == revision
    assert not any(cell.ctype.is_feed for cell in circuit.cells)
    assert (
        dataset.placement.width_columns
        == width + result.chip_widened_columns
    )


# ----------------------------------------------------------------------
# Annealing
# ----------------------------------------------------------------------
def _placed(spec):
    circuit = generate_circuit(spec.circuit)
    placement = place_circuit(
        circuit,
        PlacerConfig(
            n_rows=spec.n_rows,
            feed_fraction=spec.feed_fraction,
            feed_style=spec.feed_style,
            aspect=spec.aspect,
        ),
    )
    return circuit, placement


ANNEAL_CASES = [
    # tests/test_router_internals.py's annealed datasets (make_dataset
    # seeds the annealer with the circuit's seed).
    (small_suite()[0], small_suite()[0].circuit.seed, 4000),
    (small_suite()[0], small_suite()[0].circuit.seed, 20_000),
    (standard_suite()[0], 1, 20_000),
    (standard_suite()[0], 2, 20_000),
]


@pytest.mark.parametrize(
    "spec,seed,moves", ANNEAL_CASES,
    ids=[f"{s.name}-seed{seed}-{moves}" for s, seed, moves in ANNEAL_CASES],
)
def test_anneal_matches_item_model(spec, seed, moves):
    circuit, placement = _placed(spec)
    reference = ItemPlacement.of(placement)
    config = AnnealConfig(seed=seed, max_moves=moves)
    result = anneal_placement(circuit, placement, config)
    expected = reference_anneal(circuit, reference, config)
    assert result == expected
    assert result.moves_accepted > 0
    assert same_geometry(placement, reference) == []


def test_annealed_dataset_matches_item_model():
    spec = dataclasses.replace(
        small_suite()[0], anneal_placement=True, anneal_moves=4000
    )
    annealed = make_dataset(spec).placement
    circuit, placement = _placed(spec)
    reference = ItemPlacement.of(placement)
    reference_anneal(
        circuit, reference,
        AnnealConfig(seed=spec.circuit.seed, max_moves=spec.anneal_moves),
    )
    cells = {
        cell.name: annealed.location_of(cell)
        for row in annealed.rows
        for cell in row
    }
    assert cells == reference.cell_columns()
    for row in range(annealed.n_rows):
        assert annealed.feed_columns(row) == reference.feed_columns(row)


def test_anneal_with_width_one_cells_matches_item_model():
    """A library with one-column logic cells: equal-width moves swap
    them with feed columns anywhere on the chip."""
    library = standard_ecl_library()
    library.add(
        CellType(
            "TIE1", 1, (TerminalDef("O", TerminalDirection.OUTPUT, 0),)
        )
    )
    circuit = Circuit("ties", library)
    g = [circuit.add_cell(f"g{i}", "NOR2") for i in range(12)]
    t = [circuit.add_cell(f"t{i}", "TIE1") for i in range(6)]
    for i in range(11):
        circuit.connect(
            circuit.add_net(f"n{i}").name,
            g[i].terminal("O"), g[i + 1].terminal("I0"),
        )
    for k in range(6):
        circuit.connect(
            circuit.add_net(f"tie{k}").name,
            t[k].terminal("O"), g[2 * k].terminal("I1"),
        )
    placement = Placement(
        circuit,
        [
            [g[0], 2, t[0], g[1], 1, g[2], t[1], 3],
            [g[3], t[2], 1, g[4], g[5], 2, t[3]],
            [1, g[6], g[7], t[4], 2, g[8], g[9], g[10], t[5], g[11], 1],
        ],
    )
    reference = ItemPlacement.of(placement)
    config = AnnealConfig(seed=3, max_moves=3000)
    result = anneal_placement(circuit, placement, config)
    assert result == reference_anneal(circuit, reference, config)
    assert same_geometry(placement, reference) == []
