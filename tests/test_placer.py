"""Tests for repro.layout.placer."""

import pytest

from conftest import build_chain_circuit
from repro.errors import ConfigError, PlacementError
from repro.layout.placer import FeedStyle, PlacerConfig, place_circuit
from repro.netlist import Circuit
from repro.tech import Technology


class TestConfig:
    def test_bad_rows(self):
        with pytest.raises(ConfigError):
            PlacerConfig(n_rows=0)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            PlacerConfig(feed_fraction=-0.1)

    def test_bad_aspect(self):
        with pytest.raises(ConfigError):
            PlacerConfig(aspect=0.0)


class TestPlaceCircuit:
    def test_places_all_cells(self, library):
        circuit = build_chain_circuit(library, n_gates=8)
        placement = place_circuit(circuit, PlacerConfig(n_rows=3))
        placement.validate()
        placed = [cell.name for row in placement.rows for cell in row]
        assert sorted(placed) == sorted(c.name for c in circuit.cells)

    def test_row_count_honoured(self, library):
        circuit = build_chain_circuit(library, n_gates=8)
        placement = place_circuit(circuit, PlacerConfig(n_rows=4))
        assert placement.n_rows == 4

    def test_auto_rows_positive(self, library):
        circuit = build_chain_circuit(library, n_gates=8)
        placement = place_circuit(circuit, PlacerConfig())
        assert placement.n_rows >= 1

    def test_aspect_increases_rows(self, library):
        circuit = build_chain_circuit(library, n_gates=30)
        flat = place_circuit(circuit, PlacerConfig(aspect=1.0))
        circuit2 = build_chain_circuit(library, n_gates=30, name="c2")
        tall = place_circuit(circuit2, PlacerConfig(aspect=3.0))
        assert tall.n_rows > flat.n_rows

    def test_feed_cells_even_vs_aside(self, library):
        even_circuit = build_chain_circuit(library, n_gates=10, name="e")
        even = place_circuit(
            even_circuit,
            PlacerConfig(
                n_rows=2, feed_fraction=0.5, feed_style=FeedStyle.EVEN
            ),
        )
        aside_circuit = build_chain_circuit(library, n_gates=10, name="a")
        aside = place_circuit(
            aside_circuit,
            PlacerConfig(
                n_rows=2, feed_fraction=0.5, feed_style=FeedStyle.ASIDE
            ),
        )
        for placement in (even, aside):
            assert all(
                len(placement.feed_columns(r)) >= 1
                for r in range(placement.n_rows)
            )
        # ASIDE: all feeds are in the run after the row's last cell.
        for r in range(aside.n_rows):
            assert not any(aside.feed_runs(r)[:-1])
        # EVEN: at least one row has a feed run strictly inside.
        assert any(
            any(even.feed_runs(r)[1:-1]) for r in range(even.n_rows)
        )

    def test_zero_feed_fraction(self, library):
        circuit = build_chain_circuit(library, n_gates=6)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=2, feed_fraction=0.0)
        )
        assert all(
            not placement.feed_columns(r)
            for r in range(placement.n_rows)
        )

    def test_connected_cells_nearby(self, library):
        # BFS linearization should keep chain neighbours within a couple
        # of rows of each other.
        circuit = build_chain_circuit(library, n_gates=20)
        placement = place_circuit(circuit, PlacerConfig(n_rows=4))
        for i in range(19):
            a = placement.terminal_row(
                circuit.cell(f"g{i}").terminal("O")
            )
            b = placement.terminal_row(
                circuit.cell(f"g{i + 1}").terminal("O")
            )
            assert abs(a - b) <= 1

    def test_empty_circuit_raises(self, library):
        with pytest.raises(PlacementError):
            place_circuit(Circuit("empty", library), PlacerConfig())

    def test_deterministic(self, library):
        c1 = build_chain_circuit(library, n_gates=12, name="x1")
        c2 = build_chain_circuit(library, n_gates=12, name="x2")
        p1 = place_circuit(c1, PlacerConfig(n_rows=3))
        p2 = place_circuit(c2, PlacerConfig(n_rows=3))
        layout1 = [[cell.name for cell in row] for row in p1.rows]
        layout2 = [[cell.name for cell in row] for row in p2.rows]
        assert layout1 == layout2
        assert [p1.feed_runs(r) for r in range(p1.n_rows)] == [
            p2.feed_runs(r) for r in range(p2.n_rows)
        ]
