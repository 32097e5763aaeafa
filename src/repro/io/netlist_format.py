"""A line-oriented text format for circuits and placements.

Netlist (``.rnl``)::

    circuit counter8
    pin clk input bottom
    pin q0 output top 12
    cell u0 NOR2
    net n0 width=2
    connect n0 u0.O u1.I0 pin:q0
    diffpair data_p data_n

Placement (``.rpl``, version 2)::

    placement counter8 rows=4 version=2
    row 0: u0 u1 +1 u2
    row 1: +2 u5 u4 u3

A ``+<k>`` token is a run of ``k`` feed columns between a row's cells.
Feed cells are placement columns, not netlist cells, so a version-1 file
(no ``version=`` field), which listed them by name, is read only when it
names no feed cell.

Lines starting with ``#`` and blank lines are ignored.  The parser
reports the offending line number on every error.  Cell types resolve
against a :class:`~repro.netlist.cell_library.CellLibrary` supplied by
the caller (the format stores type *names*, not delay tables — process
data travels with the library, as in real PDK-based flows).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import NetlistError, PlacementError
from ..netlist.cell_library import CellLibrary, TerminalDirection
from ..netlist.circuit import Cell, Circuit, ExternalPin, PinSide, Terminal
from ..layout.placement import Placement, RowItem

PathLike = Union[str, Path]

#: The ``.rpl`` version :func:`write_placement` writes: feed runs.
PLACEMENT_VERSION = 2


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_circuit(circuit: Circuit) -> str:
    """Serialize a circuit to the ``.rnl`` text format."""
    lines: List[str] = [f"circuit {circuit.name}"]
    for pin in circuit.external_pins:
        direction = "input" if pin.is_input else "output"
        entry = f"pin {pin.name} {direction} {pin.side.value}"
        if pin.column is not None:
            entry += f" {pin.column}"
        lines.append(entry)
    for cell in circuit.cells:
        lines.append(f"cell {cell.name} {cell.ctype.name}")
    for net in circuit.nets:
        entry = f"net {net.name}"
        if net.width_pitches != 1:
            entry += f" width={net.width_pitches}"
        lines.append(entry)
    for net in circuit.nets:
        if not net.pins:
            continue
        refs = " ".join(_pin_ref(pin) for pin in net.pins)
        lines.append(f"connect {net.name} {refs}")
    for net_a, net_b in circuit.differential_pairs():
        lines.append(f"diffpair {net_a.name} {net_b.name}")
    return "\n".join(lines) + "\n"


def _pin_ref(pin) -> str:
    if isinstance(pin, Terminal):
        return f"{pin.cell.name}.{pin.name}"
    return f"pin:{pin.name}"


def write_placement(placement: Placement) -> str:
    """Serialize a placement to the ``.rpl`` text format (version 2)."""
    lines = [
        f"placement {placement.circuit.name} rows={placement.n_rows} "
        f"version={PLACEMENT_VERSION}"
    ]
    for index in range(placement.n_rows):
        names = " ".join(
            item.name if isinstance(item, Cell) else f"+{item}"
            for item in placement.items(index)
        )
        lines.append(f"row {index}: {names}".rstrip())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_circuit(text: str, library: CellLibrary) -> Circuit:
    """Parse the ``.rnl`` format into a :class:`Circuit`."""
    circuit: Optional[Circuit] = None
    for line_no, fields in _lines(text):
        keyword = fields[0]
        try:
            if keyword == "circuit":
                _expect(fields, 2, line_no)
                if circuit is not None:
                    raise NetlistError("duplicate 'circuit' line")
                circuit = Circuit(fields[1], library)
            elif circuit is None:
                raise NetlistError("first statement must be 'circuit'")
            elif keyword == "pin":
                _parse_pin(circuit, fields, line_no)
            elif keyword == "cell":
                _expect(fields, 3, line_no)
                circuit.add_cell(fields[1], fields[2])
            elif keyword == "net":
                _parse_net(circuit, fields, line_no)
            elif keyword == "connect":
                _parse_connect(circuit, fields, line_no)
            elif keyword == "diffpair":
                _expect(fields, 3, line_no)
                circuit.make_differential_pair(
                    circuit.net(fields[1]), circuit.net(fields[2])
                )
            else:
                raise NetlistError(f"unknown statement {keyword!r}")
        except NetlistError as exc:
            raise NetlistError(f"line {line_no}: {exc}") from None
    if circuit is None:
        raise NetlistError("empty netlist: no 'circuit' line")
    return circuit


def _parse_pin(circuit: Circuit, fields: List[str], line_no: int) -> None:
    if len(fields) not in (4, 5):
        raise NetlistError(
            f"'pin' needs 3-4 arguments, got {len(fields) - 1}"
        )
    name = fields[1]
    try:
        direction = {
            "input": TerminalDirection.INPUT,
            "output": TerminalDirection.OUTPUT,
        }[fields[2]]
        side = {"bottom": PinSide.BOTTOM, "top": PinSide.TOP}[fields[3]]
    except KeyError as bad:
        raise NetlistError(f"bad pin attribute {bad}") from None
    column = None
    if len(fields) == 5:
        column = _int(fields[4], "pin column")
    circuit.add_external_pin(name, direction, side=side, column=column)


def _parse_net(circuit: Circuit, fields: List[str], line_no: int) -> None:
    if len(fields) not in (2, 3):
        raise NetlistError("'net' needs 1-2 arguments")
    width = 1
    if len(fields) == 3:
        if not fields[2].startswith("width="):
            raise NetlistError(f"unknown net attribute {fields[2]!r}")
        width = _int(fields[2][len("width="):], "net width")
    circuit.add_net(fields[1], width_pitches=width)


def _parse_connect(
    circuit: Circuit, fields: List[str], line_no: int
) -> None:
    if len(fields) < 3:
        raise NetlistError("'connect' needs a net and at least one pin")
    net = circuit.net(fields[1])
    for ref in fields[2:]:
        if ref.startswith("pin:"):
            net.attach(circuit.external_pin(ref[len("pin:"):]))
            continue
        if "." not in ref:
            raise NetlistError(f"bad pin reference {ref!r}")
        cell_name, _, term_name = ref.rpartition(".")
        net.attach(circuit.cell(cell_name).terminal(term_name))


def parse_placement(text: str, circuit: Circuit) -> Placement:
    """Parse the ``.rpl`` format against an existing circuit."""
    n_rows: Optional[int] = None
    version = 1
    rows: Dict[int, List[RowItem]] = {}
    for line_no, fields in _lines(text):
        keyword = fields[0]
        try:
            if keyword == "placement":
                if len(fields) not in (3, 4):
                    raise PlacementError(
                        "'placement' needs a circuit, rows=<n> and an "
                        "optional version=<v>"
                    )
                if fields[1] != circuit.name:
                    raise PlacementError(
                        f"placement is for circuit {fields[1]!r}, "
                        f"not {circuit.name!r}"
                    )
                if not fields[2].startswith("rows="):
                    raise PlacementError("expected rows=<n>")
                if len(fields) == 4:
                    if not fields[3].startswith("version="):
                        raise PlacementError("expected version=<v>")
                    version = _int(fields[3][len("version="):], "version")
                    if version not in (1, PLACEMENT_VERSION):
                        raise PlacementError(
                            f"unsupported .rpl version {version} (this "
                            f"reader knows 1 and {PLACEMENT_VERSION})"
                        )
                n_rows = _int(fields[2][len("rows="):], "row count")
            elif keyword == "row":
                if n_rows is None:
                    raise PlacementError(
                        "'row' before the 'placement' header"
                    )
                index_text = fields[1].rstrip(":")
                index = _int(index_text, "row index")
                if not (0 <= index < n_rows):
                    raise PlacementError(f"row {index} out of range")
                if index in rows:
                    raise PlacementError(f"duplicate row {index}")
                rows[index] = [
                    _row_item(circuit, token, version)
                    for token in fields[2:]
                ]
            else:
                raise PlacementError(f"unknown statement {keyword!r}")
        except (NetlistError, PlacementError) as exc:
            raise PlacementError(f"line {line_no}: {exc}") from None
    if n_rows is None:
        raise PlacementError("missing 'placement' header")
    ordered = [rows.get(index, []) for index in range(n_rows)]
    return Placement(circuit, ordered)


def _row_item(circuit: Circuit, token: str, version: int) -> RowItem:
    """A row token: ``+<k>`` feed columns (version 2) or a cell name."""
    if version >= 2 and token.startswith("+"):
        run = _int(token[1:], "feed run")
        if run < 1:
            raise PlacementError(f"bad feed run {token!r}")
        return run
    if version < 2 and not circuit.has_cell(token):
        raise PlacementError(
            f"no cell named {token!r}; this file has no version=2 "
            "header, and feed cells are written as +<k> runs of feed "
            "columns from .rpl version 2 on"
        )
    return circuit.cell(token)


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def read_circuit(path: PathLike, library: CellLibrary) -> Circuit:
    """Read a circuit from an ``.rnl`` file."""
    return parse_circuit(Path(path).read_text(), library)


def read_placement(path: PathLike, circuit: Circuit) -> Placement:
    """Read a placement from an ``.rpl`` file."""
    return parse_placement(Path(path).read_text(), circuit)


# ----------------------------------------------------------------------
def _lines(text: str) -> Iterable[Tuple[int, List[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line.split()


def _expect(fields: List[str], count: int, line_no: int) -> None:
    if len(fields) != count:
        raise NetlistError(
            f"expected {count - 1} arguments, got {len(fields) - 1}"
        )


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise NetlistError(f"bad {what}: {text!r}") from None
