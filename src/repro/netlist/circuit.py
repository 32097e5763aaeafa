"""Instance-level netlist: circuit, cells, nets, terminals, external pins.

A :class:`Circuit` is the router's input: a bag of placed-later cell
instances, the nets connecting their terminals, and the chip's external
pins.  Bipolar specifics live here too — a net may be declared *w-pitch*
(Section 4.2) and two nets may be registered as a *differential pair*
(Section 4.1).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from ..errors import NetlistError
from .cell_library import (
    CellLibrary,
    CellType,
    TerminalDef,
    TerminalDirection,
)


class PinSide(enum.Enum):
    """Chip side on which an external pin sits.

    Standard-cell chips in this model expose pins on the bottom (channel 0)
    or top (channel ``n_rows``) boundary channel.
    """

    BOTTOM = "bottom"
    TOP = "top"


class Terminal:
    """A terminal of a concrete cell instance."""

    __slots__ = ("cell", "defn", "net")

    def __init__(self, cell: "Cell", defn: TerminalDef):
        self.cell = cell
        self.defn = defn
        self.net: Optional["Net"] = None

    @property
    def name(self) -> str:
        """Terminal name within its cell (e.g. ``"I0"``)."""
        return self.defn.name

    @property
    def full_name(self) -> str:
        """Globally unique ``cell.terminal`` name."""
        return f"{self.cell.name}.{self.defn.name}"

    @property
    def direction(self) -> TerminalDirection:
        return self.defn.direction

    @property
    def is_input(self) -> bool:
        return self.defn.direction is TerminalDirection.INPUT

    @property
    def is_output(self) -> bool:
        return self.defn.direction is TerminalDirection.OUTPUT

    @property
    def fanin_pf(self) -> float:
        """``Fin(t)`` of this terminal in pF."""
        return self.defn.fanin_pf

    def __repr__(self) -> str:
        return f"Terminal({self.full_name})"


class Cell:
    """A placed-later instance of a :class:`CellType`."""

    __slots__ = ("name", "ctype", "_terminals")

    def __init__(self, name: str, ctype: CellType):
        self.name = name
        self.ctype = ctype
        self._terminals: Dict[str, Terminal] = {
            t.name: Terminal(self, t) for t in ctype.terminals
        }

    def terminal(self, name: str) -> Terminal:
        """Look up an instance terminal by name."""
        try:
            return self._terminals[name]
        except KeyError:
            raise NetlistError(
                f"cell {self.name} ({self.ctype.name}) has no terminal "
                f"{name!r}"
            ) from None

    @property
    def terminals(self) -> Tuple[Terminal, ...]:
        return tuple(self._terminals.values())

    @property
    def width(self) -> int:
        return self.ctype.width

    @property
    def is_sequential(self) -> bool:
        return self.ctype.is_sequential

    def __repr__(self) -> str:
        return f"Cell({self.name}:{self.ctype.name})"


class ExternalPin:
    """An external (chip-boundary) pin.

    An *input* pin drives a net (it acts as the net's source); an *output*
    pin is a net sink.  ``column`` is the pin's x position on the chip
    boundary; it may be assigned later by the external-pin assignment step
    (line 01 of the paper's Fig. 2) and therefore starts as ``None``.
    """

    __slots__ = ("name", "direction", "side", "column", "net", "fanin_pf")

    def __init__(
        self,
        name: str,
        direction: TerminalDirection,
        side: PinSide = PinSide.BOTTOM,
        column: Optional[int] = None,
        fanin_pf: float = 0.020,
    ):
        self.name = name
        self.direction = direction
        self.side = side
        self.column = column
        self.net: Optional["Net"] = None
        self.fanin_pf = fanin_pf if direction is TerminalDirection.OUTPUT else 0.0

    @property
    def full_name(self) -> str:
        return f"pin:{self.name}"

    @property
    def is_input(self) -> bool:
        """True when the pin drives into the chip."""
        return self.direction is TerminalDirection.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction is TerminalDirection.OUTPUT

    def __repr__(self) -> str:
        return f"ExternalPin({self.name}, {self.direction.value})"


NetPin = Union[Terminal, ExternalPin]
"""Anything a net can connect: a cell terminal or an external pin."""


class Net:
    """A signal net.

    A legal net has exactly one *source* (a cell output terminal, or an
    external input pin) and one or more *sinks* (cell input terminals or
    external output pins).

    Bipolar attributes:

    * ``width_pitches`` — a w-pitch net occupies ``w`` adjacent feedthrough
      slots and its trunk edges weigh ``w`` in the channel-density profile
      (Section 4.2).
    * ``diff_partner`` — the other net of a differential pair; both nets
      must be routed on homogeneous, physically parallel paths
      (Section 4.1).

    ``circuit`` is the circuit whose :meth:`Circuit.add_net` made the net
    (``None`` for a free-standing net): :meth:`attach` advances its
    revision.  The drivers and sinks are split out of ``pins`` on the
    first read and kept until the next :meth:`attach`.
    """

    __slots__ = (
        "name", "pins", "width_pitches", "diff_partner", "circuit",
        "_sources", "_sinks",
    )

    def __init__(
        self,
        name: str,
        width_pitches: int = 1,
        circuit: Optional["Circuit"] = None,
    ):
        if width_pitches < 1:
            raise NetlistError(f"net {name}: width_pitches must be >= 1")
        self.name = name
        self.pins: List[NetPin] = []
        self.width_pitches = width_pitches
        self.diff_partner: Optional["Net"] = None
        self.circuit = circuit
        self._sources: Optional[List[NetPin]] = None
        self._sinks: Optional[List[NetPin]] = None

    # ------------------------------------------------------------------
    def attach(self, pin: NetPin) -> None:
        """Connect ``pin`` to this net (a pin joins at most one net)."""
        if pin.net is not None:
            raise NetlistError(
                f"{pin.full_name} already on net {pin.net.name}"
            )
        pin.net = self
        self.pins.append(pin)
        self._sources = self._sinks = None
        if self.circuit is not None:
            self.circuit.revision += 1

    def _split(self) -> None:
        """Sort the pins into drivers and sinks, in attachment order."""
        sources: List[NetPin] = []
        sinks: List[NetPin] = []
        for pin in self.pins:
            (sources if _drives(pin) else sinks).append(pin)
        self._sources = sources
        self._sinks = sinks

    @property
    def source(self) -> NetPin:
        """The unique driving pin; raises if the net is ill-formed."""
        if self._sources is None:
            self._split()
        sources = self._sources
        if len(sources) != 1:
            raise NetlistError(
                f"net {self.name} has {len(sources)} sources (needs 1)"
            )
        return sources[0]

    @property
    def sinks(self) -> List[NetPin]:
        """All driven pins, in attachment order (one list, kept until
        the next :meth:`attach`: read it, do not edit it)."""
        if self._sinks is None:
            self._split()
        return self._sinks

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    @property
    def total_sink_fanin_pf(self) -> float:
        """``Σ Fin(t)`` over the net's sinks — the fan-in load of Eq. (1)."""
        return sum(p.fanin_pf for p in self.sinks)

    @property
    def is_differential(self) -> bool:
        return self.diff_partner is not None

    def __repr__(self) -> str:
        return f"Net({self.name}, pins={len(self.pins)})"


def _drives(pin: NetPin) -> bool:
    """Whether ``pin`` acts as a net source."""
    if isinstance(pin, Terminal):
        return pin.is_output
    return pin.is_input  # an external *input* pin drives the net


class Circuit:
    """A complete netlist: library + cells + nets + external pins.

    Cells are logic cells only: a feed cell is a column of a placement
    row (see :class:`~repro.layout.placement.Placement`), not a netlist
    instance.  ``revision`` counts the netlist edits — every
    :meth:`add_cell`, :meth:`add_net`, :meth:`add_external_pin`,
    :meth:`make_differential_pair` and :meth:`Net.attach` of one of its
    nets — so what is derived from the netlist (:meth:`derived`) is
    kept until the next edit.
    """

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self.revision = 0
        self._cells: Dict[str, Cell] = {}
        self._nets: Dict[str, Net] = {}
        self._pins: Dict[str, ExternalPin] = {}
        self._derived: Dict[Hashable, Tuple[int, Any]] = {}

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def add_cell(self, name: str, type_name: str) -> Cell:
        """Instantiate ``type_name`` from the library as cell ``name``."""
        if name in self._cells:
            raise NetlistError(f"duplicate cell name {name!r}")
        ctype = self.library.get(type_name)
        if ctype.is_feed:
            raise NetlistError(
                f"cell {name}: {type_name} is the library's feed type; "
                "feed cells are placement columns (runs between a row's "
                "cells), not netlist cells"
            )
        cell = Cell(name, ctype)
        self._cells[name] = cell
        self.revision += 1
        return cell

    def add_net(self, name: str, width_pitches: int = 1) -> Net:
        """Create an empty net."""
        if name in self._nets:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name, width_pitches=width_pitches, circuit=self)
        self._nets[name] = net
        self.revision += 1
        return net

    def add_external_pin(
        self,
        name: str,
        direction: TerminalDirection,
        side: PinSide = PinSide.BOTTOM,
        column: Optional[int] = None,
    ) -> ExternalPin:
        """Declare an external pin on the chip boundary."""
        if name in self._pins:
            raise NetlistError(f"duplicate external pin name {name!r}")
        pin = ExternalPin(name, direction, side=side, column=column)
        self._pins[name] = pin
        self.revision += 1
        return pin

    def connect(self, net_name: str, *pins: NetPin) -> Net:
        """Attach one or more pins to an existing net."""
        net = self.net(net_name)
        for pin in pins:
            net.attach(pin)
        return net

    def make_differential_pair(self, net_a: Net, net_b: Net) -> None:
        """Register two nets as a differential pair (Section 4.1).

        Differential pairs are treated as 2-pitch nets in the feedthrough
        assignment phase, so both nets are widened to at least 2 pitches
        here (a single parallel corridor of width 2 is reserved for the
        pair; see :mod:`repro.bipolar.differential`).
        """
        if net_a is net_b:
            raise NetlistError("a net cannot pair with itself")
        for net in (net_a, net_b):
            if net.diff_partner is not None:
                raise NetlistError(
                    f"net {net.name} is already in a differential pair"
                )
            if net.fanout == 0:
                raise NetlistError(
                    f"net {net.name}: differential nets need sinks"
                )
        if len(net_a.sinks) != len(net_b.sinks):
            raise NetlistError(
                f"differential pair {net_a.name}/{net_b.name}: "
                "sink counts differ"
            )
        net_a.diff_partner = net_b
        net_b.diff_partner = net_a
        self.revision += 1

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``'s value for ``key``, built once per revision: the
        kept value is returned until a netlist edit, and the first read
        after one builds it again."""
        entry = self._derived.get(key)
        if entry is None or entry[0] != self.revision:
            entry = self._derived[key] = (self.revision, build())
        return entry[1]

    # ------------------------------------------------------------------
    # Lookup API
    # ------------------------------------------------------------------
    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise NetlistError(f"no cell named {name!r}") from None

    def has_cell(self, name: str) -> bool:
        return name in self._cells

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def external_pin(self, name: str) -> ExternalPin:
        try:
            return self._pins[name]
        except KeyError:
            raise NetlistError(f"no external pin named {name!r}") from None

    @property
    def cells(self) -> List[Cell]:
        return list(self._cells.values())

    @property
    def nets(self) -> List[Net]:
        return list(self._nets.values())

    @property
    def routable_nets(self) -> List[Net]:
        """Nets with at least two pins (those the router must wire)."""
        return [n for n in self._nets.values() if len(n.pins) >= 2]

    @property
    def external_pins(self) -> List[ExternalPin]:
        return list(self._pins.values())

    def differential_pairs(self) -> List[Tuple[Net, Net]]:
        """All differential pairs, each reported once (name-ordered)."""
        pairs = []
        for net in self._nets.values():
            partner = net.diff_partner
            if partner is not None and net.name < partner.name:
                pairs.append((net, partner))
        return pairs

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name}: {len(self._cells)} cells, "
            f"{len(self._nets)} nets, {len(self._pins)} pins)"
        )
