"""The routing graph ``G_r(n) = (V_r, E_r)`` of one net (Fig. 3).

Vertices are either *terminal* vertices (one per circuit terminal or
external pin of the net) or *position* vertices (physical points: terminal
access points in a channel, feedthrough endpoints, external terminal
positions).  Edges are

* **correspondence** edges (zero weight) tying a terminal vertex to each of
  its physical positions,
* **trunk** edges — horizontal runs in a channel (these are what the
  channel-density profiles count), and
* **branch** edges — vertical row crossings through a feedthrough.

The edge-deletion router repeatedly removes edges while the graph still
connects every terminal.  Following the paper's terminology, an edge whose
removal would disconnect some terminals is a **bridge**; only *non-bridge*
edges may be deleted.  We classify with respect to terminal connectivity:

* ``essential`` (paper's bridge) — removal separates two terminals; such
  edges are guaranteed to appear in the final wiring and feed the lower
  density profile ``d_m``;
* ``deletable`` — removal keeps all terminals connected.  Removing one may
  strand a terminal-free fragment, which is pruned immediately (a stranded
  fragment can never serve the net again, so it must stop occupying the
  density profile).

The fixed point of deletion — every alive edge essential — is a tree
spanning all terminal vertices whose leaves are terminals: exactly the
paper's required interconnection wiring.

**Storage is columnar.**  A graph holds one tuple per vertex field
(kind, channel, column, pin) and per edge field (kind, endpoints,
channel, column span, length, endpoint xor), plus one *static* CSR
adjacency — ``indptr`` and the neighbour-edge, neighbour-vertex and
neighbour-length slots, ascending edge id per vertex — built once with
the columns and never rebuilt.  Every walk reads the CSR and skips the
slots of dead edges, which visits exactly the alive neighbours, in
exactly the ascending-edge order, that an adjacency rebuilt over the
alive edges would list, so Dijkstra's ties and every stream come out as
they did over that rebuilt adjacency.  A graph owns the same fixed set
of containers whatever its size, so the cyclic GC scans a handful of
objects per net, not one per vertex and edge.
:attr:`RoutingGraph.vertices` and
:attr:`RoutingGraph.edges` build :class:`RouteVertex`/:class:`RouteEdge`
values on read for JSON, analysis and tests; no routing code reads them.

Classification is maintained **incrementally**: alongside the alive sets
the graph keeps its 2-edge-connected-component decomposition (the bridge
forest rooted at the driver), so :meth:`RoutingGraph.delete` only
re-searches bridges inside the one component the deleted edge belonged
to, and prunes by walking a frontier out from the deletion site instead
of rescanning every vertex.  Deletion can only *create* bridges (it
never merges components), so flags outside the affected component are
untouched.  The full pass is :meth:`reclassify`, one fused sweep: strip
pendant terminal-free vertices, run one driver-rooted Tarjan DFS that
finds the bridges, the terminal counts and the 2ECC labels together,
then prune what the DFS never reached.  Graph construction runs it,
callers that flip ``alive`` flags directly (like the negotiated
engine's finalizer) mutate and then call it, and ``delete`` falls back
to it whenever the local bookkeeping cannot vouch for the affected
region.  Both paths produce bit-identical alive/essential state, pruned
sets, and lengths; the tests check both against the four-pass
classifier this pass replaced (prune unreachable, strip pendants,
Tarjan, decomposition DFS), kept there as the reference.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence as _SequenceABC
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import xor
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import RoutingGraphError
from ..geometry import Interval
from ..netlist.circuit import Net, NetPin


class VertexKind(enum.Enum):
    TERMINAL = "terminal"
    POSITION = "position"


class EdgeKind(enum.Enum):
    CORRESPONDENCE = "correspondence"
    TRUNK = "trunk"
    BRANCH = "branch"


class _NullCounter:
    """Do-nothing stand-in so uninstrumented graphs pay one attribute
    lookup and a no-op call per event (mirrors the tree engine)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


_NULL_COUNTER = _NullCounter()


def _null_timer() -> ContextManager[None]:
    return nullcontext()


Coverage = Tuple[EdgeKind, int, int, int]
"""Where an edge shows up in the density profiles: ``(kind, channel,
lo, hi)``, with ``[lo, hi]`` its column span."""


class RouteVertex(NamedTuple):
    """A vertex of ``G_r(n)`` (an immutable value, compared by fields).

    Terminal vertices carry the netlist ``pin``; position vertices carry
    their physical ``(channel, x)`` point.  For uniform geometry queries a
    terminal vertex also records the channel/column of its pin's location.
    """

    index: int
    kind: VertexKind
    channel: int
    x: int
    pin: Optional[NetPin] = None

    @property
    def is_terminal(self) -> bool:
        return self.kind is VertexKind.TERMINAL


class RouteEdge(NamedTuple):
    """An edge of ``G_r(n)`` (an immutable value, compared by fields).

    ``channel`` and ``interval`` define where the edge shows up in the
    channel-density profiles; for branch and correspondence edges the
    interval is the single column they occupy (density conditions only
    ever prefer trunks, but ties among non-trunks still need *some*
    geometry to compare).
    """

    index: int
    kind: EdgeKind
    u: int
    v: int
    channel: int
    interval: Interval
    length_um: float

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise RoutingGraphError(
            f"vertex {vertex} is not an endpoint of edge {self.index}"
        )

    @property
    def is_trunk(self) -> bool:
        return self.kind is EdgeKind.TRUNK

    @property
    def coverage(self) -> Coverage:
        """The edge's density coverage (see :data:`Coverage`)."""
        return self.kind, self.channel, self.interval.lo, self.interval.hi


class _Rows(_SequenceABC):
    """A read-only sequence whose items ``row(index)`` builds on read;
    equal to any sequence with equal items."""

    __slots__ = ("_row", "_len")

    def __init__(self, row: Callable[[int], tuple], length: int):
        self._row = row
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(self._len)[index]]
        return self._row(range(self._len)[index])

    def __iter__(self) -> Iterator[tuple]:
        return map(self._row, range(self._len))

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SequenceABC):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


def _static_csr(
    n: int,
    edge_u: Sequence[int],
    edge_v: Sequence[int],
    edge_length: Sequence[float],
) -> Tuple[tuple, tuple, tuple, tuple]:
    """``(indptr, nbr_edge, nbr_vertex, nbr_length)`` over every edge.

    A counting sort by endpoint: filling the slots in edge-id order puts
    each vertex's edges in ascending id order.
    """
    degree = [0] * n
    for u in edge_u:
        degree[u] += 1
    for v in edge_v:
        degree[v] += 1
    indptr = [0, *accumulate(degree)]
    fill = indptr[:-1]
    size = indptr[-1]
    nbr_edge = [0] * size
    nbr_vertex = [0] * size
    nbr_length = [0.0] * size
    for edge_id, (u, v, length) in enumerate(
        zip(edge_u, edge_v, edge_length)
    ):
        i = fill[u]
        fill[u] = i + 1
        nbr_edge[i] = edge_id
        nbr_vertex[i] = v
        nbr_length[i] = length
        i = fill[v]
        fill[v] = i + 1
        nbr_edge[i] = edge_id
        nbr_vertex[i] = u
        nbr_length[i] = length
    return tuple(indptr), tuple(nbr_edge), tuple(nbr_vertex), tuple(
        nbr_length
    )


@dataclass
class DeletionResult:
    """Outcome of one edge deletion.

    ``removed`` lists every edge that left the graph (the deleted edge
    plus any pruned stranded fragment); ``newly_essential`` lists edges
    that were deletable before and are now guaranteed wiring.  The router
    uses both to update the density profiles incrementally.  ``removed``
    always starts with the deleted edge; the order of the pruned tail is
    an implementation detail (density updates commute and the tree
    engine treats it as a set), so equivalence checks compare it as one.
    """

    deleted: int
    removed: List[int] = field(default_factory=list)
    newly_essential: List[int] = field(default_factory=list)


class RoutingGraph:
    """Mutable routing graph of one net with live classification.

    Static columns (tuples, indexed by vertex or edge id): ``vertex_kind``,
    ``vertex_channel``, ``vertex_x``, ``vertex_pin``; ``edge_kind``,
    ``edge_u``, ``edge_v``, ``edge_channel``, ``edge_lo``, ``edge_hi``,
    ``edge_length`` and ``edge_xor`` (``u ^ v``, so the far endpoint of
    edge ``e`` seen from ``w`` is ``edge_xor[e] ^ w``).  The static CSR:
    the slots of vertex ``v`` are ``indptr[v]:indptr[v + 1]`` of
    ``nbr_edge``, ``nbr_vertex`` and ``nbr_length``.  Live state (lists):
    ``alive``, ``essential`` and ``vertex_alive``.
    """

    __slots__ = (
        "net", "terminal_vertices", "driver_vertex",
        "vertex_kind", "vertex_channel", "vertex_x", "vertex_pin",
        "edge_kind", "edge_u", "edge_v", "edge_channel", "edge_lo",
        "edge_hi", "edge_length", "edge_xor",
        "indptr", "nbr_edge", "nbr_vertex", "nbr_length",
        "alive", "essential", "vertex_alive", "as_built",
        "_alive_length", "_terminal_set", "_alive_mirror",
        "_degree", "_comp", "_comp_size", "_comp_anchor", "_comp_entry",
        "_hang_tcount", "_next_comp", "_stranded",
        "_m_local", "_m_fallbacks", "_m_frontier", "_timer",
    )

    def __init__(
        self,
        net: Net,
        vertices: Sequence[RouteVertex],
        edges: Sequence[RouteEdge],
        terminal_vertices: Sequence[int],
        driver_vertex: int,
    ):
        """A graph from explicit vertex and edge lists, each value's
        ``index`` its position (hand-built graphs and the reference
        construction; :func:`~repro.routegraph.build_routing_graph`
        fills the columns directly through :meth:`from_columns`)."""
        self._init(
            net,
            tuple(v.kind for v in vertices),
            tuple(v.channel for v in vertices),
            tuple(v.x for v in vertices),
            tuple(v.pin for v in vertices),
            tuple(e.kind for e in edges),
            tuple(e.u for e in edges),
            tuple(e.v for e in edges),
            tuple(e.channel for e in edges),
            tuple(e.interval.lo for e in edges),
            tuple(e.interval.hi for e in edges),
            tuple(e.length_um for e in edges),
            terminal_vertices,
            driver_vertex,
        )

    @classmethod
    def from_columns(cls, net: Net, *columns) -> "RoutingGraph":
        """A graph from its columns: ``vertex_kind, vertex_channel,
        vertex_x, vertex_pin, edge_kind, edge_u, edge_v, edge_channel,
        edge_lo, edge_hi, edge_length, terminal_vertices,
        driver_vertex``."""
        graph = cls.__new__(cls)
        graph._init(net, *columns)
        return graph

    def _init(
        self,
        net: Net,
        vertex_kind: Sequence[VertexKind],
        vertex_channel: Sequence[int],
        vertex_x: Sequence[int],
        vertex_pin: Sequence[Optional[NetPin]],
        edge_kind: Sequence[EdgeKind],
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        edge_channel: Sequence[int],
        edge_lo: Sequence[int],
        edge_hi: Sequence[int],
        edge_length: Sequence[float],
        terminal_vertices: Sequence[int],
        driver_vertex: int,
    ) -> None:
        self.net = net
        self.vertex_kind = vertex_kind
        self.vertex_channel = vertex_channel
        self.vertex_x = vertex_x
        self.vertex_pin = vertex_pin
        self.edge_kind = edge_kind
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_channel = edge_channel
        self.edge_lo = edge_lo
        self.edge_hi = edge_hi
        self.edge_length = edge_length
        self.edge_xor = tuple(map(xor, edge_u, edge_v))
        n = len(vertex_x)
        self.indptr, self.nbr_edge, self.nbr_vertex, self.nbr_length = (
            _static_csr(n, edge_u, edge_v, edge_length)
        )
        self.terminal_vertices: List[int] = list(terminal_vertices)
        self.driver_vertex = driver_vertex
        self.alive: List[bool] = [True] * len(edge_u)
        self.essential: List[bool] = [False] * len(edge_u)
        self.vertex_alive: List[bool] = [True] * n
        self._alive_length: Optional[float] = None
        # Terminals never change after construction; every prune and
        # bridge search shares this one frozenset.
        self._terminal_set: frozenset = frozenset(self.terminal_vertices)
        # Alive flags as of the last reclassification — lets
        # reclassify() detect both its own pruning and direct external
        # mutation, and skip cache invalidation when nothing changed.
        self._alive_mirror: List[bool] = self.alive[:]
        # 2ECC decomposition (rebuilt by every full reclassify, patched
        # by the incremental delete path):
        #   _degree[v]        alive degree of vertex v
        #   _comp[v]          component id (-1 for dead vertices)
        #   _comp_size[c]     alive vertices in component c
        #   _comp_anchor[c]   entry vertex of c (nearest the driver)
        #   _comp_entry[c]    the bridge edge toward the driver (-1 for
        #                     the driver's own component)
        #   _hang_tcount[v]   terminals hanging below v through bridges
        #                     whose near endpoint is v
        self._degree: List[int] = [0] * n
        self._comp: List[int] = [-1] * n
        self._comp_size: Dict[int, int] = {}
        self._comp_anchor: Dict[int, int] = {}
        self._comp_entry: Dict[int, int] = {}
        self._hang_tcount: Dict[int, int] = {}
        # Monotone component-id source; never reset, so stale ids on
        # dead vertices can never collide with live ones.
        self._next_comp = 0
        # Defensive only: set when the decomposition cannot vouch for
        # the graph (it never fires in practice — pendant pruning
        # preserves connectivity — but if it does, every delete falls
        # back to the full pass until a reclassify clears it).
        self._stranded = False
        # Observability (router-attached; no-ops by default).
        self._m_local = _NULL_COUNTER
        self._m_fallbacks = _NULL_COUNTER
        self._m_frontier = _NULL_COUNTER
        self._timer: Callable[[], ContextManager[None]] = _null_timer
        self._check_initial()
        # Initial cleanup: prune fragments that can never serve the net
        # (e.g. the unused side of a single-point channel) and classify.
        self._reclassify_full()
        # True until the alive set first changes after construction:
        # cleared by delete() and by any reclassify that changes it.
        # With an unchanged placement and slots, a rebuild of an
        # as-built graph returns an equal graph.
        self.as_built = True

    # ------------------------------------------------------------------
    def _check_initial(self) -> None:
        if self.driver_vertex not in self.terminal_vertices:
            raise RoutingGraphError(
                f"net {self.net.name}: driver vertex is not a terminal"
            )
        if len(self._terminal_set) != len(self.terminal_vertices):
            raise RoutingGraphError(
                f"net {self.net.name}: duplicate terminal vertices"
            )
        for t in self.terminal_vertices:
            if self.vertex_kind[t] is not VertexKind.TERMINAL:
                raise RoutingGraphError(
                    f"net {self.net.name}: vertex {t} is not terminal-kind"
                )

    def instrument(
        self,
        *,
        local_recomputes=None,
        full_fallbacks=None,
        frontier_vertices=None,
        timer: Optional[Callable[[], ContextManager[None]]] = None,
    ) -> None:
        """Attach router-owned counters/timer to the reclassify paths.

        ``local_recomputes`` counts deletions handled by the localized
        path, ``full_fallbacks`` deletions that ran the full
        reclassify, ``frontier_vertices`` vertices visited by localized
        prune walks, and ``timer`` wraps every reclassification (both
        paths) — the ``graph.reclassify_s`` histogram.
        """
        if local_recomputes is not None:
            self._m_local = local_recomputes
        if full_fallbacks is not None:
            self._m_fallbacks = full_fallbacks
        if frontier_vertices is not None:
            self._m_frontier = frontier_vertices
        if timer is not None:
            self._timer = timer

    # ------------------------------------------------------------------
    # Reads built on demand (JSON, analysis, tests)
    # ------------------------------------------------------------------
    def _vertex_row(self, index: int) -> RouteVertex:
        return RouteVertex(
            index,
            self.vertex_kind[index],
            self.vertex_channel[index],
            self.vertex_x[index],
            self.vertex_pin[index],
        )

    def _edge_row(self, index: int) -> RouteEdge:
        return RouteEdge(
            index,
            self.edge_kind[index],
            self.edge_u[index],
            self.edge_v[index],
            self.edge_channel[index],
            Interval(self.edge_lo[index], self.edge_hi[index]),
            self.edge_length[index],
        )

    @property
    def vertices(self) -> Sequence[RouteVertex]:
        """The vertices as :class:`RouteVertex` values, built on read."""
        return _Rows(self._vertex_row, len(self.vertex_x))

    @property
    def edges(self) -> Sequence[RouteEdge]:
        """The edges as :class:`RouteEdge` values, built on read."""
        return _Rows(self._edge_row, len(self.edge_u))

    def alive_edges(self) -> Iterator[RouteEdge]:
        return map(self._edge_row, self.alive_edge_ids())

    def final_wiring(self) -> List[RouteEdge]:
        """The alive edges once deletion has converged (checked)."""
        if not self.is_tree:
            raise RoutingGraphError(
                f"net {self.net.name}: routing graph is not a tree yet"
            )
        return list(self.alive_edges())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def alive_edge_ids(self) -> Iterator[int]:
        """Alive edge ids, ascending."""
        return compress(range(len(self.alive)), self.alive)

    def coverage(self, edge_id: int) -> Coverage:
        """Edge ``edge_id``'s density coverage (see :data:`Coverage`)."""
        return (
            self.edge_kind[edge_id],
            self.edge_channel[edge_id],
            self.edge_lo[edge_id],
            self.edge_hi[edge_id],
        )

    def deletable_edges(self) -> List[int]:
        """Edge ids that may legally be deleted (the net's share of the
        paper's ``N_b``)."""
        return [
            edge_id
            for edge_id, (alive, essential) in enumerate(
                zip(self.alive, self.essential)
            )
            if alive and not essential
        ]

    @property
    def is_tree(self) -> bool:
        """Whether deletion has converged (every alive edge essential)."""
        return all(compress(self.essential, self.alive))

    def terminals_connected(self) -> bool:
        """Whether every terminal vertex is reachable from the driver."""
        seen = self._reach(self.driver_vertex)
        return all(t in seen for t in self.terminal_vertices)

    def _reach(self, start: int) -> Set[int]:
        """Vertices reachable from ``start`` over alive edges."""
        indptr = self.indptr
        nbr_edge = self.nbr_edge
        nbr_vertex = self.nbr_vertex
        alive = self.alive
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for i in range(indptr[v], indptr[v + 1]):
                if alive[nbr_edge[i]]:
                    w = nbr_vertex[i]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return seen

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def delete(self, edge_id: int) -> DeletionResult:
        """Delete a deletable edge; prune strands; reclassify.

        Raises :class:`RoutingGraphError` for dead or essential edges.
        """
        if not (0 <= edge_id < len(self.alive)):
            raise RoutingGraphError(f"edge {edge_id} out of range")
        if not self.alive[edge_id]:
            raise RoutingGraphError(f"edge {edge_id} is already deleted")
        if self.essential[edge_id]:
            raise RoutingGraphError(
                f"edge {edge_id} is essential and cannot be deleted"
            )
        self.as_built = False
        if self._stranded:
            # The decomposition cannot vouch for the graph: the full
            # pass (strip, fresh Tarjan, prune).
            self._m_fallbacks.inc()
            self.alive[edge_id] = False
            result = DeletionResult(deleted=edge_id, removed=[edge_id])
            pruned, newly_essential = self.reclassify()
            result.removed.extend(pruned)
            result.newly_essential.extend(newly_essential)
            return result
        with self._timer():
            return self._delete_incremental(edge_id)

    def _delete_incremental(self, edge_id: int) -> DeletionResult:
        """Localized deletion: frontier prune + in-component Tarjan.

        Deleting a *non-bridge* edge perturbs exactly one 2ECC — the
        pendant cascade from its endpoints can only consume that
        component's own vertices plus terminal-free trees hanging off
        them (multi-vertex 2ECCs have internal degree ≥ 2, so the
        cascade stops at their boundary), and new bridges can only
        appear inside it.  Deleting a non-essential *bridge* detaches a
        terminal-free fragment — exactly what the full pass's prune
        of unreachable vertices would discover with its scan — and
        changes no flags at all.  Either way the rest of the graph is
        provably untouched, so flags, component labels and hang counts
        elsewhere stay as they are.
        """
        self._alive_length = None
        u = self.edge_u[edge_id]
        v = self.edge_v[edge_id]
        self._kill_edge(edge_id)
        result = DeletionResult(deleted=edge_id, removed=[edge_id])
        removed = result.removed
        frontier = 0
        cu, cv = self._comp[u], self._comp[v]
        local_comp = -1
        if cu == cv:
            seeds: Tuple[int, ...] = (u, v)
            local_comp = cu
        else:
            # A (non-essential) bridge: the component it was the
            # driver-ward entry of is now a terminal-free fragment.
            if self._comp_entry.get(cu) == edge_id:
                far = u
            elif self._comp_entry.get(cv) == edge_id:
                far = v
            else:
                # Bookkeeping cannot name the far side — repair with
                # the full pass (counted as a fallback).
                self._m_fallbacks.inc()
                pruned, newly = self._reclassify_full()
                removed.extend(pruned)
                result.newly_essential.extend(newly)
                return result
            frontier += self._drop_fragment(far, removed)
            seeds = (v if far == u else u,)
        stranded_comps, eaten = self._pendant_cascade(seeds, removed)
        frontier += eaten
        detached = {
            c for c in stranded_comps if self._comp_size.get(c, 0) > 0
        }
        if detached:
            # A fragment survived losing its bridge to the driver.
            # Unreachable by construction (pendant pruning preserves
            # connectivity), but if bookkeeping ever disagrees, route
            # every later delete through the full pass, which
            # prunes it the way a fresh reclassify would.
            self._stranded = True
        if (
            local_comp >= 0
            and local_comp not in detached
            and self._comp_size.get(local_comp, 0) > 1
        ):
            result.newly_essential.extend(
                self._local_bridge_refresh(local_comp)
            )
        self._m_local.inc()
        if frontier:
            self._m_frontier.inc(frontier)
        return result

    def _kill_edge(self, edge_id: int) -> None:
        self.alive[edge_id] = False
        self._alive_mirror[edge_id] = False
        degree = self._degree
        degree[self.edge_u[edge_id]] -= 1
        degree[self.edge_v[edge_id]] -= 1

    def _kill_vertex(self, vertex: int) -> None:
        self.vertex_alive[vertex] = False
        c = self._comp[vertex]
        if c >= 0:
            self._comp_size[c] -= 1

    def _drop_fragment(self, far: int, removed: List[int]) -> int:
        """Kill everything reachable from ``far`` (the detached side of
        a deleted bridge); returns the number of vertices visited.

        Vertices die in ascending order, as in a full scan of the
        unreachable ones.
        """
        indptr = self.indptr
        nbr_edge = self.nbr_edge
        alive = self.alive
        seen = self._reach(far)
        for t in self.terminal_vertices:
            if t in seen:
                raise RoutingGraphError(
                    f"net {self.net.name}: terminal vertex {t} disconnected"
                )
        for v in sorted(seen):
            self._kill_vertex(v)
            for i in range(indptr[v], indptr[v + 1]):
                edge_id = nbr_edge[i]
                if alive[edge_id]:
                    self._kill_edge(edge_id)
                    removed.append(edge_id)
        return len(seen)

    def _pendant_cascade(
        self, seeds: Sequence[int], removed: List[int]
    ) -> Tuple[Set[int], int]:
        """Strip pendant non-terminal vertices outward from ``seeds``.

        The localized form of the full pass's pendant strip: only
        the deletion site can have created new pendants, so the walk
        starts there instead of scanning every vertex.  Iterated leaf
        removal is confluent, so the pruned set is identical to the
        full scan's.  Returns the component ids whose driver-ward
        bridge was consumed (stranding candidates) and the number of
        vertices eaten.
        """
        terminal_set = self._terminal_set
        degree = self._degree
        vertex_alive = self.vertex_alive
        indptr = self.indptr
        nbr_edge = self.nbr_edge
        nbr_vertex = self.nbr_vertex
        alive = self.alive
        comp = self._comp
        comp_entry = self._comp_entry
        queue = [
            v
            for v in seeds
            if vertex_alive[v] and degree[v] <= 1 and v not in terminal_set
        ]
        stranded: Set[int] = set()
        eaten = 0
        while queue:
            v = queue.pop()
            if not vertex_alive[v]:
                continue
            self._kill_vertex(v)
            eaten += 1
            for i in range(indptr[v], indptr[v + 1]):
                edge_id = nbr_edge[i]
                if not alive[edge_id]:
                    continue
                self._kill_edge(edge_id)
                removed.append(edge_id)
                w = nbr_vertex[i]
                cw = comp[w]
                if cw != comp[v]:
                    # A bridge died with the pruned leaf; whichever side
                    # it was the entry of may now be detached.
                    if comp_entry.get(cw) == edge_id:
                        stranded.add(cw)
                    elif comp_entry.get(comp[v]) == edge_id:
                        stranded.add(comp[v])
                    else:
                        self._stranded = True
                if (
                    vertex_alive[w]
                    and degree[w] <= 1
                    and w not in terminal_set
                ):
                    queue.append(w)
        return stranded, eaten

    def _local_bridge_refresh(self, comp_id: int) -> List[int]:
        """Tarjan restricted to one 2ECC after it lost an edge.

        Rooted at the component's anchor (its driver-ward entry vertex),
        with per-vertex *effective* terminal counts: a vertex counts
        itself if terminal, plus every terminal hanging below it through
        pre-existing bridges (``_hang_tcount``).  A new bridge is
        essential iff its far-side effective count is positive — the
        near side always reaches the driver, a terminal.  New bridges
        split the component; the far pieces get fresh ids with the
        bridge as entry, and the near endpoint inherits the far side's
        terminal weight in its hang count.  Returns newly essential
        edge ids in ascending order (the full pass's order).
        """
        anchor = self._comp_anchor[comp_id]
        if not self.vertex_alive[anchor]:
            # Anchor gone but members remain — detached component the
            # cascade bookkeeping missed; defer to the full path.
            self._stranded = True
            return []
        indptr = self.indptr
        nbr_edge = self.nbr_edge
        nbr_vertex = self.nbr_vertex
        alive = self.alive
        comp = self._comp
        terminal_set = self._terminal_set
        hang = self._hang_tcount

        disc: Dict[int, int] = {anchor: 0}
        low: Dict[int, int] = {anchor: 0}
        teff: Dict[int, int] = {
            anchor: (1 if anchor in terminal_set else 0)
            + hang.get(anchor, 0)
        }
        timer = 1
        # (edge_id, child, parent, far-side effective terminals)
        bridges: List[Tuple[int, int, int, int]] = []
        stack: List[Tuple[int, int, Iterator[int]]] = [
            (anchor, -1, iter(range(indptr[anchor], indptr[anchor + 1])))
        ]
        while stack:
            vertex, parent_edge, it = stack[-1]
            advanced = False
            for i in it:
                edge_id = nbr_edge[i]
                if not alive[edge_id] or edge_id == parent_edge:
                    continue
                w = nbr_vertex[i]
                if comp[w] != comp_id:
                    continue
                if w not in disc:
                    disc[w] = low[w] = timer
                    timer += 1
                    teff[w] = (
                        1 if w in terminal_set else 0
                    ) + hang.get(w, 0)
                    stack.append(
                        (w, edge_id, iter(range(indptr[w], indptr[w + 1])))
                    )
                    advanced = True
                    break
                if disc[w] < low[vertex]:
                    low[vertex] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                pvertex = stack[-1][0]
                if low[vertex] < low[pvertex]:
                    low[pvertex] = low[vertex]
                if low[vertex] > disc[pvertex]:
                    bridges.append(
                        (parent_edge, vertex, pvertex, teff[vertex])
                    )
                teff[pvertex] += teff[vertex]
        newly: List[int] = []
        if not bridges:
            return newly
        bridge_ids = {b[0] for b in bridges}
        # Pop order is leaf-to-root, so inner split pieces are labelled
        # before the enclosing ones and each vertex is relabelled once.
        for edge_id, child, parent, subtree_t in bridges:
            new_id = self._next_comp
            self._next_comp += 1
            comp[child] = new_id
            self._comp_anchor[new_id] = child
            self._comp_entry[new_id] = edge_id
            size = 1
            stack2 = [child]
            while stack2:
                v = stack2.pop()
                for i in range(indptr[v], indptr[v + 1]):
                    eid = nbr_edge[i]
                    if not alive[eid] or eid in bridge_ids:
                        continue
                    w = nbr_vertex[i]
                    if comp[w] != comp_id:
                        continue
                    comp[w] = new_id
                    size += 1
                    stack2.append(w)
            self._comp_size[new_id] = size
            self._comp_size[comp_id] -= size
            if subtree_t > 0:
                self.essential[edge_id] = True
                newly.append(edge_id)
                self._hang_tcount[parent] = (
                    self._hang_tcount.get(parent, 0) + subtree_t
                )
        newly.sort()
        return newly

    def reclassify(self) -> Tuple[List[int], List[int]]:
        """Prune fragments that cannot serve the net and refresh the
        essential flags and the incremental decomposition.

        Runs the one full classification pass (see
        :meth:`_reclassify_full`).  Callers that flip ``alive`` flags
        directly (the negotiated engine's finalizer) must call this
        afterwards; the alive-set change is detected against the mirror
        kept from the last classification, and the length cache is only
        invalidated when the alive set actually changed.

        Returns ``(pruned_edge_ids, newly_essential_edge_ids)``, the
        latter in ascending edge order.
        """
        with self._timer():
            return self._reclassify_full()

    def _reclassify_full(self) -> Tuple[List[int], List[int]]:
        """The full classification, fused into one pass over the graph.

        1. Strip pendant non-terminal vertices (iterated leaf removal,
           which can neither disconnect nor merge anything else).
        2. One driver-rooted Tarjan DFS over what is left finds the
           reach, the bridges and per-subtree terminal counts — a bridge
           is essential iff terminals hang below it — and labels each
           2-edge-connected component from its vertex stack when the
           component's root finishes.  That root is the component's
           anchor and its DFS parent edge the entry bridge.
        3. Alive vertices the DFS never reached are pruned with their
           edges.

        Stripping first prunes the same set as pruning the unreachable
        first: leaf removal is confluent and local to each connected
        piece.  A disconnected terminal raises
        :class:`RoutingGraphError` with the graph left as it was.
        """
        alive = self.alive
        vertex_alive = self.vertex_alive
        indptr = self.indptr
        nbr_edge = self.nbr_edge
        nbr_vertex = self.nbr_vertex
        terminal_set = self._terminal_set
        n = len(vertex_alive)
        externally_changed = alive != self._alive_mirror

        # --- 1. pendant strip ---------------------------------------
        if False in alive:
            degree = [0] * n
            for u, v in compress(zip(self.edge_u, self.edge_v), alive):
                degree[u] += 1
                degree[v] += 1
        else:
            degree = [b - a for a, b in zip(indptr, indptr[1:])]
        queue = [
            v
            for v, d in enumerate(degree)
            if d <= 1 and vertex_alive[v] and v not in terminal_set
        ]
        pruned: List[int] = []
        stripped: List[int] = []
        while queue:
            v = queue.pop()
            if not vertex_alive[v]:
                continue
            vertex_alive[v] = False
            stripped.append(v)
            for i in range(indptr[v], indptr[v + 1]):
                edge_id = nbr_edge[i]
                if not alive[edge_id]:
                    continue
                alive[edge_id] = False
                pruned.append(edge_id)
                w = nbr_vertex[i]
                degree[w] -= 1
                if degree[w] <= 1 and w not in terminal_set:
                    queue.append(w)
            degree[v] = 0

        # --- 2. Tarjan + 2ECC labels ----------------------------------
        driver = self.driver_vertex
        disc = [-1] * n
        low = [0] * n
        tcount = [0] * n
        comp = [-1] * n
        comp_size: Dict[int, int] = {}
        comp_anchor: Dict[int, int] = {}
        comp_entry: Dict[int, int] = {}
        hang: Dict[int, int] = {}
        essential_bridges: List[int] = []
        root = self._next_comp
        next_comp = root + 1
        disc[driver] = 0
        tcount[driver] = 1  # a terminal, as _check_initial ensured
        timer = 1
        # Tarjan's vertex stack; each DFS frame records where its own
        # vertex sits on it, so a finished component is one slice.
        members = [driver]
        stack: List[Tuple[int, int, Iterator[int], int]] = [
            (driver, -1, iter(range(indptr[driver], indptr[driver + 1])), 0)
        ]
        while stack:
            vertex, parent_edge, it, base = stack[-1]
            for i in it:
                edge_id = nbr_edge[i]
                if edge_id == parent_edge or not alive[edge_id]:
                    continue
                w = nbr_vertex[i]
                dw = disc[w]
                if dw < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    if w in terminal_set:
                        tcount[w] = 1
                    stack.append(
                        (
                            w,
                            edge_id,
                            iter(range(indptr[w], indptr[w + 1])),
                            len(members),
                        )
                    )
                    members.append(w)
                    break
                if dw < low[vertex]:
                    low[vertex] = dw
            else:
                stack.pop()
                if not stack:
                    break
                parent = stack[-1][0]
                lv = low[vertex]
                if lv < low[parent]:
                    low[parent] = lv
                t = tcount[vertex]
                tcount[parent] += t
                if lv > disc[parent]:
                    # parent_edge is a bridge: the vertex roots a 2ECC
                    # whose members are the stack slice above it.
                    c = next_comp
                    next_comp += 1
                    if base == len(members) - 1:  # a lone vertex
                        members.pop()
                        comp[vertex] = c
                        comp_size[c] = 1
                    else:
                        block = members[base:]
                        del members[base:]
                        for x in block:
                            comp[x] = c
                        comp_size[c] = len(block)
                    comp_anchor[c] = vertex
                    comp_entry[c] = parent_edge
                    if t:
                        essential_bridges.append(parent_edge)
                        hang[parent] = hang.get(parent, 0) + t
        if tcount[driver] != len(self.terminal_vertices):
            # Undo the strip so a failed pass leaves the graph as it
            # found it, then name the first unreachable terminal.
            for v in stripped:
                vertex_alive[v] = True
            for edge_id in pruned:
                alive[edge_id] = True
            missing = next(t for t in self.terminal_vertices if disc[t] < 0)
            raise RoutingGraphError(
                f"net {self.net.name}: terminal vertex {missing} disconnected"
            )
        for x in members:
            comp[x] = root
        comp_size[root] = len(members)
        comp_anchor[root] = driver
        comp_entry[root] = -1

        # --- 3. prune what the DFS never reached --------------------
        if timer != vertex_alive.count(True):
            for v in range(n):
                if vertex_alive[v] and disc[v] < 0:
                    vertex_alive[v] = False
                    degree[v] = 0
                    for i in range(indptr[v], indptr[v + 1]):
                        edge_id = nbr_edge[i]
                        if alive[edge_id]:
                            alive[edge_id] = False
                            pruned.append(edge_id)

        essential = [False] * len(alive)
        for edge_id in essential_bridges:
            essential[edge_id] = True
        previous = self.essential
        newly_essential = sorted(
            e for e in essential_bridges if not previous[e]
        )
        previous[:] = essential
        self._degree = degree
        self._comp = comp
        self._comp_size = comp_size
        self._comp_anchor = comp_anchor
        self._comp_entry = comp_entry
        self._hang_tcount = hang
        self._next_comp = next_comp
        self._stranded = False
        if externally_changed or pruned:
            self._alive_length = None
            self._alive_mirror = alive[:]
            self.as_built = False
        return pruned, newly_essential

    # ------------------------------------------------------------------
    def total_alive_length_um(self) -> float:
        """Summed alive-edge length, cached between mutations.

        A fixed-order ledger: the fold always runs over ascending edge
        index, left to right, one IEEE-754 addition per alive edge — the
        seed's sequential ``sum`` over the alive edges — so the value
        is bit-identical no matter which phase asks or how the graph
        reached this alive set.  The cache drops only when the alive
        set changes.  ``_phase_metric`` calls this for every net on
        every reroute decision, so the cache turns an O(nets × edges)
        rescan into an O(nets) lookup.
        """
        if self._alive_length is None:
            total = 0
            for length in compress(self.edge_length, self.alive):
                total += length
            self._alive_length = total
        return self._alive_length

    def __repr__(self) -> str:
        return (
            f"RoutingGraph({self.net.name}: {len(self.vertex_x)} vertices, "
            f"{self.alive.count(True)}/{len(self.alive)} edges alive)"
        )
