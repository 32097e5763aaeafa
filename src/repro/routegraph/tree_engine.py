"""Incremental tentative-tree evaluation.

Every delay criterion of Section 3.2 is defined over the *tentative
tree*, and evaluating a candidate deletion means recomputing that tree
with the candidate excluded.  The reference estimator
(:func:`~repro.routegraph.tentative_tree.compute_tentative_tree`) runs a
full Dijkstra over the whole routing graph per call; this module makes
the evaluation incremental while guaranteeing **bit-identical lengths**:

* **non-tree fast path** — if ``skip_edge`` is not in the current tree's
  ``edge_ids``, no driver→terminal shortest path uses it, so excluding
  it cannot change any relaxation outcome along those paths: the union
  is unchanged and ``cl_if_deleted == cl_now`` with zero graph work.
  (Essential edges always lie on the union, so the fast path can never
  mask an essential edge's ``None`` result.)
* **early termination** — Dijkstra may stop as soon as the last
  terminal vertex is settled.  A settled vertex's distance and parent
  edge are final, and every vertex on a settled terminal's backtrace
  chain was itself settled earlier (its parent edge is assigned while
  the parent is being expanded), so all backtrace chains are frozen at
  their exhaustive-run values by then.
* **static CSR** — runs on the graph's static CSR slots
  (:mod:`repro.routegraph.graph`), built once per graph and never
  rebuilt, skipping the slots of dead edges.  The alive slots of a
  vertex are its alive edges in ascending edge-index order, the order
  the reference walk visits them in, so heap contents and parallel-edge
  tie-breaks match it exactly.

The union backtrace itself is shared with the reference estimator
(:func:`collect_union`), so the ``edge_ids`` set is built through the
same insertion sequence and ``total_length_um`` sums in the same float
order — the bit-identity guarantee is structural, not coincidental.

The fast path is only sound for the ``"spt"`` estimator: a KMB Steiner
tree's metric closure can route through off-tree edges, so the
``"steiner"`` estimator always recomputes from scratch.
"""

from __future__ import annotations

import heapq
import math
from contextlib import nullcontext
from typing import Callable, ContextManager, Dict, List, Optional, Sequence

from .graph import RoutingGraph
from .tentative_tree import ESTIMATORS, TentativeTree, collect_union


class _NullCounter:
    """Stand-in for an obs counter when no registry is attached."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


_NULL_COUNTER = _NullCounter()


def _null_timer() -> ContextManager[None]:
    return nullcontext()


def tree_graph_labels(
    graph: RoutingGraph,
) -> "tuple[List[float], List[int]]":
    """Dijkstra labels of a *converged* (tree-shaped) graph, by traversal.

    When every alive edge is essential the graph is a tree: each vertex
    has exactly one simple path from the driver, so there are no parent
    choices and no ties — Dijkstra would accumulate ``dist[parent] +
    length`` along that unique path and pick the unique incident edge as
    parent.  A driver-rooted traversal performs the identical float
    additions in the identical order, giving bit-identical labels with
    no priority queue.  Feed the result to :func:`collect_union`.
    """
    indptr = graph.indptr
    nbr_edge = graph.nbr_edge
    nbr_vertex = graph.nbr_vertex
    nbr_length = graph.nbr_length
    alive = graph.alive
    n = len(graph.vertex_x)
    dist: List[float] = [math.inf] * n
    parent_edge: List[int] = [-1] * n
    driver = graph.driver_vertex
    dist[driver] = 0.0
    stack = [driver]
    while stack:
        vertex = stack.pop()
        d = dist[vertex]
        parent = parent_edge[vertex]
        for i in range(indptr[vertex], indptr[vertex + 1]):
            edge_id = nbr_edge[i]
            if edge_id == parent or not alive[edge_id]:
                continue
            other = nbr_vertex[i]
            dist[other] = d + nbr_length[i]
            parent_edge[other] = edge_id
            stack.append(other)
    return dist, parent_edge


def dijkstra_to_terminals(
    graph: RoutingGraph,
    skip_edge: Optional[int] = None,
) -> Optional[TentativeTree]:
    """Tentative tree via early-terminated Dijkstra on the static CSR.

    Identical output to
    :func:`~repro.routegraph.tentative_tree.compute_tentative_tree` —
    same relaxation order, same backtrace, same summation order — but
    stops once every terminal vertex has been settled.  Returns ``None``
    when some terminal is unreachable.
    """
    indptr = graph.indptr
    nbr_edge = graph.nbr_edge
    nbr_vertex = graph.nbr_vertex
    nbr_length = graph.nbr_length
    alive = graph.alive
    n = len(graph.vertex_x)
    dist: List[float] = [math.inf] * n
    parent_edge: List[int] = [-1] * n
    driver = graph.driver_vertex
    dist[driver] = 0.0
    heap = [(0.0, driver)]
    pending = set(graph.terminal_vertices)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, vertex = pop(heap)
        if d > dist[vertex]:
            continue
        if vertex in pending:
            pending.discard(vertex)
            if not pending:
                break
        for i in range(indptr[vertex], indptr[vertex + 1]):
            edge_id = nbr_edge[i]
            if not alive[edge_id] or edge_id == skip_edge:
                continue
            nd = d + nbr_length[i]
            other = nbr_vertex[i]
            if nd < dist[other]:
                dist[other] = nd
                parent_edge[other] = edge_id
                push(heap, (nd, other))
    if pending:
        return None
    return collect_union(graph, dist, parent_edge)


class TreeEngine:
    """Tentative trees of one net's graph, per candidate deletion.

    ``evaluate`` first checks whether ``skip_edge`` lies on the current
    tree; off-tree candidates — the common case — reuse the tree object
    with zero graph work.  On-tree candidates run an early-terminated
    Dijkstra over the static CSR, and the resulting *alternate tree*
    is memoised: excluding an alive edge and deleting it are the same
    Dijkstra (a stranded fragment hangs off the graph only through the
    deleted edge, so with that edge skipped its vertices are never
    relaxed), which makes the alternate computed while *scoring* a
    candidate exactly the tree needed when that candidate *wins* —
    ``refresh`` after the deletion reuses it without touching the graph.
    Memo entries survive later deletions too, as long as no removed edge
    lies on them (the same off-union invariance, applied once per
    removed edge).  The fast paths are deliberately untimed: wrapping a
    set-membership check in a timer context would cost more than the
    check itself.  Under the ``"spt"`` estimator every result equals
    :func:`~repro.routegraph.tentative_tree.compute_tentative_tree` on
    the current graph bit for bit.
    """

    def __init__(
        self,
        graph: RoutingGraph,
        estimator: str = "spt",
        *,
        evals=_NULL_COUNTER,
        fastpath_hits=_NULL_COUNTER,
        dijkstra_runs=_NULL_COUNTER,
        dijkstra_repeats=_NULL_COUNTER,
        traversals=_NULL_COUNTER,
        timer: Callable[[], ContextManager[None]] = _null_timer,
    ) -> None:
        self.graph = graph
        self.estimator = estimator
        self._estimate = ESTIMATORS[estimator]
        self.tree: Optional[TentativeTree] = None
        #: Bumped on every :meth:`refresh`; cached per-candidate values
        #: stamped with an older version must be revalidated.
        self.version = 0
        self._m_evals = evals
        self._m_fastpath = fastpath_hits
        self._m_dijkstra = dijkstra_runs
        self._m_repeats = dijkstra_repeats
        self._m_traversals = traversals
        self._timer = timer
        # Candidates already Dijkstra'd once on this graph build.  A
        # second run for the same candidate is a *repeat*; the first
        # scoring of each candidate is irreducible.
        self._evaluated: set = set()
        # skip_edge -> its alternate tree, valid for the current graph.
        self._alt: Dict[int, TentativeTree] = {}

    def _count_eval_run(self, skip_edge: int) -> None:
        self._m_dijkstra.inc()
        if skip_edge in self._evaluated:
            self._m_repeats.inc()
        else:
            self._evaluated.add(skip_edge)

    def refresh(
        self, removed: Optional[Sequence[int]] = None
    ) -> Optional[TentativeTree]:
        """The tree of the current graph; bumps the version.

        ``removed`` names the edges that just left the graph (one
        deletion plus its pruned strands); without it the tree is
        recomputed from scratch.
        """
        self.version += 1
        if (
            removed is None
            or self.estimator != "spt"
            or self.tree is None
        ):
            self._alt.clear()
            return self._recompute()

        removed_set = set(removed)
        # removed[0] is the deleted edge; its alternate (if scored) is
        # the candidate for reuse below, never subject to the filter
        # (it excludes the edge by construction, and the pruned strands
        # it created cannot lie on it).
        alt = self._alt.pop(removed[0], None)
        if self._alt:
            stale = [
                skip
                for skip, tree in self._alt.items()
                if skip in removed_set
                or not removed_set.isdisjoint(tree.edge_ids)
            ]
            for skip in stale:
                del self._alt[skip]
        if removed_set.isdisjoint(self.tree.edge_ids):
            # No removed edge lay on the shortest-path union, so the
            # union — and every length derived from it — is unchanged.
            self._m_fastpath.inc()
            return self.tree
        if alt is not None:
            self._m_fastpath.inc()
            self.tree = alt
            return alt
        return self._recompute()

    def _recompute(self) -> Optional[TentativeTree]:
        if self.estimator != "spt":
            self._m_dijkstra.inc()
            with self._timer():
                self.tree = self._estimate(self.graph)
            return self.tree
        if self.graph.is_tree:
            # Converged graph: unique driver→vertex paths, so a plain
            # traversal reproduces Dijkstra's labels bit-identically
            # with no priority queue (see tree_graph_labels).
            self._m_traversals.inc()
            with self._timer():
                dist, parent_edge = tree_graph_labels(self.graph)
                self.tree = collect_union(self.graph, dist, parent_edge)
            return self.tree
        self._m_dijkstra.inc()
        with self._timer():
            self.tree = dijkstra_to_terminals(self.graph)
        return self.tree

    def evaluate(self, skip_edge: int) -> Optional[TentativeTree]:
        """Tree of the current graph with ``skip_edge`` excluded."""
        self._m_evals.inc()
        if self.estimator != "spt":
            self._count_eval_run(skip_edge)
            with self._timer():
                return self._estimate(self.graph, skip_edge)
        if self.tree is not None and skip_edge not in self.tree.edge_ids:
            self._m_fastpath.inc()
            return self.tree
        alt = self._alt.get(skip_edge)
        if alt is not None:
            self._m_fastpath.inc()
            return alt
        self._count_eval_run(skip_edge)
        with self._timer():
            tree = dijkstra_to_terminals(self.graph, skip_edge)
        if tree is not None:
            self._alt[skip_edge] = tree
        return tree

    def evaluate_many(
        self, edge_ids: Sequence[int]
    ) -> List[Optional[TentativeTree]]:
        """Batched :meth:`evaluate`: one pass over the dirty candidates.

        Every candidate *off* the current shortest-path union shares
        the same answer — the live tree — so the whole off-union slice
        of the batch is settled with set membership against
        ``tree.edge_ids`` (this is the multi-candidate pass; a shared
        Dijkstra frontier is impossible because each candidate excludes
        a different edge).  Only on-union candidates without a memoised
        alternate run their own early-terminated Dijkstra.
        """
        if self.estimator != "spt" or self.tree is None:
            return [self.evaluate(edge_id) for edge_id in edge_ids]
        on_union = self.tree.edge_ids
        out: List[Optional[TentativeTree]] = []
        fastpath = 0
        for edge_id in edge_ids:
            if edge_id not in on_union:
                out.append(self.tree)
                fastpath += 1
                continue
            alt = self._alt.get(edge_id)
            if alt is not None:
                out.append(alt)
                fastpath += 1
                continue
            self._count_eval_run(edge_id)
            with self._timer():
                tree = dijkstra_to_terminals(self.graph, edge_id)
            if tree is not None:
                self._alt[edge_id] = tree
            out.append(tree)
        self._m_evals.inc(len(edge_ids))
        if fastpath:
            self._m_fastpath.inc(fastpath)
        return out

