"""Incremental candidate selection for the edge-deletion loop.

The paper's loop (Fig. 2, lines 04–07) repeatedly picks the minimum of a
lexicographic selection key over *all* nets' deletable edges.  Rescanning
every candidate each iteration is an ``O(deletions × candidates)``
Python loop; :class:`CandidateEngine` is instead an **array-backed
incremental arg-min**: every candidate owns one key row, its slot in
each of eleven float64 column arrays, one per lexicographic key
position.  A row is a pure function of a few inputs, and a deletion
re-keys a row only when one of them moved:

* **delay columns** (``C_d``/``Gl``/``LD``) read each of the net's
  constraint margins, ``lp`` at the net's arc endpoints, the net's
  ``cl_pf`` and its per-candidate ``cl_if_deleted``.  The router reports
  every re-analyzed constraint as an ``(old, new)`` timing pair
  (:meth:`CandidateEngine.on_reanalyzed`): a moved margin marks every
  tracked net of the constraint, otherwise only the nets with an arc
  whose tail or head ``lp`` moved.  A deletion marks its own net
  (:meth:`CandidateEngine.on_deletion`): its tree engine refreshed, so
  its ``cl_if_deleted`` stamps and maybe its ``cl_pf`` moved.  Marked
  nets re-key through
  :func:`~repro.core.criteria.evaluate_delay_criteria_batch` over the
  tree engine's batched ``evaluate_many``;
* **density columns** read the channel's ``(C_M, NC_M, C_m, NC_m)`` and
  the two profiles over the row's own coverage window.  The
  :class:`~repro.core.density.DensityEngine` reports every changed
  column span.  A row is stale when its channel's stats moved since
  it was keyed, or else when its window meets a changed span; a flush
  re-keys each channel holding a stale live row whole, through a
  :class:`~repro.core.density.WindowIndex` built once per engine (a
  row no change touched gets back the values it had);
* **retirement**: a row leaves the pool on the ``removed`` and
  ``newly_essential`` lists of each deletion, mirror deletions
  included — mid-loop, those are the only ways a candidate stops being
  one.

``select()`` takes the lexicographic arg-min over live rows by
successive column refinement (all column values are exactly
representable in float64, so the comparison order equals tuple
comparison), refining only on the columns that can differ between two
rows, then still checks the pick against graph truth as a safety net,
retrying on a dead row and counting ``router.heap_stale``.

Every batched column update is elementwise-identical to the scalar
``selection_key`` of Section 3.4 (see ``evaluate_delay_criteria_batch``
for the float-for-float argument), so the matrix arg-min is the minimum
of the fresh scalar keys; ``tests/test_selection_property.py`` checks
that after random deletion sequences, and
``tests/test_edge_deletion_golden.py`` pins the resulting deletion
sequences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..routegraph.graph import EdgeKind
from .criteria import evaluate_delay_criteria_batch
from .density import ChannelStats, WindowIndex, coverage_windows
from .selection import SelectionMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..routegraph.graph import DeletionResult
    from ..timing.sta import ConstraintTiming
    from .router import GlobalRouter, _NetState

_TRUNK = EdgeKind.TRUNK

Handle = Tuple[str, int]
"""A candidate's identity: ``(net_name, edge_id)``."""


# Key-matrix column of each named lexicographic condition, per mode.
# Columns 0..8 mirror the ``selection_key`` tuple layouts exactly;
# columns 9 (net rank — the tracked nets' sorted-name ordinal, which
# preserves string comparison among them) and 10 (edge id) are the
# deterministic identity tie-break.
_N_COLS = 11
_COLS = {
    SelectionMode.TIMING: {
        "cd": 0, "gl": 1, "ld": 2, "trunk": 3,
        "fm": 4, "nm": 5, "fM": 6, "nM": 7, "neglen": 8,
    },
    SelectionMode.AREA: {
        "cd": 0, "trunk": 1, "fm": 2, "nm": 3,
        "fM": 4, "nM": 5, "gl": 6, "ld": 7, "neglen": 8,
    },
}


class CandidateEngine:
    """Array-backed incremental arg-min over the tracked states' edges.

    One engine serves one deletion loop: it indexes the loop's candidates
    at construction, listens to density updates, constraint re-analyses
    and deletions for its lifetime, and must be :meth:`close`-d when the
    loop ends (the router does this in a ``finally``).  Candidates only
    ever *leave* the pool mid-loop — edges die or become essential,
    never the reverse — so no insertion path beyond the initial build is
    needed.

    All key state lives in ``_K``, an ``(11, n_candidates)`` float64
    matrix: one contiguous array per key column, which is what the
    arg-min and the density re-keys read and write.  Every integer that
    can appear in a selection key (densities, counts, ids) is far below
    2**53, so the float64 columns order exactly like the scalar
    int/float tuples, and typed tuples equal to the scalar
    ``selection_key`` output are reconstructed on demand (tracing,
    :meth:`current_keys`) rather than kept.
    """

    def __init__(
        self,
        router: "GlobalRouter",
        states: Sequence["_NetState"],
        mode: SelectionMode,
    ):
        self._router = router
        self._mode = mode
        self._density = router.engine
        self._cols = _COLS[mode]
        self._m_pops = router.metrics.counter("router.heap_pops")
        self._m_stale = router.metrics.counter("router.heap_stale")
        self._m_vec_batches = router.metrics.counter(
            "router.vectorized_batches"
        )

        # Settle the timings before any key is computed.
        timing_driven = router.config.timing_driven
        if timing_driven:
            router._ensure_timings()

        self._states: Dict[str, "_NetState"] = {
            state.net.name: state for state in states
        }
        rank = {name: i for i, name in enumerate(sorted(self._states))}

        row_state: List["_NetState"] = []
        edge_ids: List[int] = []
        kinds: List[EdgeKind] = []
        channels: List[int] = []
        lo: List[int] = []
        hi: List[int] = []
        lengths: List[float] = []
        # (net name, first row, end row, timing-sensitive) per state, in
        # build order.
        nets: List[Tuple[str, int, int, bool]] = []
        for state in states:
            graph = state.graph
            edges = graph.deletable_edges()
            first = len(edge_ids)
            edge_ids += edges
            row_state += [state] * len(edges)
            for rows, column in (
                (kinds, graph.edge_kind),
                (channels, graph.edge_channel),
                (lo, graph.edge_lo),
                (hi, graph.edge_hi),
                (lengths, graph.edge_length),
            ):
                rows += map(column.__getitem__, edges)
            nets.append((
                state.net.name, first, len(edge_ids),
                timing_driven and state.context.constrained,
            ))

        # Rows are numbered channel by channel (build order within one),
        # so each channel's rows are one slice of the matrix.
        n = len(edge_ids)
        order = np.argsort(
            np.asarray(channels, dtype=np.int64), kind="stable"
        )
        row = np.empty(n, dtype=np.int64)
        row[order] = np.arange(n)
        self._row_state = [row_state[i] for i in order.tolist()]
        self._edge_ids = np.asarray(edge_ids, dtype=np.int64)[order]
        self._live = np.ones(n, dtype=bool)
        trunk = np.fromiter(
            (kind is _TRUNK for kind in kinds), dtype=bool, count=n
        )
        self._windows = WindowIndex(
            np.asarray(channels, dtype=np.int64)[order],
            *(a[order] for a in coverage_windows(trunk, lo, hi)),
        )
        cols = self._cols
        K = np.zeros((_N_COLS, n), dtype=np.float64)
        K[cols["trunk"]] = ~trunk[order]
        K[cols["neglen"]] = -np.asarray(lengths, dtype=np.float64)[order]
        K[9] = np.repeat(
            [rank[name] for name, _, _, _ in nets],
            [b - a for _, a, b, _ in nets],
        )[order]
        K[10] = self._edge_ids
        self._K = K

        # net name -> edge id -> row, for retiring rows on deletion, and
        # each sensitive net's rows in build order.
        row_list = row.tolist()
        self._row_of: Dict[str, Dict[int, int]] = {
            name: dict(zip(edge_ids[a:b], row_list[a:b]))
            for name, a, b, _ in nets
        }
        self._rows_by_net: Dict[str, np.ndarray] = {
            name: row[a:b] for name, a, b, sensitive in nets
            if sensitive and b > a
        }
        self._index_arcs()
        self._refine = self._refined_columns()

        # The stats each channel's rows were keyed against (a key for
        # every channel that holds rows), the column spans changed
        # since, and the nets whose delay inputs moved since the last
        # flush.
        self._keyed_stats: Dict[int, ChannelStats] = {}
        self._dirty_spans: Dict[int, List[Tuple[int, int]]] = {}
        self._delay_dirty: Set[str] = set()

        # Initial full build: every row's density and delay columns.
        for channel in self._windows.channels():
            self._key_density(
                channel, self._density.channel_stats(channel)
            )
        for name in sorted(self._rows_by_net):
            self._refresh_delay_rows(
                self._states[name], self._rows_by_net[name]
            )
        if n:
            router._m_key_evals.inc(n)
            self._m_vec_batches.inc(
                len(self._windows) + len(self._rows_by_net)
            )
        self._density.subscribe(self._on_span_changed)
        router._candidate_engines.append(self)

    def _refined_columns(self) -> Tuple[int, ...]:
        """The key columns that can differ between two rows, in order:
        the delay columns only if a row is timing-sensitive (they stay
        0.0 otherwise), the density columns always, and the fixed
        columns (trunk flag, length, net rank, edge id) only if they
        differ at construction."""
        cols = self._cols
        skip = set()
        if not self._rows_by_net:
            skip.update((cols["cd"], cols["gl"], cols["ld"]))
        fixed = [cols["trunk"], cols["neglen"], 9, 10]
        values = self._K[fixed]
        for column, varies in zip(
            fixed, (values != values[:, :1]).any(axis=1).tolist()
        ):
            if not varies:
                skip.add(column)
        return tuple(c for c in range(_N_COLS) if c not in skip)

    def _index_arcs(self) -> None:
        """Index the tracked sensitive nets by constraint: which nets
        read each constraint, and every arc row of theirs in it as
        parallel ``(tail position, head position, net)`` arrays."""
        self._sensitive_names = sorted(self._rows_by_net)
        nets_by_cg: Dict[str, List[str]] = {}
        arcs: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
        for owner, name in enumerate(self._sensitive_names):
            for arc_rows in self._states[name].context.arc_rows():
                cg_name = arc_rows.cg.name
                nets_by_cg.setdefault(cg_name, []).append(name)
                tails, heads, owners = arcs.setdefault(
                    cg_name, ([], [], [])
                )
                for _, tail_position, head_position in arc_rows.rows:
                    tails.append(tail_position)
                    heads.append(head_position)
                    owners.append(owner)
        self._nets_by_cg = nets_by_cg
        self._arcs_by_cg = {
            cg_name: tuple(np.asarray(a, dtype=np.int64) for a in arrays)
            for cg_name, arrays in arcs.items()
        }

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self) -> Optional[Tuple["_NetState", int]]:
        """The candidate with the minimum selection key, or ``None``
        when the loop has converged."""
        router = self._router
        self.refresh()
        while True:
            r = self._argmin()
            if r is None:
                return None
            self._m_pops.inc()
            state = self._row_state[r]
            edge_id = int(self._edge_ids[r])
            graph = state.graph
            if not graph.alive[edge_id] or graph.essential[edge_id]:
                # Safety net: deletion events retire every row that
                # stops being a candidate, so a dead pick means an
                # edge died outside the router's deletion path.
                self._m_stale.inc()
                self._live[r] = False
                continue
            if router.tracer.enabled:
                runner_key = self._runner_key(exclude=r)
                router._record_selection(
                    self._tuple_key(r), runner_key, self._mode
                )
            return state, edge_id

    def refresh(self) -> None:
        """Bring the matrix up to date with the world: settle timings
        (the router reports each re-analyzed constraint to
        :meth:`on_reanalyzed`) and re-key every live row whose inputs
        moved, in batched array operations."""
        if self._router.config.timing_driven:
            self._router._ensure_timings()
        self._flush()

    def current_keys(self) -> Dict[Handle, tuple]:
        """Typed key tuples of every live row, by handle.

        A verification aid (used by the selection property test): after
        :meth:`refresh`, the handles must be exactly the surviving
        candidates and each key must equal a freshly computed
        ``selection_key``.
        """
        self.refresh()
        return {
            (self._row_state[r].net.name, int(self._edge_ids[r])):
                self._tuple_key(r)
            for r in np.flatnonzero(self._live).tolist()
        }

    def close(self) -> None:
        """Stop listening to the density engine and the router (loop
        over)."""
        self._density.unsubscribe(self._on_span_changed)
        self._router._candidate_engines.remove(self)

    # ------------------------------------------------------------------
    # Change events
    # ------------------------------------------------------------------
    def on_deletion(
        self, state: "_NetState", result: "DeletionResult"
    ) -> None:
        """Retire the rows one deletion ended and mark its net's delay
        columns (the deletion refreshed its tree engine)."""
        name = state.net.name
        row_of = self._row_of.get(name)
        if row_of is None:
            return  # a net this loop does not track (e.g. a follower)
        live = self._live
        for edge_id in result.removed + result.newly_essential:
            r = row_of.get(edge_id)
            if r is not None:
                live[r] = False
        if name in self._rows_by_net:
            self._delay_dirty.add(name)

    def on_reanalyzed(
        self,
        before: Optional["ConstraintTiming"],
        after: "ConstraintTiming",
    ) -> None:
        """Mark the tracked nets whose delay inputs one constraint's
        re-analysis moved: all of them if its margin moved, otherwise
        those with an arc whose tail or head ``lp`` moved."""
        cg_name = after.graph.name
        nets = self._nets_by_cg.get(cg_name)
        if nets is None:
            return
        if before is None or before.margin_ps != after.margin_ps:
            self._delay_dirty.update(nets)
            return
        # Bitwise, so even a flip between 0.0 and -0.0 counts as moved.
        moved = before.lp_array().view(np.int64) != (
            after.lp_array().view(np.int64)
        )
        if not moved.any():
            return
        tails, heads, owners = self._arcs_by_cg[cg_name]
        names = self._sensitive_names
        self._delay_dirty.update(
            names[owner]
            for owner in np.unique(
                owners[moved[tails] | moved[heads]]
            ).tolist()
        )

    def _on_span_changed(self, channel: int, lo: int, hi: int) -> None:
        if channel in self._keyed_stats:
            self._dirty_spans.setdefault(channel, []).append((lo, hi))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Re-key every live row whose inputs moved, in batches."""
        refreshed = 0
        batches = 0
        if self._delay_dirty:
            live = self._live
            for name in sorted(self._delay_dirty):
                rows = self._rows_by_net[name]
                rows = rows[live[rows]]
                if rows.size == 0:
                    continue
                self._refresh_delay_rows(self._states[name], rows)
                refreshed += int(rows.size)
                batches += 1
            self._delay_dirty.clear()
        if self._dirty_spans:
            live = self._live
            windows = self._windows
            for channel in sorted(self._dirty_spans):
                a, b = windows.rows(channel)
                stats = self._density.channel_stats(channel)
                if stats != self._keyed_stats[channel]:
                    stale = np.count_nonzero(live[a:b])
                else:
                    stale = np.count_nonzero(
                        live[a:b]
                        & windows.meets(channel, self._dirty_spans[channel])
                    )
                if stale:
                    self._key_density(channel, stats)
                    refreshed += stale
                    batches += 1
            self._dirty_spans.clear()
        if refreshed:
            self._router._m_key_evals.inc(refreshed)
            self._m_vec_batches.inc(batches)

    def _key_density(self, channel: int, stats: ChannelStats) -> None:
        """Recompute conditions 5–8 for every row of ``channel`` (live
        or not) against its current ``stats``; a row whose window no
        change touched gets back the values it had."""
        a, b = self._windows.rows(channel)
        d_max, d_min, nd_max, nd_min = self._windows.params(
            self._density, channel
        )
        cols = self._cols
        K = self._K
        K[cols["fm"], a:b] = stats.c_min - d_min
        K[cols["nm"], a:b] = stats.nc_min - nd_min
        K[cols["fM"], a:b] = stats.c_max - d_max
        K[cols["nM"], a:b] = stats.nc_max - nd_max
        self._keyed_stats[channel] = stats

    def _refresh_delay_rows(
        self, state: "_NetState", rows: np.ndarray
    ) -> None:
        """Recompute ``C_d``/``Gl``/``LD`` for ``rows`` (one net) in batch."""
        router = self._router
        cl_if_deleted = router._cl_if_deleted_many(
            state, self._edge_ids[rows]
        )
        crit, gl, ld = evaluate_delay_criteria_batch(
            state.context, state.cl_pf, cl_if_deleted, router._timings
        )
        cols = self._cols
        K = self._K
        K[cols["cd"], rows] = crit
        K[cols["gl"], rows] = gl
        K[cols["ld"], rows] = ld

    def _argmin(self, exclude: int = -1) -> Optional[int]:
        """Lexicographic arg-min row by successive column refinement.

        Equivalent to tuple comparison because each column holds exactly
        the scalar key's value at that position (ints exactly
        representable; ``-0.0 == 0.0`` compares equal in both worlds)
        and the identity tail makes the minimum unique.  A column equal
        on every row cannot split a tie, so only ``_refine``'s columns
        are refined on.
        """
        idx = np.flatnonzero(self._live)
        if exclude >= 0:
            idx = idx[idx != exclude]
        if idx.size == 0:
            return None
        K = self._K
        for column in self._refine:
            if idx.size == 1:
                break
            values = K[column][idx]
            idx = idx[values == values.min()]
        return int(idx[0])

    def _runner_key(self, exclude: int) -> Optional[tuple]:
        """Key of the live runner-up (tracing only), dead rows retired."""
        while True:
            r = self._argmin(exclude)
            if r is None:
                return None
            state = self._row_state[r]
            edge_id = int(self._edge_ids[r])
            graph = state.graph
            if not graph.alive[edge_id] or graph.essential[edge_id]:
                self._m_pops.inc()
                self._m_stale.inc()
                self._live[r] = False
                continue
            return self._tuple_key(r)

    def _tuple_key(self, r: int) -> tuple:
        """The scalar ``selection_key`` tuple of row ``r``, reconstructed
        with the original int/float/str element types."""
        row = self._K[:, r]
        name = self._row_state[r].net.name
        edge_id = int(self._edge_ids[r])
        if self._mode is SelectionMode.TIMING:
            return (
                int(row[0]), float(row[1]), float(row[2]),
                int(row[3]), int(row[4]), int(row[5]),
                int(row[6]), int(row[7]),
                float(row[8]), name, edge_id,
            )
        return (
            int(row[0]), int(row[1]), int(row[2]),
            int(row[3]), int(row[4]), int(row[5]),
            float(row[6]), float(row[7]),
            float(row[8]), name, edge_id,
        )
