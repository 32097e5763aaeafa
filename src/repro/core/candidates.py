"""Incremental candidate selection for the edge-deletion loop.

The paper's loop (Fig. 2, lines 04–07) repeatedly picks the minimum of a
lexicographic selection key over *all* nets' deletable edges.  Rescanning
every candidate each iteration is an ``O(deletions × candidates)``
Python loop; :class:`CandidateEngine` is instead an **array-backed
incremental arg-min**: every candidate owns one row of a dense float64
key matrix whose columns are the lexicographic key positions.  A row is
a pure function of a few inputs, and a deletion re-keys a row only when
one of them moved:

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
  column span; a flush re-keys all of a channel's live rows if its
  stats moved since they were keyed, otherwise only the rows whose
  window overlaps a changed span, in one ``edge_params_batch``
  reduction;
* **retirement**: a row leaves the pool on the ``removed`` and
  ``newly_essential`` lists of each deletion, mirror deletions
  included — mid-loop, those are the only ways a candidate stops being
  one.

``select()`` takes the lexicographic arg-min over live rows by
successive column refinement (all column values are exactly
representable in float64, so the comparison order equals tuple
comparison), then still checks the pick against graph truth as a
safety net, retrying on a dead row and counting ``router.heap_stale``.

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

from .criteria import evaluate_delay_criteria_batch
from .density import ChannelStats, coverage_columns
from .selection import SelectionMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..routegraph.graph import DeletionResult
    from ..timing.sta import ConstraintTiming
    from .router import GlobalRouter, _NetState

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

    All key state lives in ``_K``, an ``(n_candidates, 11)`` float64
    matrix; every integer that can appear in a selection key (densities,
    counts, ids) is far below 2**53, so the float64 columns order
    exactly like the scalar int/float tuples, and typed tuples equal to
    the scalar ``selection_key`` output are reconstructed on demand
    (tracing, :meth:`current_keys`) rather than kept.
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
        channels: List[int] = []
        lo: List[int] = []
        hi: List[int] = []
        trunks: List[int] = []
        neglen: List[float] = []
        ranks: List[int] = []
        sensitive: List[bool] = []
        # net name -> edge id -> row, for retiring rows on deletion.
        self._row_of: Dict[str, Dict[int, int]] = {}
        for state in states:
            graph = state.graph
            net_rank = rank[state.net.name]
            is_sensitive = timing_driven and state.context.constrained
            row_of = self._row_of.setdefault(state.net.name, {})
            for edge_id in graph.deletable_edges():
                edge = graph.edges[edge_id]
                c_lo, c_hi = coverage_columns(edge)
                row_of[edge_id] = len(edge_ids)
                row_state.append(state)
                edge_ids.append(edge_id)
                channels.append(edge.channel)
                lo.append(c_lo)
                hi.append(c_hi)
                trunks.append(0 if edge.is_trunk else 1)
                neglen.append(-edge.length_um)
                ranks.append(net_rank)
                sensitive.append(is_sensitive)

        n = len(edge_ids)
        self._row_state = row_state
        self._edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self._lo = np.asarray(lo, dtype=np.int64)
        self._hi = np.asarray(hi, dtype=np.int64)
        self._live = np.ones(n, dtype=bool)
        cols = self._cols
        K = np.zeros((n, _N_COLS), dtype=np.float64)
        K[:, cols["trunk"]] = trunks
        K[:, cols["neglen"]] = neglen
        K[:, 9] = ranks
        K[:, 10] = self._edge_ids
        self._K = K

        channel_arr = np.asarray(channels, dtype=np.int64)
        self._rows_by_channel: Dict[int, np.ndarray] = {
            int(channel): np.flatnonzero(channel_arr == channel)
            for channel in np.unique(channel_arr)
        }
        by_net: Dict[str, List[int]] = {}
        for r in np.flatnonzero(sensitive).tolist():
            by_net.setdefault(row_state[r].net.name, []).append(r)
        self._rows_by_net: Dict[str, np.ndarray] = {
            name: np.asarray(rows, dtype=np.int64)
            for name, rows in by_net.items()
        }
        self._index_arcs()

        # The stats each channel's live rows were keyed against, the
        # column spans changed since, and the nets whose delay inputs
        # moved since the last flush.
        self._keyed_stats: Dict[int, ChannelStats] = {}
        self._dirty_spans: Dict[int, List[Tuple[int, int]]] = {}
        self._delay_dirty: Set[str] = set()

        # Initial full build: every row's density and delay columns.
        for channel, rows in self._rows_by_channel.items():
            self._refresh_density_rows(channel, rows)
        for name in sorted(self._rows_by_net):
            self._refresh_delay_rows(
                self._states[name], self._rows_by_net[name]
            )
        if n:
            router._m_key_evals.inc(n)
            self._m_vec_batches.inc(
                len(self._rows_by_channel) + len(self._rows_by_net)
            )
        self._density.subscribe(self._on_span_changed)
        router._candidate_engines.append(self)

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
        if channel in self._rows_by_channel:
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
            for channel in sorted(self._dirty_spans):
                rows = self._stale_density_rows(
                    channel, self._dirty_spans[channel]
                )
                if rows.size == 0:
                    continue
                self._refresh_density_rows(channel, rows)
                refreshed += int(rows.size)
                batches += 1
            self._dirty_spans.clear()
        if refreshed:
            self._router._m_key_evals.inc(refreshed)
            self._m_vec_batches.inc(batches)

    def _stale_density_rows(
        self, channel: int, spans: List[Tuple[int, int]]
    ) -> np.ndarray:
        """Live rows of ``channel`` whose density columns moved: all of
        them if the channel's stats moved since they were keyed, else
        those whose window overlaps one of the changed ``spans``."""
        rows = self._rows_by_channel[channel]
        rows = rows[self._live[rows]]
        stats = self._density.channel_stats(channel)
        if stats != self._keyed_stats[channel]:
            return rows
        lo = self._lo[rows]
        hi = self._hi[rows]
        hit = np.zeros(rows.size, dtype=bool)
        for span_lo, span_hi in spans:
            hit |= (lo <= span_hi) & (hi >= span_lo)
        return rows[hit]

    def _refresh_density_rows(self, channel: int, rows: np.ndarray) -> None:
        """Recompute conditions 4–8 for ``rows`` (one channel) in batch."""
        density = self._density
        stats = density.channel_stats(channel)
        d_max, nd_max, d_min, nd_min = density.edge_params_batch(
            channel, self._lo[rows], self._hi[rows]
        )
        cols = self._cols
        K = self._K
        K[rows, cols["fm"]] = stats.c_min - d_min
        K[rows, cols["nm"]] = stats.nc_min - nd_min
        K[rows, cols["fM"]] = stats.c_max - d_max
        K[rows, cols["nM"]] = stats.nc_max - nd_max
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
        K[rows, cols["cd"]] = crit
        K[rows, cols["gl"]] = gl
        K[rows, cols["ld"]] = ld

    def _argmin(self, exclude: int = -1) -> Optional[int]:
        """Lexicographic arg-min row by successive column refinement.

        Equivalent to tuple comparison because each column holds exactly
        the scalar key's value at that position (ints exactly
        representable; ``-0.0 == 0.0`` compares equal in both worlds)
        and the identity tail makes the minimum unique.
        """
        idx = np.flatnonzero(self._live)
        if exclude >= 0:
            idx = idx[idx != exclude]
        if idx.size == 0:
            return None
        K = self._K
        for column in range(_N_COLS):
            if idx.size == 1:
                break
            values = K[idx, column]
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
        row = self._K[r]
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
