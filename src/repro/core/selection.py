"""Edge-selection heuristics (Section 3.4).

Each initial-routing iteration deletes the candidate edge whose removal
does the *least timing damage* and the *most congestion good*.  Candidates
are compared lexicographically:

1.  ``C_d(e)`` — fewer would-be-violated constraints wins;
2.  ``Gl(e)`` — smaller global penalty increase wins;
3.  ``LD(e)`` — smaller local delay increase wins;
4.  a **trunk** edge beats a non-trunk edge (deleting a trunk directly
    lowers channel density; deleting a branch merely removes the *option*
    of lowering it);
5.  smaller ``F_m = C_m(c) − D_m(e)`` wins — prefer channels whose
    guaranteed density is already close to the candidate's neighbourhood,
    "so as not to increase C_m" elsewhere;
6.  smaller ``N_m = NC_m(c) − ND_m(e)`` wins — fewer of the channel's
    most-congested guaranteed columns left uncovered by the candidate;
7.  smaller ``F_M = C_M(c) − D_M(e)`` wins — greedily delete where the
    upper-bound density peaks;
8.  smaller ``N_M = NC_M(c) − ND_M(e)`` wins;
9.  the **longer** edge wins (it frees more wiring), and a final
    deterministic tie-break on the candidate's identity.

The area-improvement phase (Section 3.5) reorders the comparison: after
``C_d`` the density conditions are examined, and ``Gl``/``LD`` come last.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional, Tuple

from ..routegraph.graph import RouteEdge
from .criteria import DelayCriteria
from .density import ChannelStats, EdgeDensityParams


class SelectionMode(enum.Enum):
    """Which lexicographic ordering to use."""

    TIMING = "timing"   # initial routing, violation recovery, delay phase
    AREA = "area"       # area-improvement phase


SelectionKey = Tuple
"""Opaque comparable tuple; smaller is better (selected for deletion)."""


CRITERION_NAMES = {
    # Key-position -> criterion label, per mode.  Must mirror the tuple
    # layouts produced by :func:`selection_key`; positions beyond the
    # listed names are the deterministic identity tie-break.
    SelectionMode.TIMING: (
        "C_d", "Gl", "LD",
        "trunk", "F_m", "N_m", "F_M", "N_M",
        "length",
    ),
    SelectionMode.AREA: (
        "C_d",
        "trunk", "F_m", "N_m", "F_M", "N_M",
        "Gl", "LD",
        "length",
    ),
}


def winning_criterion(
    best: SelectionKey,
    runner_up: Optional[SelectionKey],
    mode: SelectionMode,
) -> Tuple[str, int]:
    """Which lexicographic condition separated the winner from the field.

    Returns ``(criterion_name, depth)`` where ``depth`` is the key index
    at which ``best`` first beats ``runner_up`` — i.e. how many
    conditions compared equal before one broke the tie.  A sole candidate
    reports ``("sole_candidate", -1)``; keys identical through every
    named condition report ``("tie_break", depth)``.
    """
    if runner_up is None:
        return "sole_candidate", -1
    names = CRITERION_NAMES[mode]
    for depth, (a, b) in enumerate(zip(best, runner_up)):
        if a != b:
            if depth < len(names):
                return names[depth], depth
            return "tie_break", depth
    return "tie_break", min(len(best), len(runner_up))


def key_fields(key: SelectionKey, mode: SelectionMode) -> Dict[str, Any]:
    """Decode a selection key into named fields (for decision records).

    Returns the named lexicographic conditions in comparison order; the
    ``length`` component is negated in the key (longer edge wins) and is
    reported here as the positive ``length_um``.  The deterministic
    identity tail, when present, is exposed as ``net`` / ``edge``.
    """
    names = CRITERION_NAMES[mode]
    fields: Dict[str, Any] = {}
    for index, name in enumerate(names):
        value = key[index]
        if name == "length":
            value = -value
        fields[name] = value
    tail = key[len(names):]
    if len(tail) >= 2:
        fields["net"] = tail[0]
        fields["edge"] = tail[1]
    return fields


def density_subkey(
    edge: RouteEdge, stats: ChannelStats, params: EdgeDensityParams
) -> Tuple:
    """Conditions 4–8 of the comparison (smaller is better).

    This sub-key is a pure function of the candidate edge, its channel's
    ``(C_M, NC_M, C_m, NC_m)`` and the two density profiles over the
    edge's own coverage window, so it can move only when the channel's
    stats move or a density update touches a column of that window —
    the two events on which the candidate engine re-keys a row's
    density columns.
    """
    return (
        0 if edge.is_trunk else 1,       # condition 4: prefer trunks
        stats.c_min - params.d_min,      # condition 5: F_m
        stats.nc_min - params.nd_min,    # condition 6: N_m
        stats.c_max - params.d_max,      # condition 7: F_M
        stats.nc_max - params.nd_max,    # condition 8: N_M
    )


def delay_subkey(delay: DelayCriteria) -> Tuple:
    """Conditions 1–3 (``C_d``, ``Gl``, ``LD``; smaller is better).

    A pure function of the net's delay criteria, which read only each
    of the net's constraint margins, ``lp`` at the net's arc endpoints,
    the net's ``cl_pf`` and the candidate's ``cl_if_deleted`` — the
    candidate engine re-keys a net's delay columns when a re-analysis
    moves one of the first two or a deletion refreshes the net's tree.
    For nets without constraints it is the constant
    ``DelayCriteria.ZERO`` and never goes stale at all.
    """
    return (
        delay.critical_count,
        delay.global_delay,
        delay.local_delay,
    )


def selection_key(
    edge: RouteEdge,
    delay: DelayCriteria,
    stats: ChannelStats,
    params: EdgeDensityParams,
    mode: SelectionMode,
    tie_break: Tuple = (),
) -> SelectionKey:
    """Build the comparable key of one candidate under ``mode``.

    ``tie_break`` is appended last for determinism (typically
    ``(net_name, edge_index)``).
    """
    density_part = density_subkey(edge, stats, params)
    delay_part = delay_subkey(delay)
    length_part = (-edge.length_um,)     # condition 9: longer edge wins
    if mode is SelectionMode.TIMING:
        return (
            delay_part + density_part + length_part + tuple(tie_break)
        )
    # AREA mode: C_d first, then densities, then Gl / LD.
    return (
        delay_part[:1]
        + density_part
        + delay_part[1:]
        + length_part
        + tuple(tie_break)
    )
