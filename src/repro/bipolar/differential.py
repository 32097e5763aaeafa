"""Differential-drive net pairs (Section 4.1).

ECL circuits drive large fan-out nets differentially to preserve noise
margins; the two nets of a pair must be routed *physically parallel*.  The
paper realizes this by

1. treating the pair as a 2-pitch net during feedthrough assignment (done
   in :mod:`repro.layout.feedthrough` — the pair is granted one corridor,
   split between the nets), and
2. establishing a one-to-one correspondence between the edges of the two
   routing graphs — legal iff ``G_r(n1)`` and ``G_r(n2)`` are
   *homogeneous* (isomorphic with matching relative geometry) — and then
   deleting edges in lock-step: when an edge of one net is deleted, the
   corresponding edge of the partner is deleted too.

If the graphs are not homogeneous (irregular pin geometry), the
correspondence cannot be established; the router then falls back to
routing the two nets independently and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ..routegraph.graph import EdgeKind, RoutingGraph, VertexKind


@dataclass
class PairCorrespondence:
    """Edge correspondence between the two routing graphs of a pair."""

    lead_net: str
    partner_net: str
    vertex_map: Dict[int, int]
    edge_map: Dict[int, int]

    def partner_edge(self, lead_edge: int) -> int:
        return self.edge_map[lead_edge]


def establish_correspondence(
    lead: RoutingGraph, partner: RoutingGraph
) -> Optional[PairCorrespondence]:
    """Try to establish the Section 4.1 edge correspondence.

    The graphs are *homogeneous* when sorting each graph's vertices by
    structural role — ``(kind, channel, column-rank within the graph)`` —
    produces a bijection under which every edge of the lead graph maps to
    an edge of the partner graph of the same kind (searching both graphs
    from the driving terminal, the "relative positions of all adjacent
    vertices" then agree).  Returns ``None`` when no such bijection exists.
    """
    lead_order = _structural_order(lead)
    partner_order = _structural_order(partner)
    if lead_order is None or partner_order is None:
        return None
    if len(lead_order) != len(partner_order):
        return None

    vertex_map: Dict[int, int] = {}
    for lead_vertex, partner_vertex in zip(lead_order, partner_order):
        if (
            lead.vertex_kind[lead_vertex]
            is not partner.vertex_kind[partner_vertex]
        ):
            return None
        if (
            lead.vertex_channel[lead_vertex]
            != partner.vertex_channel[partner_vertex]
        ):
            return None
        vertex_map[lead_vertex] = partner_vertex
    if vertex_map.get(lead.driver_vertex) != partner.driver_vertex:
        return None

    partner_edge_index: Dict[Tuple[EdgeKind, int, int], int] = {}
    for edge_id in partner.alive_edge_ids():
        u, v = partner.edge_u[edge_id], partner.edge_v[edge_id]
        key = (partner.edge_kind[edge_id], *sorted((u, v)))
        if key in partner_edge_index:
            return None  # parallel edges — ambiguous correspondence
        partner_edge_index[key] = edge_id

    edge_map: Dict[int, int] = {}
    alive_lead = list(lead.alive_edge_ids())
    if len(alive_lead) != len(partner_edge_index):
        return None
    for edge_id in alive_lead:
        u = vertex_map.get(lead.edge_u[edge_id])
        v = vertex_map.get(lead.edge_v[edge_id])
        if u is None or v is None:
            return None
        key = (lead.edge_kind[edge_id], *sorted((u, v)))
        partner_edge = partner_edge_index.get(key)
        if partner_edge is None:
            return None
        edge_map[edge_id] = partner_edge

    return PairCorrespondence(
        lead_net=lead.net.name,
        partner_net=partner.net.name,
        vertex_map=vertex_map,
        edge_map=edge_map,
    )


def _structural_order(graph: RoutingGraph) -> Optional[List[int]]:
    """Alive vertex ids sorted by structural role.

    Position vertices sort by ``(channel, x)``; terminal vertices by the
    geometry of their anchor.  Two alive vertices with identical sort keys
    make the order ambiguous — the graph cannot be matched reliably, so
    ``None`` is returned.
    """
    alive = list(compress(range(len(graph.vertex_alive)), graph.vertex_alive))
    keys = [
        (
            graph.vertex_kind[v] is VertexKind.TERMINAL,
            graph.vertex_channel[v],
            graph.vertex_x[v],
        )
        for v in alive
    ]
    if len(set(keys)) != len(keys):
        return None
    return [v for _, v in sorted(zip(keys, alive), key=lambda p: p[0])]
