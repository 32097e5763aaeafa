"""The paper's primary contribution: the timing- and area-driven
edge-deletion global router (Sections 3.1–3.5)."""

from .candidates import CandidateEngine
from .config import RouterConfig
from .density import DensityEngine, ChannelStats, EdgeDensityParams
from .criteria import (
    ConstraintArcRows,
    DelayCriteria,
    NetTimingContext,
    evaluate_delay_criteria,
    local_margin,
    penalty,
)
from .selection import SelectionMode, selection_key
from .result import GlobalRoutingResult, NetRoute
from .router import GlobalRouter
from .verify import verify_routing

__all__ = [
    "CandidateEngine",
    "ChannelStats",
    "ConstraintArcRows",
    "DelayCriteria",
    "DensityEngine",
    "EdgeDensityParams",
    "GlobalRouter",
    "GlobalRoutingResult",
    "NetRoute",
    "NetTimingContext",
    "RouterConfig",
    "SelectionMode",
    "evaluate_delay_criteria",
    "local_margin",
    "penalty",
    "selection_key",
    "verify_routing",
]
