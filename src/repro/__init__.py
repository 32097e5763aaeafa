"""repro — a reproduction of Harada & Kitazawa, "A Global Router Optimizing
Timing and Area for High-Speed Bipolar LSI's" (DAC 1994).

The package implements the paper's timing- and area-driven edge-deletion
global router together with every substrate it needs: an ECL-flavoured
cell library and netlist model, the capacitance delay model and path-based
timing constraints, a row/channel layout model with feedthrough slots and
feed-cell insertion, the routing graphs ``G_r(n)``, channel-density
bookkeeping, a VCG-aware left-edge channel router, baselines, and a
benchmark harness regenerating the paper's tables.

Quickstart::

    from repro import (
        standard_ecl_library, Circuit, place_circuit, PlacerConfig,
        RouterConfig, run_flow,
    )

    circuit = Circuit("demo", standard_ecl_library())
    ...                                   # build cells/nets
    placement = place_circuit(circuit, PlacerConfig())
    flow = run_flow(circuit, placement, [], RouterConfig())
    print(flow.global_result.summary(), flow.signoff.critical_delay_ps)
"""

from .errors import (
    ChannelRoutingError,
    ConfigError,
    FeedthroughError,
    NetlistError,
    PlacementError,
    ReproError,
    RoutingError,
    RoutingGraphError,
    TimingError,
)
from .geometry import Interval, Rect, hpwl, manhattan
from .tech import DEFAULT_TECHNOLOGY, Technology
from .netlist import (
    Cell,
    CellLibrary,
    CellType,
    Circuit,
    ExternalPin,
    Net,
    PinSide,
    Terminal,
    TerminalDef,
    TerminalDirection,
    standard_ecl_library,
    validate_circuit,
)
from .timing import (
    CapacitanceDelayModel,
    ConstraintGraph,
    ElmoreDelayModel,
    GlobalDelayGraph,
    PathConstraint,
    StaticTimingAnalyzer,
    WireCaps,
    build_constraint_graph,
    net_criticality_order,
    propagation_delay_ps,
)
from .layout import (
    AnnealConfig,
    AnnealResult,
    FeedCellInserter,
    FeedthroughPlanner,
    Floorplan,
    Placement,
    PlacerConfig,
    anneal_placement,
    assign_external_pins,
    place_circuit,
)
from .layout.placer import FeedStyle
from .routegraph import (
    RoutingGraph,
    build_routing_graph,
    compute_tentative_tree,
)
from .core import (
    DensityEngine,
    GlobalRouter,
    GlobalRoutingResult,
    RouterConfig,
    SelectionMode,
    verify_routing,
)
from .channelrouter import ChannelRoutingResult, route_channels
from .baselines import (
    critical_path_lower_bound_ps,
    hpwl_length_um,
    mst_length_um,
    star_length_um,
)
from .analysis import (
    DensityProfile,
    SignoffReport,
    full_report,
    net_skew,
    profile_from_engine,
    rc_sign_off,
    sign_off,
    wire_stats,
)
from .obs import (
    JsonlTraceSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    PhaseProfiler,
    RunManifest,
    TraceEvent,
    Tracer,
    build_run_manifest,
    read_trace,
    summarize_trace,
)
from .bench import (
    CircuitSpec,
    Dataset,
    DatasetSpec,
    Flow,
    RunRecord,
    format_table1,
    format_table2,
    format_table3,
    generate_circuit,
    generate_constraints,
    make_dataset,
    run_dataset,
    run_flow,
    run_pair,
    run_suite,
    small_suite,
    standard_suite,
)
from .exec import (
    JobOutcome,
    JobSpec,
    ProgressEvent,
    ProgressPrinter,
    ResultCache,
    SweepReporter,
    SweepResult,
    execute_job,
    run_batch,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ChannelRoutingError",
    "ConfigError",
    "FeedthroughError",
    "NetlistError",
    "PlacementError",
    "ReproError",
    "RoutingError",
    "RoutingGraphError",
    "TimingError",
    # geometry / technology
    "DEFAULT_TECHNOLOGY",
    "Interval",
    "Rect",
    "Technology",
    "hpwl",
    "manhattan",
    # netlist
    "Cell",
    "CellLibrary",
    "CellType",
    "Circuit",
    "ExternalPin",
    "Net",
    "PinSide",
    "Terminal",
    "TerminalDef",
    "TerminalDirection",
    "standard_ecl_library",
    "validate_circuit",
    # timing
    "CapacitanceDelayModel",
    "ConstraintGraph",
    "ElmoreDelayModel",
    "GlobalDelayGraph",
    "PathConstraint",
    "StaticTimingAnalyzer",
    "WireCaps",
    "build_constraint_graph",
    "net_criticality_order",
    "propagation_delay_ps",
    # layout
    "AnnealConfig",
    "AnnealResult",
    "FeedCellInserter",
    "FeedStyle",
    "anneal_placement",
    "FeedthroughPlanner",
    "Floorplan",
    "Placement",
    "PlacerConfig",
    "assign_external_pins",
    "place_circuit",
    # routing graph
    "RoutingGraph",
    "build_routing_graph",
    "compute_tentative_tree",
    # router core
    "DensityEngine",
    "GlobalRouter",
    "GlobalRoutingResult",
    "RouterConfig",
    "SelectionMode",
    "verify_routing",
    # channel routing / analysis / baselines
    "ChannelRoutingResult",
    "DensityProfile",
    "SignoffReport",
    "critical_path_lower_bound_ps",
    "full_report",
    "net_skew",
    "rc_sign_off",
    "wire_stats",
    "hpwl_length_um",
    "mst_length_um",
    "profile_from_engine",
    "route_channels",
    "sign_off",
    "star_length_um",
    # bench
    "CircuitSpec",
    "Dataset",
    "DatasetSpec",
    "Flow",
    "RunRecord",
    "format_table1",
    "format_table2",
    "format_table3",
    "generate_circuit",
    "generate_constraints",
    "make_dataset",
    "run_dataset",
    "run_flow",
    "run_pair",
    "run_suite",
    "small_suite",
    "standard_suite",
    # exec (batch engine)
    "JobOutcome",
    "JobSpec",
    "ProgressEvent",
    "ProgressPrinter",
    "ResultCache",
    "SweepReporter",
    "SweepResult",
    "execute_job",
    "run_batch",
    # obs
    "JsonlTraceSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "PhaseProfiler",
    "RunManifest",
    "TraceEvent",
    "Tracer",
    "build_run_manifest",
    "read_trace",
    "summarize_trace",
]
