"""Benchmark harness: synthetic bipolar circuits (the stand-ins for the
paper's proprietary C1–C3), end-to-end runs, and Table 1/2/3 formatting."""

from .circuits import (
    CircuitSpec,
    Dataset,
    DatasetSpec,
    generate_circuit,
    generate_constraints,
    make_dataset,
    standard_suite,
    small_suite,
)
from .runner import (
    Flow, RunRecord, pair_records, run_dataset, run_flow, run_pair, run_suite,
)
from .tables import format_table1, format_table2, format_table3

__all__ = [
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
    "pair_records",
    "run_dataset",
    "run_flow",
    "run_pair",
    "run_suite",
    "small_suite",
    "standard_suite",
]
