#!/usr/bin/env python3
"""Regenerate the paper's Tables 1-3 (Harada & Kitazawa, DAC 1994).

Routes every dataset of the benchmark suite twice — with the critical
path constraints (the paper's router) and without them (the area-only
baseline) — then prints:

* Table 1: the dataset line-up,
* Table 2: delay / area / length / CPU in both modes,
* Table 3: difference from the HPWL critical-path lower bound.

Usage:
    python examples/reproduce_paper.py                 # standard suite
    python examples/reproduce_paper.py --suite small   # fast miniature
    python examples/reproduce_paper.py --table 2       # one table only

To diff two code versions' results, run ``repro-router batch --no-cache
--out before.json`` and ``--out after.json``, then ``repro-router
compare-runs before.json after.json``.
"""

import argparse
import sys
import time

from repro import (
    format_table1,
    format_table2,
    format_table3,
    make_dataset,
    run_pair,
    small_suite,
    standard_suite,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=("standard", "small"),
        default="standard",
        help="dataset suite (standard ~ the paper's C1-C3 scale; "
        "small finishes in a few seconds)",
    )
    parser.add_argument(
        "--table",
        type=int,
        choices=(1, 2, 3),
        default=None,
        help="print only one table (default: all three)",
    )
    args = parser.parse_args(argv)

    specs = standard_suite() if args.suite == "standard" else small_suite()
    wanted = {args.table} if args.table else {1, 2, 3}

    if wanted == {1}:
        datasets = [make_dataset(spec) for spec in specs]
        print(format_table1(datasets))
        return 0

    print(f"routing {len(specs)} datasets in both modes ...",
          file=sys.stderr)
    start = time.perf_counter()
    pairs = []
    for spec in specs:
        t0 = time.perf_counter()
        pairs.append(run_pair(spec))
        print(
            f"  {spec.name}: {time.perf_counter() - t0:.1f}s",
            file=sys.stderr,
        )
    print(
        f"total routing time {time.perf_counter() - start:.1f}s",
        file=sys.stderr,
    )
    print()

    if 1 in wanted:
        datasets = [make_dataset(spec) for spec in specs]
        print(format_table1(datasets))
        print()
    if 2 in wanted:
        print(format_table2(pairs))
        print()
    if 3 in wanted:
        print(format_table3(pairs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
