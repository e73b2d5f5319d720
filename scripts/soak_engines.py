#!/usr/bin/env python3
"""Differential soak: the fast admission engine against the reference walk.

Runs every named algorithm over a grid of regimes — speed spread
{0, 0.8} x system load {0.8, 3} x DCRatio {2, 20} x node order
{availability, fastest-first} on the paper's 16-node cluster — once per
engine, and requires the fast engine's task records and scheduler stats
to equal the reference engine's exactly.  The property suite samples
short random scenarios; this soak drives long horizons, where memo
entries, prefix checkpoints and deep queues live long enough to go stale
if anything keyed them wrongly.

Usage::

    PYTHONPATH=src python scripts/soak_engines.py

Prints one line per regime, then the total decision count and wall
time.  Exit code 0 = every run identical and at least
:data:`MIN_DECISIONS` decisions compared; 1 = the first mismatch
(reported) or too few decisions.
"""

from __future__ import annotations

import itertools
import sys
import time

from repro.core.algorithms import ALGORITHMS
from repro.experiments.runner import simulate
from repro.workload.scenario import Scenario

SPREADS = (0.0, 0.8)
LOADS = (0.8, 3.0)
DC_RATIOS = (2.0, 20.0)
NODE_ORDERS = ("availability", "fastest-first")

#: Horizon of each run: long enough for deep queues to build up and for
#: memo entries and checkpoints to outlive many clock advances.
TOTAL_TIME = 500_000.0
SEED = 2007

#: The soak fails unless it compared at least this many decisions, so a
#: shrunken grid cannot pass by comparing almost nothing.
MIN_DECISIONS = 100_000


def first_difference(reference, fast) -> str | None:
    """Describe the first way two outputs differ, or ``None``."""
    if reference.stats != fast.stats:
        return f"stats differ: {reference.stats} != {fast.stats}"
    if set(reference.records) != set(fast.records):
        return "record sets differ"
    for task_id in sorted(reference.records):
        if reference.records[task_id] != fast.records[task_id]:
            return (
                f"task {task_id}: {reference.records[task_id]} "
                f"!= {fast.records[task_id]}"
            )
    return None


def main() -> int:
    """Run the grid; return the exit code."""
    started = time.perf_counter()
    decisions = 0
    for spread, load, dc_ratio, node_order in itertools.product(
        SPREADS, LOADS, DC_RATIOS, NODE_ORDERS
    ):
        scenario = Scenario.paper_baseline(
            system_load=load,
            total_time=TOTAL_TIME,
            seed=SEED,
            dc_ratio=dc_ratio,
            speed_spread=spread,
            name="soak",
        )
        regime = (
            f"spread={spread:g} load={load:g} dc={dc_ratio:g} "
            f"order={node_order}"
        )
        regime_decisions = 0
        for algorithm in sorted(ALGORITHMS):
            outputs = [
                simulate(
                    scenario,
                    algorithm,
                    node_order=node_order,
                    admission_engine=engine,
                ).output
                for engine in ("reference", "fast")
            ]
            problem = first_difference(*outputs)
            if problem is not None:
                print(f"MISMATCH {algorithm} {regime}: {problem}")
                return 1
            regime_decisions += outputs[0].stats.arrivals
        decisions += regime_decisions
        print(f"{regime}: {regime_decisions} decisions identical", flush=True)

    elapsed = time.perf_counter() - started
    print(f"{decisions} decisions, 0 mismatches, {elapsed:.1f} s wall")
    if decisions < MIN_DECISIONS:
        print(f"only {decisions} decisions compared (need >= {MIN_DECISIONS})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
