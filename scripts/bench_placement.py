"""Per-placement cost of the optimized admission engine's kernel.

Times one memo-miss placement (``FastSchedulabilityTest._place``) on
random availability vectors with ties, for the paper rule (EDF-DLT,
EDF-OPR-MN) and the all-nodes rule (EDF-DLT-AN, which places on all
``N``), on homogeneous and spread clusters of ``N`` nodes.  Run it
against two checkouts to compare their kernels::

    PYTHONPATH=src python scripts/bench_placement.py --nodes 16 64 256

Each row prints the median over ``--rounds`` rounds of the mean
microseconds per placement and the mean node count placed.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

import numpy as np

from repro.core.algorithms import make_algorithm
from repro.core.cluster import ClusterProfile
from repro.core.fastpath import make_admission_test
from repro.core.task import DivisibleTask


def placements(nodes: int, count: int, seed: int):
    """``count`` (task, availability, now) inputs; the paper rule places
    them on about two nodes."""
    rng = np.random.default_rng(seed)
    now = 1_000.0
    out = []
    for i in range(count):
        avail = now + rng.exponential(200.0, nodes)
        avail[rng.random(nodes) < 0.3] = now  # ties at ``now``
        sigma = float(rng.uniform(50.0, 400.0))
        task = DivisibleTask(
            task_id=i,
            arrival=now,
            sigma=sigma,
            deadline=float(rng.uniform(1.5, 6.0)) * sigma * 20.0,
        )
        out.append((task, avail, now))
    return out


def time_kernel(test, inputs, rounds: int) -> tuple[float, float]:
    """Median microseconds per placement, and the mean plan size."""
    place = test._place
    sizes = [
        len(e.plan.node_ids)
        for e in (place(t, a, now) for t, a, now in inputs)
        if e.plan is not None
    ]
    samples = []
    for _ in range(rounds):
        t0 = perf_counter()
        for task, avail, now in inputs:
            place(task, avail, now)
        samples.append((perf_counter() - t0) / len(inputs) * 1e6)
    return statistics.median(samples), (sum(sizes) / len(sizes) if sizes else 0.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[16, 64, 256])
    parser.add_argument("--count", type=int, default=2_000)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    header = ("algorithm", "cluster", "N", "us/placement", "mean n")
    print("{:<11} {:<8} {:>4} {:>13} {:>7}".format(*header))
    for nodes in args.nodes:
        inputs = placements(nodes, args.count, seed=nodes)
        for spread in (0.0, 0.8):
            cluster = ClusterProfile.with_spread(nodes, 1.0, 100.0, speed_spread=spread)
            for name in ("EDF-DLT", "EDF-OPR-MN", "EDF-DLT-AN"):
                algo = make_algorithm(name)
                test = make_admission_test(algo.policy, algo.partitioner, cluster)
                us, size = time_kernel(test, inputs, args.rounds)
                kind = "spread" if spread else "uniform"
                print(f"{name:<11} {kind:<8} {nodes:>4} {us:>13.2f} {size:>7.1f}")


if __name__ == "__main__":
    main()
