"""Benchmark — static vs adaptive routing on the documented 4-cluster fleet.

Times every routing policy (the four static routers and the three
``repro.learn`` bandits) on the documented heterogeneous fleet
(``docs/fleet.md``: 4 × 8 nodes, ``cluster_spread=0.8``, per-cluster
load 0.6) and emits ``BENCH_fleet_routing.json`` at the repo root — the
repo's first committed perf record, so future PRs can diff routing-layer
cost against a baseline instead of guessing.

Scale knobs (environment variables):

``REPRO_BENCH_FLEET_TOTAL_TIME``
    Horizon per run (default 100,000 — the documented configuration).
``REPRO_BENCH_FLEET_CLUSTERS``
    Member clusters (default 4).
``REPRO_BENCH_EMIT``
    Set to ``1`` to write the record file (see ``conftest.write_record``).

Shape checks ride along: the adaptive policies must not cost more than a
small multiple of the most expensive static policy (they mostly delegate
to it), and every reject ratio must be a valid ratio.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest
from conftest import write_record

from repro.fleet import FleetScenario, routing_policy_names, simulate_fleet
from repro.learn import learning_policy_names

#: Where the perf record lands (repo root, next to README.md).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet_routing.json"

#: policy -> {"seconds": ..., "reject_ratio": ...}; filled by the
#: parametrized benchmark below, flushed by test_emit_perf_record.
RESULTS: dict[str, dict[str, float]] = {}


def fleet_total_time() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_TOTAL_TIME", "100000"))


def fleet_clusters() -> int:
    return int(os.environ.get("REPRO_BENCH_FLEET_CLUSTERS", "4"))


def documented_fleet() -> FleetScenario:
    """The docs/fleet.md headline configuration at bench scale."""
    return FleetScenario.uniform(
        n_clusters=fleet_clusters(),
        system_load=0.6,
        total_time=fleet_total_time(),
        seed=2007,
        nodes=8,
        cluster_spread=0.8,
        name="bench-fleet",
    )


@pytest.mark.benchmark(group="fleet-routing")
@pytest.mark.parametrize("policy", routing_policy_names())
def test_bench_routing_policy(benchmark, policy):
    base = documented_fleet()

    def run():
        t0 = time.perf_counter()
        out = simulate_fleet(base.with_policy(policy), "EDF-DLT")
        return out, time.perf_counter() - t0

    out, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0.0 <= out.reject_ratio <= 1.0
    RESULTS[policy] = {
        "seconds": seconds,
        "reject_ratio": out.reject_ratio,
        "learning_regret": out.metrics.learning_regret,
        "adaptive": float(out.learning is not None),
    }


def test_emit_perf_record():
    """Write BENCH_fleet_routing.json and check the static/adaptive shape."""
    if len(RESULTS) < len(routing_policy_names()):
        pytest.skip("per-policy benchmarks did not all run")

    adaptive = set(learning_policy_names())
    static_seconds = {p: r["seconds"] for p, r in RESULTS.items() if p not in adaptive}
    slowest_static = max(static_seconds.values())
    for policy in adaptive:
        # A bandit mostly delegates to its arms; its overhead on top of
        # the priciest arm (earliest-finish probes every member) must
        # stay a small constant factor, not a blow-up.
        assert RESULTS[policy]["seconds"] <= 5.0 * max(slowest_static, 0.01), (
            f"{policy} costs {RESULTS[policy]['seconds']:.3f}s vs slowest "
            f"static {slowest_static:.3f}s"
        )

    record = {
        "benchmark": "fleet_routing",
        "config": {
            "clusters": fleet_clusters(),
            "nodes": 8,
            "cluster_spread": 0.8,
            "system_load": 0.6,
            "total_time": fleet_total_time(),
            "seed": 2007,
            "algorithm": "EDF-DLT",
        },
        "policies": {p: RESULTS[p] for p in sorted(RESULTS)},
    }
    write_record(RECORD_PATH, record)
