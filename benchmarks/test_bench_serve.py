"""Benchmark — end-to-end decisions/sec through the live admission service.

Replays one fleet scenario's task stream through a real
:class:`~repro.serve.server.BackgroundServer` (TCP loopback, framed
protocol, watermark merge, simulation) at 1, 4 and 16 concurrent
clients, each submitting a round-robin shard of the stream with a
pipelined window.  Every run's finalize payload is checked bit-identical
against the offline simulation — the benchmark measures the *service*,
never a shortcut around it.

Emits ``BENCH_serve.json`` at the repo root.  The gated quantities are
the concurrency **retention ratios** (``rate_4/rate_1`` and
``rate_16/rate_1``): raw decisions/sec are machine-bound, but how much
throughput survives the merge barrier when submitters multiply is a
property of the implementation and transfers across machines
(``scripts/check_perf.py --serve-baseline`` compares them in CI).

Scale knobs (environment variables):

``REPRO_BENCH_SERVE_TOTAL_TIME``
    Horizon of the shared stream (default 1,000,000 — about 1,000 tasks).
``REPRO_BENCH_SERVE_MIN_RETENTION4`` / ``..._RETENTION16``
    Hard floors on the retention ratios (defaults 0.3 / 0.2).
``REPRO_BENCH_EMIT``
    Set to ``1`` to write the record file (see ``conftest.write_record``).
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import pytest
from conftest import write_record

from repro.fleet import FleetScenario, simulate_fleet
from repro.serve import (
    AdmissionClient,
    BackgroundServer,
    loopback_diff,
    make_backend,
    replay_tasks,
)

#: Where the perf record lands (repo root, next to BENCH_core.json).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Concurrency levels measured (and keyed in the emitted record).
CLIENT_COUNTS = (1, 4, 16)

#: Gate thresholds, embedded in the emitted record for the CI gate.
#: Overridable so an intentional, reviewed trade can lower them in the
#: PR that makes it (docs/performance.md).
#: Coalesced dispatch (submit_many + batched frame writes) keeps
#: multi-client throughput at or above the single-client rate on an
#: unloaded machine; the floors stay below 1.0 only to absorb shared-CI
#: scheduler noise.
RETENTION4_MIN = float(os.environ.get("REPRO_BENCH_SERVE_MIN_RETENTION4", "0.5"))
RETENTION16_MIN = float(os.environ.get("REPRO_BENCH_SERVE_MIN_RETENTION16", "0.5"))

#: Client-count -> measured dict; flushed by test_emit_perf_record.
RESULTS: dict[int, dict] = {}

#: Pipeline window per client (the replay driver's default).
WINDOW = 64


def serve_total_time() -> float:
    return float(os.environ.get("REPRO_BENCH_SERVE_TOTAL_TIME", "1000000"))


def serve_scenario() -> FleetScenario:
    """The documented 4-cluster fleet at bench scale (docs/fleet.md)."""
    return FleetScenario.uniform(
        n_clusters=4,
        system_load=0.6,
        total_time=serve_total_time(),
        seed=2007,
        nodes=8,
        cluster_spread=0.8,
        name="bench-serve",
    )


def _replay_concurrently(scenario: FleetScenario, tasks, n_clients: int):
    """One full server-mediated replay; returns (seconds, payload, batches).

    ``batches`` is the server's ``serve_coalesced_batch_size`` histogram
    cell (count / sum over the whole replay) — the direct read on how
    many submissions each barrier release handed the backend at once.
    """
    backend = make_backend(scenario, "EDF-DLT")
    with BackgroundServer(backend) as bg:
        host, port = bg.address
        clients = [AdmissionClient(host, port) for _ in range(n_clients)]
        try:
            for client in clients:
                client.connect()
                # Every submitter joins the merge barrier before any
                # shard starts, so no client can race ahead.
                client.open_stream()
            shards = [tasks[i::n_clients] for i in range(n_clients)]
            threads = [
                threading.Thread(
                    target=replay_tasks,
                    args=(client, shard),
                    kwargs={"window": WINDOW},
                )
                for client, shard in zip(clients, shards)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            seconds = time.perf_counter() - t0
            snap = clients[0].metrics()
            batches = snap.get("serve_coalesced_batch_size", {})
            payload = clients[0].finalize()
        finally:
            for client in clients:
                client.close()
    return seconds, payload, batches


@pytest.mark.benchmark(group="serve-throughput")
@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_bench_serve_decisions_per_sec(benchmark, n_clients):
    """Decisions/sec at ``n_clients`` concurrent submitters."""
    scenario = serve_scenario()
    tasks = scenario.stream_scenario().generate_tasks()
    offline = simulate_fleet(scenario, "EDF-DLT")

    def run():
        # Best-of-2 fresh servers: a jitter guard for the tiny wall times.
        first = _replay_concurrently(scenario, tasks, n_clients)
        second = _replay_concurrently(scenario, tasks, n_clients)
        return min(first, second, key=lambda triple: triple[0])

    seconds, payload, batches = benchmark.pedantic(run, rounds=1, iterations=1)
    problems = loopback_diff(payload, offline)
    assert problems == [], problems[:3]
    batch_count = int(batches.get("count", 0))
    batch_sum = float(batches.get("sum", 0.0))
    # Every submission went through exactly one coalesced pass.
    assert batch_sum == float(len(tasks)), (
        f"coalesced batches cover {batch_sum:g} submissions, "
        f"expected {len(tasks)}"
    )
    RESULTS[n_clients] = {
        "clients": n_clients,
        "tasks": len(tasks),
        "seconds": seconds,
        "decisions_per_sec": len(tasks) / seconds,
        "coalesced_batches": batch_count,
        "mean_batch_size": batch_sum / batch_count if batch_count else 0.0,
    }


def test_emit_perf_record():
    """Write BENCH_serve.json and enforce the retention floors."""
    if set(CLIENT_COUNTS) - set(RESULTS):
        pytest.skip("benchmark sections did not all run")

    rate_1 = RESULTS[1]["decisions_per_sec"]
    retention = {
        n: RESULTS[n]["decisions_per_sec"] / rate_1 for n in CLIENT_COUNTS[1:]
    }
    assert retention[4] >= RETENTION4_MIN, (
        f"4-client throughput retention {retention[4]:.2f} "
        f"(need >= {RETENTION4_MIN})"
    )
    assert retention[16] >= RETENTION16_MIN, (
        f"16-client throughput retention {retention[16]:.2f} "
        f"(need >= {RETENTION16_MIN})"
    )

    record = {
        "benchmark": "serve_throughput",
        "config": {
            "clusters": 4,
            "nodes": 8,
            "cluster_spread": 0.8,
            "system_load": 0.6,
            "total_time": serve_total_time(),
            "seed": 2007,
            "algorithm": "EDF-DLT",
            "window": WINDOW,
            "client_counts": list(CLIENT_COUNTS),
        },
        "gates": {
            "retention_4_min": RETENTION4_MIN,
            "retention_16_min": RETENTION16_MIN,
        },
        "results": {str(n): RESULTS[n] for n in CLIENT_COUNTS},
        "retention_4": retention[4],
        "retention_16": retention[16],
    }
    write_record(RECORD_PATH, record)
