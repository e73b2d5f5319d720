"""Tests for the live admission service (:mod:`repro.serve`).

The headline assertion is the loopback guarantee: replaying a scenario's
task stream through a live server — over a real TCP socket, through the
framed wire protocol, including with *concurrent* submitters — finalizes
into an output bit-identical to the offline one-shot simulation.
"""

from __future__ import annotations

import io
import os
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.scheduler import SchedulerStats
from repro.core.task import DivisibleTask, TaskOutcome
from repro.experiments.runner import simulate
from repro.fleet.scenario import FleetScenario
from repro.fleet.sim import simulate_fleet
from repro.learn import LearnConfig
from repro.serve import (
    AdmissionClient,
    BackgroundServer,
    ServiceProtocolError,
    available_codecs,
    loopback_diff,
    make_backend,
    replay_tasks,
)
from repro.serve.backend import ClusterBackend, FleetBackend
from repro.serve.protocol import (
    CODEC_JSON,
    CODEC_MSGPACK,
    decode_record,
    decode_stats,
    decode_task,
    encode_frame,
    encode_record,
    encode_stats,
    encode_task,
    read_frame,
)

HAS_MSGPACK = CODEC_MSGPACK in available_codecs()


def cluster_scenario(seed: int = 2007, total_time: float = 200_000.0) -> FleetScenario:
    """A 1-cluster fleet (served through the plain cluster backend)."""
    return FleetScenario.uniform(
        n_clusters=1,
        system_load=0.6,
        total_time=total_time,
        seed=seed,
        nodes=8,
        name="serve-test",
    )


def fleet_scenario(
    policy: str, seed: int = 2007, total_time: float = 100_000.0
) -> FleetScenario:
    """A small heterogeneous 3-cluster fleet under ``policy``."""
    learn = LearnConfig() if policy in ("thompson", "epsilon-greedy", "ucb1") else None
    return FleetScenario.uniform(
        n_clusters=3,
        system_load=0.6,
        total_time=total_time,
        seed=seed,
        policy=policy,
        nodes=8,
        cluster_spread=0.3,
        name="serve-test",
        learn=learn,
    )


def serve_replay(
    scenario: FleetScenario,
    algorithm: str = "EDF-DLT",
    *,
    codec: str = CODEC_JSON,
    window: int = 32,
    **backend_kwargs,
):
    """Replay the scenario's own stream through a live server.

    Returns ``(tasks, decisions, finalize_payload)``.
    """
    tasks = scenario.stream_scenario().generate_tasks()
    backend = make_backend(scenario, algorithm, **backend_kwargs)
    with BackgroundServer(backend) as bg:
        with AdmissionClient(*bg.address, codec=codec) as client:
            decisions = replay_tasks(client, tasks, window=window)
            payload = client.finalize()
    return tasks, decisions, payload


class TestProtocol:
    def test_frame_round_trip_json(self):
        message = {"op": "submit", "seq": 3, "x": [1.5, -0.25], "s": "é"}
        frame = encode_frame(message, CODEC_JSON)
        assert frame[0:1] == b"J"
        assert read_frame(io.BytesIO(frame)) == message

    @pytest.mark.skipif(not HAS_MSGPACK, reason="msgpack not installed")
    def test_frame_round_trip_msgpack(self):
        message = {"op": "submit", "seq": 3, "x": [1.5, -0.25], "s": "é"}
        frame = encode_frame(message, CODEC_MSGPACK)
        assert frame[0:1] == b"M"
        assert read_frame(io.BytesIO(frame)) == message

    @pytest.mark.skipif(HAS_MSGPACK, reason="msgpack installed")
    def test_msgpack_codec_gated_with_helpful_error(self):
        with pytest.raises(ServiceProtocolError, match="msgpack"):
            encode_frame({"op": "hello"}, CODEC_MSGPACK)

    def test_unknown_codec_refused(self):
        with pytest.raises(ServiceProtocolError, match="unknown codec"):
            encode_frame({}, "cbor")

    def test_eof_and_truncation(self):
        assert read_frame(io.BytesIO(b"")) is None
        frame = encode_frame({"op": "hello"})
        with pytest.raises(ServiceProtocolError, match="truncated"):
            read_frame(io.BytesIO(frame[:3]))
        with pytest.raises(ServiceProtocolError, match="truncated"):
            read_frame(io.BytesIO(frame[:-1]))

    def test_non_finite_floats_are_loud(self):
        with pytest.raises(ValueError):
            encode_frame({"x": float("inf")}, CODEC_JSON)

    def test_task_round_trip_is_exact(self):
        task = DivisibleTask(
            task_id=7, arrival=0.1 + 0.2, sigma=1234.5678, deadline=9999.25
        )
        again = decode_task(encode_task(task))
        assert again == task
        assert again.arrival.hex() == task.arrival.hex()

    def test_malformed_task_payload(self):
        with pytest.raises(ServiceProtocolError, match="malformed task"):
            decode_task({"task_id": 1, "arrival": 0.0})

    def test_record_and_stats_round_trip(self):
        scenario = cluster_scenario()
        output = simulate(scenario.member_scenario(0), "EDF-DLT").output
        for record in output.records.values():
            assert decode_record(encode_record(record)) == record
        stats = output.stats
        assert decode_stats(encode_stats(stats)) == stats
        assert stats != SchedulerStats()  # the round trip proved something


class TestClusterLoopback:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_loopback_bit_identical(self, engine):
        scenario = cluster_scenario()
        tasks, decisions, payload = serve_replay(
            scenario, admission_engine=engine
        )
        offline = simulate(
            scenario.member_scenario(0), "EDF-DLT", admission_engine=engine
        ).output
        assert loopback_diff(payload, offline) == []
        assert len(decisions) == len(tasks)
        accepted = {
            tid
            for tid, r in offline.records.items()
            if r.outcome is TaskOutcome.ACCEPTED
        }
        for task, decision in zip(tasks, decisions):
            assert decision["accepted"] == (task.task_id in accepted)
            assert decision["member"] is None

    def test_engines_agree_over_the_wire(self):
        scenario = cluster_scenario()
        _, _, fast = serve_replay(scenario, admission_engine="fast")
        _, _, reference = serve_replay(scenario, admission_engine="reference")
        assert fast == reference

    def test_loopback_diff_reports_tampering(self):
        scenario = cluster_scenario()
        _, _, payload = serve_replay(scenario)
        offline = simulate(scenario.member_scenario(0), "EDF-DLT").output
        payload["records"][0]["est_completion"] = 123.456
        problems = loopback_diff(payload, offline)
        assert problems and "record" in problems[0]


class TestFleetLoopback:
    @pytest.mark.parametrize(
        "policy", ["round-robin", "earliest-finish", "thompson"]
    )
    def test_loopback_bit_identical(self, policy):
        scenario = fleet_scenario(policy)
        tasks, decisions, payload = serve_replay(scenario)
        offline = simulate_fleet(scenario, "EDF-DLT")
        assert loopback_diff(payload, offline) == []
        assert [d["member"] for d in decisions] == list(offline.assignments)

    def test_learning_summary_rides_along(self):
        scenario = fleet_scenario("thompson")
        _, _, payload = serve_replay(scenario)
        offline = simulate_fleet(scenario, "EDF-DLT")
        assert offline.learning is not None
        assert payload["learning"]["best_arm"] == offline.learning.best_arm
        assert (
            payload["learning"]["cumulative_regret"]
            == offline.learning.cumulative_regret
        )

    @pytest.mark.skipif(not HAS_MSGPACK, reason="msgpack not installed")
    def test_msgpack_codec_loopback(self):
        scenario = fleet_scenario("round-robin")
        _, _, payload = serve_replay(scenario, codec=CODEC_MSGPACK)
        assert loopback_diff(payload, simulate_fleet(scenario, "EDF-DLT")) == []


def faulted_fleet_scenario(policy: str = "least-loaded") -> FleetScenario:
    """The fleet scenario with a seeded fault stream attached."""
    from repro.faults import FaultProcess

    return fleet_scenario(policy).with_faults(FaultProcess(rate=3e-4))


class TestFaultedLoopback:
    """Satellite: server replay of a *faulted* scenario stays bit-identical
    to the offline run — displacement, re-admission and the new stats
    counters all survive the wire."""

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    def test_faulted_fleet_loopback_bit_identical(self, policy):
        scenario = faulted_fleet_scenario(policy)
        tasks, decisions, payload = serve_replay(scenario)
        offline = simulate_fleet(scenario, "EDF-DLT", admission_engine="reference")
        assert loopback_diff(payload, offline) == []
        assert [d["member"] for d in decisions] == list(offline.assignments)
        # the faults actually displaced work, and the counters crossed
        # the wire intact
        assert offline.metrics.displaced > 0
        wire_displaced = sum(
            o["stats"]["displaced"] for o in payload["outputs"]
        )
        assert wire_displaced == offline.metrics.displaced

    def test_faulted_cluster_backend_loopback(self):
        from repro.faults import FaultEvent, FaultPlan

        plan = FaultPlan.from_events([
            FaultEvent(time=20_000.0, kind="blackout", duration=30_000.0),
            FaultEvent(
                time=80_000.0, kind="slowdown", duration=40_000.0,
                node=2, factor=3.0,
            ),
        ])
        scenario = cluster_scenario().with_faults(plan)
        tasks, decisions, payload = serve_replay(scenario)
        offline = simulate(
            scenario.member_scenario(0), "EDF-DLT", admission_engine="reference"
        )
        assert payload["kind"] == "cluster"
        assert loopback_diff(payload, offline.output) == []
        assert offline.output.stats.displaced > 0

    def test_fault_state_rides_snapshot(self):
        scenario = faulted_fleet_scenario()
        tasks = scenario.stream_scenario().generate_tasks()
        backend = make_backend(scenario, "EDF-DLT")
        with BackgroundServer(backend) as bg:
            with AdmissionClient(*bg.address) as client:
                replay_tasks(client, tasks, window=16)
                snapshot = client.status()
                client.finalize()
        assert "faults" in snapshot
        for key in ("displaced", "readmitted", "fault_missed", "applied"):
            assert snapshot["faults"][key] >= 0
        assert snapshot["faults"]["applied"] > 0

    def test_two_concurrent_clients_under_faults(self):
        """Two interleaved clients sharding a faulted stream finalize
        bit-identically to the offline faulted run."""
        scenario = faulted_fleet_scenario("earliest-finish")
        tasks = scenario.stream_scenario().generate_tasks()
        offline = simulate_fleet(scenario, "EDF-DLT", admission_engine="reference")
        assert offline.metrics.displaced > 0  # the faults bite this stream

        backend = make_backend(scenario, "EDF-DLT")
        with BackgroundServer(backend) as bg:
            host, port = bg.address
            with AdmissionClient(host, port) as a, AdmissionClient(
                host, port
            ) as b:
                a.open_stream()
                b.open_stream()

                def run(client, shard):
                    replay_tasks(client, shard, window=8)

                threads = [
                    threading.Thread(target=run, args=(a, tasks[0::2])),
                    threading.Thread(target=run, args=(b, tasks[1::2])),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                payload = a.finalize()

        assert loopback_diff(payload, offline) == []


class TestConcurrentClients:
    @pytest.mark.parametrize("engine", ["fast"])
    def test_two_interleaved_clients_merge_deterministically(self, engine):
        """Satellite: two clients sharding a trace ≡ one serial client,
        regardless of which admission engine serves them."""
        scenario = fleet_scenario("earliest-finish")
        tasks = scenario.stream_scenario().generate_tasks()
        offline = simulate_fleet(scenario, "EDF-DLT", admission_engine=engine)

        backend = make_backend(scenario, "EDF-DLT", admission_engine=engine)
        with BackgroundServer(backend) as bg:
            host, port = bg.address
            with AdmissionClient(host, port) as a, AdmissionClient(
                host, port
            ) as b:
                # Both clients join the merge barrier before either
                # submits, so neither shard can race ahead of the other.
                a.open_stream()
                b.open_stream()
                results: dict[str, list] = {}

                def run(name, client, shard):
                    results[name] = replay_tasks(client, shard, window=8)

                threads = [
                    threading.Thread(target=run, args=("a", a, tasks[0::2])),
                    threading.Thread(target=run, args=("b", b, tasks[1::2])),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                payload = a.finalize()

        assert loopback_diff(payload, offline) == []
        # Each shard's decisions match the offline routing assignments.
        for shard, decisions in (
            (tasks[0::2], results["a"]),
            (tasks[1::2], results["b"]),
        ):
            for task, decision in zip(shard, decisions):
                assert decision["member"] == offline.assignments[task.task_id]

    def test_finalize_refused_while_a_stream_is_open(self):
        scenario = cluster_scenario(total_time=5_000.0)
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with AdmissionClient(*bg.address) as client:
                client.open_stream()
                with pytest.raises(ServiceProtocolError, match="stream"):
                    client.finalize()
                client.end_stream()
                client.finalize()


class TestOperations:
    def test_probe_is_advisory_and_non_perturbing(self):
        scenario = cluster_scenario()
        tasks = scenario.stream_scenario().generate_tasks()
        backend = make_backend(scenario, "EDF-DLT")
        offline = simulate(scenario.member_scenario(0), "EDF-DLT").output
        with BackgroundServer(backend) as bg:
            with AdmissionClient(*bg.address) as client:
                client.open_stream()
                for task in tasks:
                    probe = client.probe(task).result()
                    decision = client.submit(task).result()
                    # Probe-then-submit agrees with the committed decision
                    # for a deterministic partitioner.
                    assert probe["accepted"] == decision["accepted"]
                    if decision["accepted"]:
                        assert (
                            probe["est_completion"]
                            == decision["est_completion"]
                        )
                client.end_stream()
                payload = client.finalize()
        # ... and the interleaved probes left no trace on the output
        # (stats count only real admission tests from submissions).
        assert loopback_diff(payload, offline) == []

    def test_status_and_cancel(self):
        scenario = cluster_scenario()
        tasks = scenario.stream_scenario().generate_tasks()
        backend = make_backend(scenario, "EDF-DLT")
        with BackgroundServer(backend) as bg:
            with AdmissionClient(*bg.address) as client:
                client.open_stream()
                for task in tasks[:10]:
                    client.submit(task).result()
                snap = client.status()
                assert snap["arrivals"] == 10
                status = client.status(tasks[0].task_id)
                assert status["state"] in {
                    "rejected",
                    "waiting",
                    "running",
                    "completed",
                }
                # A far-future waiting task can still be withdrawn.
                future_task = DivisibleTask(
                    task_id=10_000,
                    arrival=tasks[9].arrival,
                    sigma=50.0,
                    deadline=scenario.total_time,
                )
                decision = client.submit(future_task).result()
                if decision["accepted"]:
                    waiting = client.status(10_000)["state"] == "waiting"
                    assert client.cancel(10_000) == waiting
                assert client.cancel(123456) is False
                client.end_stream()

    def test_hello_describes_the_backend(self):
        scenario = fleet_scenario("round-robin", total_time=5_000.0)
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with AdmissionClient(*bg.address) as client:
                info = client.server_info
        assert info is not None
        assert info["protocol"] == 1
        assert info["codec"] == CODEC_JSON
        assert info["server"]["kind"] == "fleet"
        assert info["server"]["algorithm"] == "EDF-DLT"
        assert info["server"]["scenario"] == scenario.describe()

    def test_single_cluster_fleet_uses_cluster_backend(self):
        assert isinstance(
            make_backend(cluster_scenario(), "EDF-DLT"), ClusterBackend
        )
        assert isinstance(
            make_backend(fleet_scenario("round-robin"), "EDF-DLT"),
            FleetBackend,
        )


class TestMetricsOp:
    """The ``metrics`` wire op and its reconciliation with offline runs."""

    def test_metrics_reconcile_with_offline_summary(self):
        scenario = cluster_scenario(total_time=60_000.0)
        tasks = scenario.stream_scenario().generate_tasks()
        backend = make_backend(scenario, "EDF-DLT")
        latencies: list[float] = []
        with BackgroundServer(backend) as bg:
            with AdmissionClient(*bg.address) as client:
                replay_tasks(client, tasks, latencies=latencies)
                snap = client.metrics()
                client.finalize()
        offline = simulate(scenario.member_scenario(0), "EDF-DLT")
        # Every deterministic instrument of the offline run appears in the
        # live snapshot with the identical value — the snapshot riding
        # MetricsSummary and the one behind the wire op are the same
        # registry surface.
        assert offline.metrics.obs is not None
        for name, cell in offline.metrics.obs.items():
            assert snap[name] == cell, name
        # The server adds its own request accounting on top.
        assert snap['serve_requests_total{op="submit"}']["value"] == len(tasks)
        assert snap["serve_request_seconds"]["count"] >= len(tasks)
        # replay_tasks recorded one client-side latency per task.
        assert len(latencies) == len(tasks)
        assert all(dt >= 0.0 for dt in latencies)

    def test_fleet_metrics_pool_members_and_router(self):
        scenario = fleet_scenario("round-robin", total_time=30_000.0)
        tasks = scenario.stream_scenario().generate_tasks()
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with AdmissionClient(*bg.address) as client:
                replay_tasks(client, tasks)
                snap = client.metrics()
                client.finalize()
        assert snap["scheduler_arrivals_total"]["value"] == len(tasks)
        routed = sum(
            cell["value"]
            for name, cell in snap.items()
            if name.startswith("fleet_routed_total")
        )
        assert routed == len(tasks)

    def test_prometheus_endpoint_scrapes(self):
        import urllib.request

        scenario = cluster_scenario(total_time=20_000.0)
        tasks = scenario.stream_scenario().generate_tasks()
        backend = make_backend(scenario, "EDF-DLT")
        with BackgroundServer(backend, metrics_port=0) as bg:
            assert bg.metrics_address is not None
            host, port = bg.metrics_address
            with AdmissionClient(*bg.address) as client:
                replay_tasks(client, tasks)
                url = f"http://{host}:{port}/metrics"
                with urllib.request.urlopen(url, timeout=10) as response:
                    assert response.headers["Content-Type"].startswith(
                        "text/plain"
                    )
                    body = response.read().decode("utf-8")
                client.finalize()
        assert "# TYPE scheduler_arrivals_total counter" in body
        assert f"scheduler_arrivals_total {len(tasks)}" in body
        assert "serve_request_seconds_bucket" in body


class TestErrorPaths:
    def test_unknown_op_is_reported_not_fatal(self):
        scenario = cluster_scenario(total_time=5_000.0)
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with AdmissionClient(*bg.address) as client:
                with pytest.raises(ServiceProtocolError, match="unknown op"):
                    client._request({"op": "frobnicate"}).result()
                # The connection survives the error.
                assert client.status()["arrivals"] == 0

    def test_out_of_order_submission_is_an_error(self):
        scenario = cluster_scenario(total_time=5_000.0)
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with AdmissionClient(*bg.address) as client:
                client.open_stream()
                t1 = DivisibleTask(
                    task_id=1, arrival=100.0, sigma=10.0, deadline=1_000.0
                )
                t0 = DivisibleTask(
                    task_id=0, arrival=50.0, sigma=10.0, deadline=1_000.0
                )
                client.submit(t1).result()
                with pytest.raises(ServiceProtocolError):
                    client.submit(t0).result()
                client.end_stream()

    def test_oversized_frame_refused_before_its_payload(self):
        """A header announcing 2 GiB gets an error frame and a closed
        connection without a byte of payload sent; another client's
        replay stays bit-identical to the offline run.  The socket
        timeout turns a server that waits for the payload into a failure
        instead of a hang."""
        scenario = cluster_scenario(total_time=20_000.0)
        tasks = scenario.stream_scenario().generate_tasks()
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with socket.create_connection(bg.address, timeout=10.0) as raw:
                raw.sendall(struct.pack(">BI", ord("J"), 2 * 1024**3))
                with raw.makefile("rb") as stream:
                    reply = read_frame(stream)
                    assert reply["ok"] is False
                    assert reply["error_type"] == "ServiceProtocolError"
                    assert "cap" in reply["error"]
                    assert read_frame(stream) is None  # server hung up
            with AdmissionClient(*bg.address) as client:
                decisions = replay_tasks(client, tasks, window=32)
                payload = client.finalize()
        offline = simulate(scenario.member_scenario(0), "EDF-DLT").output
        assert len(decisions) == len(tasks)
        assert loopback_diff(payload, offline) == []

    def test_backend_exception_answers_every_pending_request(self):
        """A backend that raises a non-ReproError fails stop-first: slots
        applied before the failure keep their real decisions, the failing
        slot and every request still queued on any connection get an
        error frame naming the exception, then the server hangs up."""

        class FailingBackend(ClusterBackend):
            calls = 0

            def submit(self, task):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("backend failed")
                return super().submit(task)

        member = cluster_scenario(total_time=50_000.0).member_scenario(0)
        tasks = member.generate_tasks()[:6]
        healthy = ClusterBackend(member, "EDF-DLT")
        expected = [healthy.submit(task) for task in tasks[:2]]

        def submit_frame(seq, task):
            return encode_frame({"seq": seq, "op": "submit", "task": encode_task(task)})

        with BackgroundServer(FailingBackend(member, "EDF-DLT")) as bg:
            with socket.create_connection(bg.address, timeout=10.0) as a, \
                    socket.create_connection(bg.address, timeout=10.0) as b, \
                    a.makefile("rb") as a_in, b.makefile("rb") as b_in:
                b.sendall(encode_frame({"seq": 0, "op": "stream_open"}))
                assert read_frame(b_in)["ok"] is True
                # b's open stream holds the barrier until its own submit
                # (the latest arrival) is queued behind a's five.
                a.sendall(b"".join(submit_frame(i, t) for i, t in enumerate(tasks[:5])))
                b.sendall(submit_frame(1, tasks[5]))
                a_replies = [read_frame(a_in) for _ in range(5)]
                b_reply = read_frame(b_in)
                assert read_frame(a_in) is None  # server hung up
                assert read_frame(b_in) is None
            server = bg._server
        assert [r["seq"] for r in a_replies] == [0, 1, 2, 3, 4]
        for reply, want in zip(a_replies[:2], expected):
            assert reply["ok"] is True
            assert reply["accepted"] == want["accepted"]
            assert reply["est_completion"] == want["est_completion"]
        for reply in [*a_replies[2:], b_reply]:
            assert reply["ok"] is False
            assert reply["error_type"] == "RuntimeError"
        assert b_reply["seq"] == 1
        assert isinstance(server.failure, RuntimeError)

    def test_malformed_task_reported_before_dispatch(self):
        scenario = cluster_scenario(total_time=5_000.0)
        with BackgroundServer(make_backend(scenario, "EDF-DLT")) as bg:
            with AdmissionClient(*bg.address) as client:
                # Bypass the typed API to put a bad task on the wire.
                with pytest.raises(ServiceProtocolError, match="malformed"):
                    client._request(
                        {"op": "submit", "task": {"task_id": 1}}
                    ).result()


class TestCliSmoke:
    def test_serve_replay_round_trip(self, capsys):
        """``repro serve --once`` + ``repro replay --check-offline`` ≡ CI smoke."""
        root = Path(__file__).resolve().parents[1]
        shared = [
            "--arrivals",
            "trace",
            "--trace-file",
            str(root / "examples" / "sample_arrivals.csv"),
            "--total-time",
            "200000",
        ]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--once", *shared],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            assert "listening on" in line, line
            address = line.strip().rsplit(" ", 1)[-1]

            from repro.cli import main

            code = main(["replay", "--server", address, "--check-offline", *shared])
        finally:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        assert code == 0
        out = capsys.readouterr().out
        assert "loopback OK" in out
        assert proc.returncode == 0
