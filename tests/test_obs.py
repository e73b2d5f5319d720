"""Tests for :mod:`repro.obs` — the zero-perturbation contract above all.

The headline property: an instrumented run (registry attached, tracer
on) is **bit-identical** to an uninstrumented run — same stats, same
records, same busy vectors, same metrics snapshot — across all three
admission engines, both policy families, with and without faults, and
through fleet routing (static and bandit).  Instrumentation reads the
simulation; it never perturbs it.

Plus the supporting contracts: trace round-trips (JSONL and Chrome),
per-track timestamp monotonicity, registry snapshot determinism across
serial / process / thread execution, snapshot merging, Prometheus
rendering, and the capture-and-replay profiler's identity check.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.batch import BatchRunner, RunSpec
from repro.experiments.runner import replication_seed, simulate
from repro.faults import FaultProcess
from repro.fleet.scenario import FleetScenario
from repro.fleet.sim import simulate_fleet
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    merge_snapshots,
    read_jsonl,
    render_prometheus,
)
from repro.obs.metrics import DEPTH_BUCKETS
from repro.workload.scenario import Scenario

ENGINES = ("reference", "fast")


def scenario(seed: int, *, load: float = 1.2, total_time: float = 30_000.0,
             nodes: int = 8) -> Scenario:
    """A small paper-baseline scenario, fast enough for property runs."""
    return Scenario.paper_baseline(
        system_load=load, total_time=total_time, seed=seed, nodes=nodes
    )


def fleet_scenario(policy: str, seed: int = 1234) -> FleetScenario:
    """A small heterogeneous 2-cluster fleet under ``policy``."""
    return FleetScenario.uniform(
        n_clusters=2,
        system_load=0.6,
        total_time=30_000.0,
        seed=seed,
        policy=policy,
        nodes=4,
        cluster_spread=0.6,
        name="obs-test",
    )


def assert_identical(a, b) -> None:
    """Two SimulationOutputs must match bit for bit."""
    assert a.stats == b.stats
    assert set(a.records) == set(b.records)
    for tid, rec in a.records.items():
        assert rec == b.records[tid], f"task {tid} differs"
    assert np.array_equal(a.node_busy_time, b.node_busy_time)
    assert np.array_equal(a.node_allocated_time, b.node_allocated_time)
    assert a.obs_snapshot == b.obs_snapshot


class TestRegistry:
    """MetricsRegistry / instrument unit behavior."""

    def test_counter_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b
        a.inc()
        a.inc(3)
        assert reg.snapshot() == {"x_total": {"type": "counter", "value": 4}}

    def test_labels_sort_into_one_key(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"b": "2", "a": "1"})
        b = reg.counter("x_total", labels={"a": "1", "b": "2"})
        assert a is b
        assert a.name == 'x_total{a="1",b="2"}'

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("depth", (1.0, 2.0, 4.0))
        for v in (0.0, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        cell = reg.snapshot()["depth"]
        # <=1: {0.0, 1.0}; <=2: {1.5}; <=4: {3.0}; +Inf: {100.0}
        assert cell["counts"] == [2, 1, 1, 1]
        assert cell["count"] == 5
        assert cell["sum"] == pytest.approx(105.5)

    def test_wall_instruments_hidden_from_default_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("sim_total").inc()
        reg.counter("wall_total", wall=True).inc()
        assert set(reg.snapshot()) == {"sim_total"}
        assert set(reg.snapshot(include_wall=True)) == {"sim_total", "wall_total"}

    def test_merge_snapshots_sums_counters_and_cells(self):
        snaps = []
        for n in (1, 2):
            reg = MetricsRegistry()
            reg.counter("c_total").inc(n)
            h = reg.histogram("h", (1.0, 2.0))
            h.observe(float(n))
            snaps.append(reg.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["c_total"]["value"] == 3
        assert merged["h"]["counts"] == [1, 1, 0]
        assert merged["h"]["count"] == 2

    def test_merge_rejects_kind_mismatch(self):
        a = MetricsRegistry()
        a.counter("x")
        b = MetricsRegistry()
        b.gauge("x")
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_prometheus_rendering_is_cumulative(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", labels={"op": "submit"}).inc(2)
        h = reg.histogram("depth", (1.0, 2.0), labels={"q": "a"})
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg.snapshot())
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{op="submit"} 2' in text
        assert 'depth_bucket{q="a",le="1"} 1' in text
        assert 'depth_bucket{q="a",le="2"} 1' in text
        assert 'depth_bucket{q="a",le="+Inf"} 2' in text
        assert 'depth_count{q="a"} 2' in text


class TestTracer:
    """Span nesting, track views, and the two export formats."""

    def test_span_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer", "t", 1.0):
            tracer.event("mid", "t", 1.0)
            with tracer.span("inner", "t", 1.0):
                pass
        depths = [r["depth"] for r in tracer.records]
        assert depths == [0, 1, 1]
        assert tracer.depth == 0

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", "cat", 1.5, task=3):
            tracer.event("b", "cat", 1.5, node=2)
        buf = io.StringIO()
        assert tracer.write_jsonl(buf) == 2
        buf.seek(0)
        assert read_jsonl(buf) == tracer.records

    def test_chrome_export_shape(self):
        tracer = Tracer()
        view = tracer.track(3)
        with view.span("a", "cat", 2.0):
            pass
        view.event("b", "cat", 2.0)
        buf = io.StringIO()
        tracer.write_chrome(buf)
        doc = json.loads(buf.getvalue())
        events = doc["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "i"]
        assert all(e["tid"] == 3 for e in events)

    def test_timing_mode_stamps_wall_us(self):
        tracer = Tracer(timing=True)
        with tracer.span("a", "t", 0.0):
            pass
        assert tracer.records[0]["wall_us"] >= 0.0


class TestZeroPerturbation:
    """Traced runs are bit-identical to untraced runs — everywhere."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algorithm", ("EDF-DLT", "FIFO-UserSplit"))
    def test_cluster_traced_equals_untraced(self, engine, algorithm):
        sc = scenario(7)
        plain = simulate(sc, algorithm, admission_engine=engine)
        obs = Observability(trace=True)
        traced = simulate(sc, algorithm, admission_engine=engine, obs=obs)
        assert_identical(plain.output, traced.output)
        assert obs.tracer is not None and obs.tracer.records

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        engine=st.sampled_from(ENGINES),
        algorithm=st.sampled_from(("EDF-DLT", "EDF-OPR-MN", "FIFO-DLT")),
        faulted=st.booleans(),
    )
    def test_property_traced_equals_untraced(self, seed, engine, algorithm, faulted):
        sc = scenario(seed)
        if faulted:
            sc = sc.with_overrides(faults=FaultProcess(rate=4e-4))
        plain = simulate(sc, algorithm, admission_engine=engine)
        traced = simulate(
            sc, algorithm, admission_engine=engine, obs=Observability(trace=True)
        )
        assert_identical(plain.output, traced.output)

    @pytest.mark.parametrize(
        "policy", ("round-robin", "earliest-finish", "ucb1", "thompson")
    )
    def test_fleet_traced_equals_untraced(self, policy):
        sc = fleet_scenario(policy)
        plain = simulate_fleet(sc, "EDF-DLT")
        obs = Observability(trace=True)
        traced = simulate_fleet(sc, "EDF-DLT", obs=obs)
        assert list(plain.assignments) == list(traced.assignments)
        for a, b in zip(plain.outputs, traced.outputs):
            assert_identical(a, b)
        assert plain.metrics.obs == traced.metrics.obs

    def test_traced_metrics_snapshot_matches_untraced(self):
        sc = scenario(11)
        plain = simulate(sc, "EDF-DLT")
        traced = simulate(sc, "EDF-DLT", obs=Observability(trace=True))
        assert plain.metrics.obs == traced.metrics.obs
        assert plain.metrics.obs is not None
        snap = plain.metrics.obs
        assert snap["scheduler_arrivals_total"]["value"] == plain.metrics.arrivals
        assert snap["scheduler_rejected_total"]["value"] == plain.metrics.rejected


class TestTraceContent:
    """What a real traced run actually records."""

    def run_traced(self, *, faulted: bool = False):
        sc = scenario(42, load=1.5)
        if faulted:
            sc = sc.with_overrides(faults=FaultProcess(rate=6e-4))
        obs = Observability(trace=True)
        simulate(sc, "EDF-DLT", obs=obs)
        return obs.tracer.records

    def test_span_taxonomy_present(self):
        records = self.run_traced()
        cats = {r["cat"] for r in records}
        names = {r["name"] for r in records}
        assert {"engine", "admission"} <= cats
        assert {"engine.dispatch", "admission.try_admit"} <= names
        # admission nests inside the dispatch that triggered it
        by_name = {r["name"]: r for r in records}
        assert by_name["admission.try_admit"]["depth"] > 0

    def test_fault_events_traced(self):
        records = self.run_traced(faulted=True)
        names = {r["name"] for r in records}
        assert "fault.window_open" in names
        assert "fault.window_close" in names

    def test_timestamps_monotone_per_track(self):
        sc = fleet_scenario("ucb1")
        obs = Observability(trace=True)
        simulate_fleet(sc, "EDF-DLT", obs=obs)
        records = obs.tracer.records
        tracks: dict[int, float] = {}
        for r in records:
            last = tracks.get(r["track"], float("-inf"))
            assert r["ts"] >= last, f"track {r['track']} went backwards"
            tracks[r["track"]] = r["ts"]
        # members 0..n-1 plus the fleet-level routing track
        assert set(tracks) == {0, 1, 2}
        fleet_names = {r["name"] for r in records if r["track"] == 2}
        assert {"fleet.route", "fleet.routed", "bandit.select"} <= fleet_names

    def test_bandit_feedback_traced(self):
        sc = fleet_scenario("thompson")
        obs = Observability(trace=True)
        simulate_fleet(sc, "EDF-DLT", obs=obs)
        learn = [r for r in obs.tracer.records if r["cat"] == "learn"]
        assert any(r["name"] == "bandit.select" for r in learn)
        assert any(r["name"] == "bandit.feedback" for r in learn)
        for r in learn:
            if r["name"] == "bandit.feedback":
                assert 0.0 <= r["args"]["reward"] <= 1.0


class TestExecutionModeDeterminism:
    """Snapshots are identical across serial / process / thread pools."""

    def specs(self) -> list[RunSpec]:
        sc = scenario(5, total_time=25_000.0)
        return [
            RunSpec(
                scenario=sc.with_seed(replication_seed(sc.seed, rep)),
                algorithm="EDF-DLT",
                labels={"replication": rep},
            )
            for rep in range(3)
        ]

    def test_serial_process_thread_summaries_identical(self):
        serial = BatchRunner(workers=None).run(self.specs())
        process = BatchRunner(workers=2, workers_mode="process").run(self.specs())
        thread = BatchRunner(workers=2, workers_mode="thread").run(self.specs())
        for a, b, c in zip(serial, process, thread):
            assert a.metrics == b.metrics == c.metrics
            assert a.metrics.obs is not None
            assert a.metrics.obs == b.metrics.obs == c.metrics.obs

    def test_summary_rows_stay_flat(self):
        # The obs snapshot must not leak into CSV/JSON row exports.
        from repro.metrics.collector import metric_names

        results = BatchRunner().run(self.specs()[:1])
        row = results[0].metrics.as_dict()
        assert "obs" not in row
        assert "obs" not in metric_names()
        json.dumps(row)  # must stay JSON-serializable


class TestProfiler:
    """Capture-and-replay: honest timings, identical decision streams."""

    def test_profile_admission_report(self):
        from repro.obs.profile import profile_admission

        report = profile_admission(
            scenario(3, total_time=20_000.0),
            "EDF-DLT",
            engines=("fast", "reference"),
        )
        assert report["calls"] > 0
        for engine in ("fast", "reference"):
            cell = report["engines"][engine]
            assert cell["decisions_per_sec"] > 0
        # the fast engine exposes phase hooks; reference does not
        assert {row["phase"] for row in report["engines"]["fast"]["phases"]} == {
            "queue_order",
            "kernel_place",
            "prefix_restore",
        }
        assert report["engines"]["reference"]["phases"] == []

    def test_fleet_profile_exercises_probe_kernel(self):
        from repro.obs.profile import profile_admission

        report = profile_admission(
            fleet_scenario("earliest-finish"), "EDF-DLT", fleet=True
        )
        assert report["fleet"] is True
        assert report["calls"] > 0

    def test_instrumented_replay_is_identical(self):
        from repro.obs.profile import capture_calls, replay_calls

        sc = scenario(3, total_time=20_000.0)
        calls, _ = capture_calls(sc, "EDF-DLT", fleet=False)
        _, plain = replay_calls(sc, "EDF-DLT", "fast", calls, reps=1)
        obs = Observability(trace=True)
        _, instrumented = replay_calls(
            sc, "EDF-DLT", "fast", calls, reps=1, obs=obs
        )
        assert plain == instrumented


class TestObservabilityBundle:
    """The Observability container and its fleet member views."""

    def test_default_has_registry_no_tracer(self):
        obs = Observability()
        assert isinstance(obs.registry, MetricsRegistry)
        assert obs.tracer is None

    def test_member_views_share_the_tracer(self):
        obs = Observability(trace=True)
        m0 = obs.member(0)
        m1 = obs.member(1)
        assert m0.registry is not m1.registry
        m0.tracer.event("a", "t", 1.0)
        m1.tracer.event("b", "t", 1.0)
        assert [r["track"] for r in obs.tracer.records] == [0, 1]

    def test_depth_buckets_cover_typical_queues(self):
        assert DEPTH_BUCKETS[0] == 0.0
        assert list(DEPTH_BUCKETS) == sorted(DEPTH_BUCKETS)
