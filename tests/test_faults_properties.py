"""Fault-replay property suite (:mod:`repro.faults`).

The fault layer's three contracts, driven by hypothesis:

(a) an *empty* fault plan reproduces the fault-free run bit for bit —
    across both admission engines, both policy families, and node
    orders — so attaching the fault machinery costs nothing when unused;
(b) a seeded :class:`FaultProcess` replays the identical event stream
    from the same seed, and materialized plans never violate the event
    model's invariants;
(c) under faults, the world stays honest: the fast and reference
    admission engines still agree bit for bit, displaced work re-enters admission exactly
    once per outage (displaced ∪ requeued == readmitted ∪ missed), and
    tasks that cannot be re-fit end as ``DISPLACED`` — never as silent
    successes.

Plus the kernel regression the blackout path exercises: mass
cancellation must trigger heap compaction and keep ``pending_events``
exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.task import TaskOutcome
from repro.experiments.batch import BatchRunner, RunSpec
from repro.experiments.runner import simulate
from repro.faults import FAULT_KINDS, FAULT_SEED_SALT, FaultEvent, FaultPlan, FaultProcess
from repro.fleet.scenario import FleetScenario
from repro.fleet.sim import simulate_fleet
from repro.sim.engine import COMPACT_MIN_EVENTS, SimulationEngine
from repro.sim.events import EventKind
from repro.workload.scenario import Scenario

ENGINES = ("reference", "fast")

#: A fault rate that yields a handful of windows on the 40k horizons
#: below — enough to displace work without drowning the run.
RATE = 4e-4


def scenario(seed: int, *, load: float = 1.5, total_time: float = 40_000.0,
             nodes: int = 8, spread: float = 0.0) -> Scenario:
    """A small paper-baseline scenario for fault runs."""
    return Scenario.paper_baseline(
        system_load=load,
        total_time=total_time,
        seed=seed,
        nodes=nodes,
        speed_spread=spread,
    )


def fault_rng(seed: int) -> np.random.Generator:
    """The dedicated fault stream a scenario with this seed would use."""
    return np.random.default_rng(np.random.SeedSequence([seed, FAULT_SEED_SALT]))


def assert_identical_runs(a, b) -> None:
    """Two RunResults must match record for record, counter for counter."""
    assert a.output.stats == b.output.stats
    assert set(a.output.records) == set(b.output.records)
    for tid, rec in a.output.records.items():
        assert rec == b.output.records[tid], f"task {tid} differs"
    assert np.array_equal(a.output.node_busy_time, b.output.node_busy_time)
    assert np.array_equal(
        a.output.node_allocated_time, b.output.node_allocated_time
    )


class TestEventModel:
    """Validation and canonicalization of FaultEvent / FaultPlan."""

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=0.0, kind="meteor", duration=1.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=-1.0, kind="blackout", duration=1.0)
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=0.0, kind="blackout", duration=0.0)
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=float("nan"), kind="blackout", duration=1.0)

    def test_factor_only_on_capacity_kinds(self):
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=0.0, kind="slowdown", duration=1.0, node=0, factor=0.5)
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=0.0, kind="node_down", duration=1.0, node=0, factor=2.0)
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=0.0, kind="blackout", duration=1.0, factor=2.0)

    def test_node_required_iff_node_kind(self):
        for kind in ("slowdown", "degrade", "node_down"):
            with pytest.raises(InvalidParameterError):
                FaultEvent(
                    time=0.0, kind=kind, duration=1.0,
                    factor=2.0 if kind != "node_down" else 1.0,
                )
        with pytest.raises(InvalidParameterError):
            FaultEvent(time=0.0, kind="blackout", duration=1.0, node=3)

    def test_plan_is_canonically_ordered(self):
        events = [
            FaultEvent(time=5.0, kind="blackout", duration=1.0),
            FaultEvent(time=1.0, kind="node_down", duration=1.0, node=2),
            FaultEvent(time=1.0, kind="slowdown", duration=1.0, node=4, factor=2.0),
        ]
        forward = FaultPlan.from_events(events)
        backward = FaultPlan.from_events(reversed(events))
        assert forward == backward
        assert [e.time for e in forward.events] == [1.0, 1.0, 5.0]
        # same-timestamp priority: capacity changes before outages
        assert forward.events[0].kind == "slowdown"
        assert forward.describe_token() == backward.describe_token()

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.from_events([
            FaultEvent(time=10.0, kind="degrade", duration=5.0, node=1, factor=3.0),
            FaultEvent(time=20.0, kind="blackout", duration=2.0, member=2),
        ])
        path = tmp_path / "plan.json"
        plan.to_json(path)
        assert FaultPlan.from_json(path) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.from_dict({"not_events": []})
        with pytest.raises(InvalidParameterError):
            FaultEvent.from_dict({"time": 0.0, "kind": "blackout"})
        with pytest.raises(InvalidParameterError):
            FaultEvent.from_dict(
                {"time": 0.0, "kind": "blackout", "duration": 1.0, "bogus": 1}
            )

    def test_for_member_filters_and_strips(self):
        plan = FaultPlan.from_events([
            FaultEvent(time=1.0, kind="blackout", duration=1.0),           # member 0
            FaultEvent(time=2.0, kind="blackout", duration=1.0, member=0),
            FaultEvent(time=3.0, kind="blackout", duration=1.0, member=1),
        ])
        m0, m1, m2 = plan.for_member(0), plan.for_member(1), plan.for_member(2)
        assert [e.time for e in m0.events] == [1.0, 2.0]
        assert [e.time for e in m1.events] == [3.0]
        assert not m2
        # sub-plans are member-local: the member field is gone
        assert all(e.member is None for e in m0.events + m1.events)
        assert plan.max_member() == 1

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0
        assert bool(FaultPlan.from_events(
            [FaultEvent(time=0.0, kind="blackout", duration=1.0)]
        ))


class TestProcessReplay:
    """Property (b): seeded generators replay exactly and stay in-model."""

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_event_stream(self, seed):
        process = FaultProcess(rate=1e-3)
        kwargs = dict(horizon=50_000.0, member_nodes=(8, 4, 16))
        first = process.materialize(fault_rng(seed), **kwargs)
        second = process.materialize(fault_rng(seed), **kwargs)
        assert first == second
        assert first.events == second.events

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        rate=st.sampled_from([1e-4, 1e-3, 5e-3]),
        members=st.sampled_from([(8,), (4, 8), (8, 4, 16)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_events_stay_in_model(self, seed, rate, members):
        horizon = 50_000.0
        process = FaultProcess(rate=rate)
        plan = process.materialize(
            fault_rng(seed), horizon=horizon, member_nodes=members
        )
        for event in plan.events:
            assert event.kind in FAULT_KINDS
            assert 0.0 <= event.time < horizon
            assert event.duration > 0.0
            assert event.end > event.time
            member_index = event.member if event.member is not None else 0
            assert 0 <= member_index < len(members)
            if len(members) == 1:
                assert event.member is None
            if event.kind == "blackout":
                assert event.node is None
            else:
                assert event.node is not None
                assert 0 <= event.node < members[member_index]
            if event.kind in ("slowdown", "degrade"):
                assert process.min_factor <= event.factor <= process.max_factor
            else:
                assert event.factor == 1.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_attaching_faults_never_perturbs_the_workload(self, seed):
        clean = scenario(seed)
        faulted = clean.with_overrides(faults=FaultProcess(rate=RATE))
        assert clean.generate_tasks() == faulted.generate_tasks()

    def test_process_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultProcess(rate=0.0)
        with pytest.raises(InvalidParameterError):
            FaultProcess(rate=1e-3, kinds=("meteor",))
        with pytest.raises(InvalidParameterError):
            FaultProcess(rate=1e-3, min_factor=0.5)
        with pytest.raises(InvalidParameterError):
            FaultProcess(rate=1e-3, min_factor=3.0, max_factor=2.0)


class TestEmptyPlanEquivalence:
    """Property (a): an empty plan is bit-for-bit the fault-free run."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        engine=st.sampled_from(ENGINES),
        algorithm=st.sampled_from(["EDF-DLT", "FIFO-OPR-MN", "EDF-UserSplit"]),
        node_order=st.sampled_from(["availability", "fastest-first"]),
        spread=st.sampled_from([0.0, 0.8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_empty_plan_is_the_null_injection(
        self, seed, engine, algorithm, node_order, spread
    ):
        clean = scenario(seed, spread=spread)
        empty = clean.with_overrides(faults=FaultPlan())
        kwargs = dict(admission_engine=engine, node_order=node_order)
        assert_identical_runs(
            simulate(clean, algorithm, **kwargs),
            simulate(empty, algorithm, **kwargs),
        )


class TestEnginesAgreeUnderFaults:
    """Property (c), part 1: the fast engine stays bit-identical to the
    reference when faults mutate availability mid-run."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        algorithm=st.sampled_from(["EDF-DLT", "EDF-OPR-MN", "FIFO-DLT-AN"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_three_engines_bit_identical(self, seed, algorithm):
        faulted = scenario(seed).with_overrides(faults=FaultProcess(rate=RATE))
        reference = simulate(faulted, algorithm, admission_engine="reference")
        assert_identical_runs(
            reference, simulate(faulted, algorithm, admission_engine="fast")
        )


class TestCheckpointsUnderFaults:
    """The prefix-checkpoint store never serves a stale prefix.

    Outages displace committed work, re-admission replays it through the
    very walks the checkpoint store accelerates, and recovery floors
    mutate availability between walks — the exact sequence that would
    expose a checkpoint keyed on out-of-date reservation state.  Any
    stale restore would change a decision bit against the reference
    engine, so bit-identity under a displacement-heavy plan *is* the
    freshness proof.  An overloaded stream keeps the waiting queue deep
    (checkpoints actually restoring, on both policy orders) rather than
    letting every walk run cold.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        algorithm=st.sampled_from(["EDF-DLT", "FIFO-DLT"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_checkpoints_never_serve_a_stale_prefix(self, seed, algorithm):
        faulted = scenario(seed, load=3.0).with_overrides(
            faults=FaultProcess(rate=2e-3, kinds=("node_down", "blackout"))
        )
        reference = simulate(faulted, algorithm, admission_engine="reference")
        assert_identical_runs(
            reference, simulate(faulted, algorithm, admission_engine="fast")
        )


class TestDisplacementInvariants:
    """Property (c), part 2: outage bookkeeping is conserved and honest."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_outage_bookkeeping_conserved(self, seed):
        faulted = scenario(seed).with_overrides(
            faults=FaultProcess(rate=RATE, kinds=("node_down", "blackout"))
        )
        result = simulate(faulted, "EDF-DLT")
        output = result.output
        stats = output.stats
        displaced_total = 0
        missed_ids: set[int] = set()
        readmitted_ids: set[int] = set()
        # the fault log rides the runner's RunResult through output-free
        # paths only as counters; re-run the sim directly for the log
        from repro.core.algorithms import make_algorithm
        from repro.sim.cluster_sim import ClusterSimulation

        sim = ClusterSimulation(
            faulted.cluster,
            make_algorithm("EDF-DLT", rng=faulted.algorithm_rng()),
            faulted.generate_tasks(),
            horizon=faulted.total_time,
            faults=faulted.fault_plan(),
        )
        sim_output = sim.run()
        assert sim_output.stats == stats  # the driver path is the direct path
        for entry in sim.fault_log:
            if entry["kind"] in ("slowdown", "degrade"):
                continue
            displaced = set(entry["displaced"])
            requeued = set(entry["requeued"])
            readmitted = set(entry["readmitted"])
            missed = set(entry["missed"])
            # every outage re-plans exactly the torn-down + committed set
            assert displaced | requeued == readmitted | missed
            assert not displaced & requeued
            assert not readmitted & missed
            displaced_total += len(displaced)
            missed_ids |= missed
            readmitted_ids |= readmitted
        assert stats.displaced == displaced_total
        # a task ends DISPLACED iff its *last* re-admission attempt missed
        final_displaced = {
            tid
            for tid, rec in sim_output.records.items()
            if rec.outcome is TaskOutcome.DISPLACED
        }
        assert final_displaced <= missed_ids
        assert missed_ids - readmitted_ids <= final_displaced
        # displaced tasks never report a completion: honest loss, not a
        # silent success
        for tid in final_displaced:
            assert sim_output.records[tid].actual_completion is None

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_slowdown_misses_are_honest(self, seed):
        faulted = scenario(seed).with_overrides(
            faults=FaultProcess(rate=2e-3, kinds=("slowdown", "degrade"))
        )
        output = simulate(faulted, "EDF-DLT").output
        for rec in output.records.values():
            if rec.actual_completion is None:
                continue
            expect_met = (
                rec.actual_completion <= rec.task.arrival + rec.task.deadline
            )
            assert rec.deadline_met == expect_met


class TestHeapCompaction:
    """Mass cancellation keeps the kernel heap compact and counters exact."""

    def test_kernel_compacts_under_mass_cancellation(self):
        engine = SimulationEngine()
        total = 4 * COMPACT_MIN_EVENTS
        handles = [
            engine.schedule(float(i + 1), EventKind.GENERIC, lambda e, t: None)
            for i in range(total)
        ]
        survivors = total // 4
        for handle in handles[survivors:]:
            handle.cancel()
        assert engine.pending_events == survivors
        # compaction fired: the heap holds no dead weight beyond the
        # ratio bound, instead of all (total - survivors) corpses
        assert len(engine._heap) < total
        assert engine._cancelled_in_heap <= len(engine._heap) / 2
        live = sum(1 for e in engine._heap if not e[3].cancelled)
        assert live == survivors == engine.pending_events
        engine.run()
        assert engine.processed_events == survivors
        assert engine.pending_events == 0

    def test_blackout_mass_cancellation_keeps_sim_consistent(self):
        # a saturating load builds a deep committed schedule, then one
        # blackout cancels every start event at once
        plan = FaultPlan.from_events(
            [FaultEvent(time=8_000.0, kind="blackout", duration=6_000.0)]
        )
        sc = scenario(97, load=3.0, total_time=30_000.0).with_overrides(faults=plan)
        from repro.core.algorithms import make_algorithm
        from repro.sim.cluster_sim import ClusterSimulation

        sim = ClusterSimulation(
            sc.cluster,
            make_algorithm("EDF-DLT", rng=sc.algorithm_rng()),
            sc.generate_tasks(),
            horizon=sc.total_time,
            faults=sc.fault_plan(),
        )
        output = sim.run()
        [entry] = [e for e in sim.fault_log if e["kind"] == "blackout"]
        # the blackout actually tore down a committed schedule
        assert len(entry["displaced"]) + len(entry["requeued"]) > 0
        assert output.stats.displaced == len(entry["displaced"])
        # after the run the heap drained completely and counters agree
        assert sim.engine.pending_events == 0
        assert sim.engine._cancelled_in_heap == 0


class TestFaultedFleet:
    """Fleet-level fault plumbing: sub-plans, routing health, determinism."""

    FLEET = dict(
        n_clusters=3,
        system_load=0.8,
        total_time=60_000.0,
        seed=2007,
        nodes=8,
        cluster_spread=0.5,
    )

    def test_empty_plan_fleet_is_fault_free(self):
        base = FleetScenario.uniform(**self.FLEET)
        clean = simulate_fleet(base, "EDF-DLT")
        empty = simulate_fleet(base.with_faults(FaultPlan()), "EDF-DLT")
        assert clean.assignments == empty.assignments
        assert clean.metrics == empty.metrics

    def test_member_sub_plans_partition_the_fleet_plan(self):
        base = FleetScenario.uniform(**self.FLEET).with_faults(
            FaultProcess(rate=1e-3)
        )
        plan = base.fault_plan()
        sub = [base.member_scenario(i).faults for i in range(3)]
        assert sum(len(s) for s in sub) == len(plan)

    def test_least_loaded_steers_around_blackout(self):
        plan = FaultPlan.from_events([
            FaultEvent(time=5_000.0, kind="blackout", duration=30_000.0, member=0)
        ])
        base = FleetScenario.uniform(**self.FLEET).with_policy("least-loaded")
        out = simulate_fleet(base.with_faults(plan), "EDF-DLT")
        routed = out.routed_counts
        assert routed[0] == min(routed)
        assert out.metrics.displaced >= 0

    def test_explicit_plan_member_bound_checked(self):
        plan = FaultPlan.from_events([
            FaultEvent(time=1.0, kind="blackout", duration=1.0, member=7)
        ])
        with pytest.raises(InvalidParameterError):
            FleetScenario.uniform(**self.FLEET).with_faults(plan)

    def test_faulted_fleet_identical_across_worker_modes(self):
        base = FleetScenario.uniform(**self.FLEET).with_policy(
            "least-loaded"
        ).with_faults(FaultProcess(rate=3e-4))
        spec = [RunSpec(scenario=base, algorithm="EDF-OPR-MN")]
        [serial] = BatchRunner(workers=None).run(spec)
        [process] = BatchRunner(workers=2, workers_mode="process").run(spec)
        [thread] = BatchRunner(workers=2, workers_mode="thread").run(spec)
        assert serial.metrics == process.metrics == thread.metrics
        assert serial.metrics.displaced > 0  # the faults actually bit
