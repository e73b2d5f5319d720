"""Fleet layer: scenarios, routing policies, sharded simulation, batch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import ClusterProfile
from repro.core.errors import InvalidParameterError
from repro.experiments.batch import BatchRunner, RunSpec
from repro.experiments.runner import simulate
from repro.fleet import (
    ClusterView,
    FleetScenario,
    FleetSimulation,
    fleet_member_seed,
    make_routing_policy,
    routing_policy_names,
    run_fleet_sweep,
    simulate_fleet,
)
from repro.fleet.routing import LeastLoaded, RandomWeighted, RoundRobin
from repro.workload.scenario import Scenario
from tests.conftest import make_task

ALL_POLICIES = routing_policy_names()

#: The documented configuration from docs/fleet.md / examples/fleet_routing.py
#: where the DLT-aware router beats blind cycling.
DOCUMENTED_FLEET = dict(
    n_clusters=4,
    system_load=0.6,
    total_time=100_000.0,
    seed=2007,
    nodes=8,
    cluster_spread=0.8,
)


def small_fleet(policy: str = "round-robin", **overrides) -> FleetScenario:
    """A fast heterogeneous 2-cluster fleet for unit tests."""
    kwargs = dict(
        n_clusters=2,
        system_load=0.6,
        total_time=30_000.0,
        seed=1234,
        policy=policy,
        nodes=4,
        cluster_spread=0.6,
    )
    kwargs.update(overrides)
    return FleetScenario.uniform(**kwargs)


class TestFleetScenario:
    def test_uniform_shapes(self):
        fs = small_fleet()
        assert fs.n_clusters == 2
        assert fs.total_nodes == 8
        assert all(isinstance(c, ClusterProfile) for c in fs.clusters)

    def test_cluster_spread_orders_fast_to_slow(self):
        fs = small_fleet()
        costs = [c.cps_vector[0] for c in fs.clusters]
        assert costs == sorted(costs)  # cluster 0 fastest (lowest cost)

    def test_stream_rate_scales_with_fleet_size(self):
        one = FleetScenario.uniform(
            n_clusters=1, system_load=0.5, total_time=1000.0, seed=1
        )
        four = FleetScenario.uniform(
            n_clusters=4, system_load=0.5, total_time=1000.0, seed=1
        )
        ratio = (
            one.workload.arrivals.mean_interarrival
            / four.workload.arrivals.mean_interarrival
        )
        assert ratio == pytest.approx(4.0)

    def test_member_seed_zero_is_identity(self):
        assert fleet_member_seed(99, 0) == 99
        assert fleet_member_seed(99, 1) != 99
        assert fleet_member_seed(99, 1) != fleet_member_seed(99, 2)
        assert fleet_member_seed(99, 1) == fleet_member_seed(99, 1)

    def test_from_scenarios(self):
        s = Scenario.paper_baseline(system_load=0.5, total_time=1000.0, seed=3)
        fs = FleetScenario.from_scenarios([s, s], policy="least-loaded")
        assert fs.n_clusters == 2
        assert fs.seed == 3
        assert fs.workload == s.workload
        assert fs.policy == "least-loaded"

    def test_validation_rejects_bad_inputs(self):
        s = Scenario.paper_baseline(system_load=0.5, total_time=1000.0, seed=3)
        with pytest.raises(InvalidParameterError):
            FleetScenario(
                clusters=(), workload=s.workload, total_time=1000.0, seed=1
            )
        with pytest.raises(InvalidParameterError):
            FleetScenario(
                clusters=(s.cluster,),
                workload=s.workload,
                total_time=1000.0,
                seed=1,
                policy="no-such-policy",
            )
        with pytest.raises(InvalidParameterError):
            FleetScenario.uniform(
                n_clusters=0, system_load=0.5, total_time=1000.0, seed=1
            )

    def test_describe_is_flat(self):
        d = small_fleet().describe()
        assert d["clusters"] == 2
        assert d["policy"] == "round-robin"
        for value in d.values():
            assert isinstance(value, (int, float, str))

    def test_picklable(self):
        import pickle

        fs = small_fleet("earliest-finish")
        assert pickle.loads(pickle.dumps(fs)) == fs


class TestRoutingPolicies:
    @staticmethod
    def _views(n: int, outstanding=None, capacity=None) -> list[ClusterView]:
        return [
            ClusterView(
                index=i,
                nodes=4,
                capacity=1.0 if capacity is None else capacity[i],
                outstanding=0 if outstanding is None else outstanding[i],
                backlog_fn=lambda: 0.0,
                probe=lambda task: None,
            )
            for i in range(n)
        ]

    def test_round_robin_cycles(self):
        policy = RoundRobin()
        views = self._views(3)
        picks = [policy.route(make_task(task_id=i), views) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_least_loaded_prefers_empty(self):
        policy = LeastLoaded()
        views = self._views(3, outstanding=[2, 0, 1])
        assert policy.route(make_task(), views) == 1

    def test_random_weighted_is_seeded(self):
        views = self._views(3, capacity=[1.0, 2.0, 1.0])
        picks_a = [
            RandomWeighted(np.random.default_rng(5)).route(make_task(), views)
            for _ in range(10)
        ]
        picks_b = [
            RandomWeighted(np.random.default_rng(5)).route(make_task(), views)
            for _ in range(10)
        ]
        assert picks_a == picks_b

    def test_make_routing_policy_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            make_routing_policy("no-such-policy")

    def test_registry_names_sorted(self):
        assert list(ALL_POLICIES) == sorted(ALL_POLICIES)
        assert "earliest-finish" in ALL_POLICIES


class TestSingleClusterEquivalence:
    """A 1-cluster fleet must be the single-cluster run, bit for bit.

    This holds for every policy, learning ones included — a bandit still
    routes every task to the only cluster; its ``learning_regret`` (arms
    legitimately differ in which tasks they drew) is the one metrics
    field a single-cluster run does not have.
    """

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("algorithm", ["EDF-DLT", "EDF-UserSplit"])
    def test_bit_identical(self, policy, algorithm):
        from dataclasses import replace

        fs = FleetScenario.uniform(
            n_clusters=1,
            system_load=0.6,
            total_time=40_000.0,
            seed=77,
            policy=policy,
        )
        fleet_out = simulate_fleet(fs, algorithm)
        single_out = simulate(fs.stream_scenario(), algorithm)

        assert replace(fleet_out.metrics, learning_regret=0.0) == single_out.metrics
        f_records = fleet_out.outputs[0].records
        s_records = single_out.output.records
        assert list(f_records) == list(s_records)
        for tid in f_records:
            fr, sr = f_records[tid], s_records[tid]
            assert fr.outcome == sr.outcome
            assert fr.est_completion == sr.est_completion
            assert fr.actual_completion == sr.actual_completion
            assert fr.node_ids == sr.node_ids
        assert np.array_equal(
            fleet_out.outputs[0].node_busy_time, single_out.output.node_busy_time
        )


class TestFleetSimulation:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_same_seed_same_results(self, policy):
        fs = small_fleet(policy)
        out_a = simulate_fleet(fs, "EDF-DLT")
        out_b = simulate_fleet(fs, "EDF-DLT")
        assert out_a.metrics == out_b.metrics
        assert out_a.assignments == out_b.assignments
        assert out_a.per_cluster == out_b.per_cluster

    def test_all_stream_tasks_routed_exactly_once(self):
        fs = small_fleet("least-loaded")
        out = simulate_fleet(fs, "EDF-DLT")
        stream = fs.stream_scenario().generate_tasks()
        assert len(out.assignments) == len(stream)
        assert sum(out.routed_counts) == len(stream)
        routed_ids = sorted(
            tid for o in out.outputs for tid in o.records
        )
        assert routed_ids == [t.task_id for t in stream]

    def test_round_robin_splits_evenly(self):
        out = simulate_fleet(small_fleet("round-robin"), "EDF-DLT")
        counts = out.routed_counts
        assert max(counts) - min(counts) <= 1

    def test_pooled_metrics_match_member_counters(self):
        out = simulate_fleet(small_fleet("random-weighted"), "EDF-DLT")
        assert out.metrics.arrivals == sum(m.arrivals for m in out.per_cluster)
        assert out.metrics.rejected == sum(m.rejected for m in out.per_cluster)
        expected_rr = (
            out.metrics.rejected / out.metrics.arrivals
            if out.metrics.arrivals
            else 0.0
        )
        assert out.reject_ratio == pytest.approx(expected_rr)
        # capacity-weighted utilization (equal-size members → plain mean)
        assert out.metrics.utilization == pytest.approx(
            float(np.mean([m.utilization for m in out.per_cluster]))
        )

    def test_validator_armed_on_every_member(self):
        out = simulate_fleet(small_fleet("earliest-finish"), "EDF-DLT")
        for member in out.outputs:
            assert member.validation.ok
            assert member.validation.checked_tasks >= 0
        assert out.metrics.deadline_misses == 0

    def test_runs_once(self):
        sim = FleetSimulation(small_fleet(), "EDF-DLT")
        sim.run()
        with pytest.raises(InvalidParameterError):
            sim.run()

    def test_trace_flag_reaches_members(self):
        out = simulate_fleet(small_fleet(), "EDF-DLT", trace=True)
        assert any(o.traces for o in out.outputs)
        untraced = simulate_fleet(small_fleet(), "EDF-DLT")
        assert all(not o.traces for o in untraced.outputs)

    def test_earliest_finish_beats_round_robin_documented_config(self):
        """The documented headline configuration (docs/fleet.md)."""
        base = FleetScenario.uniform(**DOCUMENTED_FLEET)
        rr = simulate_fleet(base.with_policy("round-robin"), "EDF-DLT")
        ef = simulate_fleet(base.with_policy("earliest-finish"), "EDF-DLT")
        assert ef.reject_ratio < rr.reject_ratio
        # the win is substantial on this spread, not an ulp
        assert rr.reject_ratio - ef.reject_ratio > 0.05


class TestMemberOverrides:
    """Per-member algorithm / eager_release overrides on FleetScenario."""

    def test_override_tuples_validated(self):
        fs = small_fleet()
        with pytest.raises(InvalidParameterError):
            fs.with_member_overrides(algorithms=("EDF-DLT",))  # wrong length
        with pytest.raises(InvalidParameterError):
            fs.with_member_overrides(algorithms=("EDF-DLT", "no-such-algo"))
        with pytest.raises(InvalidParameterError):
            fs.with_member_overrides(eager_release=(True,))  # wrong length
        with pytest.raises(InvalidParameterError):
            fs.with_member_overrides(eager_release=(True, "yes"))

    def test_none_entries_fall_back_to_fleet_wide(self):
        fs = small_fleet().with_member_overrides(
            algorithms=(None, "FIFO-OPR-MN"), eager_release=(True, None)
        )
        assert fs.member_algorithm(0, "EDF-DLT") == "EDF-DLT"
        assert fs.member_algorithm(1, "EDF-DLT") == "FIFO-OPR-MN"
        assert fs.member_eager(0, False) is True
        assert fs.member_eager(1, False) is False

    def test_overrides_reach_member_simulations(self):
        fs = small_fleet().with_member_overrides(
            algorithms=(None, "FIFO-OPR-MN")
        )
        out = simulate_fleet(fs, "EDF-DLT")
        assert out.outputs[0].algorithm == "EDF-DLT"
        assert out.outputs[1].algorithm == "FIFO-OPR-MN"
        assert out.per_cluster[0].algorithm == "EDF-DLT"
        assert out.per_cluster[1].algorithm == "FIFO-OPR-MN"
        # the pooled summary names both member algorithms
        assert out.metrics.algorithm == "EDF-DLT+FIFO-OPR-MN"

    def test_overrides_change_results(self):
        base = small_fleet("round-robin")
        plain = simulate_fleet(base, "EDF-DLT")
        mixed = simulate_fleet(
            base.with_member_overrides(algorithms=(None, "FIFO-OPR-MN")),
            "EDF-DLT",
        )
        # same shared stream, but member 1 schedules differently
        assert plain.metrics != mixed.metrics

    def test_round_trips_through_runspec_and_workers(self):
        fs = small_fleet().with_member_overrides(
            algorithms=("EDF-DLT", "FIFO-OPR-MN"), eager_release=(False, True)
        )
        specs = [RunSpec(scenario=fs, algorithm="EDF-DLT")] * 2
        serial = BatchRunner().run(specs)
        process = BatchRunner(workers=2).run(specs)
        thread = BatchRunner(workers=2, workers_mode="thread").run(specs)
        assert serial.to_json() == process.to_json() == thread.to_json()
        assert serial[0].scenario.member_algorithms == ("EDF-DLT", "FIFO-OPR-MN")
        row = serial[0].to_dict()
        assert row["scenario_member_algorithms"] == "EDF-DLT,FIFO-OPR-MN"
        assert row["scenario_member_eager_release"] == "0,1"

    def test_describe_marks_overrides(self):
        fs = small_fleet().with_member_overrides(algorithms=(None, "EDF-OPR-MN"))
        d = fs.describe()
        assert d["member_algorithms"] == "-,EDF-OPR-MN"
        assert "member_eager_release" not in d
        for value in d.values():
            assert isinstance(value, (int, float, str))

    def test_picklable(self):
        import pickle

        fs = small_fleet().with_member_overrides(
            algorithms=(None, "EDF-OPR-MN"), eager_release=(True, None)
        )
        assert pickle.loads(pickle.dumps(fs)) == fs


class TestFleetBatch:
    def _specs(self, policies=("round-robin", "earliest-finish")):
        fs = small_fleet()
        return [
            RunSpec(
                scenario=fs.with_policy(p).with_seed(seed),
                algorithm="EDF-DLT",
                labels={"policy": p, "seed": seed},
            )
            for p in policies
            for seed in (1, 2)
        ]

    def test_serial_equals_parallel(self):
        specs = self._specs()
        serial = BatchRunner().run(specs)
        parallel = BatchRunner(workers=2).run(specs)
        threaded = BatchRunner(workers=2, workers_mode="thread").run(specs)
        assert serial.to_json() == parallel.to_json() == threaded.to_json()

    def test_records_flatten_with_fleet_coordinates(self):
        rows = BatchRunner().run(self._specs()).to_records()
        assert all(row["scenario_clusters"] == 2 for row in rows)
        assert {row["policy"] for row in rows} == {
            "round-robin",
            "earliest-finish",
        }

    def test_keep_output_returns_fleet_output(self):
        fs = small_fleet("least-loaded")
        [record] = BatchRunner().run(
            [RunSpec(scenario=fs, algorithm="EDF-DLT", keep_output=True)]
        )
        assert record.output is not None
        assert record.output.per_cluster[0].arrivals >= 0

    def test_run_fleet_sweep_grid(self):
        result = run_fleet_sweep(
            policies=("round-robin", "least-loaded"),
            cluster_counts=(1, 2),
            nodes=4,
            total_time=20_000.0,
            replications=2,
            cluster_spread=0.6,
        )
        assert set(result.table) == {
            (p, k) for p in ("round-robin", "least-loaded") for k in (1, 2)
        }
        assert result.ci("round-robin", 2).n == 2
        assert result.best_policy(2) in ("round-robin", "least-loaded")
        with pytest.raises(InvalidParameterError):
            result.ci("round-robin", 99)
