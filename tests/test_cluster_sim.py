"""Integration tests: the full DES executing workloads end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import make_algorithm
from repro.core.cluster import ClusterSpec
from repro.core.errors import InvalidParameterError
from repro.core.task import DivisibleTask, TaskOutcome
from repro.faults import FaultEvent, FaultPlan
from repro.sim.cluster_sim import ClusterSimulation
from repro.workload.scenario import Scenario
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import SimulationConfig


def task(tid, arrival=0.0, sigma=100.0, deadline=20_000.0):
    return DivisibleTask(task_id=tid, arrival=arrival, sigma=sigma, deadline=deadline)


CLUSTER = ClusterSpec(nodes=4, cms=1.0, cps=100.0)


def run_tasks(tasks, algorithm="EDF-DLT", cluster=CLUSTER, **kw):
    sim = ClusterSimulation(
        cluster, make_algorithm(algorithm), tasks, horizon=100_000.0, **kw
    )
    return sim.run()


class TestBasicExecution:
    def test_single_task_executes_exactly(self):
        """One task on an idle cluster: actual == estimate (OPR path)."""
        out = run_tasks([task(0, sigma=100.0)], algorithm="EDF-OPR-MN")
        rec = out.records[0]
        assert rec.outcome is TaskOutcome.ACCEPTED
        assert rec.actual_completion == pytest.approx(rec.est_completion, rel=1e-9)
        assert out.validation.ok

    def test_dlt_single_task_idle_equals_opr(self):
        out_d = run_tasks([task(0)], algorithm="EDF-DLT")
        out_o = run_tasks([task(0)], algorithm="EDF-OPR-MN")
        assert out_d.records[0].actual_completion == pytest.approx(
            out_o.records[0].actual_completion, rel=1e-9
        )

    def test_rejected_task_never_executes(self):
        out = run_tasks([task(0, deadline=50.0)])
        assert out.records[0].outcome is TaskOutcome.REJECTED
        assert out.records[0].actual_completion is None
        assert out.executed_tasks == 0

    def test_busy_time_equals_total_work(self):
        """Busy node-seconds of one task == sigma*(Cms+Cps), any method."""
        for alg in ("EDF-DLT", "EDF-OPR-MN", "EDF-UserSplit"):
            out = run_tasks([task(0, sigma=100.0)], algorithm=alg)
            assert out.node_busy_time.sum() == pytest.approx(
                100.0 * 101.0, rel=1e-9
            ), alg

    def test_allocation_at_least_busy(self):
        out = run_tasks(
            [task(i, arrival=i * 10.0, sigma=150.0) for i in range(6)],
            algorithm="EDF-OPR-MN",
        )
        assert out.node_allocated_time.sum() >= out.node_busy_time.sum() - 1e-6

    def test_task_order_enforced(self):
        with pytest.raises(InvalidParameterError):
            run_tasks([task(0, arrival=5.0), task(1, arrival=1.0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_tasks([task(0), task(0, arrival=1.0)])

    def test_run_once_only(self):
        sim = ClusterSimulation(
            CLUSTER, make_algorithm("EDF-DLT"), [task(0)], horizon=1000.0
        )
        sim.run()
        with pytest.raises(InvalidParameterError):
            sim.run()


class TestTraces:
    def test_trace_records_chunks(self):
        out = run_tasks([task(0)], trace=True)
        assert len(out.traces) == 1
        tr = out.traces[0]
        assert tr.task_id == 0
        assert len(tr.chunks) == out.records[0].n_nodes
        assert tr.completion == pytest.approx(out.records[0].actual_completion)

    def test_chunk_alphas_sum_to_one(self):
        out = run_tasks([task(0)], trace=True)
        assert sum(c.alpha for c in out.traces[0].chunks) == pytest.approx(1.0)

    def test_no_node_overlap_across_tasks(self):
        tasks = [task(i, arrival=i * 50.0, sigma=120.0) for i in range(10)]
        out = run_tasks(tasks, trace=True)
        assert out.validation.ok  # includes the overlap check

    def test_sequential_transmission_within_task(self):
        out = run_tasks([task(0)], trace=True)
        chunks = sorted(out.traces[0].chunks, key=lambda c: c.position)
        for a, b in zip(chunks, chunks[1:]):
            assert b.trans_start >= a.trans_end - 1e-9


class TestInvariantsAtScale:
    @pytest.mark.parametrize(
        "algorithm",
        [
            "EDF-DLT",
            "FIFO-DLT",
            "EDF-OPR-MN",
            "FIFO-OPR-MN",
            "EDF-UserSplit",
            "FIFO-UserSplit",
            "EDF-OPR-AN",
            "EDF-DLT-AN",
        ],
    )
    def test_theorem4_and_deadlines_hold(self, algorithm):
        """Hundreds of random tasks: every executed task obeys Theorem 4
        and meets its deadline (strict validator raises otherwise)."""
        cfg = SimulationConfig(
            nodes=16,
            cms=1.0,
            cps=100.0,
            system_load=0.8,
            avg_sigma=200.0,
            dc_ratio=2.0,
            total_time=250_000.0,
            seed=99,
        )
        gen = WorkloadGenerator(cfg)
        tasks = gen.generate()
        sim = ClusterSimulation(
            cfg.cluster,
            make_algorithm(algorithm, rng=gen.algorithm_rng()),
            tasks,
            horizon=cfg.total_time,
            validate=True,
            trace=True,
        )
        out = sim.run()
        assert out.validation.ok, out.validation.summary()
        assert out.executed_tasks == out.stats.accepted
        # Every accepted task has a record with actuals filled in.
        for rec in out.records.values():
            if rec.outcome is TaskOutcome.ACCEPTED:
                assert rec.actual_completion is not None
                assert rec.deadline_met is True

    def test_determinism_across_runs(self):
        cfg = SimulationConfig(
            nodes=8,
            cms=1.0,
            cps=100.0,
            system_load=0.7,
            avg_sigma=100.0,
            dc_ratio=2.0,
            total_time=100_000.0,
            seed=5,
        )

        def one():
            gen = WorkloadGenerator(cfg)
            sim = ClusterSimulation(
                cfg.cluster,
                make_algorithm("EDF-UserSplit", rng=gen.algorithm_rng()),
                gen.generate(),
                horizon=cfg.total_time,
            )
            out = sim.run()
            return (
                out.stats.rejected,
                tuple(
                    (tid, r.actual_completion)
                    for tid, r in sorted(out.records.items())
                ),
            )

        assert one() == one()


class TestEagerReleaseAblation:
    def test_eager_never_worse(self):
        """Earlier node hand-back can only help acceptance."""
        cfg = SimulationConfig(
            nodes=16,
            cms=1.0,
            cps=100.0,
            system_load=0.9,
            avg_sigma=200.0,
            dc_ratio=2.0,
            total_time=150_000.0,
            seed=21,
        )
        gen = WorkloadGenerator(cfg)
        tasks = gen.generate()

        def run(eager):
            sim = ClusterSimulation(
                cfg.cluster,
                make_algorithm("EDF-DLT"),
                tasks,
                horizon=cfg.total_time,
                eager_release=eager,
            )
            return sim.run().stats.reject_ratio

        # Not a theorem (admission is greedy), but with one seed and a
        # large margin it is a solid regression check.
        assert run(True) <= run(False) + 0.05


class TestSharedHeadLinkAblation:
    def test_contention_can_delay_but_never_crashes(self):
        cfg = SimulationConfig(
            nodes=16,
            cms=4.0,
            cps=100.0,
            system_load=0.9,
            avg_sigma=200.0,
            dc_ratio=2.0,
            total_time=100_000.0,
            seed=31,
        )
        gen = WorkloadGenerator(cfg)
        tasks = gen.generate()
        sim = ClusterSimulation(
            cfg.cluster,
            make_algorithm("EDF-DLT"),
            tasks,
            horizon=cfg.total_time,
            shared_head_link=True,
        )
        out = sim.run()  # non-strict: violations recorded, not raised
        # The report exists and counts are consistent.
        assert out.validation.checked_tasks == out.stats.accepted


class VectorizedExecutor(ClusterSimulation):
    """The chunk executor in vectorized form: per-chunk costs as NumPy
    vectors ``alphas * sigma * C[node_ids]``, the reference the scalar
    executor must match bit for bit."""

    def _execute_plan(self, plan):
        if plan.explicit_chunks is not None:
            return self._replay_explicit(plan)
        sigma = plan.task.sigma
        alphas = np.asarray(plan.alphas)
        node_ids = np.asarray(plan.node_ids, dtype=np.intp)
        trans = alphas * sigma * np.asarray(self._cms_by_node)[node_ids]
        comp = alphas * sigma * np.asarray(self._cps_by_node)[node_ids]
        releases = np.asarray(plan.dispatch_releases)
        comp_ends = np.empty(len(node_ids))
        windows = []
        prev_end = -np.inf
        for i in range(len(node_ids)):
            node = int(node_ids[i])
            start = max(prev_end, float(releases[i]), float(self._node_free[node]))
            if self.shared_head_link:
                start = max(start, self._head_free)
            t_end = start + trans[i]
            if self.shared_head_link:
                self._head_free = float(t_end)
            c_end = t_end + comp[i]
            prev_end = t_end
            comp_ends[i] = c_end
            self._node_free[node] = float(c_end)
            self._busy[node] += float(trans[i] + comp[i])
            self._allocated[node] += plan.est_completion - plan.release_times[i]
            windows.append((node, float(start), float(c_end)))
        if self.faults is not None:
            self._exec_windows[plan.task.task_id] = windows
        return tuple(float(v) for v in comp_ends)


class TestScalarExecutor:
    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"eager_release": True},
            {"shared_head_link": True},
            {
                "faults": FaultPlan.from_events([
                    FaultEvent(time=90_000.0, kind="blackout", duration=40_000.0),
                    FaultEvent(
                        time=150_000.0, kind="slowdown", duration=90_000.0,
                        node=1, factor=3.0,
                    ),
                    FaultEvent(
                        time=180_000.0, kind="degrade", duration=60_000.0,
                        node=2, factor=2.0,
                    ),
                ])
            },
        ],
        ids=["paper", "eager", "shared-link", "faults"],
    )
    @pytest.mark.parametrize("algorithm", ["EDF-DLT", "EDF-OPR-MN", "EDF-UserSplit"])
    def test_matches_vectorized_executor(self, kw, algorithm):
        """Records, busy and allocated vectors equal the vectorized
        executor's bit for bit on a heterogeneous cluster."""
        scenario = Scenario.paper_baseline(
            system_load=1.5, total_time=300_000.0, seed=31, nodes=8,
            speed_spread=0.8,
        )
        outs = []
        for cls in (ClusterSimulation, VectorizedExecutor):
            sim = cls(
                scenario.cluster,
                make_algorithm(algorithm, rng=scenario.algorithm_rng()),
                scenario.generate_tasks(),
                horizon=scenario.total_time,
                **kw,
            )
            outs.append(sim.run())
        scalar, vector = outs
        assert scalar.executed_tasks > 50
        assert scalar.records == vector.records
        assert scalar.node_busy_time.tobytes() == vector.node_busy_time.tobytes()
        assert (
            scalar.node_allocated_time.tobytes()
            == vector.node_allocated_time.tobytes()
        )
