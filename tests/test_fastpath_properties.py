"""Property suite: the optimized admission engine is bit-identical to
the reference.

The contract of :mod:`repro.core.fastpath` is *exact* equality — not
"close", not "same decisions": every :class:`AdmissionDecision`, every committed
:class:`PlacementPlan` field and every resulting :class:`TaskRecord`
must match the reference implementation bit for bit.  Hypothesis drives
the engines over random scenarios spanning all three partitioner
families, the fixed-point ablation variants, every node order,
homogeneous and spread clusters, both policies, and the eager-release
ablation; the fleet layer is covered through the probing
``earliest-finish`` router (where probe→admit memo reuse must not
change a single routing decision or record).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import dlt
from repro.core.admission import SchedulabilityTest
from repro.core.algorithms import ALGORITHMS, AlgorithmInstance
from repro.core.cluster import ClusterProfile
from repro.core.errors import InvalidParameterError
from repro.core.fastpath import (
    ADMISSION_ENGINES,
    _alphas,
    _pairwise_sum,
    _SharedPrefixAlphas,
    make_admission_test,
)
from repro.core.partition import NODE_ORDERS, DltIitPartitioner, OprPartitioner
from repro.core.policies import EdfPolicy, FifoPolicy
from repro.core.reservations import NodeReservations
from repro.core.task import DivisibleTask
from repro.experiments.runner import simulate
from repro.fleet import FleetScenario, simulate_fleet
from repro.obs import Observability
from repro.obs.profile import PhaseProfile
from repro.obs.trace import Tracer
from repro.sim.cluster_sim import ClusterSimulation
from repro.workload.scenario import Scenario

#: Every named algorithm exercises a distinct partitioner configuration.
ALGORITHM_NAMES = sorted(ALGORITHMS)

#: The optimized engine under test, checked against "reference".
OPTIMIZED_ENGINES = ("fast",)

scenario_strategy = st.builds(
    Scenario.paper_baseline,
    system_load=st.sampled_from([0.5, 1.5, 3.0]),
    total_time=st.just(40_000.0),
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.sampled_from([4, 8]),
    dc_ratio=st.sampled_from([1.5, 4.0, 20.0]),
    speed_spread=st.sampled_from([0.0, 0.6, 1.2]),
)


def assert_same_run(scenario, algorithm, engine="fast", **kwargs):
    """One scenario through two engines: records and stats must match."""
    ref = simulate(scenario, algorithm, admission_engine="reference", **kwargs)
    opt = simulate(scenario, algorithm, admission_engine=engine, **kwargs)
    assert ref.output.stats == opt.output.stats
    assert set(ref.output.records) == set(opt.output.records)
    for tid, ref_record in ref.output.records.items():
        assert ref_record == opt.output.records[tid]
    assert ref.metrics == opt.metrics


class TestSingleClusterBitIdentical:
    @given(
        scenario=scenario_strategy,
        algorithm=st.sampled_from(ALGORITHM_NAMES),
        engine=st.sampled_from(OPTIMIZED_ENGINES),
        eager=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_algorithms(self, scenario, algorithm, engine, eager):
        """Every registered algorithm × heterogeneity × eager_release."""
        assert_same_run(scenario, algorithm, engine, eager_release=eager)

    @given(
        scenario=scenario_strategy,
        algorithm=st.sampled_from(["EDF-DLT", "EDF-OPR-MN", "EDF-UserSplit"]),
        engine=st.sampled_from(OPTIMIZED_ENGINES),
        node_order=st.sampled_from(NODE_ORDERS),
    )
    @settings(max_examples=20, deadline=None)
    def test_node_orders(self, scenario, algorithm, engine, node_order):
        """The tie-break orders flow through all engines identically."""
        assert_same_run(scenario, algorithm, engine, node_order=node_order)

    @given(
        scenario=scenario_strategy,
        partitioner_cls=st.sampled_from([DltIitPartitioner, OprPartitioner]),
        engine=st.sampled_from(OPTIMIZED_ENGINES),
        fifo=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_fixed_point_scan(self, scenario, partitioner_cls, engine, fifo):
        """The monotonicity-aware scan returns the reference's exact plan."""
        tasks = scenario.generate_tasks()
        records = []
        for engine_name in ("reference", engine):
            instance = AlgorithmInstance(
                spec=ALGORITHMS["EDF-DLT"],
                policy=FifoPolicy() if fifo else EdfPolicy(),
                partitioner=partitioner_cls(fixed_point_node_count=True),
            )
            sim = ClusterSimulation(
                scenario.cluster,
                instance,
                tasks,
                horizon=scenario.total_time,
                admission_engine=engine_name,
            )
            records.append(sim.run().records)
        ref, opt = records
        assert set(ref) == set(opt)
        for tid in ref:
            assert ref[tid] == opt[tid]


class TestEngineNames:
    def test_engine_names(self):
        assert ADMISSION_ENGINES == ("fast", "reference")

    @pytest.mark.parametrize("engine", ["batch", "vectorized", ""])
    def test_unknown_engine_refused(self, engine):
        cluster = ClusterProfile.homogeneous(4, 1.0, 100.0)
        with pytest.raises(InvalidParameterError, match="unknown admission engine"):
            make_admission_test(
                EdfPolicy(), DltIitPartitioner(), cluster, engine=engine
            )


class TestDirectDecisions:
    @given(
        releases=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=2, max_size=10
        ),
        sigmas=st.lists(
            st.floats(min_value=10.0, max_value=400.0), min_size=1, max_size=6
        ),
        deadline_scale=st.floats(min_value=1.0, max_value=60.0),
        now=st.floats(min_value=0.0, max_value=600.0),
        spread=st.sampled_from([0.0, 0.8]),
        partitioner_cls=st.sampled_from([DltIitPartitioner, OprPartitioner]),
        engine=st.sampled_from(OPTIMIZED_ENGINES),
    )
    @settings(max_examples=60, deadline=None)
    def test_try_admit_decisions_match(
        self,
        releases,
        sigmas,
        deadline_scale,
        now,
        spread,
        partitioner_cls,
        engine,
    ):
        """Raw ``try_admit`` calls on arbitrary states agree exactly,
        including the failed task on rejection."""
        cluster = ClusterProfile.with_spread(
            len(releases), 1.0, 100.0, speed_spread=spread
        )
        reservations = NodeReservations.from_times(releases)
        tasks = [
            DivisibleTask(
                task_id=i,
                arrival=max(0.0, now - i),
                sigma=sigma,
                deadline=deadline_scale * sigma,
            )
            for i, sigma in enumerate(sigmas)
        ]
        new_task, waiting = tasks[-1], tasks[:-1]
        policy = EdfPolicy()
        partitioner = partitioner_cls()
        ref = SchedulabilityTest(policy, partitioner, cluster).try_admit(
            new_task, waiting, reservations, now
        )
        opt_test = make_admission_test(
            policy, partitioner, cluster, engine=engine
        )
        opt = opt_test.try_admit(new_task, waiting, reservations, now)
        assert ref == opt
        # Re-asking with identical state must replay from the memo, and
        # still be exactly equal (the probe→admit reuse path).
        again = opt_test.try_admit(new_task, waiting, reservations, now)
        assert again == ref
        # Committed state must never be touched by either engine.
        assert np.array_equal(
            reservations.release_times, np.asarray(releases, dtype=np.float64)
        )


#: Cluster sizes around the pairwise sum's 8-element lanes, up to twice
#: the largest cluster the workloads use.
KERNEL_SIZES = (1, 2, 7, 8, 9, 16, 17, 33)


class TestScalarKernels:
    """The scalar placement kernels equal the reference's NumPy arithmetic
    bit for bit: the summation order, the equal-finish fractions, and
    whole decision streams at every cluster size around the boundaries."""

    def test_pairwise_sum_matches_numpy(self):
        rng = np.random.default_rng(2007)
        for n in range(1, 301):
            for _ in range(4):
                v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
                assert _pairwise_sum(v.tolist()).hex() == (
                    float(np.add.reduce(v)).hex()
                ), n
            positive = np.abs(v)
            assert _pairwise_sum(positive.tolist()) == positive.sum(), n
            zeros = np.full(n, -0.0)
            assert _pairwise_sum(zeros.tolist()).hex() == (
                float(np.add.reduce(zeros)).hex()
            ), n

    def test_alphas_match_het_alphas(self):
        rng = np.random.default_rng(11)
        for n in range(1, 41):
            cms = rng.uniform(0.5, 2.0, n)
            cps = rng.uniform(20.0, 200.0, n)
            expected = dlt.het_alphas(cms, cps).tolist()
            assert _alphas(cms.tolist(), cps.tolist()) == expected
            shared = _SharedPrefixAlphas(cms.tolist(), cps.tolist())
            for k in range(1, n + 1):
                assert shared.alphas(k) == dlt.het_alphas(cms[:k], cps[:k]).tolist()

    @pytest.mark.parametrize("nodes", KERNEL_SIZES)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        partitioner_cls=st.sampled_from([DltIitPartitioner, OprPartitioner]),
        variant=st.sampled_from(["paper", "all-nodes", "fixed-point"]),
        node_order=st.sampled_from(NODE_ORDERS),
        heterogeneous=st.booleans(),
        fifo=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_decision_stream_matches_reference(
        self, nodes, seed, partitioner_cls, variant, node_order, heterogeneous, fifo
    ):
        """Both optimized engines decide every test of a random stream as
        the reference does.  Availabilities sit on a coarse grid, so
        nodes tie and the stable candidate order matters; heterogeneous
        costs are shuffled across node ids (with repeats), so the
        fastest-first and bandwidth-first tie-breaks differ from node-id
        order and from each other."""
        rng = np.random.default_rng(seed)
        if heterogeneous:
            cluster = ClusterProfile(
                cms_vector=tuple(rng.choice([0.5, 1.0, 1.5], nodes).tolist()),
                cps_vector=tuple(rng.choice([60.0, 100.0, 140.0], nodes).tolist()),
            )
        else:
            cluster = ClusterProfile.homogeneous(nodes, 1.0, 100.0)
        partitioner = partitioner_cls(
            assign_all_nodes=variant == "all-nodes",
            fixed_point_node_count=variant == "fixed-point",
            node_order=node_order,
        )
        policy = FifoPolicy() if fifo else EdfPolicy()
        reference = SchedulabilityTest(policy, partitioner, cluster)
        engines = [
            make_admission_test(policy, partitioner, cluster, engine=name)
            for name in OPTIMIZED_ENGINES
        ]
        reservations = NodeReservations.from_times(
            (rng.integers(0, 4, nodes) * 50.0).tolist()
        )
        waiting: list[DivisibleTask] = []
        now = 0.0
        for task_id in range(24):
            sigma = float(rng.uniform(20.0, 400.0))
            task = DivisibleTask(
                task_id=task_id,
                # a later arrival exercises the per-task availability floor
                arrival=now + float(rng.choice([0.0, 0.0, 0.0, 30.0])),
                sigma=sigma,
                deadline=float(rng.uniform(3.0, 300.0)) * sigma,
            )
            ref = reference.try_admit(task, waiting, reservations, now)
            for engine in engines:
                assert engine.try_admit(task, waiting, reservations, now) == ref
            if ref.accepted:
                plan = ref.plans[task_id]
                if rng.random() < 0.4:
                    reservations.assign(
                        plan.node_ids, plan.est_completion, owner=task_id
                    )
                else:
                    waiting.append(task)
            now += float(rng.choice([0.0, 0.0, 25.0, 50.0]))


class TestCheckpointInvalidation:
    """The prefix-checkpoint store is invisible in decisions.

    A random interleaving of admissions, dispatches (``assign``), early
    releases, fault floors (``floor_release``), cancellations and clock
    jumps drives the same engine instance three ways — checkpointed,
    checkpoint-ablated, and reference — and every decision must agree
    exactly.  This is the direct stress of the invalidation matrix: every
    mutation bumps the reservation epoch, every cancel/insert reshapes
    the queue prefix, and a stale restore anywhere would change a
    decision bit somewhere downstream.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        engine=st.sampled_from(OPTIMIZED_ENGINES),
        fifo=st.booleans(),
        spread=st.sampled_from([0.0, 0.8]),
    )
    # Seeds whose former warm-up (dispatches, EDF head insertions) left
    # the queue too shallow for three prefix restores.
    @example(seed=70, engine="fast", fifo=False, spread=0.0)
    @example(seed=1806, engine="fast", fifo=False, spread=0.0)
    @example(seed=6758, engine="fast", fifo=False, spread=0.0)
    @settings(max_examples=25, deadline=None)
    def test_random_mutation_stream_bit_identical(
        self, seed, engine, fifo, spread
    ):
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(4, 9))
        cluster = ClusterProfile.with_spread(
            nodes, 1.0, 100.0, speed_spread=spread
        )
        policy = FifoPolicy() if fifo else EdfPolicy()
        partitioner = DltIitPartitioner()
        obs = Observability()
        reference = SchedulabilityTest(policy, partitioner, cluster)
        ckpt_on = make_admission_test(
            policy, partitioner, cluster, engine=engine, obs=obs, checkpoint=True
        )
        ckpt_off = make_admission_test(
            policy, partitioner, cluster, engine=engine, checkpoint=False
        )
        reservations = NodeReservations(nodes)
        waiting: list[DivisibleTask] = []
        now = 0.0
        next_id = 0

        def admit(task: DivisibleTask, dispatch: bool = True) -> None:
            ref = reference.try_admit(task, waiting, reservations, now)
            assert ckpt_on.try_admit(task, waiting, reservations, now) == ref
            assert ckpt_off.try_admit(task, waiting, reservations, now) == ref
            if rng.random() < 0.3:
                # probe→submit: the identical immediate re-ask
                assert (
                    ckpt_on.try_admit(task, waiting, reservations, now) == ref
                )
            if ref.accepted:
                plan = ref.plans[task.task_id]
                if dispatch and rng.random() < 0.3:
                    # dispatch: commit the newcomer's reservation
                    reservations.assign(
                        plan.node_ids, plan.est_completion, owner=task.task_id
                    )
                else:
                    waiting.append(task)

        # Warm-up: generous deadlines on a free cluster build a real
        # waiting queue, so every example exercises prefix restores (not
        # just cold walks) before the mutations start tearing them up.
        # Every warm-up task lands at the queue tail — nothing dispatches,
        # and ascending sigmas give non-decreasing absolute deadlines
        # (EDF) at one arrival instant (FIFO) — so each warm-up test after
        # the first restores the queue ahead of it.
        for sigma in sorted(rng.uniform(50.0, 200.0, size=8).tolist()):
            admit(
                DivisibleTask(
                    task_id=next_id, arrival=now, sigma=sigma,
                    deadline=80.0 * sigma,
                ),
                dispatch=False,
            )
            next_id += 1
        for _ in range(50):
            action = rng.random()
            if action < 0.5:
                sigma = float(rng.uniform(20.0, 400.0))
                admit(
                    DivisibleTask(
                        task_id=next_id,
                        arrival=now,
                        sigma=sigma,
                        deadline=float(rng.uniform(4.0, 60.0)) * sigma,
                    )
                )
                next_id += 1
            elif action < 0.65:
                # completion / eager release of random nodes
                ids = rng.choice(
                    nodes, size=int(rng.integers(1, nodes + 1)), replace=False
                )
                times = reservations.release_times[ids] * float(
                    rng.uniform(0.3, 1.0)
                )
                reservations.release_early(ids.tolist(), times.tolist())
            elif action < 0.75:
                # fault window: floor random nodes at a recovery instant
                ids = rng.choice(
                    nodes, size=int(rng.integers(1, nodes + 1)), replace=False
                )
                reservations.floor_release(
                    ids.tolist(), now + float(rng.uniform(10.0, 500.0))
                )
            elif action < 0.85 and waiting:
                # cancellation / displacement: drop a random queue member
                waiting.pop(int(rng.integers(len(waiting))))
            else:
                now += float(rng.uniform(0.0, 150.0))
        # The stream must actually have exercised the restore path — the
        # warm-up guarantees same-epoch prefix hits in every example.
        snap = obs.registry.snapshot()
        hits = snap[f'admission_ckpt_hits_total{{engine="{engine}"}}']["value"]
        assert hits >= 3, "checkpoint restore path was never exercised"


def engine_state(test, reservations) -> dict:
    """Every piece of fast-engine state a later admission test reads.

    Memo entries and store items are compared by content (the two
    engines under comparison build their own entry objects).  Store
    columns are compared only over the stored positions, and the base
    vector only while the store is valid — outside that the buffers are
    uninitialized scratch.
    """
    items = test._ckpt_items
    n = len(items)
    valid = test._ckpt_valid
    order = test._order_cache
    return {
        "memo": {
            tid: (e.key, e.n_req, e.plan, e.ckpt_win)
            for tid, e in test._memo.items()
        },
        "order": None if order is None else [t.task_id for t in order],
        "order_waiting": (
            None
            if test._order_waiting is None
            else [t.task_id for t in test._order_waiting]
        ),
        "insert_pos": test._insert_pos,
        "order_common": test._order_common,
        "sync": test._ckpt_sync,
        "valid": valid,
        "items": [
            (item[0].task_id, item[1].key, item[1].n_req, item[1].plan,
             item[2], item[3])
            for item in items
        ],
        "tids": list(test._ckpt_tids),
        "res": test._ckpt_res is reservations,
        "epoch": test._ckpt_epoch,
        "now": repr(test._ckpt_now),
        "base": test._ckpt_base.tobytes() if valid else None,
        "snap": (
            None
            if test._ckpt_snap is None
            else test._ckpt_snap[: n // 16].tobytes()
        ),
        "windows": (
            None
            if test._ckpt_wlo is None
            else (test._ckpt_wlo[:n].tobytes(), test._ckpt_whi[:n].tobytes())
        ),
    }


#: Partitioner configurations of the specialized kernels: paper rule
#: (now-dependent node-count token), fixed-point scan, whole cluster.
KERNEL_PARTITIONERS = {
    "dlt": lambda: DltIitPartitioner(),
    "opr": lambda: OprPartitioner(),
    "dlt-fixed-point": lambda: DltIitPartitioner(fixed_point_node_count=True),
    "opr-all-nodes": lambda: OprPartitioner(assign_all_nodes=True),
}


class TestDepthZeroAdmission:
    """An admission test against an empty queue is one placement.

    The fast engine answers such a test without the queue walk.  Its
    decisions must equal the reference walk's, and it must leave the
    memo, the checkpoint store, the order cache, the registry counters
    and the trace exactly as the walk leaves them — a twin engine with a
    phase profile attached (which always takes the walk) is the witness.
    """

    @staticmethod
    def _engines(cluster, policy, partitioner):
        fast_obs = Observability(tracer=Tracer())
        twin_obs = Observability(tracer=Tracer())
        fast = make_admission_test(
            policy, partitioner, cluster, engine="fast", obs=fast_obs
        )
        twin = make_admission_test(
            policy, partitioner, cluster, engine="fast", obs=twin_obs
        )
        twin.profile = PhaseProfile()
        return fast, fast_obs, twin, twin_obs

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kernel=st.sampled_from(sorted(KERNEL_PARTITIONERS)),
        fifo=st.booleans(),
        spread=st.sampled_from([0.0, 0.8]),
        queue_share=st.sampled_from([0.0, 0.2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_depth0_stream_matches_reference_and_walk(
        self, seed, kernel, fifo, spread, queue_share
    ):
        """Probe→submit re-asks, dispatches, eager releases, fault floors
        and clock jumps around depth-0 tests (``queue_share`` > 0 mixes in
        queued tasks, so walks and depth-0 tests hand state to each
        other)."""
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(4, 9))
        cluster = ClusterProfile.with_spread(
            nodes, 1.0, 100.0, speed_spread=spread
        )
        policy = FifoPolicy() if fifo else EdfPolicy()
        partitioner = KERNEL_PARTITIONERS[kernel]()
        reference = SchedulabilityTest(policy, partitioner, cluster)
        fast, fast_obs, twin, twin_obs = self._engines(
            cluster, policy, partitioner
        )
        reservations = NodeReservations(nodes)
        waiting: list[DivisibleTask] = []
        committed: dict = {}
        running: list = []
        now = 0.0
        depth0 = 0

        def ask(task):
            ref = reference.try_admit(task, waiting, reservations, now)
            for test in (fast, twin):
                assert test.try_admit(task, waiting, reservations, now) == ref
            assert engine_state(fast, reservations) == engine_state(
                twin, reservations
            )
            return ref

        def dispatch_head() -> None:
            # Dispatch the queue head (dropped if a floor overtook it).
            task = waiting.pop(0)
            plan = committed[task.task_id]
            held = reservations.release_times[list(plan.node_ids)]
            if held.max() <= plan.est_completion:
                reservations.assign(
                    plan.node_ids, plan.est_completion, owner=task.task_id
                )
                running.append(plan)

        for next_id in range(30):
            for _ in range(int(rng.integers(0, 3))):
                action = rng.random()
                if action < 0.3 and running:
                    # eager release: a running task hands its nodes back
                    plan = running.pop(int(rng.integers(len(running))))
                    factor = float(rng.uniform(0.3, 1.0))
                    reservations.release_early(
                        plan.node_ids,
                        [max(now, plan.est_completion * factor)] * plan.n,
                        owner=plan.task.task_id,
                    )
                elif action < 0.6:
                    # fault window: floor random nodes at a recovery instant
                    ids = rng.choice(
                        nodes, size=int(rng.integers(1, nodes + 1)),
                        replace=False,
                    )
                    reservations.floor_release(
                        ids.tolist(), now + float(rng.uniform(10.0, 500.0))
                    )
                elif action < 0.8 and waiting:
                    dispatch_head()
                else:
                    now += float(rng.uniform(0.0, 150.0))
            if next_id % 2 == 0:
                # Every other test starts from an empty queue.
                while waiting:
                    dispatch_head()
            depth0 += not waiting
            sigma = float(rng.uniform(20.0, 400.0))
            task = DivisibleTask(
                task_id=next_id,
                arrival=now,
                sigma=sigma,
                deadline=float(rng.uniform(2.0, 60.0)) * sigma,
            )
            ref = ask(task)
            if rng.random() < 0.3:
                assert ask(task) == ref  # probe→submit re-ask
            if ref.accepted:
                committed = ref.plans
                if rng.random() < queue_share:
                    waiting.append(task)
                else:
                    plan = ref.plans[task.task_id]
                    reservations.assign(
                        plan.node_ids, plan.est_completion, owner=task.task_id
                    )
                    running.append(plan)
        assert fast_obs.registry.snapshot() == twin_obs.registry.snapshot()
        assert fast_obs.tracer.records == twin_obs.tracer.records
        assert depth0 >= 15

    def test_cold_test_and_reask_counts(self):
        """A cold depth-0 test is one checkpoint miss and one plan-cache
        miss; an immediate re-ask is one checkpoint hit that replays one
        position and looks nothing up in the plan cache."""
        cluster = ClusterProfile.homogeneous(8, 1.0, 100.0)
        fast, fast_obs, twin, twin_obs = self._engines(
            cluster, EdfPolicy(), DltIitPartitioner()
        )
        reservations = NodeReservations(8)
        task = DivisibleTask(task_id=1, arrival=0.0, sigma=100.0, deadline=4e3)
        label = '{engine="fast"}'

        def counts(obs):
            snap = obs.registry.snapshot()
            return tuple(
                snap[f"admission_{name}_total{label}"]["value"]
                for name in (
                    "ckpt_misses",
                    "ckpt_hits",
                    "ckpt_tasks",
                    "plan_cache_misses",
                    "plan_cache_hits",
                )
            )

        for test, obs in ((fast, fast_obs), (twin, twin_obs)):
            assert test.try_admit(task, [], reservations, 0.0).accepted
            assert counts(obs) == (1, 0, 0, 1, 0)
            assert test.try_admit(task, [], reservations, 0.0).accepted
            assert counts(obs) == (1, 1, 1, 1, 0)
        assert engine_state(fast, reservations) == engine_state(
            twin, reservations
        )

    def test_memo_bounded_over_long_depth0_stream(self):
        """10k depth-0 admissions keep the memo inside the walk's own
        pruning bound (``2 * len(ordered) + 32`` before an insert)."""
        cluster = ClusterProfile.homogeneous(16, 1.0, 100.0)
        test = make_admission_test(
            EdfPolicy(), DltIitPartitioner(), cluster, engine="fast"
        )
        reservations = NodeReservations(16)
        rng = np.random.default_rng(7)
        now = 0.0
        peak = accepted = 0
        for tid in range(10_000):
            sigma = float(rng.uniform(20.0, 200.0))
            task = DivisibleTask(
                task_id=tid, arrival=now, sigma=sigma, deadline=20.0 * sigma
            )
            decision = test.try_admit(task, [], reservations, now)
            if decision.accepted:
                accepted += 1
                plan = decision.plans[tid]
                reservations.assign(plan.node_ids, plan.est_completion, owner=tid)
            peak = max(peak, len(test._memo))
            now += float(rng.exponential(400.0))
        assert accepted > 1_000
        assert peak <= 35
        assert len(test._ckpt_items) <= 1


class TestFleetBitIdentical:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        policy=st.sampled_from(
            ["round-robin", "least-loaded", "earliest-finish", "ucb1"]
        ),
        clusters=st.sampled_from([1, 3]),
        spread=st.sampled_from([0.0, 0.8]),
        algorithm=st.sampled_from(["EDF-DLT", "EDF-UserSplit"]),
        engine=st.sampled_from(OPTIMIZED_ENGINES),
    )
    @settings(max_examples=15, deadline=None)
    def test_fleet_routing_and_records(
        self, seed, policy, clusters, spread, algorithm, engine
    ):
        """Routing decisions, per-member records and pooled metrics all
        match — probe→admit memo reuse is invisible in outputs."""
        scenario = FleetScenario.uniform(
            n_clusters=clusters,
            system_load=0.8,
            total_time=30_000.0,
            seed=seed,
            nodes=4,
            cluster_spread=spread,
            name="prop",
        ).with_policy(policy)
        ref = simulate_fleet(scenario, algorithm, admission_engine="reference")
        opt = simulate_fleet(scenario, algorithm, admission_engine=engine)
        assert ref.assignments == opt.assignments
        assert ref.metrics == opt.metrics
        for ref_out, opt_out in zip(ref.outputs, opt.outputs):
            assert ref_out.stats == opt_out.stats
            assert set(ref_out.records) == set(opt_out.records)
            for tid in ref_out.records:
                assert ref_out.records[tid] == opt_out.records[tid]
