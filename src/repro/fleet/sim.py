"""Fleet executor: shard one arrival stream across N cluster simulations.

:class:`FleetSimulation` owns one :class:`~repro.sim.cluster_sim.
ClusterSimulation` per member cluster and drives them in lockstep over the
shared task stream:

1. generate the stream once (bit-identical to the single-cluster path);
2. for each arrival, advance every member's clock to the arrival instant,
   snapshot per-cluster :class:`~repro.fleet.routing.ClusterView` state,
   ask the routing policy for a destination, and submit the task there;
3. when the stream ends, finalize every member (all accepted work drains)
   and pool the outputs into fleet-level metrics.

Routing used to be fire-and-forget; learning policies closed that loop.
When the active policy declares ``learns = True`` the simulation feeds
per-task outcomes back to it as
:class:`~repro.learn.feedback.RoutingFeedback`: an *admission* report
right after the routed task's schedulability test runs, and a
*completion* report when the task actually finishes (delivered before
the next routing decision whose arrival instant lies past the
completion, in deterministic ``(actual_completion, task_id)`` order).
Static policies skip this machinery entirely.

Because member clusters never interact — no task migration, no shared
links — each member's event sequence is exactly what a standalone
:class:`ClusterSimulation` would execute on its routed sub-stream.  A
1-cluster fleet is therefore *bit-identical* to the corresponding
single-cluster run under every routing policy (the test suite asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.algorithms import make_algorithm
from repro.core.errors import InvalidParameterError
from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE
from repro.core.task import DivisibleTask, TaskOutcome, TaskRecord
from repro.fleet.routing import ClusterView, RoutingPolicy, make_routing_policy
from repro.fleet.scenario import FleetScenario
from repro.learn.feedback import (
    PHASE_ADMISSION,
    PHASE_COMPLETION,
    PHASE_FAULT,
    LearningReport,
    RoutingFeedback,
)
from repro.metrics.collector import MetricsSummary, summarize, summarize_pooled
from repro.obs import Observability, Tracer, merge_snapshots
from repro.sim.cluster_sim import ClusterSimulation, SimulationOutput

__all__ = ["FleetOutput", "FleetSimulation", "simulate_fleet"]


@dataclass(frozen=True, slots=True)
class FleetOutput:
    """Everything one fleet run produced.

    ``outputs`` holds the raw per-member :class:`SimulationOutput` in
    member order; ``per_cluster`` the corresponding summaries;
    ``metrics`` the fleet-level pooled summary (total rejections over
    total arrivals, capacity-weighted utilization);
    ``assignments`` maps stream position → member index, so any slice of
    the routing decision sequence can be reconstructed;
    ``learning`` the bandit's :class:`~repro.learn.feedback.
    LearningReport` (``None`` for static routing policies) — its
    cumulative regret is also surfaced as ``metrics.learning_regret``.
    """

    algorithm: str
    scenario: FleetScenario
    outputs: tuple[SimulationOutput, ...]
    assignments: tuple[int, ...]
    metrics: MetricsSummary
    per_cluster: tuple[MetricsSummary, ...]
    learning: LearningReport | None = None

    @property
    def reject_ratio(self) -> float:
        """Fleet-level Task Reject Ratio (rejections over all arrivals)."""
        return self.metrics.reject_ratio

    @property
    def routed_counts(self) -> tuple[int, ...]:
        """Number of stream tasks routed to each member cluster."""
        counts = [0] * len(self.outputs)
        for index in self.assignments:
            counts[index] += 1
        return tuple(counts)


class FleetSimulation:
    """One fleet run: a shared task stream routed across member clusters.

    Parameters
    ----------
    scenario:
        The fleet description (clusters + shared workload + policy + seed).
    algorithm:
        Fleet-wide scheduling algorithm name; individual members may
        override it through ``scenario.member_algorithms``.
    validate:
        Arm the Theorem-4 validator on every member.
    trace:
        Record chunk-level traces on every member (slower, more memory).
    eager_release / shared_head_link:
        Modelling switches forwarded to every member simulation
        (``eager_release`` is the fleet-wide default that
        ``scenario.member_eager_release`` entries override).
    node_order:
        Node-ordering policy forwarded to every member's partitioner.
    admission_engine:
        Admission-test engine (``"fast"`` default / ``"reference"``),
        forwarded to every member simulation.  With the fast engine a
        probe followed by a routed submission reuses the probe's plans
        instead of re-running the whole test (bit-identical outputs).
    obs:
        Optional :class:`repro.obs.Observability` bundle for the fleet.
        Each member gets its own registry (via
        :meth:`~repro.obs.Observability.member`, so member counters stay
        bit-identical to a standalone run) but shares the fleet tracer,
        writing spans onto its own track; the fleet itself keeps routing
        counters on the fleet registry and traces the per-arrival probe
        fan-out on one extra track.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        algorithm: str,
        *,
        validate: bool = True,
        trace: bool = False,
        eager_release: bool = False,
        shared_head_link: bool = False,
        node_order: str = "availability",
        admission_engine: str = DEFAULT_ADMISSION_ENGINE,
        obs: Observability | None = None,
    ) -> None:
        self.scenario = scenario
        self.algorithm = algorithm
        self.obs = obs if obs is not None else Observability()
        tracer = self.obs.tracer
        #: Fleet-level trace track — one past the member tracks, so
        #: routing spans never interleave with member event dispatch.
        self._trace = (
            tracer.track(scenario.n_clusters)
            if isinstance(tracer, Tracer)
            else tracer
        )
        self.sims: list[ClusterSimulation] = []
        #: Per-member blackout windows ``(start, end)`` from the fault
        #: plan — the member counts as *down* over ``[start, end)`` for
        #: routing views and up/down transition feedback.
        self._down_windows: list[tuple[tuple[float, float], ...]] = []
        for i in range(scenario.n_clusters):
            member = scenario.member_scenario(i)
            member_algorithm = scenario.member_algorithm(i, algorithm)
            member_faults = member.fault_plan()
            instance = make_algorithm(
                member_algorithm,
                rng=member.algorithm_rng(),
                node_order=node_order,
            )
            self.sims.append(
                ClusterSimulation(
                    member.cluster,
                    instance,
                    horizon=scenario.total_time,
                    validate=validate,
                    trace=trace,
                    eager_release=scenario.member_eager(i, eager_release),
                    shared_head_link=shared_head_link,
                    admission_engine=admission_engine,
                    faults=member_faults,
                    obs=self.obs.member(i),
                )
            )
            self._down_windows.append(
                tuple(
                    (event.time, event.end)
                    for event in (member_faults.events if member_faults else ())
                    if event.kind == "blackout"
                )
            )
        self.policy: RoutingPolicy = make_routing_policy(
            scenario.policy,
            rng=scenario.routing_rng(),
            learn=scenario.learn,
            learning_rng=scenario.learning_rng(),
        )
        if self._trace is not None and getattr(self.policy, "learns", False):
            # Bandit policies carry an optional tracer attribute; arm
            # selection and reward resolution become trace events.
            self.policy.tracer = self._trace
        self._capacities = [
            float(np.sum(1.0 / c.cps_array)) for c in scenario.clusters
        ]
        #: Accepted tasks per member whose completion feedback is still
        #: owed to a learning policy.  Only populated when the policy
        #: learns *and* its reward model defers to the completion phase
        #: — admission-resolving rewards never pay the tracking cost.
        self._watch: list[set[int]] = [set() for _ in self.sims]
        self._track_completions = self.policy.learns and getattr(
            self.policy, "wants_completion_feedback", True
        )
        self._assignments: list[int] = []
        self._member_up = [True] * len(self.sims)
        self._routed: dict[int, int] = {}
        self._last_arrival = -np.inf
        self._done = False
        registry = self.obs.registry
        self._routed_counters = [
            registry.counter(
                "fleet_routed_total",
                "Tasks routed to each member cluster.",
                labels={"member": str(i)},
            )
            for i in range(len(self.sims))
        ]

    # -- routing state ------------------------------------------------------
    def _is_up(self, index: int, now: float) -> bool:
        """Whether member ``index`` is outside every blackout window at ``now``.

        Windows are half-open ``[start, end)``: at the recovery instant
        the member already counts as up, matching the kernel's fault-end
        ordering (recovery fires before same-instant arrivals).
        """
        return not any(
            start <= now < end for start, end in self._down_windows[index]
        )

    def _fault_feedback(self, now: float) -> None:
        """Report member up/down flips since the last arrival to the policy.

        One :data:`PHASE_FAULT` report per flipped member, in member
        order, with a negative ``task_id`` sentinel (``-(member + 1)``)
        so per-task reward bookkeeping never confuses it with a routed
        task.  ``accepted`` carries the member's *new* state.
        """
        for j in range(len(self.sims)):
            up = self._is_up(j, now)
            if up == self._member_up[j]:
                continue
            self._member_up[j] = up
            self.policy.observe(
                RoutingFeedback(
                    task_id=-(j + 1),
                    cluster=j,
                    phase=PHASE_FAULT,
                    arrival=now,
                    sigma=0.0,
                    deadline=0.0,
                    accepted=up,
                )
            )

    def _view(self, index: int, now: float) -> ClusterView:
        """Snapshot member ``index`` for one routing decision."""
        sim = self.sims[index]
        scheduler = sim.scheduler

        def backlog() -> float:
            """Mean reserved node-time beyond ``now`` (read lazily)."""
            # arr.sum()/n is np.mean minus the dispatch wrapper (same
            # pairwise reduction, bit-identical value).
            over = np.maximum(scheduler.reservations.release_times - now, 0.0)
            return float(over.sum() / over.size)

        def probe(task: DivisibleTask, _sim: ClusterSimulation = sim) -> float | None:
            """What-if admission: the cluster's estimate, or None on reject."""
            decision = _sim.scheduler.test.try_admit(
                task,
                list(_sim.scheduler.waiting.values()),
                _sim.scheduler.reservations,
                now,
            )
            if not decision.accepted:
                return None
            return decision.plans[task.task_id].est_completion

        return ClusterView(
            index=index,
            nodes=sim.cluster.nodes,
            capacity=self._capacities[index],
            outstanding=scheduler.waiting_count + scheduler.running_count,
            backlog_fn=backlog,
            probe=probe,
            up=self._is_up(index, now),
        )

    # -- learning feedback --------------------------------------------------
    def _admission_feedback(
        self, task: DivisibleTask, index: int, outstanding: int, backlog: float
    ) -> None:
        """Report the routed task's admission outcome to the policy, with
        the member's pre-submit ``outstanding`` and ``backlog``."""
        record = self.sims[index].scheduler.records.get(task.task_id)
        accepted = record is not None and record.outcome is TaskOutcome.ACCEPTED
        self.policy.observe(
            RoutingFeedback(
                task_id=task.task_id,
                cluster=index,
                phase=PHASE_ADMISSION,
                arrival=task.arrival,
                sigma=task.sigma,
                deadline=task.deadline,
                accepted=accepted,
                est_completion=record.est_completion if record else None,
                outstanding=outstanding,
                backlog=backlog,
            )
        )
        if accepted and self._track_completions:
            self._watch[index].add(task.task_id)

    def _drain_completions(self) -> None:
        """Report every newly completed task, in deterministic order.

        Completions are sorted by ``(actual_completion, task_id)`` across
        all members, so the learning policy sees the same reward sequence
        no matter how the members' event loops interleave.
        """
        due: list[tuple[float, int, int, TaskRecord]] = []
        for j, watched in enumerate(self._watch):
            records = self.sims[j].scheduler.records
            for tid in watched:
                record = records[tid]
                if record.actual_completion is not None:
                    due.append((record.actual_completion, tid, j, record))
        due.sort(key=lambda item: (item[0], item[1]))
        for completion, tid, j, record in due:
            self._watch[j].discard(tid)
            self.policy.observe(
                RoutingFeedback(
                    task_id=tid,
                    cluster=j,
                    phase=PHASE_COMPLETION,
                    arrival=record.task.arrival,
                    sigma=record.task.sigma,
                    deadline=record.task.deadline,
                    accepted=True,
                    est_completion=record.est_completion,
                    actual_completion=completion,
                    deadline_met=record.deadline_met,
                )
            )

    # -- incremental driver -------------------------------------------------
    # ``submit`` / ``advance_to`` / ``finalize`` mirror the incremental
    # ClusterSimulation API one level up: an external coordinator (the
    # admission service of :mod:`repro.serve`) can feed the fleet one task
    # at a time and still execute the exact event sequence ``run()`` would
    # — ``run()`` is just the composition of these primitives over the
    # scenario's generated stream.

    def submit(self, task: DivisibleTask) -> int:
        """Route and admit one arrival; return the chosen member index.

        Advances every member's clock to the arrival instant (completion
        feedback for a learning policy is drained here, exactly as in the
        one-shot driver), snapshots routing views, routes, submits to the
        chosen member and processes the arrival so the admission decision
        is visible immediately — to the caller via
        :meth:`task_status` and to the very next routing decision.

        Tasks must be submitted in arrival order with unique ids, like
        :meth:`ClusterSimulation.submit`.
        """
        if self._done:
            raise InvalidParameterError(
                "cannot submit tasks to a finalized fleet simulation"
            )
        if task.arrival < self._last_arrival:
            raise InvalidParameterError(
                "tasks must be submitted in arrival order "
                f"(task {task.task_id} at {task.arrival} after "
                f"{self._last_arrival})"
            )
        if task.task_id in self._routed:
            raise InvalidParameterError(f"duplicate task id {task.task_id}")
        n_members = len(self.sims)
        for sim in self.sims:
            sim.advance_to(task.arrival)
        if self._track_completions:
            self._drain_completions()
        if self.policy.learns:
            self._fault_feedback(task.arrival)
        if self._trace is None:
            views = [self._view(i, task.arrival) for i in range(n_members)]
            index = self.policy.route(task, views)
        else:
            with self._trace.span(
                "fleet.route", "fleet", task.arrival, task=task.task_id
            ):
                views = [self._view(i, task.arrival) for i in range(n_members)]
                index = self.policy.route(task, views)
            self._trace.event(
                "fleet.routed",
                "fleet",
                task.arrival,
                task=task.task_id,
                member=index,
            )
        if not 0 <= index < n_members:
            raise InvalidParameterError(
                f"routing policy {self.policy.name!r} returned cluster "
                f"{index}, valid range [0, {n_members})"
            )
        self._last_arrival = task.arrival
        self._assignments.append(index)
        self._routed_counters[index].inc()
        self._routed[task.task_id] = index
        target = self.sims[index]
        learns = self.policy.learns
        if learns:
            # Feedback reports the backlog the router saw, so read it
            # before the submission moves the reservations.
            backlog = views[index].backlog
        target.submit(task)
        # Process the arrival now so the admission decision is visible
        # to the very next routing decision (even at equal timestamps).
        target.advance_to(task.arrival)
        if learns:
            self._admission_feedback(
                task, index, views[index].outstanding, backlog
            )
        return index

    def advance_to(self, time: float) -> None:
        """Advance every member's clock to ``time`` (events fire).

        Learning feedback is *not* drained here — completion reports are
        delivered immediately before routing decisions (in
        :meth:`submit`) and at :meth:`finalize`, so the reward sequence is
        identical however callers interleave clock advances.
        """
        for sim in self.sims:
            sim.advance_to(time)

    def finalize(self) -> FleetOutput:
        """Drain every member and assemble the fleet output.

        A fleet simulation finalizes exactly once; no tasks may be
        submitted afterwards.
        """
        if self._done:
            raise InvalidParameterError("a FleetSimulation instance runs once")
        self._done = True
        learning = self.policy.learns
        outputs = tuple(sim.finalize() for sim in self.sims)
        report: LearningReport | None = None
        metrics = summarize_pooled(outputs)
        if learning:
            if self._track_completions:
                self._drain_completions()  # everything accepted has drained
            report = self.policy.report()  # type: ignore[attr-defined]
            metrics = replace(metrics, learning_regret=report.cumulative_regret)
        # Fold the fleet's own counters (routing shares) into
        # the pooled member snapshot carried by the summary.
        metrics = replace(
            metrics,
            obs=merge_snapshots(
                [s for s in (metrics.obs, self.obs.registry.snapshot()) if s]
            ),
        )
        per_cluster = tuple(summarize(o) for o in outputs)
        return FleetOutput(
            algorithm=self.algorithm,
            scenario=self.scenario,
            outputs=outputs,
            assignments=tuple(self._assignments),
            metrics=metrics,
            per_cluster=per_cluster,
            learning=report,
        )

    # -- live introspection (the admission service's status/cancel hooks) --
    def member_of(self, task_id: int) -> int | None:
        """Member index a submitted task was routed to (``None`` if unknown)."""
        return self._routed.get(task_id)

    def cancel(self, task_id: int) -> bool:
        """Withdraw a routed task that has not started transmitting.

        Looks up the member the task was routed to and delegates to its
        :meth:`ClusterSimulation.cancel`.  Returns ``False`` for unknown
        tasks and for tasks past the point of no return.
        """
        index = self._routed.get(task_id)
        if index is None:
            return False
        return self.sims[index].cancel(task_id)

    def task_status(self, task_id: int) -> dict:
        """One task's live status dict, with the routed ``member`` index.

        Same keys as :meth:`ClusterSimulation.task_status` plus
        ``member`` (``None`` — with state ``"unknown"`` — for ids never
        routed here).
        """
        index = self._routed.get(task_id)
        if index is None:
            return {
                "task_id": task_id,
                "state": "unknown",
                "member": None,
                "est_completion": None,
                "actual_completion": None,
                "started_at": None,
                "deadline_met": None,
            }
        status = self.sims[index].task_status(task_id)
        status["member"] = index
        return status

    def snapshot(self) -> dict:
        """Aggregate live state: pooled counters plus per-member snapshots."""
        members = [sim.snapshot() for sim in self.sims]
        pooled = {
            key: sum(m[key] for m in members)
            for key in (
                "arrivals",
                "accepted",
                "rejected",
                "cancelled",
                "waiting",
                "running",
                "completed",
            )
        }
        out = {
            "clock": max((m["clock"] for m in members), default=0.0),
            **pooled,
            "busy_time": float(sum(m["busy_time"] for m in members)),
            "finalized": self._done,
            "policy": self.scenario.policy,
            "members": members,
        }
        faulted = [m["faults"] for m in members if "faults" in m]
        if faulted:
            # Same shape as a member's "faults" sub-dict, summed fleet-wide.
            out["faults"] = {
                key: sum(f[key] for f in faulted) for key in faulted[0]
            }
        return out

    # -- one-shot driver ----------------------------------------------------
    def run(self) -> FleetOutput:
        """Execute the whole shared stream and return the fleet output."""
        if self._done or self._assignments:
            raise InvalidParameterError("a FleetSimulation instance runs once")
        stream = self.scenario.stream_scenario()
        tasks: Sequence[DivisibleTask] = stream.generate_tasks()
        for task in tasks:
            self.submit(task)
        return self.finalize()


def simulate_fleet(
    scenario: FleetScenario,
    algorithm: str,
    *,
    validate: bool = True,
    trace: bool = False,
    eager_release: bool = False,
    shared_head_link: bool = False,
    node_order: str = "availability",
    admission_engine: str = DEFAULT_ADMISSION_ENGINE,
    obs: Observability | None = None,
) -> FleetOutput:
    """Run one fleet simulation of ``algorithm`` under ``scenario``.

    The shared stream depends only on the fleet seed — every routing
    policy and every algorithm shards the identical task set, so policy
    comparisons are paired exactly like the paper's algorithm comparisons.
    """
    return FleetSimulation(
        scenario,
        algorithm,
        validate=validate,
        trace=trace,
        eager_release=eager_release,
        shared_head_link=shared_head_link,
        node_order=node_order,
        admission_engine=admission_engine,
        obs=obs,
    ).run()
