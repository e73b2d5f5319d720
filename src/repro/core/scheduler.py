"""The online dynamic scheduler running on the head node.

Pure scheduling logic, engine-agnostic: the discrete-event driver
(:mod:`repro.sim.cluster_sim`) feeds it arrival / start instants and turns
its answers into events.  Keeping the logic free of event plumbing makes
every admission path unit-testable with plain function calls.

Life cycle of a task
--------------------
1. **Arrival** — :meth:`ClusterScheduler.on_arrival` runs the
   schedulability test (Figure 2).  Rejected tasks are final.  On
   acceptance the fresh ``TempSchedule`` *replaces* the committed plans of
   every still-waiting task (the test re-plans the whole queue), and the
   plan version is bumped so start events scheduled against older plans
   become no-ops.
2. **Start** — when a committed plan's start time arrives,
   :meth:`ClusterScheduler.on_start` locks the task: it leaves the waiting
   queue, its nodes are reserved until the *estimated* completion, and the
   caller receives the plan to execute.  From this point the task is no
   longer re-planned (its data is on the wire).
3. **Completion** — :meth:`ClusterScheduler.on_complete` records the actual
   completion measured by the executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import AdmissionDecision
from repro.core.cluster import ClusterProfile
from repro.core.errors import ScheduleConsistencyError
from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE, make_admission_test
from repro.core.partition import Partitioner, PlacementPlan
from repro.core.policies import SchedulingPolicy
from repro.core.reservations import NodeReservations
from repro.core.task import DivisibleTask, TaskOutcome, TaskRecord
from repro.obs import Observability
from repro.obs.metrics import DEPTH_BUCKETS

__all__ = ["ClusterScheduler", "SchedulerStats", "StartDirective"]


@dataclass(frozen=True, slots=True)
class StartDirective:
    """Instruction to the driver: fire ``on_start`` at ``start_time``.

    Carries the plan version so stale directives (superseded by a later
    re-plan) are recognised and dropped.
    """

    task_id: int
    start_time: float
    version: int


class SchedulerStats:
    """Counters the scheduler maintains as it goes.

    The last three only move when fault injection is active:
    ``displaced`` counts running tasks torn down by a fault,
    ``readmitted`` counts successful post-fault re-admissions (of both
    displaced and formerly-waiting tasks), and ``fault_missed`` counts
    tasks the post-fault re-plan could no longer place — honest losses,
    terminal outcome :attr:`~repro.core.task.TaskOutcome.DISPLACED`.

    Since the :mod:`repro.obs` migration the counts live on a
    :class:`~repro.obs.metrics.MetricsRegistry` (as
    ``scheduler_<name>_total`` counters); the attributes here are thin
    read/write views onto those instruments, so the constructor
    signature, ``getattr`` access, augmented assignment and equality all
    behave exactly as the former plain-int dataclass did (the serve wire
    protocol and the test suite rely on it).
    """

    #: Counter fields, in wire order (mirrored by the serve protocol).
    FIELDS = (
        "arrivals",
        "accepted",
        "rejected",
        "admission_tests",
        "replanned_tasks",
        "cancelled",
        "displaced",
        "readmitted",
        "fault_missed",
    )

    __slots__ = ("_counters",)

    def __init__(
        self,
        arrivals: int = 0,
        accepted: int = 0,
        rejected: int = 0,
        admission_tests: int = 0,
        replanned_tasks: int = 0,
        cancelled: int = 0,
        displaced: int = 0,
        readmitted: int = 0,
        fault_missed: int = 0,
        *,
        registry=None,
    ) -> None:
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        values = (
            arrivals,
            accepted,
            rejected,
            admission_tests,
            replanned_tasks,
            cancelled,
            displaced,
            readmitted,
            fault_missed,
        )
        self._counters = {}
        for name, value in zip(self.FIELDS, values):
            counter = registry.counter(
                f"scheduler_{name}_total", f"Scheduler {name} count."
            )
            if value:
                counter.inc(int(value))
            self._counters[name] = counter

    @property
    def reject_ratio(self) -> float:
        """Task Reject Ratio — the paper's headline metric."""
        if self.arrivals == 0:
            return 0.0
        return self.rejected / self.arrivals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchedulerStats):
            return NotImplemented
        return all(
            self._counters[f].value == other._counters[f].value
            for f in self.FIELDS
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={self._counters[f].value}" for f in self.FIELDS)
        return f"SchedulerStats({inner})"


def _stats_view(name: str) -> property:
    """A read/write property exposing one backing counter as an int."""

    def fget(self: SchedulerStats) -> int:
        return self._counters[name].value

    def fset(self: SchedulerStats, value: int) -> None:
        self._counters[name].value = int(value)

    fget.__doc__ = f"Thin view of the ``scheduler_{name}_total`` counter."
    return property(fget, fset)


for _name in SchedulerStats.FIELDS:
    setattr(SchedulerStats, _name, _stats_view(_name))
del _name


class ClusterScheduler:
    """Head-node admission control + dispatch bookkeeping.

    Parameters
    ----------
    cluster:
        Static cluster description.
    policy:
        Task ordering (EDF / FIFO).
    partitioner:
        Partitioning strategy (DLT-IIT / OPR / User-Split).
    eager_release:
        Ablation flag: hand nodes back at *actual* completion instead of
        the estimate (see DESIGN.md, S19).  Default ``False`` = paper
        bookkeeping.
    admission_engine:
        ``"fast"`` (default) runs the schedulability test through the
        optimized engine of :mod:`repro.core.fastpath`; ``"reference"``
        through the original walk.  Decisions are bit-identical either way
        (asserted by the property suite) — the switch exists for
        benchmarking and verification.
    obs:
        Observability bundle (:class:`repro.obs.Observability`).  When
        omitted a private registry-only bundle is created, so the
        counter surface (``SchedulerStats`` views, plan-cache hit rates,
        queue-depth histogram) always exists; passing one wires the
        scheduler, its admission engine and its stats onto the caller's
        registry and (optional) tracer.  Instrumentation never perturbs
        decisions — see the :mod:`repro.obs` determinism contract.
    """

    def __init__(
        self,
        cluster: ClusterProfile,
        policy: SchedulingPolicy,
        partitioner: Partitioner,
        *,
        eager_release: bool = False,
        admission_engine: str = DEFAULT_ADMISSION_ENGINE,
        obs: Observability | None = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.partitioner = partitioner
        self.eager_release = eager_release
        self.obs = obs if obs is not None else Observability()
        self.test = make_admission_test(
            policy, partitioner, cluster, engine=admission_engine, obs=self.obs
        )
        self.reservations = NodeReservations(cluster.nodes)
        self.waiting: dict[int, DivisibleTask] = {}
        self.committed_plans: dict[int, PlacementPlan] = {}
        self.running: dict[int, PlacementPlan] = {}
        self.records: dict[int, TaskRecord] = {}
        self.stats = SchedulerStats(registry=self.obs.registry)
        self._queue_depth = self.obs.registry.histogram(
            "admission_queue_depth",
            DEPTH_BUCKETS,
            "Waiting-queue depth observed at each admission test.",
        )
        self.plan_version = 0
        self._last_event_time = 0.0

    # -- event handlers ---------------------------------------------------
    def on_arrival(
        self, task: DivisibleTask, now: float
    ) -> tuple[AdmissionDecision, list[StartDirective]]:
        """Admit or reject ``task`` arriving at ``now``.

        Returns the decision plus the start directives for the *new*
        committed schedule (one per waiting task, including the newcomer
        when accepted).  The driver schedules them all; version tags void
        the directives of any previously committed plans.
        """
        self._check_time(now)
        if task.task_id in self.records:
            raise ScheduleConsistencyError(
                f"task {task.task_id} arrived twice"
            )
        self.stats.arrivals += 1
        self.stats.admission_tests += 1
        self._queue_depth.observe(float(len(self.waiting)))
        self.partitioner.on_task_arrival(task, self.cluster)

        decision = self.test.try_admit(
            task, list(self.waiting.values()), self.reservations, now
        )
        if not decision.accepted:
            self.stats.rejected += 1
            self.records[task.task_id] = TaskRecord(
                task=task, outcome=TaskOutcome.REJECTED
            )
            return decision, []

        self.stats.accepted += 1
        self.waiting[task.task_id] = task
        self.records[task.task_id] = TaskRecord(
            task=task, outcome=TaskOutcome.ACCEPTED
        )
        self.stats.replanned_tasks += max(len(self.waiting) - 1, 0)
        self.plan_version += 1
        self.committed_plans = dict(decision.plans)
        directives = [
            StartDirective(
                task_id=tid,
                start_time=plan.start_time,
                version=self.plan_version,
            )
            for tid, plan in self.committed_plans.items()
        ]
        return decision, directives

    def on_start(
        self, task_id: int, version: int, now: float
    ) -> PlacementPlan | None:
        """Lock a waiting task and hand its plan to the executor.

        Returns ``None`` when the directive is stale (the plan was replaced
        by a later admission) — the driver simply drops it.
        """
        self._check_time(now)
        if version != self.plan_version or task_id not in self.waiting:
            return None
        plan = self.committed_plans.pop(task_id)
        task = self.waiting.pop(task_id)
        if plan.start_time > now + 1e-9:
            raise ScheduleConsistencyError(
                f"task {task_id} started at {now} before its plan time "
                f"{plan.start_time}"
            )
        self.reservations.assign(plan.node_ids, plan.est_completion, owner=task_id)
        self.running[task_id] = plan
        record = self.records[task_id]
        record.started_at = now
        record.est_completion = plan.est_completion
        record.n_nodes = plan.n
        record.node_ids = plan.node_ids
        _ = task  # task object re-exposed via the record
        return plan

    def on_complete(
        self,
        task_id: int,
        actual_completion: float,
        per_node_completion: tuple[float, ...] | None = None,
    ) -> TaskRecord:
        """Record the executor-measured completion of a running task."""
        if task_id not in self.running:
            raise ScheduleConsistencyError(
                f"completion for task {task_id} which is not running"
            )
        plan = self.running.pop(task_id)
        record = self.records[task_id]
        record.actual_completion = actual_completion
        if self.eager_release:
            ends = (
                per_node_completion
                if per_node_completion is not None
                else (actual_completion,) * plan.n
            )
            self.reservations.release_early(plan.node_ids, ends, owner=task_id)
        self._last_event_time = max(self._last_event_time, actual_completion)
        return record

    def cancel(self, task_id: int) -> bool:
        """Withdraw an admitted task that has not started transmitting.

        Returns ``True`` when the task was waiting and is now cancelled:
        it leaves the waiting queue, its committed plan is dropped, and its
        record's outcome becomes :attr:`TaskOutcome.CANCELLED`.  Any start
        directive scheduled for it goes stale (``on_start`` drops
        directives whose task is no longer waiting).  The rest of the
        committed schedule is *not* re-planned — the remaining plans were
        feasible with the cancelled task still occupying its slot, so they
        stay feasible (merely conservative) without it.

        Returns ``False`` for anything else — unknown, rejected, already
        started, completed or already cancelled tasks — so callers can
        report "too late to cancel" without a pre-flight status check.
        """
        task = self.waiting.pop(task_id, None)
        if task is None:
            return False
        self.committed_plans.pop(task_id, None)
        self.records[task_id].outcome = TaskOutcome.CANCELLED
        self.stats.cancelled += 1
        return True

    # -- fault displacement ------------------------------------------------
    def displace(
        self,
        task_id: int,
        node_ids: tuple[int, ...],
        release_times: tuple[float, ...],
        now: float,
    ) -> TaskRecord:
        """Tear down a *running* task hit by a fault.

        The executor (which owns the physical chunk timeline) decides the
        honest per-node rollback times — how far each node actually got
        before the fault — and passes them here; the scheduler hands the
        nodes back at those times (owner-gated, exactly like an eager
        release) and forgets the task ever ran.  The record keeps its
        ``ACCEPTED`` outcome for the moment: the driver immediately tries
        :meth:`readmit`, which settles it either way.
        """
        self._check_time(now)
        if task_id not in self.running:
            raise ScheduleConsistencyError(
                f"displacement of task {task_id} which is not running"
            )
        self.running.pop(task_id)
        self.reservations.release_early(node_ids, release_times, owner=task_id)
        record = self.records[task_id]
        record.est_completion = None
        record.started_at = None
        record.n_nodes = None
        record.node_ids = ()
        self.stats.displaced += 1
        return record

    def clear_committed(self) -> list[DivisibleTask]:
        """Empty the waiting queue + committed plans for a fault re-plan.

        Returns the formerly waiting tasks (insertion order).  Every
        outstanding :class:`StartDirective` goes stale the moment the next
        re-admission bumps the plan version; the driver additionally
        cancels their heap entries outright.  Records and counters are
        untouched — each task's fate is settled by :meth:`readmit`.
        """
        tasks = list(self.waiting.values())
        self.waiting.clear()
        self.committed_plans.clear()
        return tasks

    def readmit(
        self, task: DivisibleTask, now: float
    ) -> list[StartDirective] | None:
        """Re-run admission for a fault-displaced (or re-queued) task.

        Same walk as :meth:`on_arrival` with three deliberate
        differences: the task keeps its original arrival and deadline (a
        late re-admission is an honest deadline miss, never a silent
        success), ``arrivals``/``accepted``/``rejected`` do not move (the
        task already arrived once), and the partitioner's per-arrival
        hook is *not* re-run — a stochastic partitioner (User-Split)
        reuses the node request it drew at first arrival, keeping the
        RNG stream unperturbed.

        Returns the new start directives on success; ``None`` when the
        post-fault schedule cannot fit the task, in which case its record
        flips to :attr:`~repro.core.task.TaskOutcome.DISPLACED` and
        ``fault_missed`` increments.
        """
        self._check_time(now)
        self.stats.admission_tests += 1
        self._queue_depth.observe(float(len(self.waiting)))
        decision = self.test.try_admit(
            task, list(self.waiting.values()), self.reservations, now
        )
        record = self.records[task.task_id]
        if not decision.accepted:
            record.outcome = TaskOutcome.DISPLACED
            self.stats.fault_missed += 1
            return None
        record.outcome = TaskOutcome.ACCEPTED
        self.waiting[task.task_id] = task
        self.stats.readmitted += 1
        self.stats.replanned_tasks += max(len(self.waiting) - 1, 0)
        self.plan_version += 1
        self.committed_plans = dict(decision.plans)
        return [
            StartDirective(
                task_id=tid,
                start_time=plan.start_time,
                version=self.plan_version,
            )
            for tid, plan in self.committed_plans.items()
        ]

    # -- introspection ----------------------------------------------------
    @property
    def waiting_count(self) -> int:
        """Number of admitted-but-not-started tasks."""
        return len(self.waiting)

    @property
    def running_count(self) -> int:
        """Number of started-but-not-completed tasks."""
        return len(self.running)

    def task_state(self, task_id: int) -> str:
        """Life-cycle state of a task id, as a stable lowercase string.

        One of ``"unknown"`` (never arrived here), ``"rejected"``,
        ``"cancelled"``, ``"displaced"`` (fault victim that could not be
        re-admitted), ``"waiting"`` (admitted, not started), ``"running"``
        (started, not completed) or ``"completed"``.
        """
        record = self.records.get(task_id)
        if record is None:
            return "unknown"
        if record.outcome is TaskOutcome.REJECTED:
            return "rejected"
        if record.outcome is TaskOutcome.CANCELLED:
            return "cancelled"
        if record.outcome is TaskOutcome.DISPLACED:
            return "displaced"
        if task_id in self.waiting:
            return "waiting"
        if task_id in self.running:
            return "running"
        return "completed"

    def _check_time(self, now: float) -> None:
        if now < self._last_event_time - 1e-9:
            raise ScheduleConsistencyError(
                f"time ran backwards: {now} < {self._last_event_time}"
            )
        self._last_event_time = max(self._last_event_time, now)
