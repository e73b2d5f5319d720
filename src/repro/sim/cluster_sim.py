"""Cluster executor: run an admitted workload on the simulated cluster.

This is the "discrete simulator" of Section 5.  It owns:

* the event engine (:mod:`repro.sim.engine`),
* the head-node scheduler (:mod:`repro.core.scheduler`),
* the physical model — per-chunk transmission and computation windows on
  the actual homogeneous nodes, with the head node sending a task's chunks
  strictly in node order.

Two modelling switches (both default to the paper's reading, see
DESIGN.md):

``shared_head_link``
    ``False`` (default): the cluster is switched; transmissions of
    *different* tasks to different nodes may overlap, only chunks of the
    same task are serialized (this matches the paper's per-task analysis).
    ``True``: every byte leaves through one head-node link, so chunk
    transmissions serialize globally (ablation S19) — estimates may then be
    exceeded, which the ablation measures.
``eager_release`` (forwarded to the scheduler)
    Hand nodes back at actual rather than estimated completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.algorithms import AlgorithmInstance
from repro.core.cluster import ClusterProfile
from repro.core.errors import InvalidParameterError
from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE
from repro.core.partition import PlacementPlan
from repro.core.scheduler import ClusterScheduler, SchedulerStats
from repro.core.task import DivisibleTask, TaskRecord
from repro.faults.model import FaultEvent, FaultPlan
from repro.obs import Observability
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.trace import ChunkTrace, TaskTrace
from repro.sim.validate import ExecutionValidator, ValidationReport

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

__all__ = ["ClusterSimulation", "SimulationOutput"]


@dataclass(slots=True)
class SimulationOutput:
    """Everything one simulation run produced.

    ``records`` covers *all* arrivals (accepted and rejected);
    ``validation`` reports invariant checks over executed tasks;
    ``node_busy_time`` is actual link+CPU occupancy per node;
    ``node_allocated_time`` is reservation occupancy (busy + idle-inside-
    allocation, i.e. the IITs); their gap quantifies how much allocated
    capacity each algorithm wastes.
    ``obs_snapshot`` is the run's deterministic metrics snapshot (see
    :mod:`repro.obs`) — wall-clock instruments excluded, so it is
    bit-identical across backends and with or without tracing.
    """

    algorithm: str
    records: dict[int, TaskRecord]
    stats: SchedulerStats
    validation: ValidationReport
    node_busy_time: "NDArray[np.float64]"
    node_allocated_time: "NDArray[np.float64]"
    horizon: float
    traces: list[TaskTrace] = field(default_factory=list)
    obs_snapshot: dict | None = None

    @property
    def reject_ratio(self) -> float:
        """Task Reject Ratio of the run."""
        return self.stats.reject_ratio

    @property
    def executed_tasks(self) -> int:
        """Number of tasks that ran to completion."""
        return self.validation.checked_tasks


class ClusterSimulation:
    """One simulation run: a task trace replayed under one algorithm.

    Parameters
    ----------
    cluster:
        Static cluster description.
    algorithm:
        A configured (policy, partitioner) pair from
        :func:`repro.core.algorithms.make_algorithm`.
    tasks:
        Arrival-ordered task list (the workload generator's output).
    horizon:
        The nominal TotalSimulationTime used for utilization
        normalization.  All queued work is drained past the horizon (the
        paper's reject ratio counts arrivals; completions just need to
        happen).
    validate:
        Check Theorem 4 + deadline guarantees on every executed task.
        Automatically non-strict when ``shared_head_link=True`` (the
        estimates are not sound under global link contention — measuring
        that unsoundness is the point of the ablation).
    trace:
        Record chunk-level traces (slower, more memory).
    admission_engine:
        Admission-test engine (``"fast"`` default / ``"reference"``);
        forwarded to the scheduler.  Outputs are bit-identical either way.
    faults:
        Optional :class:`~repro.faults.model.FaultPlan` (already filtered
        to this cluster).  ``None`` or an *empty* plan is the fault-free
        fast path — bit-identical to a build without the fault layer.
        With faults, validation turns non-strict: a slowed node makes
        actual completions exceed their estimates, which the validator
        then records as honest violations instead of raising.
    obs:
        Optional :class:`repro.obs.Observability` bundle.  Its registry
        backs the scheduler counters and queue-depth histogram; its
        tracer (if any) wraps event dispatch and admission phases in
        spans.  Instrumentation never draws randomness or schedules
        events, so the run is bit-identical with or without it.
    """

    def __init__(
        self,
        cluster: ClusterProfile,
        algorithm: AlgorithmInstance,
        tasks: Sequence[DivisibleTask] = (),
        *,
        horizon: float,
        validate: bool = True,
        trace: bool = False,
        eager_release: bool = False,
        shared_head_link: bool = False,
        admission_engine: str = DEFAULT_ADMISSION_ENGINE,
        faults: FaultPlan | None = None,
        obs: Observability | None = None,
    ) -> None:
        if horizon <= 0:
            raise InvalidParameterError(f"horizon must be > 0, got {horizon}")
        if faults is not None and not isinstance(faults, FaultPlan):
            raise InvalidParameterError(
                "faults must be a FaultPlan (materialize a FaultProcess "
                f"first), got {faults!r}"
            )
        self.cluster = cluster
        self.algorithm = algorithm
        self.tasks = list(tasks)
        self.horizon = float(horizon)
        self.trace_enabled = trace
        self.shared_head_link = shared_head_link
        self._check_task_order()
        self._last_arrival = -np.inf
        self._submitted_ids: set[int] = set()
        #: The active fault plan; an empty plan collapses to ``None`` so
        #: every fault-free code path below is the pre-fault-layer one.
        self.faults = faults if faults else None
        self.obs = obs if obs is not None else Observability()

        self.engine = SimulationEngine(tracer=self.obs.tracer)
        self.scheduler = ClusterScheduler(
            cluster,
            algorithm.policy,
            algorithm.partitioner,
            eager_release=eager_release,
            admission_engine=admission_engine,
            obs=self.obs,
        )
        strict = validate and not shared_head_link and self.faults is None
        self.validator = ExecutionValidator(strict=strict)
        self.validate_enabled = validate

        n = cluster.nodes
        # Per-node cost vectors, indexed by node id (uniform for the paper's
        # homogeneous cluster — the arithmetic is then bit-identical to the
        # scalar-cost code this generalizes).  Per-node state is kept in
        # Python lists: the executor reads and writes it one chunk at a
        # time, where list items beat NumPy scalar indexing.
        self._cms_by_node = np.asarray(cluster.cms_vector, dtype=np.float64).tolist()
        self._cps_by_node = np.asarray(cluster.cps_vector, dtype=np.float64).tolist()
        self._node_free = [0.0] * n  # actual per-node free times
        self._head_free = 0.0  # only consulted in shared-link mode
        self._busy = [0.0] * n
        self._allocated = [0.0] * n
        self._traces: list[TaskTrace] = []
        #: Start events of the currently committed schedule.  Every
        #: accepted arrival bumps the plan version, voiding all previous
        #: directives — cancelling their events (instead of letting them
        #: pop as no-ops) keeps the heap free of dead weight and lets the
        #: engine compact after heavy re-planning.
        self._start_events: list = []
        self._done = False

        #: Structured log of applied faults (one entry per window open),
        #: kept for tests and post-mortems; empty in fault-free runs.
        self.fault_log: list[dict] = []
        if self.faults is not None:
            # Fault bookkeeping, allocated only when a plan is active so
            # the fault-free hot path carries zero extra state or work.
            self._cps_nominal = self._cps_by_node.copy()
            self._cms_nominal = self._cms_by_node.copy()
            self._cps_factors: dict[int, list[float]] = {}
            self._cms_factors: dict[int, list[float]] = {}
            self._down_until = np.zeros(n)
            self._completion_events: dict[int, object] = {}
            self._exec_windows: dict[int, list[tuple[int, float, float]]] = {}
            for event in self.faults.events:
                if event.node is not None and event.node >= n:
                    raise InvalidParameterError(
                        f"fault event targets node {event.node} of a "
                        f"{n}-node cluster: {event!r}"
                    )
                self.engine.schedule(
                    event.time,
                    EventKind.FAULT,
                    lambda eng, t, e=event: self._handle_fault_begin(e),
                )

    @property
    def busy_time(self) -> float:
        """Total actual link+CPU occupancy accrued so far (node-time units)."""
        return float(np.asarray(self._busy).sum())

    def _check_task_order(self) -> None:
        last = -np.inf
        seen: set[int] = set()
        for t in self.tasks:
            if t.arrival < last:
                raise InvalidParameterError(
                    "tasks must be sorted by arrival time "
                    f"(task {t.task_id} at {t.arrival} after {last})"
                )
            if t.task_id in seen:
                raise InvalidParameterError(f"duplicate task id {t.task_id}")
            seen.add(t.task_id)
            last = t.arrival

    # -- event handlers -----------------------------------------------------
    def _handle_arrival(self, task: DivisibleTask) -> None:
        now = self.engine.now
        _, directives = self.scheduler.on_arrival(task, now)
        if not directives:  # rejected: the committed schedule stands
            return
        for handle in self._start_events:
            handle.cancel()
        self._start_events = [
            self.engine.schedule(
                d.start_time,
                EventKind.START,
                lambda eng, t, d=d: self._handle_start(d.task_id, d.version),
            )
            for d in directives
        ]

    def _handle_start(self, task_id: int, version: int) -> None:
        now = self.engine.now
        plan = self.scheduler.on_start(task_id, version, now)
        if plan is None:  # superseded by a later re-plan
            return
        ends = self._execute_plan(plan)
        handle = self.engine.schedule(
            max(ends),
            EventKind.COMPLETION,
            lambda eng, t, task_id=task_id, ends=ends: (
                self._handle_completion(task_id, ends)
            ),
        )
        if self.faults is not None:
            self._completion_events[task_id] = handle

    def _execute_plan(self, plan: PlacementPlan) -> tuple[float, ...]:
        """Physically execute a plan's chunk sequence; return comp ends.

        One pass over the plan's chunks in node order, on Python floats.
        Each chunk's transmission starts when the previous chunk's
        transmission ended, its dispatch release has passed and its node
        is physically free (and, in shared-link mode, the head link is
        free).  Per-chunk costs are ``(alpha * sigma) * C_i``, the same
        operations in the same order as the vectorized form, so every
        value is bit-identical to it.
        """
        if plan.explicit_chunks is not None:
            return self._replay_explicit(plan)
        sigma = plan.task.sigma
        cms = self._cms_by_node
        cps = self._cps_by_node
        node_free = self._node_free
        busy = self._busy
        allocated = self._allocated
        est = plan.est_completion
        booked = plan.release_times
        shared = self.shared_head_link
        windows: list[tuple[int, float, float]] | None = (
            [] if self.faults is not None else None
        )
        chunks: list[ChunkTrace] | None = [] if self.trace_enabled else None
        ends: list[float] = []
        prev_end = -math.inf
        for i, (node, alpha, release) in enumerate(
            zip(plan.node_ids, plan.alphas, plan.dispatch_releases)
        ):
            share = alpha * sigma
            trans = share * cms[node]
            comp = share * cps[node]
            start = max(prev_end, release, node_free[node])
            if shared:
                start = max(start, self._head_free)
            t_end = start + trans
            if shared:
                self._head_free = t_end
            c_end = t_end + comp
            prev_end = t_end
            ends.append(c_end)
            node_free[node] = c_end
            busy[node] += trans + comp
            allocated[node] += est - booked[i]
            if windows is not None:
                windows.append((node, start, c_end))
            if chunks is not None:
                chunks.append(
                    ChunkTrace(
                        task_id=plan.task.task_id,
                        node_id=node,
                        position=i,
                        alpha=alpha,
                        release=booked[i],
                        trans_start=start,
                        trans_end=t_end,
                        comp_end=c_end,
                    )
                )
        if windows is not None:
            self._exec_windows[plan.task.task_id] = windows
        if chunks is not None:
            self._traces.append(
                TaskTrace(
                    task_id=plan.task.task_id,
                    method=plan.method,
                    chunks=tuple(chunks),
                )
            )
        return tuple(ends)

    def _replay_explicit(self, plan: PlacementPlan) -> tuple[float, ...]:
        """Replay a precomputed (multi-round) chunk schedule verbatim.

        The planner built the windows against conservative node releases,
        so in the default switched model they are consistent by
        construction; the shared-link ablation cannot shift them and is
        rejected for such plans.
        """
        if self.shared_head_link:
            raise InvalidParameterError(
                "shared_head_link is not supported for multi-round "
                "(explicit-chunk) plans"
            )
        assert plan.explicit_chunks is not None
        n = plan.n
        comp_ends = [0.0] * n
        chunks: list[ChunkTrace] = []
        windows: list[tuple[int, float, float]] = []
        for c in sorted(plan.explicit_chunks, key=lambda c: (c.trans_start, c.position)):
            node = int(plan.node_ids[c.position])
            comp_ends[c.position] = max(comp_ends[c.position], c.comp_end)
            self._node_free[node] = max(self._node_free[node], c.comp_end)
            self._busy[node] += (c.trans_end - c.trans_start) + (
                c.comp_end - c.trans_end
            )
            if self.faults is not None:
                windows.append((node, c.trans_start, c.comp_end))
            if self.trace_enabled:
                chunks.append(
                    ChunkTrace(
                        task_id=plan.task.task_id,
                        node_id=node,
                        position=c.position,
                        alpha=c.alpha,
                        release=plan.release_times[c.position],
                        trans_start=c.trans_start,
                        trans_end=c.trans_end,
                        comp_end=c.comp_end,
                    )
                )
        for i in range(n):
            self._allocated[int(plan.node_ids[i])] += (
                plan.est_completion - plan.release_times[i]
            )
        if self.faults is not None:
            self._exec_windows[plan.task.task_id] = windows
        if self.trace_enabled:
            self._traces.append(
                TaskTrace(
                    task_id=plan.task.task_id,
                    method=plan.method,
                    chunks=tuple(chunks),
                )
            )
        return tuple(comp_ends)

    def _handle_completion(self, task_id: int, ends: tuple[float, ...]) -> None:
        actual = max(ends)
        if self.faults is not None:
            self._completion_events.pop(task_id, None)
            self._exec_windows.pop(task_id, None)
        record: TaskRecord = self.scheduler.on_complete(task_id, actual, ends)
        if self.validate_enabled:
            self.validator.check_completion(record)

    # -- fault injection ----------------------------------------------------
    def _handle_fault_begin(self, event: FaultEvent) -> None:
        """Open one fault window (FAULT events land after completions,
        before starts/arrivals, so everything deciding at this instant
        sees the post-fault world)."""
        now = self.engine.now
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.event(
                "fault.window_open",
                "faults",
                now,
                kind=event.kind,
                node=event.node,
                until=event.end,
            )
        self.engine.schedule(
            event.end,
            EventKind.FAULT,
            lambda eng, t, e=event: self._handle_fault_end(e),
        )
        if event.kind in ("slowdown", "degrade"):
            factors = (
                self._cps_factors if event.kind == "slowdown" else self._cms_factors
            )
            factors.setdefault(event.node, []).append(event.factor)
            self._apply_cost_factors(event.node)
            self.fault_log.append(
                {
                    "time": now,
                    "kind": event.kind,
                    "node": event.node,
                    "factor": event.factor,
                    "until": event.end,
                }
            )
            return
        affected = (
            (event.node,)
            if event.kind == "node_down"
            else tuple(range(self.cluster.nodes))
        )
        self._apply_outage(affected, event)

    def _handle_fault_end(self, event: FaultEvent) -> None:
        """Close one fault window.

        Cost factors restore *exactly* (the nominal vector is kept and the
        product recomputed from the remaining active windows, so no float
        drift survives the last window).  Outage recovery needs no work
        here: it was encoded as availability floors when the window
        opened.
        """
        if self.obs.tracer is not None:
            self.obs.tracer.event(
                "fault.window_close",
                "faults",
                self.engine.now,
                kind=event.kind,
                node=event.node,
            )
        if event.kind in ("slowdown", "degrade"):
            factors = (
                self._cps_factors if event.kind == "slowdown" else self._cms_factors
            )
            active = factors.get(event.node)
            if active:
                active.remove(event.factor)
            self._apply_cost_factors(event.node)

    def _apply_cost_factors(self, node: int) -> None:
        """Recompute one node's effective costs from its active windows."""
        cps = float(self._cps_nominal[node])
        for f in self._cps_factors.get(node, ()):
            cps *= f
        self._cps_by_node[node] = cps
        cms = float(self._cms_nominal[node])
        for f in self._cms_factors.get(node, ()):
            cms *= f
        self._cms_by_node[node] = cms

    def _apply_outage(self, affected: tuple[int, ...], event: FaultEvent) -> None:
        """Crash ``affected`` nodes until ``event.end``.

        Every running task with a chunk on an affected node is displaced:
        its completion event is cancelled, its physical occupancy rolled
        back to what honestly happened before the fault, its reservations
        handed back, and it re-enters admission with its original arrival
        and deadline.  The whole committed (waiting) schedule is re-planned
        the same way, because its feasibility proof assumed the crashed
        capacity.  Re-admissions that no longer fit end as ``DISPLACED`` —
        an honest loss, never a silent success.
        """
        now = self.engine.now
        recover = event.end
        scheduler = self.scheduler
        affected_set = frozenset(affected)
        victims = sorted(
            tid
            for tid, plan in scheduler.running.items()
            if affected_set.intersection(plan.node_ids)
        )
        displaced: list[DivisibleTask] = []
        touched: set[int] = set(affected)
        for tid in victims:
            plan = scheduler.running[tid]
            handle = self._completion_events.pop(tid, None)
            if handle is not None:
                handle.cancel()
            for node, start, c_end in self._exec_windows.pop(tid, ()):
                # The chunk honestly occupied [start, min(max(now, start),
                # c_end)) — nothing if it had not begun, everything if it
                # had finished (only possible for non-final chunks).
                honest_end = min(max(now, start), c_end)
                self._busy[node] -= c_end - honest_end
                touched.add(node)
            est = plan.est_completion
            for i, node in enumerate(plan.node_ids):
                release = plan.release_times[i]
                honest_alloc = min(max(now, release), est)
                self._allocated[node] -= est - honest_alloc
            scheduler.displace(tid, plan.node_ids, (now,) * plan.n, now)
            displaced.append(scheduler.records[tid].task)
        if victims:
            self._recompute_node_free(touched, now)
        ids = list(affected)
        for node in ids:
            self._node_free[node] = max(self._node_free[node], recover)
        self._down_until[ids] = np.maximum(self._down_until[ids], recover)
        scheduler.reservations.floor_release(affected, recover)

        # Re-plan the world: displaced + formerly waiting tasks re-enter
        # admission in (arrival, task_id) order.  Each success replaces
        # the committed schedule wholesale, so all previously scheduled
        # start events are cancelled — under a blackout this is the mass
        # cancellation that exercises the engine's heap compaction.
        requeued = scheduler.clear_committed()
        for handle in self._start_events:
            handle.cancel()
        self._start_events = []
        pool = sorted(displaced + requeued, key=lambda t: (t.arrival, t.task_id))
        readmitted: list[int] = []
        missed: list[int] = []
        for task in pool:
            directives = scheduler.readmit(task, now)
            if directives is None:
                missed.append(task.task_id)
                continue
            readmitted.append(task.task_id)
            for handle in self._start_events:
                handle.cancel()
            self._start_events = [
                self.engine.schedule(
                    d.start_time,
                    EventKind.START,
                    lambda eng, t, d=d: self._handle_start(d.task_id, d.version),
                )
                for d in directives
            ]
        self.fault_log.append(
            {
                "time": now,
                "kind": event.kind,
                "node": event.node,
                "until": recover,
                "displaced": [t.task_id for t in displaced],
                "requeued": [t.task_id for t in requeued],
                "readmitted": readmitted,
                "missed": missed,
            }
        )
        if self.obs.tracer is not None:
            self.obs.tracer.event(
                "fault.outage_applied",
                "faults",
                now,
                kind=event.kind,
                node=event.node,
                displaced=len(displaced),
                readmitted=len(readmitted),
                missed=len(missed),
            )

    def _recompute_node_free(self, nodes: set[int], now: float) -> None:
        """Rebuild physical free times after windows were rolled back.

        A displaced task's windows cannot simply be subtracted from
        ``_node_free`` — a surviving task may still hold a later window on
        the same node — so the free time of every touched node is
        recomputed as the max over the windows of tasks *still running*,
        floored at ``now`` for capacity that was honestly consumed up to
        the fault (completed work never exceeds ``now``).
        """
        free = {node: min(float(self._node_free[node]), now) for node in nodes}
        for windows in self._exec_windows.values():
            for node, _start, c_end in windows:
                if node in nodes and c_end > free[node]:
                    free[node] = c_end
        for node, value in free.items():
            self._node_free[node] = value

    # -- incremental driver -------------------------------------------------
    # The three methods below let an external coordinator (the fleet layer)
    # interleave several ClusterSimulation instances over one shared arrival
    # stream: submit each routed task as it arrives, advance every cluster's
    # clock in lockstep, finalize when the stream ends.  ``run()`` is the
    # one-shot composition of the same primitives, so both paths execute the
    # identical event sequence.

    def submit(self, task: DivisibleTask) -> None:
        """Feed one arrival into the simulation.

        Tasks must be submitted in arrival order with unique ids; the
        arrival event fires when the clock reaches ``task.arrival``
        (through :meth:`advance_to`, :meth:`finalize` or :meth:`run`).
        """
        if self._done:
            raise InvalidParameterError(
                "cannot submit tasks to a finalized simulation"
            )
        if task.arrival < self._last_arrival:
            raise InvalidParameterError(
                "tasks must be submitted in arrival order "
                f"(task {task.task_id} at {task.arrival} after "
                f"{self._last_arrival})"
            )
        if task.task_id in self._submitted_ids:
            raise InvalidParameterError(f"duplicate task id {task.task_id}")
        self._submitted_ids.add(task.task_id)
        self._last_arrival = task.arrival
        self.tasks.append(task)
        self.engine.schedule(
            task.arrival,
            EventKind.ARRIVAL,
            lambda eng, t, task=task: self._handle_arrival(task),
        )

    def advance_to(self, time: float) -> None:
        """Process every event up to ``time`` and advance the clock there."""
        self.engine.run(until=time)

    # -- live introspection (the admission service's status/cancel hooks) --
    def cancel(self, task_id: int) -> bool:
        """Withdraw an admitted task that has not started transmitting.

        Thin driver-level wrapper over
        :meth:`~repro.core.scheduler.ClusterScheduler.cancel`: the
        scheduler drops the task from the waiting queue and the task's
        pending start event goes stale on its own (``on_start`` ignores
        directives whose task is no longer waiting).  Returns ``True``
        only when the task was actually waiting.
        """
        if self._done:
            raise InvalidParameterError(
                "cannot cancel tasks in a finalized simulation"
            )
        return self.scheduler.cancel(task_id)

    def task_status(self, task_id: int) -> dict:
        """One task's live status as a JSON-friendly dict.

        Keys: ``task_id``, ``state`` (see
        :meth:`~repro.core.scheduler.ClusterScheduler.task_state`),
        ``est_completion`` / ``actual_completion`` / ``started_at``
        (``None`` until known) and ``deadline_met`` (``None`` until the
        task completed).
        """
        record = self.scheduler.records.get(task_id)
        return {
            "task_id": task_id,
            "state": self.scheduler.task_state(task_id),
            "est_completion": record.est_completion if record else None,
            "actual_completion": record.actual_completion if record else None,
            "started_at": record.started_at if record else None,
            "deadline_met": record.deadline_met if record else None,
        }

    def snapshot(self) -> dict:
        """Aggregate live state as a JSON-friendly dict.

        Reports the simulation clock, the scheduler's cumulative counters
        (arrivals / accepted / rejected / cancelled), the current queue
        occupancy (waiting / running), how many accepted tasks have
        completed, and the actual busy node-time accrued so far.  When a
        fault plan is active a ``"faults"`` sub-dict is added (and *only*
        then, keeping fault-free snapshots bit-identical to pre-fault
        builds): cumulative displaced / readmitted / fault_missed
        counters, the number of currently-down nodes, and how many fault
        windows have opened so far.
        """
        stats = self.scheduler.stats
        completed = sum(
            1
            for r in self.scheduler.records.values()
            if r.actual_completion is not None
        )
        snap = {
            "clock": self.engine.now,
            "arrivals": stats.arrivals,
            "accepted": stats.accepted,
            "rejected": stats.rejected,
            "cancelled": stats.cancelled,
            "waiting": self.scheduler.waiting_count,
            "running": self.scheduler.running_count,
            "completed": completed,
            "busy_time": self.busy_time,
            "finalized": self._done,
        }
        if self.faults is not None:
            snap["faults"] = {
                "displaced": stats.displaced,
                "readmitted": stats.readmitted,
                "fault_missed": stats.fault_missed,
                "down_nodes": int(
                    np.count_nonzero(self._down_until > self.engine.now)
                ),
                "applied": len(self.fault_log),
            }
        return snap

    def finalize(self) -> SimulationOutput:
        """Drain all remaining events and assemble the run's output.

        A simulation finalizes exactly once; no tasks may be submitted
        afterwards.
        """
        if self._done:
            raise InvalidParameterError("a ClusterSimulation instance runs once")
        self._done = True
        self.engine.run()  # drain: all accepted tasks complete

        if self.validate_enabled and self.trace_enabled:
            self.validator.check_traces(self._traces, self.cluster.nodes)

        return SimulationOutput(
            algorithm=self.algorithm.name,
            records=self.scheduler.records,
            stats=self.scheduler.stats,
            validation=self.validator.report,
            node_busy_time=np.array(self._busy),
            node_allocated_time=np.array(self._allocated),
            horizon=self.horizon,
            traces=self._traces,
            obs_snapshot=self.obs.registry.snapshot(),
        )

    def run(self) -> SimulationOutput:
        """Execute the whole workload and return the run's output."""
        if self._done:
            raise InvalidParameterError("a ClusterSimulation instance runs once")
        pending, self.tasks = self.tasks, []
        for task in pending:
            self.submit(task)
        return self.finalize()
