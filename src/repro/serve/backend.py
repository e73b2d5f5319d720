"""Simulation backends behind the live admission service.

The server (:mod:`repro.serve.server`) is transport + ordering; all
simulation state lives in one of the two backends here, which present the
same five-operation surface over the incremental drivers grown for this
purpose:

* :class:`ClusterBackend` — one
  :class:`~repro.sim.cluster_sim.ClusterSimulation` (a single head node);
* :class:`FleetBackend` — one
  :class:`~repro.fleet.sim.FleetSimulation` (an ingress router over
  member clusters, static or bandit routing).

Loopback guarantee
------------------
``submit`` drives exactly the per-task sequence the offline drivers
compose their one-shot ``run()`` from (submit the arrival, advance the
clock to it), so feeding the offline task stream through a backend —
whatever the transport interleaving upstream — finalizes into an output
*bit-identical* to ``run()`` on the same scenario: same records, same
counters, same busy vectors.  ``tests/test_serve.py`` asserts this for
both backends, both admission engines and several routing policies.

``probe`` is the one advisory operation: it runs the schedulability test
against the current committed state at ``max(clock, arrival)`` without
advancing the clock or committing anything.  For deterministic
partitioners a probe is invisible to the loopback guarantee (the fast
engine's memo makes a probe-then-submit reuse exact); a *stochastic*
partitioner (User-Split) draws from its RNG per probe, so interleaving
probes into a replay perturbs later draws — documented, not defended.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.algorithms import make_algorithm
from repro.core.errors import InvalidParameterError, ReproError
from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE
from repro.core.task import DivisibleTask, TaskOutcome
from repro.fleet.scenario import FleetScenario
from repro.fleet.sim import FleetSimulation
from repro.obs import Observability, merge_snapshots
from repro.serve.protocol import encode_output
from repro.sim.cluster_sim import ClusterSimulation
from repro.workload.scenario import Scenario

__all__ = ["ClusterBackend", "FleetBackend", "make_backend"]


def _probe_cluster(sim: ClusterSimulation, task: DivisibleTask) -> float | None:
    """What-if admission against one cluster's committed state.

    Mirrors the fleet router's probe: the schedulability test runs at
    ``max(clock, arrival)`` against the live reservations and waiting
    queue, commits nothing, and fires no events.  Returns the estimated
    completion on acceptance, ``None`` on rejection.
    """
    scheduler = sim.scheduler
    now = max(sim.engine.now, task.arrival)
    decision = scheduler.test.try_admit(
        task, list(scheduler.waiting.values()), scheduler.reservations, now
    )
    if not decision.accepted:
        return None
    return decision.plans[task.task_id].est_completion


def _decision_fields(sim: ClusterSimulation, task_id: int) -> dict[str, Any]:
    """The admission decision of one just-submitted task.

    The scheduler stamps ``est_completion`` on the record only when the
    task *starts*; a freshly admitted task that is still waiting carries
    its estimate in the committed plan, so the decision reports that —
    the same number a ``probe`` of the same task would have returned.
    """
    scheduler = sim.scheduler
    record = scheduler.records[task_id]
    accepted = record.outcome is TaskOutcome.ACCEPTED
    est = record.est_completion
    if est is None and accepted:
        plan = scheduler.committed_plans.get(task_id)
        if plan is not None:
            est = plan.est_completion
    return {"accepted": accepted, "est_completion": est}


def _submit_each(
    submit: Callable[[DivisibleTask], dict[str, Any]],
    tasks: list[DivisibleTask],
) -> list[dict[str, Any] | Exception]:
    """Apply ``submit`` to each task in order, collecting per-slot results.

    A :class:`ReproError` becomes that slot's value, exactly as serial
    dispatch reported it per request, so one bad task cannot void its
    batchmates' decisions.  Any other exception means the backend itself
    failed: it becomes the last slot and the pass stops there, so the
    list is shorter than ``tasks`` by the slots never applied.  Slots
    before it hold real, already-applied decisions.
    """
    results: list[dict[str, Any] | Exception] = []
    for task in tasks:
        try:
            results.append(submit(task))
        except ReproError as exc:
            results.append(exc)
        except Exception as exc:
            results.append(exc)
            break
    return results


class ClusterBackend:
    """Live admission control over a single simulated cluster.

    Parameters
    ----------
    scenario:
        Cluster + horizon + seed (the workload component only matters to
        offline checks; the backend consumes tasks from the wire).
    algorithm:
        Scheduling algorithm name; its RNG comes from the scenario's
        dedicated algorithm stream, exactly as in
        :func:`repro.experiments.runner.simulate`.
    node_order / admission_engine / eager_release / shared_head_link /
    validate:
        Forwarded to the underlying simulation.  ``admission_engine``
        defaults to :data:`~repro.core.fastpath.DEFAULT_ADMISSION_ENGINE`,
        as everywhere else (decisions are bit-identical across engines).
    """

    #: Backend kind tag carried in ``hello`` and finalize payloads.
    kind = "cluster"

    def __init__(
        self,
        scenario: Scenario,
        algorithm: str,
        *,
        node_order: str = "availability",
        admission_engine: str = DEFAULT_ADMISSION_ENGINE,
        eager_release: bool = False,
        shared_head_link: bool = False,
        validate: bool = True,
        obs: Observability | None = None,
    ) -> None:
        self.scenario = scenario
        self.algorithm = algorithm
        instance = make_algorithm(
            algorithm, rng=scenario.algorithm_rng(), node_order=node_order
        )
        self.sim = ClusterSimulation(
            scenario.cluster,
            instance,
            horizon=scenario.total_time,
            validate=validate,
            eager_release=eager_release,
            shared_head_link=shared_head_link,
            admission_engine=admission_engine,
            faults=scenario.fault_plan(),
            obs=obs,
        )

    def submit(self, task: DivisibleTask) -> dict[str, Any]:
        """Admit or reject one arrival; the decision is final and visible.

        Submits the arrival and advances the clock to it, the exact
        per-task step ``ClusterSimulation.run`` is composed of, then
        reads the decision off the scheduler's record.
        """
        self.sim.submit(task)
        self.sim.advance_to(task.arrival)
        return {**_decision_fields(self.sim, task.task_id), "member": None}

    def submit_many(
        self, tasks: list[DivisibleTask]
    ) -> list[dict[str, Any] | Exception]:
        """Admit a coalesced run of merged arrivals in one backend pass.

        Semantically identical to calling :meth:`submit` once per task in
        order — same per-task submit-then-advance step, same decisions.
        See :func:`_submit_each` for how errors fill the slots.
        """
        return _submit_each(self.submit, tasks)

    def probe(self, task: DivisibleTask) -> dict[str, Any]:
        """Advisory what-if admission (no commitment, no clock advance)."""
        est = _probe_cluster(self.sim, task)
        return {"accepted": est is not None, "est_completion": est, "member": None}

    def cancel(self, task_id: int) -> bool:
        """Withdraw a waiting task; ``False`` when it is too late."""
        return self.sim.cancel(task_id)

    def task_status(self, task_id: int) -> dict[str, Any]:
        """Live status dict of one task id."""
        return self.sim.task_status(task_id)

    def snapshot(self) -> dict[str, Any]:
        """Live aggregate state (clock, counters, queue occupancy)."""
        return self.sim.snapshot()

    def metrics(self) -> dict[str, Any]:
        """Live :mod:`repro.obs` registry snapshot (wall instruments too)."""
        return self.sim.obs.registry.snapshot(include_wall=True)

    def finalize(self) -> dict[str, Any]:
        """Drain the simulation and return the full output payload."""
        output = self.sim.finalize()
        return {"kind": self.kind, **encode_output(output)}

    def describe(self) -> dict[str, Any]:
        """Config fingerprint for the ``hello`` handshake."""
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "scenario": self.scenario.describe(),
        }


class FleetBackend:
    """Live admission control over a routed fleet of clusters.

    Same surface as :class:`ClusterBackend`; ``submit`` additionally
    reports the member index the routing policy chose, and ``probe``
    reports every member's estimate (the router's own view of the fleet).
    """

    #: Backend kind tag carried in ``hello`` and finalize payloads.
    kind = "fleet"

    def __init__(
        self,
        scenario: FleetScenario,
        algorithm: str,
        *,
        node_order: str = "availability",
        admission_engine: str = DEFAULT_ADMISSION_ENGINE,
        eager_release: bool = False,
        shared_head_link: bool = False,
        validate: bool = True,
        obs: Observability | None = None,
    ) -> None:
        self.scenario = scenario
        self.algorithm = algorithm
        self.sim = FleetSimulation(
            scenario,
            algorithm,
            validate=validate,
            eager_release=eager_release,
            shared_head_link=shared_head_link,
            node_order=node_order,
            admission_engine=admission_engine,
            obs=obs,
        )

    def submit(self, task: DivisibleTask) -> dict[str, Any]:
        """Route and admit one arrival; reports the chosen member too."""
        index = self.sim.submit(task)
        return {
            **_decision_fields(self.sim.sims[index], task.task_id),
            "member": index,
        }

    def submit_many(
        self, tasks: list[DivisibleTask]
    ) -> list[dict[str, Any] | Exception]:
        """Admit a coalesced run of merged arrivals in one backend pass.

        Same contract as :meth:`ClusterBackend.submit_many`: per-task
        route-and-admit in merged order, errors in-slot.
        """
        return _submit_each(self.submit, tasks)

    def probe(self, task: DivisibleTask) -> dict[str, Any]:
        """Advisory what-if admission against every member.

        ``members`` lists each member's estimate (``None`` = it would
        reject); ``member`` / ``est_completion`` report the earliest
        accepting member.  Probing does not consult the routing policy —
        a later ``submit`` may route elsewhere.
        """
        estimates = [_probe_cluster(sim, task) for sim in self.sim.sims]
        best_index: int | None = None
        best: float | None = None
        for i, est in enumerate(estimates):
            if est is not None and (best is None or est < best):
                best_index, best = i, est
        return {
            "accepted": best is not None,
            "est_completion": best,
            "member": best_index,
            "members": estimates,
        }

    def cancel(self, task_id: int) -> bool:
        """Withdraw a routed, still-waiting task from its member."""
        return self.sim.cancel(task_id)

    def task_status(self, task_id: int) -> dict[str, Any]:
        """Live status dict of one task id (with its ``member`` index)."""
        return self.sim.task_status(task_id)

    def snapshot(self) -> dict[str, Any]:
        """Live pooled state plus per-member snapshots."""
        return self.sim.snapshot()

    def metrics(self) -> dict[str, Any]:
        """Live merged registry snapshot: every member plus the fleet.

        Member registries are merged cellwise with the fleet's own
        (routing shares), so one flat snapshot describes
        the whole service — the shape ``summarize_pooled`` attaches to
        the offline :class:`~repro.metrics.collector.MetricsSummary`.
        """
        snaps = [
            member.obs.registry.snapshot(include_wall=True)
            for member in self.sim.sims
        ]
        snaps.append(self.sim.obs.registry.snapshot(include_wall=True))
        return merge_snapshots(snaps)

    def finalize(self) -> dict[str, Any]:
        """Drain every member and return the full fleet output payload."""
        output = self.sim.finalize()
        payload: dict[str, Any] = {
            "kind": self.kind,
            "algorithm": output.algorithm,
            "policy": self.scenario.policy,
            "assignments": list(output.assignments),
            "outputs": [encode_output(o) for o in output.outputs],
            "reject_ratio": output.reject_ratio,
        }
        if output.learning is not None:
            payload["learning"] = {
                "reward_model": output.learning.reward_model,
                "best_arm": output.learning.best_arm,
                "cumulative_regret": output.learning.cumulative_regret,
            }
        return payload

    def describe(self) -> dict[str, Any]:
        """Config fingerprint for the ``hello`` handshake."""
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "scenario": self.scenario.describe(),
        }


def make_backend(
    scenario: FleetScenario,
    algorithm: str,
    **kwargs: Any,
) -> ClusterBackend | FleetBackend:
    """Backend for a fleet description: 1 cluster → cluster, else fleet.

    A 1-cluster fleet routes every task to its only member, so serving it
    through the plain :class:`ClusterBackend` is behaviorally identical
    and skips the routing layer; the member-0 scenario keeps the fleet
    seed, preserving the single-cluster offline equivalence anchor.
    ``kwargs`` are the shared backend options (``node_order``,
    ``admission_engine``, …).
    """
    if not isinstance(scenario, FleetScenario):
        raise InvalidParameterError(
            f"make_backend expects a FleetScenario, got {scenario!r}"
        )
    if scenario.n_clusters == 1:
        return ClusterBackend(scenario.member_scenario(0), algorithm, **kwargs)
    return FleetBackend(scenario, algorithm, **kwargs)
