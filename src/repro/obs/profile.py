"""Hot-path profiling: capture-and-replay plus per-phase kernel timers.

Full-simulation wall clock mixes the admission engine with event-loop
overhead that is identical for every engine, which dilutes any measured
ratio.  The honest engine measurement — grown for the benchmarks and now
shared with the ``repro profile`` CLI — is *capture and replay*: record
the real ``try_admit``/probe call stream produced by a reference-engine
simulation (task, frozen waiting queue, a copy of the committed
reservation state, now), then replay that exact stream through each
engine with fresh test instances and time only the engine.  Replays
double as an identity check: every engine must return the same decision
stream bit for bit.

Per-phase timers ride the engines themselves: the fast engine's kernels
expose an opt-in ``profile`` attribute (``None`` by default — the hot
path pays a single ``is not None`` test per walk).  When a
:class:`PhaseProfile` is attached, ``time.perf_counter`` spans accumulate
into named phases (queue ordering, memoized-prefix bookkeeping, placement
kernel evaluation), and :func:`profile_admission` prints the breakdown
the ``repro profile`` subcommand reports.  Profiling is wall-clock only:
it never touches simulated state, so decisions stay bit-identical with
the profiler attached (asserted by the replay identity check).
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.algorithms import make_algorithm
from repro.core.fastpath import make_admission_test

__all__ = [
    "AdmissionTap",
    "PhaseProfile",
    "build_tests",
    "capture_calls",
    "capture_cluster_calls",
    "capture_fleet_calls",
    "profile_admission",
    "replay_calls",
]


class PhaseProfile:
    """Accumulated wall time per named kernel phase.

    Engines call :meth:`add` around their phases; ``seconds`` maps phase
    name to accumulated ``perf_counter`` time and ``counts`` to the
    number of spans.  Attach one instance to several tests (fleet
    members) to pool their phases.
    """

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` (and ``count`` spans) into ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + count

    def as_rows(self) -> list[dict[str, Any]]:
        """Per-phase rows sorted by descending time (JSON-friendly)."""
        return [
            {
                "phase": phase,
                "seconds": self.seconds[phase],
                "calls": self.counts[phase],
            }
            for phase in sorted(
                self.seconds, key=lambda p: self.seconds[p], reverse=True
            )
        ]


class AdmissionTap:
    """Wraps a schedulability test, recording every call it serves."""

    def __init__(self, inner, calls, member=0, flag=None):
        self.inner = inner
        self.calls = calls
        self.member = member
        self.flag = flag or {"probing": False}

    def try_admit(self, new_task, waiting, reservations, now):
        """Record the call, then forward it to the wrapped test."""
        self.calls.append(
            (
                self.flag["probing"],
                self.member,
                new_task,
                tuple(waiting),
                reservations.copy(),
                now,
            )
        )
        return self.inner.try_admit(new_task, waiting, reservations, now)


def capture_cluster_calls(scenario, algorithm: str):
    """Run one reference simulation, recording the admission call stream.

    Returns ``(calls, output)`` — the output carries the stats (reject
    ratio, arrival count) for throughput reporting.
    """
    from repro.sim.cluster_sim import ClusterSimulation

    tasks = scenario.generate_tasks()
    instance = make_algorithm(algorithm, rng=scenario.algorithm_rng())
    sim = ClusterSimulation(
        scenario.cluster,
        instance,
        tasks,
        horizon=scenario.total_time,
        validate=False,
        admission_engine="reference",
    )
    calls: list = []
    sim.scheduler.test = AdmissionTap(sim.scheduler.test, calls)
    output = sim.run()
    return calls, output


def capture_fleet_calls(scenario, algorithm: str):
    """Fleet variant: taps every member test and tags probe-phase calls.

    Probes are distinguished by wrapping ``policy.route``: every
    ``try_admit`` made while the router runs is a what-if probe, and the
    call record carries that flag.  Returns ``(calls, fleet_output)``.
    """
    from repro.fleet.sim import FleetSimulation

    sim = FleetSimulation(
        scenario, algorithm, admission_engine="reference", validate=False
    )
    calls: list = []
    flag = {"probing": False}
    for i, member in enumerate(sim.sims):
        member.scheduler.test = AdmissionTap(
            member.scheduler.test, calls, member=i, flag=flag
        )
    route = sim.policy.route

    def tagged_route(task, views):
        flag["probing"] = True
        try:
            return route(task, views)
        finally:
            flag["probing"] = False

    sim.policy.route = tagged_route
    result = sim.run()
    return calls, result


def capture_calls(scenario, algorithm: str, *, fleet: bool):
    """Dispatch to the cluster or fleet capture; same ``(calls, output)``."""
    if fleet:
        return capture_fleet_calls(scenario, algorithm)
    return capture_cluster_calls(scenario, algorithm)


def build_tests(
    scenario,
    algorithm: str,
    engine: str,
    fleet: bool,
    *,
    obs=None,
    checkpoint: bool = True,
):
    """Fresh engine instances for a replay (one per fleet member).

    ``checkpoint=False`` builds the fast engine with the
    prefix-checkpoint store disabled — the ablation axis of the
    deep-queue benchmark panel (decisions are identical either way).
    """
    if not fleet:
        instance = make_algorithm(algorithm, rng=scenario.algorithm_rng())
        return [
            make_admission_test(
                instance.policy,
                instance.partitioner,
                scenario.cluster,
                engine=engine,
                obs=obs,
                checkpoint=checkpoint,
            )
        ]
    tests = []
    for i in range(scenario.n_clusters):
        member = scenario.member_scenario(i)
        instance = make_algorithm(algorithm, rng=member.algorithm_rng())
        tests.append(
            make_admission_test(
                instance.policy,
                instance.partitioner,
                member.cluster,
                engine=engine,
                obs=obs,
                checkpoint=checkpoint,
            )
        )
    return tests


def replay_calls(
    scenario,
    algorithm: str,
    engine: str,
    calls,
    *,
    reps=2,
    fleet=False,
    obs=None,
    checkpoint=True,
):
    """Replay a captured call stream through ``engine``; best-of-``reps``.

    Probe-tagged calls replay through ``try_admit`` like every other
    call, as in the live fleet.  Returns ``(best_seconds, outcomes)``
    where each outcome is the accepted task's est_completion or
    ``None`` — the engine-portable projection of the decision, asserted
    identical across reps (and, by callers, across engines).  ``obs``
    builds the tests instrumented, which is how the tracing-overhead
    benchmark measures the cost of an attached registry or tracer.
    """
    best = float("inf")
    outcomes = None
    for _ in range(reps):
        tests = build_tests(
            scenario, algorithm, engine, fleet, obs=obs, checkpoint=checkpoint
        )
        start = time.perf_counter()
        got = []
        for _probe, member, task, waiting, reservations, now in calls:
            decision = tests[member].try_admit(task, waiting, reservations, now)
            got.append(
                decision.plans[task.task_id].est_completion
                if decision.accepted
                else None
            )
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if outcomes is None:
            outcomes = got
        else:
            assert got == outcomes, f"{engine}: replay is not deterministic"
    return best, outcomes


def profile_admission(
    scenario,
    algorithm: str,
    *,
    engines: tuple[str, ...] = ("fast",),
    reps: int = 2,
    fleet: bool = False,
    checkpoint: bool = True,
) -> dict[str, Any]:
    """Capture one call stream and profile each engine's replay of it.

    Per engine: an *untimed-hooks* replay measures honest decisions/sec
    (best of ``reps``), then one extra replay with a
    :class:`PhaseProfile` attached breaks the time into kernel phases
    (including ``prefix_restore``, the checkpoint replay cost).
    Engines without phase hooks (``reference``) report timing only.
    All engines' outcome streams are asserted identical.
    ``checkpoint=False`` profiles the fast engine with the
    prefix-checkpoint store ablated.
    """
    calls, _output = capture_calls(scenario, algorithm, fleet=fleet)
    report: dict[str, Any] = {
        "algorithm": algorithm,
        "fleet": fleet,
        "calls": len(calls),
        "checkpoint": checkpoint,
        "engines": {},
    }
    reference_outcomes = None
    for engine in engines:
        seconds, outcomes = replay_calls(
            scenario,
            algorithm,
            engine,
            calls,
            reps=reps,
            fleet=fleet,
            checkpoint=checkpoint,
        )
        if reference_outcomes is None:
            reference_outcomes = outcomes
        else:
            assert outcomes == reference_outcomes, (
                f"{engine}: decision stream diverged from {engines[0]}"
            )
        profile = PhaseProfile()
        tests = build_tests(
            scenario, algorithm, engine, fleet, checkpoint=checkpoint
        )
        hooked = False
        for test in tests:
            if hasattr(test, "profile"):
                test.profile = profile
                hooked = True
        if hooked:
            for _probe, member, task, waiting, reservations, now in calls:
                tests[member].try_admit(task, waiting, reservations, now)
        report["engines"][engine] = {
            "seconds": seconds,
            "decisions_per_sec": len(calls) / seconds if seconds > 0 else 0.0,
            "phases": profile.as_rows() if hooked else [],
        }
    return report
