"""Workload definitions and correctness checks shared by the benchmark processes.

Every number the program sees comes from here: the scenario of each
workload, the seed of each repetition, and the comparison of decisions
against the reference schedulability test.  Only public entry points of
``repro`` are used, and no admission engine is named, so a change of the
program's default engine shows up in the measurements.
"""

from __future__ import annotations

import gc
import hashlib
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.admission import SchedulabilityTest
from repro.core.algorithms import make_algorithm
from repro.core.task import TaskOutcome
from repro.fleet.scenario import FleetScenario
from repro.fleet.sim import FleetSimulation
from repro.sim.cluster_sim import ClusterSimulation
from repro.workload.scenario import Scenario

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

#: The paper's headline algorithm (Section 5): EDF ordering, DLT partitioning
#: with inserted-idle-time utilization.
ALGORITHM = "EDF-DLT"

#: paper-cluster: one 16-node cluster at the paper's load and deadline ratio.
#: One repetition is about 3.5k tasks (half a second); a run is many of
#: them, each a different stream, and reports medians, so neither one
#: unusual stream nor a few seconds of a slower host move the result.
PAPER_HORIZON = 8e6
PAPER_REPS_PER_S = 2.0

#: overload-fleet: four 16-node clusters whose processing costs span
#: 0.6x-1.4x of the paper's, each offered three times its capacity with loose
#: deadlines, routed to the member whose admission analysis finishes first.  Queues run deep and every
#: arrival probes every member.  One repetition is about 2.1k tasks.
FLEET_HORIZON = 1.5e5
FLEET_REPS_PER_S = 0.5

#: Decisions checked against the reference test, per workload (``None``:
#: the whole stream).  The reference walk is the oracle, not a fast path: on
#: the deep fleet queues it runs about 170 decisions/s, so only a prefix of
#: the stream is replayed.
REFERENCE_PREFIX = {"paper-cluster": None, "overload-fleet": 600, "serve-open": 5000}

#: Wall seconds :func:`calibrate` takes on the reference host.  Reported
#: timings are scaled to a host of that speed (README, "Noise").
CALIBRATION_REF_S = 0.010


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``; repetition 0 is the run's own seed."""
    if rep == 0:
        return seed
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def repetitions(workload: str, seconds: float) -> int:
    """Fixed repetition count for a run of ``seconds`` (same seed, same inputs)."""
    per_s = PAPER_REPS_PER_S if workload == "paper-cluster" else FLEET_REPS_PER_S
    return max(3, round(seconds * per_s))


def paper_scenario(seed: int, horizon: float = PAPER_HORIZON) -> Scenario:
    """The Section 5.1 baseline at load 0.6, dc_ratio 2."""
    return Scenario.paper_baseline(
        system_load=0.6, dc_ratio=2.0, total_time=horizon, seed=seed
    )


def fleet_scenario(seed: int) -> FleetScenario:
    """4x16 fleet, cluster spread 0.8, per-cluster load 3, dc_ratio 30."""
    return FleetScenario.uniform(
        n_clusters=4,
        system_load=3.0,
        dc_ratio=30.0,
        cluster_spread=0.8,
        total_time=FLEET_HORIZON,
        seed=seed,
        policy="earliest-finish",
    )


def serve_scenario(seed: int, horizon: float) -> FleetScenario:
    """A one-cluster fleet in the paper regime: the serve backend's input."""
    return FleetScenario.uniform(
        n_clusters=1, system_load=0.6, dc_ratio=2.0, total_time=horizon, seed=seed
    )


def build_cluster(scenario: Scenario) -> ClusterSimulation:
    """A single-cluster simulation with the program's defaults."""
    return ClusterSimulation(
        scenario.cluster,
        make_algorithm(ALGORITHM, rng=scenario.algorithm_rng()),
        horizon=scenario.total_time,
    )


def build_fleet(scenario: FleetScenario) -> FleetSimulation:
    """A fleet simulation with the program's defaults."""
    return FleetSimulation(scenario, ALGORITHM)


def members(sim) -> list[ClusterSimulation]:
    """The cluster simulations inside a cluster or fleet simulation."""
    return list(getattr(sim, "sims", [sim]))


def use_reference(sim) -> None:
    """Swap every member's admission test for the reference walk."""
    for member in members(sim):
        s = member.scheduler
        s.test = SchedulabilityTest(s.policy, s.partitioner, s.cluster)


# -- decisions ---------------------------------------------------------------
def decide(sim, task) -> tuple:
    """Submit one task and read its decision as the service reports it.

    The tuple is ``(task_id, accepted, est_completion, member)``: for a
    task still waiting the estimate comes from the committed plan, as in a
    ``submit`` reply of the admission service.
    """
    if isinstance(sim, FleetSimulation):
        member = sim.submit(task)
        cluster = sim.sims[member]
    else:
        member = None
        cluster = sim
        sim.submit(task)
        sim.advance_to(task.arrival)
    record = cluster.scheduler.records[task.task_id]
    accepted = record.outcome is TaskOutcome.ACCEPTED
    est = record.est_completion
    if est is None and accepted:
        plan = cluster.scheduler.committed_plans.get(task.task_id)
        est = None if plan is None else plan.est_completion
    return (task.task_id, accepted, est, member)


def what_if(sim, task) -> None:
    """Advisory probe of every member at ``max(clock, arrival)``; commits nothing."""
    for member in members(sim):
        s = member.scheduler
        s.test.try_admit(
            task,
            list(s.waiting.values()),
            s.reservations,
            max(member.engine.now, task.arrival),
        )


def final_tuples(output) -> list[tuple]:
    """Per-task ``(task_id, outcome, est, actual, member)`` of a finished run."""
    outputs = list(getattr(output, "outputs", [output]))
    rows = []
    for index, out in enumerate(outputs):
        member = index if len(outputs) > 1 else None
        for tid, r in out.records.items():
            rows.append(
                (tid, r.outcome.value, r.est_completion, r.actual_completion, member)
            )
    rows.sort()
    return rows


def output_faults(output, n_tasks: int) -> int:
    """Validator violations plus counter identity breaks of a finished run.

    Zero means: the Theorem-4 validator is clean on every member, and
    arrivals = accepted + rejected = tasks submitted.
    """
    faults = 0
    arrivals = accepted = rejected = 0
    for out in getattr(output, "outputs", [output]):
        v = out.validation
        faults += (
            len(v.theorem4_violations)
            + len(v.deadline_violations)
            + len(v.overlap_violations)
        )
        arrivals += out.stats.arrivals
        accepted += out.stats.accepted
        rejected += out.stats.rejected
    if not arrivals == accepted + rejected == n_tasks:
        faults += 1
    return faults


def mismatches(got: list, want: list) -> int:
    """Entries that differ between two decision lists (missing ones count)."""
    differ = sum(1 for a, b in zip(got, want) if a != b)
    return differ + abs(len(got) - len(want))


def digest(rows: list) -> str:
    """Short hash of a decision or record list, for the run report."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (nearest rank on sorted data); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


#: Samples per window of :func:`windowed` (a quarter second of the
#: serve-open open loop).  Stalls of the server hit a minority of windows,
#: so the median window shows the tail as it is between stalls.
WINDOW_SAMPLES = 250


def windowed(values: list[float], q: float) -> float:
    """Median, over consecutive windows of ``WINDOW_SAMPLES``, of each window's ``q`` quantile.

    A stall that hits one window moves that window only, so the tail is
    reported as it is most of the time.  With fewer samples than one
    window, the quantile of them all.
    """
    windows = [
        quantile(values[i : i + WINDOW_SAMPLES], q)
        for i in range(0, len(values) - WINDOW_SAMPLES + 1, WINDOW_SAMPLES)
    ]
    return quantile(windows, 0.5) if windows else quantile(values, q)


def calibrate() -> float:
    """Host speed probe: best-of-three wall time of a fixed integer loop.

    Independent of the program, allocation-free and run with the garbage
    collector off, so it tracks only how fast this host executes Python
    right now.  Timings measured next to it are multiplied by
    ``CALIBRATION_REF_S / calibrate()`` (rates divided), which cancels the
    host's drift between runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            acc = 0
            for k in range(150_000):
                acc += k * k
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(*calibrations: float) -> float:
    """Factor taking a wall time measured between ``calibrations`` to the reference host."""
    return CALIBRATION_REF_S * len(calibrations) / sum(calibrations)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its Chrome trace-event file."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{workload}-seed{seed}.trace.json"
