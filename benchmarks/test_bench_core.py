"""Benchmark — the optimized admission engine against the reference walk.

Both workloads are measured with the capture-and-replay harness from
``conftest.py``: a reference-engine simulation records its real
``try_admit``/probe call stream (task, frozen waiting queue, a copy of
the committed reservation state, clock), then the *same* stream replays
through both engines with fresh test instances.  Timing the replay
isolates the engine from the constant event-loop overhead that a
full-simulation wall clock adds equally to every engine, and the replay
outcomes double as the identity check — both engines must produce the
same decision stream.

* **Core admission** — the paper's 16-node cluster with loose deadlines
  at three load points (the admission-throughput panel).  The gate sits
  at the heaviest point, where each arrival re-plans a deep waiting
  queue: the fast engine must beat the reference by ``≥ 15x``.
* **Fleet probing** — a 4-cluster, 16-nodes-per-member
  ``cluster_spread=0.8`` fleet under the probing ``earliest-finish``
  router (one full placement per member per arrival) plus the
  ``round-robin`` and ``least-loaded`` baselines.  Earliest-finish must
  gain ``≥ 5x`` — this is where the memo's probe→submit reuse earns its
  keep.

Emits ``BENCH_core.json`` at the repo root — the baseline for the CI
perf regression gate (``scripts/check_perf.py``, see
``docs/performance.md``).  The gated quantities are the *speedups*
(fast over reference on the same machine and call stream),
which transfer across machines; absolute decisions/sec ride along for
context.

Scale knobs (environment variables):

``REPRO_BENCH_CORE_TOTAL_TIME``
    Horizon of the core admission runs (default 400,000).
``REPRO_BENCH_FLEET_TOTAL_TIME``
    Horizon per fleet run (default 100,000).
``REPRO_BENCH_REPLAY_REPS``
    Replay repetitions per engine; best-of wins (default 2).
``REPRO_BENCH_EMIT``
    Set to ``1`` to write the record file (see ``conftest.write_record``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from conftest import (
    capture_cluster_calls,
    capture_fleet_calls,
    replay_calls,
    write_record,
)

from repro.fleet import FleetScenario
from repro.workload.scenario import Scenario

#: Where the perf record lands (repo root, next to BENCH_fleet_routing.json).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Gate thresholds, also embedded in the emitted record for the CI gate.
#: Overridable via environment so an *intentional*, reviewed perf trade
#: can lower them explicitly in the PR that makes the trade
#: (docs/performance.md); the defaults are this PR's acceptance floors.
CORE_SPEEDUP_MIN = float(os.environ.get("REPRO_BENCH_CORE_MIN_SPEEDUP", "15.0"))
FLEET_EF_SPEEDUP_MIN = float(
    os.environ.get("REPRO_BENCH_FLEET_MIN_SPEEDUP", "5.0")
)
#: Instrumentation-disabled floor: with a registry attached but no
#: tracer (the production default), the fast engine must keep at least
#: this fraction of its uninstrumented decisions/sec (repro.obs promises
#: near-zero disabled cost).  Tracer-on overhead is recorded ungated.
TRACING_DISABLED_RATIO_MIN = float(
    os.environ.get("REPRO_BENCH_TRACING_DISABLED_MIN", "0.95")
)
#: Deep-queue checkpoint gate: on the FIFO-ordered overload stream the
#: fast engine with prefix checkpoints must beat its own
#: checkpoint-ablated replay by at least this factor.
CKPT_SPEEDUP_MIN = float(os.environ.get("REPRO_BENCH_CKPT_MIN_SPEEDUP", "2.0"))

#: All selectable engines; "reference" is the timing baseline.
ENGINES = ("reference", "fast")

#: The admission-throughput panel's load points; the gate sits at the
#: heaviest one, where the waiting queue runs deepest.
PANEL_LOADS = (3.0, 6.0, 10.0)
GATED_LOAD = 10.0

#: The deep-queue panel's deadline looseness: 120x the mean run keeps the
#: waiting queue ~120 deep at the gated load, the regime where admission
#: cost is pure queue replay and the prefix-checkpoint store pays off.
DEEP_QUEUE_DC_RATIO = 120.0

#: Section name -> measured dict; flushed by test_emit_perf_record.
RESULTS: dict[str, dict] = {}


def core_total_time() -> float:
    return float(os.environ.get("REPRO_BENCH_CORE_TOTAL_TIME", "400000"))


def fleet_total_time() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_TOTAL_TIME", "100000"))


def replay_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_REPLAY_REPS", "2"))


def admission_heavy_scenario(system_load: float) -> Scenario:
    """16-node paper cluster, overloaded, deadlines 30x the mean run.

    Loose deadlines keep rejected work rare enough that the waiting queue
    stays deep, so each arrival re-plans many tasks — the regime the
    engines' queue-replay kernels target (and the regime a saturated
    production head node actually lives in).
    """
    return Scenario.paper_baseline(
        system_load=system_load,
        total_time=core_total_time(),
        seed=2007,
        dc_ratio=30.0,
        name="bench-core-admission",
    )


def probe_heavy_fleet() -> FleetScenario:
    """A probing-dominated fleet: 4 spread clusters x 16 nodes, 3x load.

    Every arrival costs one full placement per member under the probing
    routers, and most placements are fresh newcomers (queue of one), so
    the per-call engine overhead — not the queue replay — dominates.
    """
    return FleetScenario.uniform(
        n_clusters=4,
        system_load=3.0,
        total_time=fleet_total_time(),
        seed=2007,
        nodes=16,
        cluster_spread=0.8,
        dc_ratio=30.0,
        name="bench-core-fleet",
    )


def _engine_sections(scenario, calls, *, fleet: bool, report, bench: str):
    """Replay ``calls`` through every engine; return per-engine timings.

    Asserts the outcome stream is identical across engines (the replay
    form of the bit-identity contract).
    """
    sections = {}
    baseline_outcomes = None
    for engine in ENGINES:
        seconds, outcomes = replay_calls(
            scenario, "EDF-DLT", engine, calls, reps=replay_reps(), fleet=fleet
        )
        if baseline_outcomes is None:
            baseline_outcomes = outcomes
        else:
            assert outcomes == baseline_outcomes, (
                f"{engine}: replayed decisions differ from reference"
            )
        sections[engine] = seconds
        report(bench, engine, seconds, len(calls))
    return sections


@pytest.mark.benchmark(group="core-admission")
def test_bench_core_admission(benchmark, engine_report):
    """Admission-heavy single cluster, three load points, both engines."""

    def run():
        panel = {}
        for load in PANEL_LOADS:
            scenario = admission_heavy_scenario(load)
            calls, output = capture_cluster_calls(scenario, "EDF-DLT")
            seconds = _engine_sections(
                scenario,
                calls,
                fleet=False,
                report=engine_report,
                bench=f"core-admission load={load:g}",
            )
            stats = output.stats
            panel[load] = {
                "calls": len(calls),
                "arrivals": stats.arrivals,
                "replanned_tasks": stats.replanned_tasks,
                "reject_ratio": stats.reject_ratio,
                "engines": {
                    engine: {
                        "seconds": seconds[engine],
                        "decisions_per_sec": len(calls) / seconds[engine],
                        "arrivals_per_sec": stats.arrivals / seconds[engine],
                    }
                    for engine in ENGINES
                },
            }
        return panel

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    gated = panel[GATED_LOAD]

    def engine_seconds(engine):
        return gated["engines"][engine]["seconds"]

    RESULTS["core"] = {
        "seconds_reference": engine_seconds("reference"),
        "seconds_fast": engine_seconds("fast"),
        "speedup_fast": engine_seconds("reference") / engine_seconds("fast"),
        "calls": gated["calls"],
        "arrivals": gated["arrivals"],
        "replanned_tasks": gated["replanned_tasks"],
        "reject_ratio": gated["reject_ratio"],
        "decisions_per_sec": {
            engine: gated["engines"][engine]["decisions_per_sec"]
            for engine in ENGINES
        },
    }
    RESULTS["throughput_panel"] = {f"{load:g}": panel[load] for load in PANEL_LOADS}
    assert RESULTS["core"]["speedup_fast"] >= CORE_SPEEDUP_MIN, (
        f"fast admission engine only {RESULTS['core']['speedup_fast']:.2f}x over "
        f"reference (need >= {CORE_SPEEDUP_MIN}x)"
    )


@pytest.mark.benchmark(group="core-fleet")
@pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "earliest-finish"])
def test_bench_fleet_probe_throughput(benchmark, engine_report, policy):
    """Fleet probing: per-policy replay through both engines."""
    scenario = probe_heavy_fleet().with_policy(policy)

    def run():
        calls, fleet_output = capture_fleet_calls(scenario, "EDF-DLT")
        seconds = _engine_sections(
            scenario,
            calls,
            fleet=True,
            report=engine_report,
            bench=f"fleet {policy}",
        )
        return calls, fleet_output, seconds

    calls, fleet_output, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    routed = len(fleet_output.assignments)
    RESULTS.setdefault("fleet", {})[policy] = {
        "seconds_reference": seconds["reference"],
        "seconds_fast": seconds["fast"],
        "speedup_fast": seconds["reference"] / seconds["fast"],
        "calls": len(calls),
        "routed_tasks": routed,
        "reject_ratio": fleet_output.reject_ratio,
        "decisions_per_sec": {
            engine: len(calls) / seconds[engine] for engine in ENGINES
        },
    }


def deep_queue_scenario() -> Scenario:
    """The admission-heavy cluster with deadlines loosened to 120x.

    FIFO ordering appends each newcomer at the queue tail, so a valid
    checkpoint covers the *entire* committed queue — the panel measures
    the checkpoint store where its reach is longest, against the same
    engine with the store ablated.
    """
    return Scenario.paper_baseline(
        system_load=GATED_LOAD,
        total_time=core_total_time(),
        seed=2007,
        dc_ratio=DEEP_QUEUE_DC_RATIO,
        name="bench-core-deep-queue",
    )


@pytest.mark.benchmark(group="core-deep-queue")
def test_bench_deep_queue_checkpoint(benchmark, engine_report):
    """Prefix checkpointing on a ~120-deep FIFO queue, on vs ablated.

    One captured FIFO-DLT call stream replays through the fast engine
    twice — checkpoints on and checkpoints off — with both outcome
    streams asserted identical (the ablation axis of the bit-identity
    contract).  The gate: fast-with-checkpoints must beat fast-ablated
    by ``CKPT_SPEEDUP_MIN``.
    """
    scenario = deep_queue_scenario()

    def run():
        calls, output = capture_cluster_calls(scenario, "FIFO-DLT")
        timings, outcomes = {}, {}
        for ckpt in (True, False):
            timings[ckpt], outcomes[ckpt] = replay_calls(
                scenario,
                "FIFO-DLT",
                "fast",
                calls,
                reps=replay_reps(),
                checkpoint=ckpt,
            )
        assert outcomes[True] == outcomes[False], (
            "replayed decisions differ across the checkpoint ablation"
        )
        return calls, output, timings

    calls, output, timings = benchmark.pedantic(run, rounds=1, iterations=1)
    for ckpt, seconds in timings.items():
        engine_report(
            f"deep-queue ckpt={'on' if ckpt else 'off'}",
            "fast",
            seconds,
            len(calls),
        )
    stats = output.stats
    speedup = timings[False] / timings[True]
    RESULTS["deep_queue"] = {
        "algorithm": "FIFO-DLT",
        "load": GATED_LOAD,
        "dc_ratio": DEEP_QUEUE_DC_RATIO,
        "calls": len(calls),
        "arrivals": stats.arrivals,
        "replanned_tasks": stats.replanned_tasks,
        "reject_ratio": stats.reject_ratio,
        "engines": {
            "fast": {
                "seconds_checkpoint": timings[True],
                "seconds_ablated": timings[False],
                "checkpoint_speedup": speedup,
                "decisions_per_sec": len(calls) / timings[True],
                "decisions_per_sec_ablated": len(calls) / timings[False],
            }
        },
    }
    assert speedup >= CKPT_SPEEDUP_MIN, (
        f"prefix checkpoints only {speedup:.2f}x over the ablated fast "
        f"engine on the deep-queue stream (need >= {CKPT_SPEEDUP_MIN}x)"
    )


@pytest.mark.benchmark(group="core-observability")
def test_bench_tracing_overhead(benchmark, engine_report):
    """Cost of repro.obs on the fast engine's hot path, same call stream.

    Three replays of the identical captured stream: uninstrumented
    (``obs=None`` — no registry, no tracer), registry-attached (the
    production default), and tracer-on.  The decision streams are
    asserted identical — the replay form of the zero-perturbation
    contract — and the disabled ratio (registry vs plain throughput)
    is gated at ``TRACING_DISABLED_RATIO_MIN``.
    """
    from repro.obs import Observability

    scenario = admission_heavy_scenario(GATED_LOAD)

    def run():
        calls, _output = capture_cluster_calls(scenario, "EDF-DLT")
        # The three modes run *interleaved*, one round each, and the
        # gated ratio is computed per round and the best round taken:
        # dividing timings from different rounds (or, worse, grouped
        # blocks of reps) lets drift and scheduler noise land on one
        # side of the ratio and masquerade as instrumentation overhead,
        # while within a round the machine state is as common-mode as
        # it gets.  A real regression slows the registry replay in
        # *every* round, so the best paired round still catches it;
        # extra rounds are cheap here (fractions of a second each).
        reps = max(replay_reps(), 5)
        rounds: list[tuple[float, float, float]] = []
        for _ in range(reps):
            p, plain_out = replay_calls(
                scenario, "EDF-DLT", "fast", calls, reps=1
            )
            r, registry_out = replay_calls(
                scenario,
                "EDF-DLT",
                "fast",
                calls,
                reps=1,
                obs=Observability(),
            )
            t, tracing_out = replay_calls(
                scenario,
                "EDF-DLT",
                "fast",
                calls,
                reps=1,
                obs=Observability(trace=True),
            )
            rounds.append((p, r, t))
            assert plain_out == registry_out == tracing_out, (
                "instrumented replay changed a decision "
                "(zero-perturbation contract violated)"
            )
        return calls, rounds

    calls, rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    plain_s = min(p for p, _r, _t in rounds)
    registry_s = min(r for _p, r, _t in rounds)
    tracing_s = min(t for _p, _r, t in rounds)
    engine_report("tracing plain", "fast", plain_s, len(calls))
    engine_report("tracing registry", "fast", registry_s, len(calls))
    engine_report("tracing tracer-on", "fast", tracing_s, len(calls))
    RESULTS["tracing_overhead"] = {
        "engine": "fast",
        "calls": len(calls),
        "seconds_plain": plain_s,
        "seconds_registry": registry_s,
        "seconds_tracing": tracing_s,
        # Throughput ratios vs the uninstrumented replay, paired per
        # interleaved round (same machine, same stream, moments apart —
        # the transfer-safe quantities).
        "disabled_ratio": max(p / r for p, r, _t in rounds),
        "tracing_ratio": max(p / t for p, _r, t in rounds),
        "decisions_per_sec": {
            "plain": len(calls) / plain_s,
            "registry": len(calls) / registry_s,
            "tracing": len(calls) / tracing_s,
        },
    }
    assert RESULTS["tracing_overhead"]["disabled_ratio"] >= (
        TRACING_DISABLED_RATIO_MIN
    ), (
        f"registry-attached fast engine keeps only "
        f"{RESULTS['tracing_overhead']['disabled_ratio']:.3f} of its "
        f"uninstrumented throughput (need >= {TRACING_DISABLED_RATIO_MIN})"
    )


def test_emit_perf_record():
    """Write BENCH_core.json and enforce the headline speedups."""
    if "core" not in RESULTS or len(RESULTS.get("fleet", {})) < 3:
        pytest.skip("benchmark sections did not all run")

    ef = RESULTS["fleet"]["earliest-finish"]
    assert ef["speedup_fast"] >= FLEET_EF_SPEEDUP_MIN, (
        f"earliest-finish fleet only {ef['speedup_fast']:.2f}x over reference "
        f"(need >= {FLEET_EF_SPEEDUP_MIN}x)"
    )

    record = {
        "benchmark": "core_admission",
        "methodology": (
            "capture-and-replay: a reference-engine simulation records its "
            "admission call stream; each engine replays the identical stream "
            "(best of REPRO_BENCH_REPLAY_REPS), so timings exclude the "
            "engine-independent event-loop overhead and outcomes are "
            "asserted identical across engines"
        ),
        "config": {
            "engines": list(ENGINES),
            "replay_reps": replay_reps(),
            "core": {
                "nodes": 16,
                "panel_loads": list(PANEL_LOADS),
                "gated_load": GATED_LOAD,
                "dc_ratio": 30.0,
                "total_time": core_total_time(),
                "seed": 2007,
                "algorithm": "EDF-DLT",
            },
            "deep_queue": {
                "nodes": 16,
                "load": GATED_LOAD,
                "dc_ratio": DEEP_QUEUE_DC_RATIO,
                "total_time": core_total_time(),
                "seed": 2007,
                "algorithm": "FIFO-DLT",
            },
            "fleet": {
                "clusters": 4,
                "nodes": 16,
                "cluster_spread": 0.8,
                "system_load": 3.0,
                "dc_ratio": 30.0,
                "total_time": fleet_total_time(),
                "seed": 2007,
                "algorithm": "EDF-DLT",
            },
        },
        "gates": {
            "core_speedup_min": CORE_SPEEDUP_MIN,
            "fleet_earliest_finish_speedup_min": FLEET_EF_SPEEDUP_MIN,
            "tracing_disabled_ratio_min": TRACING_DISABLED_RATIO_MIN,
            "ckpt_speedup_min": CKPT_SPEEDUP_MIN,
        },
        "core": RESULTS["core"],
        "throughput_panel": RESULTS["throughput_panel"],
        "fleet": {p: RESULTS["fleet"][p] for p in sorted(RESULTS["fleet"])},
    }
    if "deep_queue" in RESULTS:
        record["deep_queue"] = RESULTS["deep_queue"]
    if "tracing_overhead" in RESULTS:
        record["tracing_overhead"] = RESULTS["tracing_overhead"]
    write_record(RECORD_PATH, record)
