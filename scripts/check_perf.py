#!/usr/bin/env python3
"""Perf regression gate: a fresh BENCH_core.json vs the committed baseline.

Compares the *speedup* metrics (the fast admission engine over the
reference engine, replaying the same captured call stream on the same
machine) of a freshly generated ``BENCH_core.json`` against the committed
record, and — when ``--serve-baseline``/``--serve-fresh`` are given — the
admission service's concurrency-retention ratios of ``BENCH_serve.json``.
Speedups are relative throughputs, so they transfer across machines where
absolute decisions/sec do not; the gate fails when a fresh speedup drops
more than ``--tolerance`` (default 30%) below the committed value.  The
fresh record's admission-throughput panel (three load points x two
engines) is also shape-checked.  Rationale, tolerance choice and escape
hatches are documented in ``docs/performance.md``.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_core.py -q   # refresh
    python scripts/check_perf.py --baseline BENCH_core.json \\
        --fresh /path/to/fresh/BENCH_core.json [--tolerance 0.30]

Exit code 0 = within tolerance; 1 = regression (details on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (human label, path into the record) of each gated ratio metric.
GATED_METRICS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("core admission speedup (fast)", ("core", "speedup_fast")),
    (
        "earliest-finish fleet speedup (fast)",
        ("fleet", "earliest-finish", "speedup_fast"),
    ),
)

#: Absolute floor on the instrumentation-disabled throughput ratio
#: (registry attached, tracer off, vs the uninstrumented replay of the
#: same call stream).  A same-run ratio, so it transfers across machines
#: and is gated absolutely rather than against the committed record; the
#: tracer-on ratio rides the record ungated (docs/observability.md).
TRACING_DISABLED_RATIO_MIN = 0.95

#: The admission-throughput panel's expected axes (shape check only —
#: absolute decisions/sec are machine-specific, so they are not gated).
PANEL_LOADS = ("3", "6", "10")
PANEL_ENGINES = ("reference", "fast")

#: Absolute floor on the deep-queue checkpoint speedup (fast engine with
#: prefix checkpoints vs its own checkpoint-ablated replay of the same
#: stream).  A same-run ratio on identical hardware, so it is gated
#: absolutely; matches the benchmark's REPRO_BENCH_CKPT_MIN_SPEEDUP
#: default (docs/performance.md).
CKPT_SPEEDUP_MIN = 2.0

#: Engines the deep-queue panel must report (checkpoint on and ablated).
DEEP_QUEUE_ENGINES = ("fast",)

#: Gated ratio metrics of BENCH_serve.json (``--serve-baseline``): the
#: service's concurrency retention — throughput at N clients relative to
#: one client — is a machine-transferable property of the watermark
#: merge, unlike raw decisions/sec.
SERVE_METRICS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("serve 4-client retention", ("retention_4",)),
    ("serve 16-client retention", ("retention_16",)),
)


def _lookup(record: dict, path: tuple[str, ...]) -> float:
    value: object = record
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise KeyError("/".join(path))
        value = value[key]
    return float(value)  # type: ignore[arg-type]


def compare(
    baseline: dict,
    fresh: dict,
    tolerance: float,
    metrics: tuple[tuple[str, tuple[str, ...]], ...] = GATED_METRICS,
) -> list[str]:
    """Return one problem string per gated metric outside tolerance."""
    problems: list[str] = []
    for label, path in metrics:
        try:
            base = _lookup(baseline, path)
        except KeyError as exc:
            problems.append(f"{label}: baseline record is missing {exc}")
            continue
        try:
            new = _lookup(fresh, path)
        except KeyError as exc:
            problems.append(f"{label}: fresh record is missing {exc}")
            continue
        floor = base * (1.0 - tolerance)
        if new < floor:
            problems.append(
                f"{label}: {new:.2f}x regressed more than "
                f"{tolerance:.0%} below committed {base:.2f}x "
                f"(floor {floor:.2f}x)"
            )
        else:
            print(f"{label}: {new:.2f}x vs committed {base:.2f}x — ok")
    return problems


def check_panel(fresh: dict) -> list[str]:
    """Shape-check the fresh record's admission-throughput panel.

    Every load point must carry both engines with positive
    decisions/sec and a reject ratio in [0, 1]; anything else means the
    benchmark emitted a malformed record and the gate must not pass it.
    """
    problems: list[str] = []
    panel = fresh.get("throughput_panel")
    if not isinstance(panel, dict):
        return ["throughput_panel: missing from fresh record"]
    for load in PANEL_LOADS:
        point = panel.get(load)
        if not isinstance(point, dict):
            problems.append(f"throughput_panel/{load}: missing load point")
            continue
        ratio = point.get("reject_ratio", -1.0)
        if not 0.0 <= float(ratio) <= 1.0:
            problems.append(
                f"throughput_panel/{load}: reject_ratio {ratio} out of [0, 1]"
            )
        engines = point.get("engines", {})
        for engine in PANEL_ENGINES:
            rate = engines.get(engine, {}).get("decisions_per_sec", 0.0)
            if not float(rate) > 0.0:
                problems.append(
                    f"throughput_panel/{load}/{engine}: "
                    f"non-positive decisions/sec ({rate})"
                )
    if not problems:
        print("admission-throughput panel: shape ok")
    return problems


def check_deep_queue(fresh: dict) -> list[str]:
    """Shape-check and gate the fresh record's deep-queue panel.

    The fast engine must report positive throughput for the
    checkpointed and the ablated replay, and its
    ``checkpoint_speedup`` must clear :data:`CKPT_SPEEDUP_MIN` — the
    panel exists to prove prefix checkpoints pay off on a deep FIFO
    queue, so a record without it (or below the floor) fails.
    """
    section = fresh.get("deep_queue")
    if not isinstance(section, dict):
        return ["deep_queue: missing from fresh record"]
    problems: list[str] = []
    engines = section.get("engines", {})
    for engine in DEEP_QUEUE_ENGINES:
        cell = engines.get(engine)
        if not isinstance(cell, dict):
            problems.append(f"deep_queue/{engine}: missing engine cell")
            continue
        for field in ("decisions_per_sec", "decisions_per_sec_ablated"):
            rate = cell.get(field, 0.0)
            if not float(rate) > 0.0:
                problems.append(
                    f"deep_queue/{engine}/{field}: "
                    f"non-positive decisions/sec ({rate})"
                )
    try:
        speedup = float(engines["fast"]["checkpoint_speedup"])
    except (KeyError, TypeError, ValueError):
        return problems + ["deep_queue/fast: missing checkpoint_speedup"]
    if speedup < CKPT_SPEEDUP_MIN:
        problems.append(
            f"deep-queue checkpoint speedup (fast): {speedup:.2f}x below "
            f"the {CKPT_SPEEDUP_MIN} floor — prefix checkpoints must pay "
            "off on a deep FIFO queue"
        )
    elif not problems:
        print(
            f"deep-queue checkpoint speedup: fast {speedup:.2f}x >= "
            f"{CKPT_SPEEDUP_MIN} — ok"
        )
    return problems


def check_serve_batches(serve_fresh: dict) -> list[str]:
    """Shape-check the serve record's coalesced-dispatch evidence.

    Every client count must report at least one coalesced backend pass
    with a mean batch size >= 1 — a record without them means the server
    stopped coalescing (or stopped measuring it).
    """
    problems: list[str] = []
    results = serve_fresh.get("results")
    if not isinstance(results, dict) or not results:
        return ["serve results: missing from fresh record"]
    for clients, cell in sorted(results.items(), key=lambda kv: int(kv[0])):
        batches = cell.get("coalesced_batches", 0)
        mean = cell.get("mean_batch_size", 0.0)
        if not int(batches) > 0:
            problems.append(
                f"serve results/{clients}: no coalesced batches recorded"
            )
        elif not float(mean) >= 1.0:
            problems.append(
                f"serve results/{clients}: mean batch size {mean} < 1"
            )
    if not problems:
        print("serve coalesced-dispatch panel: shape ok")
    return problems


def check_tracing_overhead(fresh: dict) -> list[str]:
    """Gate the fresh record's instrumentation-disabled overhead.

    ``tracing_overhead.disabled_ratio`` must stay at or above
    :data:`TRACING_DISABLED_RATIO_MIN`; the tracer-on ratio is printed
    for context but not gated (tracing is opt-in and pays for itself in
    visibility).  A record without the section fails — the benchmark
    must measure the overhead, not silently skip it.
    """
    section = fresh.get("tracing_overhead")
    if not isinstance(section, dict):
        return ["tracing_overhead: missing from fresh record"]
    try:
        disabled = float(section["disabled_ratio"])
    except (KeyError, TypeError, ValueError):
        return ["tracing_overhead: missing/invalid disabled_ratio"]
    if disabled < TRACING_DISABLED_RATIO_MIN:
        return [
            f"tracing overhead (disabled): ratio {disabled:.3f} below the "
            f"{TRACING_DISABLED_RATIO_MIN} floor — an attached registry "
            "must be near-free"
        ]
    tracing = section.get("tracing_ratio")
    note = f", tracer-on {float(tracing):.3f} (ungated)" if tracing else ""
    print(
        f"tracing overhead: disabled ratio {disabled:.3f} >= "
        f"{TRACING_DISABLED_RATIO_MIN}{note} — ok"
    )
    return []


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, compare records, print verdicts, return exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="BENCH_core.json",
        help="committed perf record (default: BENCH_core.json)",
    )
    parser.add_argument(
        "--fresh",
        required=True,
        help="freshly generated perf record to check",
    )
    parser.add_argument(
        "--serve-baseline",
        default=None,
        help="committed BENCH_serve.json (gates the serve retention "
        "ratios; requires --serve-fresh)",
    )
    parser.add_argument(
        "--serve-fresh",
        default=None,
        help="freshly generated BENCH_serve.json to check",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the committed value "
        "(default 0.30 = 30%%, sized for shared-runner noise)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        print(f"tolerance must be in [0, 1), got {args.tolerance}")
        return 1
    if (args.serve_baseline is None) != (args.serve_fresh is None):
        print("--serve-baseline and --serve-fresh must be given together")
        return 1

    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    problems = compare(baseline, fresh, args.tolerance)
    problems += check_panel(fresh)
    problems += check_deep_queue(fresh)
    problems += check_tracing_overhead(fresh)
    if args.serve_baseline is not None:
        serve_baseline = json.loads(
            Path(args.serve_baseline).read_text(encoding="utf-8")
        )
        serve_fresh = json.loads(
            Path(args.serve_fresh).read_text(encoding="utf-8")
        )
        problems += compare(
            serve_baseline, serve_fresh, args.tolerance, SERVE_METRICS
        )
        problems += check_serve_batches(serve_fresh)
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"\n{len(problems)} perf regression(s); if intentional, commit "
            "the refreshed BENCH record(s) or label the PR skip-perf-gate "
            "(docs/performance.md)",
            file=sys.stderr,
        )
        return 1
    print("perf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
