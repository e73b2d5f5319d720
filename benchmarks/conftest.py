"""Shared infrastructure for the figure-regeneration benchmarks.

Every benchmark regenerates one figure panel of the paper at a
configurable scale and checks the *shape* the paper reports (who wins,
where curves converge).  Scale knobs (environment variables):

``REPRO_BENCH_TOTAL_TIME``
    Horizon per run in time units (default 60,000; paper: 10,000,000).
``REPRO_BENCH_REPS``
    Replications per point (default 2; paper: 10).
``REPRO_BENCH_LOADS``
    Comma-separated SystemLoad grid (default "0.3,0.6,0.9"; paper:
    0.1..1.0).

Example paper-scale invocation (takes hours)::

    REPRO_BENCH_TOTAL_TIME=10000000 REPRO_BENCH_REPS=10 \\
    REPRO_BENCH_LOADS=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0 \\
    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.report import render_panel
from repro.experiments.sweep import PanelResult, run_panel


def write_record(path: Path, record: dict) -> None:
    """Write a perf record file, only when ``REPRO_BENCH_EMIT=1``.

    The CI perf-gate job sets it to produce the fresh records it
    compares; a plain test run checks the same gates and leaves the
    committed records untouched.
    """
    if os.environ.get("REPRO_BENCH_EMIT") == "1":
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def bench_total_time() -> float:
    return float(os.environ.get("REPRO_BENCH_TOTAL_TIME", "60000"))


def bench_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_REPS", "2"))


def bench_loads() -> tuple[float, ...]:
    raw = os.environ.get("REPRO_BENCH_LOADS", "0.3,0.6,0.9")
    return tuple(float(x) for x in raw.split(","))


def regenerate_panel(panel_id: str) -> PanelResult:
    """Run one figure panel at bench scale."""
    return run_panel(
        FIGURES[panel_id],
        loads=bench_loads(),
        replications=bench_reps(),
        total_time=bench_total_time(),
        seed=2007,
    )


def check_and_report(result: PanelResult) -> None:
    """Shape checks shared by all DLT-vs-baseline panels + series print."""
    print()
    print(render_panel(result, show_ci=True))
    for alg in result.spec.algorithms:
        for p in result.series[alg]:
            assert 0.0 <= p.mean <= 1.0, f"{alg}: reject ratio out of range"


@pytest.fixture
def panel_runner():
    """Fixture handing benchmarks the regenerate+check pipeline."""

    def run(benchmark, panel_id: str, extra_check=None) -> PanelResult:
        result = benchmark.pedantic(
            regenerate_panel, args=(panel_id,), rounds=1, iterations=1
        )
        check_and_report(result)
        if extra_check is not None:
            extra_check(result)
        return result

    return run


def assert_dlt_no_worse(result: PanelResult, tol: float = 0.02) -> None:
    """The paper's claim for DLT-vs-OPR panels: DLT never (meaningfully)
    worse.

    The allowance is ``max(tol, 4 expected tasks)`` per point: greedy
    admission is not path-wise monotone (see EXPERIMENTS.md), so at smoke
    scale a handful of tasks of noise is expected; at paper scale the
    same rule tightens to ``tol`` automatically.
    """
    from repro.core import dlt as _dlt

    dlt_alg, base_alg = result.spec.algorithms
    cfg = result.spec.base_config(system_load=1.0, total_time=1.0, seed=0)
    e_avg = _dlt.execution_time(cfg.avg_sigma, cfg.nodes, cfg.cms, cfg.cps)
    for i, load in enumerate(result.loads):
        expected_arrivals = result.total_time * load / e_avg
        allowance = max(tol, 4.0 / max(expected_arrivals, 1.0))
        d = result.series[dlt_alg][i].mean
        b = result.series[base_alg][i].mean
        assert d <= b + allowance, (
            f"{result.spec.panel_id} @ load {load}: {dlt_alg}={d:.4f} worse "
            f"than {base_alg}={b:.4f} beyond allowance {allowance:.4f}"
        )


def assert_gap_small(result: PanelResult, bound: float = 0.01) -> None:
    """For DCRatio=100 panels the two curves must nearly coincide."""
    a1, a2 = result.spec.algorithms
    gap = abs(result.mean_gap(a1, a2))
    assert gap <= bound, f"{result.spec.panel_id}: |gap|={gap:.4f} > {bound}"


# ---------------------------------------------------------------------------
# Engine capture-and-replay harness (used by test_bench_core.py).
#
# The harness itself graduated into :mod:`repro.obs.profile` (it now also
# powers the ``repro profile`` CLI); the benchmarks import it from there
# under the historical names.  See that module for the methodology notes
# (why capture-and-replay, why best-of timing, the identity check).
# ---------------------------------------------------------------------------

from repro.obs.profile import (  # noqa: E402  (re-exports for benchmarks)
    AdmissionTap as _AdmissionTap,
    build_tests as _build_tests,
    capture_cluster_calls,
    capture_fleet_calls,
    replay_calls,
)

__all_harness__ = [
    "_AdmissionTap",
    "_build_tests",
    "capture_cluster_calls",
    "capture_fleet_calls",
    "replay_calls",
]


# ---------------------------------------------------------------------------
# Per-engine throughput report (printed at the end of the session).
# ---------------------------------------------------------------------------

_ENGINE_ROWS: list[tuple[str, str, float, int]] = []


@pytest.fixture
def engine_report():
    """Benchmarks call ``add(bench, engine, seconds, placements)``; the
    rows come out as a decisions/sec table in the terminal summary."""

    def add(bench: str, engine: str, seconds: float, placements: int) -> None:
        _ENGINE_ROWS.append((bench, engine, seconds, placements))

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ENGINE_ROWS:
        return
    tr = terminalreporter
    tr.section("admission-engine throughput (replayed decisions/sec)")
    tr.write_line(
        f"{'benchmark':<34} {'engine':<10} {'seconds':>9} "
        f"{'calls':>7} {'decisions/sec':>14}"
    )
    for bench, engine, seconds, placements in _ENGINE_ROWS:
        rate = placements / seconds if seconds > 0 else float("inf")
        tr.write_line(
            f"{bench:<34} {engine:<10} {seconds:>9.4f} {placements:>7} {rate:>14.0f}"
        )
