"""The offline workloads, paper-cluster and overload-fleet, inside one process.

An untraced run measures a fixed number of repetitions, each a fresh
simulation over its own seeded stream, driven one arrival at a time through
the public incremental API (``submit``/``advance_to``/``finalize``).  A
traced run measures one untraced and one traced pass over the seed's own
stream.  Both check their outputs (see :func:`run`).
"""

from __future__ import annotations

from time import perf_counter, process_time

from common import (
    REFERENCE_PREFIX,
    build_cluster,
    build_fleet,
    calibrate,
    decide,
    digest,
    final_tuples,
    fleet_scenario,
    members,
    mismatches,
    output_faults,
    paper_scenario,
    peak_rss_mb,
    quantile,
    rep_seed,
    WINDOW_SAMPLES,
    repetitions,
    scale,
    trace_path,
    use_reference,
    what_if,
    windowed,
)
from layers import SELF_METRIC, SpanRecorder, instrument_sim, layer_metrics

#: Untraced/traced pass pairs of a traced run.
TRACE_PAIRS = 3


class _Workload:
    """Scenario, stream and simulation builders of one offline workload."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.fleet = name == "overload-fleet"

    def scenario(self, seed: int):
        return fleet_scenario(seed) if self.fleet else paper_scenario(seed)

    def tasks(self, scenario) -> list:
        stream = scenario.stream_scenario() if self.fleet else scenario
        return stream.generate_tasks()

    def build(self, scenario):
        return build_fleet(scenario) if self.fleet else build_cluster(scenario)


def timed_pass(sim, tasks: list, latencies: list) -> tuple[object, float, float]:
    """Decide every task, then finalize; return (output, start, end).

    Each decision's wall time goes to ``latencies``.  A cluster decision is
    ``submit`` plus ``advance_to`` the arrival, the step a serve backend
    takes per task; a fleet decision is the fleet's ``submit``.
    """
    clock = perf_counter
    submit = sim.submit
    append = latencies.append
    if hasattr(sim, "sims"):
        start = clock()
        for task in tasks:
            t = clock()
            submit(task)
            append(clock() - t)
    else:
        advance = sim.advance_to
        start = clock()
        for task in tasks:
            t = clock()
            submit(task)
            advance(task.arrival)
            append(clock() - t)
    output = sim.finalize()
    return output, start, clock()


def check_pass(work: _Workload, sim, tasks: list) -> dict:
    """Decide one stream with a what-if probe before every arrival.

    Returns the decisions, the final records, the probe latencies in ms and
    the count of failed checks (Theorem-4 validator, arrivals = accepted +
    rejected).  The calibration loop runs after every ``WINDOW_SAMPLES``
    arrivals, and each such chunk's probe latencies are scaled by the
    calibrations on either side of it.
    """
    decisions, probe_ms = [], []
    calibrations = [calibrate()]
    for lo in range(0, len(tasks), WINDOW_SAMPLES):
        chunk = []
        for task in tasks[lo : lo + WINDOW_SAMPLES]:
            t = perf_counter()
            what_if(sim, task)
            chunk.append(perf_counter() - t)
            decisions.append(decide(sim, task))
        calibrations.append(calibrate())
        k = scale(*calibrations[-2:]) * 1e3
        probe_ms.extend(t * k for t in chunk)
    output = sim.finalize()
    return {
        "decisions": decisions,
        "rows": final_tuples(output),
        "probe_ms": probe_ms,
        "calibration": calibrations,
        "failed": output_faults(output, len(tasks)),
    }


def reference_decisions(work: _Workload, scenario, tasks: list) -> list:
    """The reference test's decisions over the workload's reference prefix."""
    ref = work.build(scenario)
    use_reference(ref)
    return [decide(ref, task) for task in tasks[: REFERENCE_PREFIX[work.name]]]


def compare_reference(decisions: list, expected: list) -> dict:
    """Failed decisions against the reference, with both digests."""
    prefix = decisions[: len(expected)]
    return {
        "failed": mismatches(prefix, expected),
        "decisions_digest": digest(prefix),
        "reference_digest": digest(expected),
        "reference_prefix": len(expected),
    }


def run(args) -> dict:
    """Measure one offline workload; the report the harness turns into metrics.

    Checks, all outside the timed region: the reference test decides the
    seed's stream first (which also warms the process up); every timed
    repetition must pass the validator and the counter identity; the seed's
    stream is then decided again with a probe before every arrival (the
    probe latencies come from here), must end in the same records as its
    timed run, and must decide as the reference did.

    Timings are scaled by the host-speed calibration taken on each side of
    the pass they come from; the unscaled rate goes to ``raw``.
    """
    work = _Workload(args.workload)
    scenario = work.scenario(args.seed)
    tasks = work.tasks(scenario)
    sim = work.build(scenario)
    if args.setup_only:
        return {"first_submit": perf_counter(), "calibration": calibrate()}
    expected = reference_decisions(work, scenario, tasks)
    if args.trace:
        return _traced(work, scenario, tasks, sim, expected, args)

    calibration = [calibrate()]
    rates = []
    failed = attempted = 0
    for rep in range(repetitions(work.name, args.seconds)):
        if rep:
            rep_scenario = work.scenario(rep_seed(args.seed, rep))
            rep_tasks = work.tasks(rep_scenario)
        else:
            rep_scenario, rep_tasks = scenario, tasks
        output, start, end = timed_pass(work.build(rep_scenario), rep_tasks, [])
        calibration.append(calibrate())
        rates.append((len(rep_tasks) / (end - start), scale(*calibration[-2:])))
        failed += output_faults(output, len(rep_tasks))
        if not rep:
            rows = final_tuples(output)
        attempted += len(rep_tasks)
        del output
    rss = peak_rss_mb()

    check = check_pass(work, sim, tasks)
    ref = compare_reference(check["decisions"], expected)
    failed += check["failed"] + mismatches(check["rows"], rows) + ref.pop("failed")
    return {
        "calibration": calibration + check["calibration"],
        "attempted": attempted + 2 * len(tasks),
        "failed": failed,
        "metrics": {
            "decisions_per_s": quantile([r / k for r, k in rates], 0.5),
            "peak_rss_mb": rss,
        },
        "raw": {"decisions_per_s": quantile([r for r, _ in rates], 0.5)},
        "checks": {"repetitions": len(rates), "records_digest": digest(rows), **ref},
    }


def _traced(work: _Workload, scenario, tasks: list, sim, expected: list, args) -> dict:
    """Untraced and traced passes over the seed's stream, then checks.

    ``TRACE_PAIRS`` untraced/traced pairs alternate, so the overhead ratio
    (median over pairs) does not ride on a drift of the host; the layer
    split comes from the last traced pass.  The untraced passes and the
    probe pass that follows give the latency tails, which have no bound
    (README, "Noise").
    """
    failed = 0
    ratios, p50, p99 = [], [], []
    rows = None
    calibration = [calibrate()]
    for _ in range(TRACE_PAIRS):
        latencies = []
        untraced, start, end = timed_pass(work.build(scenario), tasks, latencies)
        p50.append(quantile(latencies, 0.5))
        p99.append(quantile(latencies, 0.99))
        wall_untraced = end - start
        failed += output_faults(untraced, len(tasks))
        records = final_tuples(untraced)
        rows = rows or records
        failed += mismatches(records, rows)
        del untraced

        t = perf_counter()
        traced_tasks = work.tasks(scenario)
        generate_s = perf_counter() - t
        traced_sim = work.build(scenario)
        rec = SpanRecorder()
        instrument_sim(rec, traced_sim)
        cpu = process_time()
        traced, start, end = timed_pass(traced_sim, traced_tasks, [])
        cpu = process_time() - cpu
        wall = end - start
        ratios.append(wall / wall_untraced)
        failed += output_faults(traced, len(tasks))
        failed += mismatches(final_tuples(traced), rows)

    calibration.append(calibrate())
    metrics = layer_metrics(rec, members(traced_sim), len(tasks))
    covered = sum(metrics[m] for m in set(SELF_METRIC.values()))
    check = check_pass(work, sim, tasks)
    metrics.update(
        {
            "submit_p50_ms": quantile(p50, 0.5) * scale(*calibration) * 1e3,
            "submit_p99_ms": quantile(p99, 0.5) * scale(*calibration) * 1e3,
            "probe_p50_ms": windowed(check["probe_ms"], 0.5),
            "probe_p99_ms": windowed(check["probe_ms"], 0.99),
            "workload.generate_s": generate_s,
            "workload.tasks": len(tasks),
            "serve.server_cpu_s": 0.0,
            "serve.server_other_s": 0.0,
            "serve.batch_size_mean": 0.0,
            "serve.requests": 0,
            "loadgen.late_p99_ms": 0.0,
            "loadgen.cpu_s": cpu,
            "bench.harness_s": wall - covered,
            "bench.traced_wall_s": wall,
            "bench.layer_share": covered / wall,
            "bench.trace_overhead_ratio": quantile(ratios, 0.5),
        }
    )
    path = trace_path(work.name, args.seed)
    rec.write_chrome(path)

    ref = compare_reference(check["decisions"], expected)
    failed += check["failed"] + mismatches(check["rows"], rows) + ref.pop("failed")
    return {
        "attempted": (2 + 2 * TRACE_PAIRS) * len(tasks),
        "failed": failed,
        "metrics": metrics,
        "checks": {
            "records_digest": digest(rows),
            "trace_file": str(path),
            "spans": len(rec.spans),
            **ref,
        },
    }
