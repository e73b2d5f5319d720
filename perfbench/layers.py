"""Benchmark-side layer tracing: wrap each layer's public calls, split self time.

Nothing here changes the program.  The traced run replaces bound methods on
the objects it built (a simulation, its scheduler, its admission test, its
validator, a fleet's routing policy, a serve backend) with wrappers that
append one span per call to an in-memory list:
``[name, start, end, parent index, task id]``.  A span's self time is its
duration minus the time its child spans cover; self times summed by layer
give the split reported as per-layer metrics, and the spans are written
once, at the end, in the Chrome trace-event format of
:meth:`repro.obs.trace.Tracer.write_chrome` (open the file in Perfetto).

Each span name adds its self time to one metric (:data:`SELF_METRIC`).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from common import quantile

#: Spans inside which an admission test call is a what-if probe.
PROBE_SPANS = frozenset({"fleet.probe", "serve.probe"})

#: Self-time metric of each span name; every traced span belongs to one.
SELF_METRIC = {
    "sim.submit": "sim.self_s",
    "sim.advance_to": "sim.self_s",
    "sim.finalize": "sim.self_s",
    "sim.validate": "sim.validate_s",
    "scheduler.on_arrival": "scheduler.self_s",
    "scheduler.on_start": "scheduler.self_s",
    "scheduler.on_complete": "scheduler.self_s",
    "admission.try_admit": "admission.try_admit_s",
    "admission.probe": "admission.probe_s",
    "fleet.submit": "fleet.route_self_s",
    "fleet.route": "fleet.route_self_s",
    "fleet.probe": "fleet.route_self_s",
    "fleet.finalize": "fleet.route_self_s",
    "serve.backend": "serve.backend_s",
    "serve.probe": "serve.backend_s",
    "serve.codec": "serve.codec_s",
}


def _task_id(args: tuple) -> Any:
    first = args[0]
    return getattr(first, "task_id", first)


class SpanRecorder:
    """In-memory span log with a parent stack (single-threaded callers)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: Waiting-queue depth and outcome of each commit-path admission test.
        self.depths: list[int] = []
        self.accepted = 0

    def call(self, name: str, task: Any, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, task]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, *, task_arg: bool = False) -> Callable:
        """``fn`` wrapped in a span; ``task_arg`` tags it with the first argument's task id."""
        call = self.call
        if task_arg:
            return lambda *a, **k: call(name, _task_id(a), fn, *a, **k)
        return lambda *a, **k: call(name, None, fn, *a, **k)

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- results ------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for i, (name, t0, t1, _, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - covered[i]
        return dict(out)

    def durations_us(self, name: str) -> list[float]:
        """Inclusive durations of every outermost span called ``name``."""
        spans = self.spans
        return [
            (t1 - t0) * 1e6
            for n, t0, t1, parent, _ in spans
            if n == name and (parent < 0 or spans[parent][0] != name)
        ]

    def write_chrome(self, path) -> int:
        """Write the spans as Chrome trace events (one lane per layer)."""
        from repro.obs.trace import Tracer

        base = min((s[1] for s in self.spans), default=0.0)
        lanes: dict[str, int] = {}
        tracer = Tracer()
        for name, t0, t1, parent, task in self.spans:
            layer = name.split(".", 1)[0]
            args = {"parent": parent}
            if task is not None:
                args["task"] = task
            tracer.records.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (t0 - base) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "track": lanes.setdefault(layer, len(lanes)),
                    "args": args,
                }
            )
        with open(path, "w") as fp:
            return tracer.write_chrome(fp)


class _TracedTest:
    """Stands in for ``scheduler.test``: traces calls, forwards everything else.

    A ``try_admit`` made inside a probe span is a what-if probe; any other is
    the commit path, whose queue depth and outcome are also counted.  An
    optional ``probe_completion`` kernel is traced as a probe when the
    program provides one.
    """

    def __init__(self, rec: SpanRecorder, test: Any) -> None:
        self._rec = rec
        self._test = test

    def try_admit(self, new_task, waiting, reservations, now):
        rec = self._rec
        parent = rec.parent_name()
        if parent in PROBE_SPANS:
            return rec.call(
                "admission.probe", new_task.task_id, self._test.try_admit,
                new_task, waiting, reservations, now,
            )
        decision = rec.call(
            "admission.try_admit", new_task.task_id, self._test.try_admit,
            new_task, waiting, reservations, now,
        )
        rec.depths.append(len(waiting))
        rec.accepted += bool(decision.accepted)
        return decision

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._test, name)
        if name == "probe_completion":
            attr = self._rec.wrap("admission.probe", attr, task_arg=True)
            setattr(self, name, attr)
        return attr


def instrument_cluster(rec: SpanRecorder, sim: Any) -> None:
    """Trace a ClusterSimulation: kernel calls, scheduler, admission, validator."""
    sim.submit = rec.wrap("sim.submit", sim.submit, task_arg=True)
    sim.advance_to = rec.wrap("sim.advance_to", sim.advance_to)
    sim.finalize = rec.wrap("sim.finalize", sim.finalize)
    scheduler = sim.scheduler
    for hook in ("on_arrival", "on_start", "on_complete"):
        setattr(
            scheduler, hook,
            rec.wrap(f"scheduler.{hook}", getattr(scheduler, hook), task_arg=True),
        )
    scheduler.test = _TracedTest(rec, scheduler.test)
    validator = sim.validator
    validator.check_completion = rec.wrap("sim.validate", validator.check_completion)
    validator.check_traces = rec.wrap("sim.validate", validator.check_traces)


def instrument_fleet(rec: SpanRecorder, fleet: Any) -> None:
    """Trace a FleetSimulation: its members, routing, and each member probe."""
    for sim in fleet.sims:
        instrument_cluster(rec, sim)
    fleet.submit = rec.wrap("fleet.submit", fleet.submit, task_arg=True)
    fleet.finalize = rec.wrap("fleet.finalize", fleet.finalize)
    policy = fleet.policy
    route = policy.route

    def traced_route(task, views):
        views = [
            dataclasses.replace(
                v, probe=rec.wrap("fleet.probe", v.probe, task_arg=True)
            )
            for v in views
        ]
        return route(task, views)

    policy.route = rec.wrap("fleet.route", traced_route, task_arg=True)


def instrument_sim(rec: SpanRecorder, sim: Any) -> None:
    """Trace a cluster or fleet simulation."""
    if hasattr(sim, "sims"):
        instrument_fleet(rec, sim)
    else:
        instrument_cluster(rec, sim)


def instrument_serve(rec: SpanRecorder, backend: Any) -> None:
    """Trace a serve backend, its simulation, and the server's frame codecs.

    Must run before the server starts: the codec functions are looked up as
    module globals of :mod:`repro.serve.server` at call time.
    """
    import repro.serve.backend as backend_mod
    import repro.serve.server as server_mod

    instrument_sim(rec, backend.sim)
    for op in ("submit", "submit_many", "metrics", "finalize"):
        setattr(backend, op, rec.wrap("serve.backend", getattr(backend, op)))
    backend.probe = rec.wrap("serve.probe", backend.probe, task_arg=True)
    for module, names in (
        (server_mod, ("decode_payload", "decode_task", "encode_frame")),
        (backend_mod, ("encode_output",)),
    ):
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(module, name, rec.wrap("serve.codec", fn))


def layer_metrics(rec: SpanRecorder, sims: list, n_tasks: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass over ``n_tasks`` arrivals.

    ``sims`` are the finished cluster simulations (fleet members or one
    cluster); their kernels and schedulers supply event and re-plan counts.
    """
    totals = rec.totals()
    out: dict[str, float] = {name: 0.0 for name in set(SELF_METRIC.values())}
    for name, entry in totals.items():
        out[SELF_METRIC[name]] += entry["self_s"]
    events = sum(s.engine.processed_events for s in sims)
    arrivals = sum(s.scheduler.stats.arrivals for s in sims)
    replanned = sum(s.scheduler.stats.replanned_tasks for s in sims)
    commits = totals.get("admission.try_admit", {}).get("calls", 0)
    probes = rec.durations_us("admission.probe")
    out.update(
        {
            "sim.events_per_task": events / max(n_tasks, 1),
            "scheduler.replanned_per_arrival": replanned / max(arrivals, 1),
            "admission.try_admit_calls": commits,
            "admission.try_admit_p99_us": quantile(
                rec.durations_us("admission.try_admit"), 0.99
            ),
            "admission.queue_depth_mean": (
                sum(rec.depths) / len(rec.depths) if rec.depths else 0.0
            ),
            "admission.accept_ratio": rec.accepted / commits if commits else 0.0,
            "admission.probe_calls": len(probes),
            "admission.probe_p99_us": quantile(probes, 0.99),
            "fleet.probes_per_task": (
                totals.get("fleet.probe", {}).get("calls", 0) / max(n_tasks, 1)
            ),
        }
    )
    return out
