"""Deterministic metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per simulation (cluster or fleet) absorbs the
counters that used to live as ad-hoc integer attributes
(``SchedulerStats`` fields, per-member routing shares, …) and adds
the derived surfaces the rest of the stack reads: a typed snapshot dict
riding :class:`~repro.metrics.collector.MetricsSummary` and the serve wire
protocol, and a Prometheus text rendering behind
``repro serve --metrics-port``.

Determinism contract
--------------------
Every instrument that observes *simulation* state (task counts, cache
hits, queue depths) is driven only by simulated quantities, so two runs of
the same scenario produce byte-identical :meth:`MetricsRegistry.snapshot`
dicts — serially, across process pools, and across thread pools (the test
suite asserts it).  Wall-clock instruments (admission latency, replay
latency) are *flagged* with ``wall=True`` at registration and excluded
from the default snapshot, so nondeterministic timings can never leak
into a surface that is compared bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus",
]

#: Default histogram buckets for queue-depth style instruments.
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Default histogram buckets for wall-clock latencies, in seconds.
LATENCY_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1.0,
)


def _full_name(name: str, labels: Mapping[str, str] | None) -> str:
    """The registry key: ``name`` plus sorted ``{k="v",…}`` labels."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count.

    ``wall=True`` marks the instrument as wall-clock-derived; such
    instruments are excluded from the deterministic snapshot (see the
    module docstring).
    """

    __slots__ = ("name", "base", "help", "wall", "value")

    #: Snapshot/type tag ("counter").
    kind = "counter"

    def __init__(
        self, name: str, base: str, help: str = "", *, wall: bool = False
    ) -> None:
        self.name = name
        self.base = base
        self.help = help
        self.wall = wall
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def as_value(self) -> dict[str, Any]:
        """Snapshot payload: ``{"type": "counter", "value": n}``."""
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, clock, arm estimate)."""

    __slots__ = ("name", "base", "help", "wall", "value")

    #: Snapshot/type tag ("gauge").
    kind = "gauge"

    def __init__(
        self, name: str, base: str, help: str = "", *, wall: bool = False
    ) -> None:
        self.name = name
        self.base = base
        self.help = help
        self.wall = wall
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def as_value(self) -> dict[str, Any]:
        """Snapshot payload: ``{"type": "gauge", "value": v}``."""
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram (upper bounds given at registration).

    ``counts`` has ``len(bounds) + 1`` cells — the last is the overflow
    (``+Inf``) bucket.  Buckets are fixed so that two runs observing the
    same value stream produce identical snapshots regardless of order of
    magnitude or platform.
    """

    __slots__ = ("name", "base", "help", "wall", "bounds", "counts", "sum", "count")

    #: Snapshot/type tag ("histogram").
    kind = "histogram"

    def __init__(
        self,
        name: str,
        base: str,
        bounds: tuple[float, ...],
        help: str = "",
        *,
        wall: bool = False,
    ) -> None:
        self.name = name
        self.base = base
        self.help = help
        self.wall = wall
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (``value <= bound`` selects the bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def as_value(self) -> dict[str, Any]:
        """Snapshot payload with bounds, per-bucket counts, sum and count."""
        return {
            "type": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create instrument registry with a deterministic snapshot.

    Instruments are keyed on ``name`` plus sorted labels; registering the
    same key twice returns the existing instrument (so call sites never
    need to coordinate).  Registering an existing key as a *different*
    instrument kind raises.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, full: str, kind: type) -> Any:
        existing = self._instruments.get(full)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"instrument {full!r} already registered as "
                    f"{existing.kind}, requested {kind.kind}"  # type: ignore[attr-defined]
                )
            return existing
        return None

    def counter(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        wall: bool = False,
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        full = _full_name(name, labels)
        inst = self._get(full, Counter)
        if inst is None:
            inst = Counter(full, name, help, wall=wall)
            self._instruments[full] = inst
        return inst

    def gauge(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        wall: bool = False,
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        full = _full_name(name, labels)
        inst = self._get(full, Gauge)
        if inst is None:
            inst = Gauge(full, name, help, wall=wall)
            self._instruments[full] = inst
        return inst

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...],
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        wall: bool = False,
    ) -> Histogram:
        """Get or create a :class:`Histogram` with fixed ``bounds``."""
        full = _full_name(name, labels)
        inst = self._get(full, Histogram)
        if inst is None:
            inst = Histogram(full, name, bounds, help, wall=wall)
            self._instruments[full] = inst
        return inst

    def instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        """All registered instruments, sorted by full name."""
        for full in sorted(self._instruments):
            yield self._instruments[full]

    def snapshot(self, *, include_wall: bool = False) -> dict[str, Any]:
        """Typed, name-sorted dict of every instrument's current value.

        Wall-clock instruments are excluded unless ``include_wall`` —
        the default snapshot is the one compared bit-for-bit across
        serial/process/thread execution and traced/untraced runs.
        """
        return {
            inst.name: inst.as_value()
            for inst in self.instruments()
            if include_wall or not inst.wall
        }

    def render_prometheus(self, *, include_wall: bool = True) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        return render_prometheus(self.snapshot(include_wall=include_wall))


def _prom_parts(full: str) -> tuple[str, str]:
    """Split a full instrument name into ``(base, "{labels}" or "")``."""
    if full.endswith("}") and "{" in full:
        base, _, rest = full.partition("{")
        return base, "{" + rest
    return full, ""


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Histograms expand into cumulative ``_bucket{le=…}`` series plus
    ``_sum`` / ``_count``, per the exposition format.  ``# TYPE`` headers
    are emitted once per base metric name.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for full in sorted(snapshot):
        value = snapshot[full]
        base, labels = _prom_parts(full)
        if base not in typed:
            lines.append(f"# TYPE {base} {value['type']}")
            typed.add(base)
        if value["type"] == "histogram":
            inner = labels[1:-1] if labels else ""
            sep = "," if inner else ""
            cum = 0
            for bound, count in zip(value["bounds"], value["counts"]):
                cum += count
                lines.append(
                    f'{base}_bucket{{{inner}{sep}le="{bound:g}"}} {cum}'
                )
            cum += value["counts"][-1]
            lines.append(f'{base}_bucket{{{inner}{sep}le="+Inf"}} {cum}')
            lines.append(f"{base}_sum{labels} {value['sum']:g}")
            lines.append(f"{base}_count{labels} {value['count']}")
        else:
            lines.append(f"{full} {value['value']:g}")
    return "\n".join(lines) + "\n"


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge snapshot dicts: counters/gauges sum, histograms add cellwise.

    Used to pool per-member cluster registries into one fleet-level
    surface (the ``metrics`` wire op and the pooled
    :class:`~repro.metrics.collector.MetricsSummary` ride this).  Raises
    on kind or bucket-bound mismatches — merging is only defined across
    registries built by the same instrumentation.
    """
    merged: dict[str, Any] = {}
    for snap in snapshots:
        for name, value in snap.items():
            if name not in merged:
                merged[name] = {
                    k: (list(v) if isinstance(v, list) else v)
                    for k, v in value.items()
                }
                continue
            acc = merged[name]
            if acc["type"] != value["type"]:
                raise ValueError(f"cannot merge {name!r}: kind mismatch")
            if value["type"] == "histogram":
                if acc["bounds"] != list(value["bounds"]):
                    raise ValueError(f"cannot merge {name!r}: bucket mismatch")
                acc["counts"] = [
                    a + b for a, b in zip(acc["counts"], value["counts"])
                ]
                acc["sum"] += value["sum"]
                acc["count"] += value["count"]
            else:
                acc["value"] += value["value"]
    return {name: merged[name] for name in sorted(merged)}
