"""Batch execution: fan simulation runs out over worker processes.

:class:`BatchRunner` is the single execution engine behind
:func:`repro.experiments.runner.run_replications`,
:func:`repro.experiments.sweep.run_panel` and the ``repro run-scenario``
CLI subcommand.  It takes a flat list of :class:`RunSpec` (scenario +
algorithm + labels), executes each one — serially, or across a
:class:`concurrent.futures.ProcessPoolExecutor` — and returns a
:class:`ResultSet` of structured :class:`RunRecord` rows with JSON/CSV
export.

Determinism
-----------
Each :class:`RunSpec` carries a fully seeded
:class:`~repro.workload.scenario.Scenario`, so a run's result depends only
on its spec, never on scheduling order or worker count.  ``ex.map``
preserves submission order; the parallel path is therefore *bit-identical*
to the serial path (the test suite asserts this).
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.algorithms import ALGORITHMS
from repro.core.errors import InvalidParameterError
from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE, validate_admission_engine
from repro.core.partition import validate_node_order
from repro.metrics.collector import MetricsSummary, validate_metric
from repro.metrics.stats import ConfidenceInterval, mean_ci
from repro.sim.cluster_sim import SimulationOutput
from repro.workload.scenario import Scenario

__all__ = ["BatchRunner", "ResultSet", "RunRecord", "RunSpec"]

#: Label value types that survive the JSON/CSV round trip unchanged.
LabelValue = float | int | str

#: Adaptive chunking target: chunks per worker.  Several chunks per worker
#: keep the pool load-balanced when run times vary; chunks of several specs
#: amortize the pickling round trip on large batches.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One unit of batch work: run ``algorithm`` on ``scenario``.

    ``scenario`` may be a single-cluster :class:`Scenario` or a
    :class:`~repro.fleet.scenario.FleetScenario` — fleet points execute
    through :func:`repro.fleet.sim.simulate_fleet` and fan out over
    workers exactly like single-cluster points.

    ``labels`` are free-form coordinates (sweep point, replication index,
    …) carried through to the :class:`RunRecord` and its exports —
    :class:`BatchRunner` never interprets them.
    """

    scenario: Scenario
    algorithm: str
    labels: Mapping[str, LabelValue] = field(default_factory=dict)
    validate: bool = True
    trace: bool = False
    eager_release: bool = False
    shared_head_link: bool = False
    keep_output: bool = False
    node_order: str = "availability"
    admission_engine: str = DEFAULT_ADMISSION_ENGINE

    def __post_init__(self) -> None:
        # Imported lazily: the fleet layer builds on this module.
        from repro.fleet.scenario import FleetScenario

        if not isinstance(self.scenario, (Scenario, FleetScenario)):
            raise InvalidParameterError(
                f"scenario must be a Scenario or FleetScenario, "
                f"got {self.scenario!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {self.algorithm!r}; "
                f"valid: {', '.join(sorted(ALGORITHMS))}"
            )
        validate_node_order(self.node_order)
        validate_admission_engine(self.admission_engine)


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One completed run: its spec coordinates plus the metrics.

    ``output`` is populated only when the spec asked to ``keep_output``
    (the raw :class:`SimulationOutput` — or
    :class:`~repro.fleet.sim.FleetOutput` for fleet points — is
    memory-heavy for big sweeps).
    """

    scenario: Scenario
    algorithm: str
    labels: Mapping[str, LabelValue]
    metrics: MetricsSummary
    output: SimulationOutput | Any | None = None

    def value(self, metric: str) -> float:
        """One numeric metric of this run (name validated)."""
        return float(getattr(self.metrics, validate_metric(metric)))

    def to_dict(self) -> dict[str, Any]:
        """Flat, JSON-friendly row: labels + scenario summary + metrics."""
        row: dict[str, Any] = {"algorithm": self.algorithm}
        row.update(self.labels)
        for key, val in self.scenario.describe().items():
            row.setdefault(f"scenario_{key}", val)
        row.update(self.metrics.as_dict())
        return row


def _execute_spec(spec: RunSpec) -> RunRecord:
    """Run one spec to completion (top-level so worker processes can pickle it)."""
    # Imported lazily: runner/fleet import this module for BatchRunner.
    from repro.fleet.scenario import FleetScenario

    if isinstance(spec.scenario, FleetScenario):
        from repro.fleet.sim import simulate_fleet

        fleet_out = simulate_fleet(
            spec.scenario,
            spec.algorithm,
            validate=spec.validate,
            trace=spec.trace,
            eager_release=spec.eager_release,
            shared_head_link=spec.shared_head_link,
            node_order=spec.node_order,
            admission_engine=spec.admission_engine,
        )
        return RunRecord(
            scenario=spec.scenario,
            algorithm=spec.algorithm,
            labels=dict(spec.labels),
            metrics=fleet_out.metrics,
            output=fleet_out if spec.keep_output else None,
        )

    from repro.experiments.runner import simulate

    result = simulate(
        spec.scenario,
        spec.algorithm,
        validate=spec.validate,
        trace=spec.trace,
        eager_release=spec.eager_release,
        shared_head_link=spec.shared_head_link,
        node_order=spec.node_order,
        admission_engine=spec.admission_engine,
    )
    return RunRecord(
        scenario=spec.scenario,
        algorithm=spec.algorithm,
        labels=dict(spec.labels),
        metrics=result.metrics,
        output=result.output if spec.keep_output else None,
    )


@dataclass(frozen=True, slots=True)
class ResultSet:
    """An ordered collection of :class:`RunRecord` with export helpers."""

    records: tuple[RunRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RunRecord:
        return self.records[index]

    # -- selection ---------------------------------------------------------
    def filter(
        self,
        predicate: Callable[[RunRecord], bool] | None = None,
        **labels: LabelValue,
    ) -> "ResultSet":
        """Records matching a predicate and/or exact label values.

        ``algorithm`` is accepted as a label-like keyword alongside the
        free-form labels: ``results.filter(algorithm="EDF-DLT", load=0.5)``.
        """
        algorithm = labels.pop("algorithm", None)

        def keep(rec: RunRecord) -> bool:
            if algorithm is not None and rec.algorithm != algorithm:
                return False
            if any(rec.labels.get(k) != v for k, v in labels.items()):
                return False
            return predicate is None or predicate(rec)

        return ResultSet(records=tuple(r for r in self.records if keep(r)))

    def group_by(self, key: str) -> dict[LabelValue, "ResultSet"]:
        """Partition by a label (or ``"algorithm"``), insertion-ordered."""
        groups: dict[LabelValue, list[RunRecord]] = {}
        for rec in self.records:
            value = rec.algorithm if key == "algorithm" else rec.labels.get(key)
            if value is None:
                raise InvalidParameterError(
                    f"record missing group_by label {key!r}: {sorted(rec.labels)}"
                )
            groups.setdefault(value, []).append(rec)
        return {v: ResultSet(records=tuple(rs)) for v, rs in groups.items()}

    # -- aggregation -------------------------------------------------------
    def values(self, metric: str = "reject_ratio") -> tuple[float, ...]:
        """One metric across all records, in record order."""
        validate_metric(metric)
        return tuple(float(getattr(r.metrics, metric)) for r in self.records)

    def aggregate(self, metric: str = "reject_ratio") -> ConfidenceInterval:
        """Mean ± 95% CI of one metric over all records."""
        return mean_ci(self.values(metric))

    # -- export ------------------------------------------------------------
    def to_records(self) -> list[dict[str, Any]]:
        """All rows as flat dicts (see :meth:`RunRecord.to_dict`)."""
        return [rec.to_dict() for rec in self.records]

    def to_json(self, *, indent: int | None = 2) -> str:
        """The result set as a JSON array of flat row objects."""
        return json.dumps(self.to_records(), indent=indent)

    def to_csv(self) -> str:
        """The result set as CSV (columns = union of row keys, first-seen order)."""
        rows = self.to_records()
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()


@dataclass(frozen=True, slots=True)
class BatchRunner:
    """Executes :class:`RunSpec` lists, optionally across processes.

    Parameters
    ----------
    workers:
        ``None``, ``0`` or ``1`` → run serially in-process (the default:
        always available, no pickling round trip).  ``>= 2`` → fan out
        over an executor with that many workers (capped at the number of
        specs).  Results are identical either way; parallelism only buys
        wall-clock time.
    chunksize:
        Specs per inter-process message in parallel mode.  ``None``
        (default) sizes chunks adaptively from the batch and worker
        counts — ``ceil(n_specs / (workers * _CHUNKS_PER_WORKER))`` — so
        big batches of short runs avoid per-spec messaging overhead while
        small batches keep every worker busy; pass an explicit ``int`` to
        pin it.  Results are bit-identical for every chunking (``ex.map``
        preserves submission order).
    workers_mode:
        ``"process"`` (default) → :class:`ProcessPoolExecutor`, the fast
        path on platforms with cheap fork.  ``"thread"`` →
        :class:`ThreadPoolExecutor` for environments where fork/spawn is
        unavailable or prohibitively slow (sandboxes, some embedded
        interpreters).  The simulation kernel holds the GIL, so threads
        mostly buy overlap with I/O — but the results are bit-identical
        across all three execution paths (the test suite asserts it).
    """

    workers: int | None = None
    chunksize: int | None = None
    workers_mode: str = "process"

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise InvalidParameterError(
                f"workers must be >= 0 (0/1 = serial), got {self.workers}"
            )
        if self.chunksize is not None and self.chunksize < 1:
            raise InvalidParameterError(
                f"chunksize must be >= 1 (or None = adaptive), got {self.chunksize}"
            )
        if self.workers_mode not in ("process", "thread"):
            raise InvalidParameterError(
                f"workers_mode must be 'process' or 'thread', "
                f"got {self.workers_mode!r}"
            )

    def with_workers(self, workers: int | None) -> "BatchRunner":
        """A copy targeting a different worker count."""
        return replace(self, workers=workers)

    def effective_chunksize(self, n_specs: int, n_workers: int) -> int:
        """Specs per worker message for a batch of ``n_specs``.

        An explicit ``chunksize`` wins; otherwise the adaptive rule aims
        for :data:`_CHUNKS_PER_WORKER` chunks per worker — enough slack
        that uneven run times rebalance, while per-spec pickling overhead
        amortizes across big batches.
        """
        if self.chunksize is not None:
            return self.chunksize
        if n_specs <= 0 or n_workers <= 0:
            return 1
        return max(1, -(-n_specs // (n_workers * _CHUNKS_PER_WORKER)))

    def run(self, specs: Iterable[RunSpec]) -> ResultSet:
        """Execute every spec and return the records in submission order."""
        todo = tuple(specs)
        for spec in todo:
            if not isinstance(spec, RunSpec):
                raise InvalidParameterError(f"expected RunSpec, got {spec!r}")
        n_workers = min(self.workers or 1, len(todo))
        if n_workers <= 1:
            return ResultSet(records=tuple(_execute_spec(s) for s in todo))
        executor_cls: type[Executor] = (
            ThreadPoolExecutor if self.workers_mode == "thread" else ProcessPoolExecutor
        )
        chunksize = self.effective_chunksize(len(todo), n_workers)
        with executor_cls(max_workers=n_workers) as executor:
            records = tuple(
                executor.map(_execute_spec, todo, chunksize=chunksize)
            )
        return ResultSet(records=records)
