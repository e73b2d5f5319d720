"""Single-run and replicated-run drivers.

``simulate`` = generate workload → instantiate algorithm → execute DES →
summarize.  It accepts either the composable
:class:`~repro.workload.scenario.Scenario` (the primary API) or a legacy
:class:`~repro.workload.spec.SimulationConfig` (adapted through
``Scenario.from_config`` — bit-identical results).

``run_replications`` repeats it with independent seeds and aggregates one
metric into a confidence interval, exactly like each point of the paper's
figures ("the average performance of ten simulations ... same parameters
... different random numbers").  Execution goes through the
:class:`~repro.experiments.batch.BatchRunner`, so replications can fan out
over worker processes (``workers=4``) with results bit-identical to the
serial path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithms import make_algorithm
from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE
from repro.experiments.batch import BatchRunner, RunSpec
from repro.metrics.collector import MetricsSummary, summarize, validate_metric
from repro.metrics.stats import ConfidenceInterval, mean_ci
from repro.sim.cluster_sim import ClusterSimulation, SimulationOutput
from repro.workload.scenario import Scenario
from repro.workload.spec import SimulationConfig

__all__ = ["ReplicatedResult", "RunResult", "run_replications", "simulate"]

#: Either experiment description: the composable Scenario or the legacy
#: flat config (which adapts to the equivalent Scenario).
ExperimentInput = SimulationConfig | Scenario


def as_scenario(config: ExperimentInput) -> Scenario:
    """Normalize an experiment description to a :class:`Scenario`."""
    if isinstance(config, Scenario):
        return config
    return Scenario.from_config(config)


@dataclass(frozen=True, slots=True)
class RunResult:
    """Output + metrics of a single simulation run."""

    config: ExperimentInput
    algorithm: str
    output: SimulationOutput
    metrics: MetricsSummary

    @property
    def scenario(self) -> Scenario:
        """The run's description as a scenario."""
        return as_scenario(self.config)


@dataclass(frozen=True, slots=True)
class ReplicatedResult:
    """Aggregated metric over R independent replications."""

    config: ExperimentInput
    algorithm: str
    metric: str
    ci: ConfidenceInterval
    samples: tuple[float, ...]
    runs: tuple[RunResult, ...]


def simulate(
    config: ExperimentInput,
    algorithm: str,
    *,
    validate: bool = True,
    trace: bool = False,
    eager_release: bool = False,
    shared_head_link: bool = False,
    node_order: str = "availability",
    admission_engine: str = DEFAULT_ADMISSION_ENGINE,
    obs=None,
) -> RunResult:
    """Run one simulation of ``algorithm`` under ``config``.

    The workload (arrivals, sizes, deadlines) depends only on the
    scenario's seed — every algorithm sees the identical task set;
    algorithm-side randomness (User-Split) draws from a separate child
    stream of the same seed.  ``node_order`` selects the tie-break among
    simultaneously available nodes (default: the paper's node-id order);
    ``admission_engine`` picks the fast or reference schedulability test
    (bit-identical outputs, see :mod:`repro.core.fastpath`);
    ``obs`` threads an optional :class:`repro.obs.Observability` bundle
    into the simulation (instrumented runs stay bit-identical).
    """
    scenario = as_scenario(config)
    tasks = scenario.generate_tasks()
    instance = make_algorithm(
        algorithm, rng=scenario.algorithm_rng(), node_order=node_order
    )
    sim = ClusterSimulation(
        scenario.cluster,
        instance,
        tasks,
        horizon=scenario.total_time,
        validate=validate,
        trace=trace,
        eager_release=eager_release,
        shared_head_link=shared_head_link,
        admission_engine=admission_engine,
        faults=scenario.fault_plan(),
        obs=obs,
    )
    output = sim.run()
    return RunResult(
        config=config,
        algorithm=algorithm,
        output=output,
        metrics=summarize(output),
    )


def replication_seed(base_seed: int, replication: int) -> int:
    """Deterministic, well-spread seed for replication ``replication``.

    Derived through a :class:`numpy.random.SeedSequence` so nearby base
    seeds / indices do not produce correlated streams.
    """
    ss = np.random.SeedSequence([int(base_seed), int(replication)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def run_replications(
    config: ExperimentInput,
    algorithm: str,
    replications: int,
    *,
    metric: str = "reject_ratio",
    validate: bool = True,
    keep_runs: bool = False,
    trace: bool = False,
    eager_release: bool = False,
    shared_head_link: bool = False,
    workers: int | None = None,
) -> ReplicatedResult:
    """Run ``replications`` independent simulations and aggregate ``metric``.

    Parameters
    ----------
    metric:
        Name of a numeric :class:`~repro.metrics.collector.MetricsSummary`
        metric to aggregate (default the paper's Task Reject Ratio).
        Validated up front — a typo raises ``InvalidParameterError``
        before any simulation time is spent.
    keep_runs:
        Retain the full per-run outputs (memory-heavy for big sweeps).
    workers:
        Worker processes for the underlying
        :class:`~repro.experiments.batch.BatchRunner`; ``None``/``0``/``1``
        run serially.  Results are identical for every worker count.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    validate_metric(metric)

    per_rep: list[ExperimentInput] = []
    specs: list[RunSpec] = []
    for rep in range(replications):
        seed = replication_seed(config.seed, rep)
        rep_config: ExperimentInput = (
            config.with_seed(seed)
            if isinstance(config, Scenario)
            else config.with_overrides(seed=seed)
        )
        per_rep.append(rep_config)
        specs.append(
            RunSpec(
                scenario=as_scenario(rep_config),
                algorithm=algorithm,
                labels={"replication": rep},
                validate=validate,
                trace=trace,
                eager_release=eager_release,
                shared_head_link=shared_head_link,
                keep_output=keep_runs,
            )
        )

    results = BatchRunner(workers=workers).run(specs)
    samples = [float(getattr(rec.metrics, metric)) for rec in results]
    runs: list[RunResult] = []
    if keep_runs:
        for rep_config, rec in zip(per_rep, results):
            assert rec.output is not None  # keep_output was set on the spec
            runs.append(
                RunResult(
                    config=rep_config,
                    algorithm=algorithm,
                    output=rec.output,
                    metrics=rec.metrics,
                )
            )
    return ReplicatedResult(
        config=config,
        algorithm=algorithm,
        metric=metric,
        ci=mean_ci(samples),
        samples=tuple(samples),
        runs=tuple(runs),
    )
