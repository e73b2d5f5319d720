"""SystemLoad sweep driver: turn a PanelSpec into series of points.

All (load, algorithm, replication) runs of a panel flatten into one batch
and execute through the :class:`~repro.experiments.batch.BatchRunner`, so
a panel can fan out over worker processes (``workers=4``) — per-point
seeding is deterministic, so the parallel sweep is bit-identical to the
serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.fastpath import DEFAULT_ADMISSION_ENGINE
from repro.core.partition import NODE_ORDERS, validate_node_order
from repro.experiments.batch import BatchRunner, RunSpec
from repro.experiments.figures import DEFAULT_LOADS, PanelSpec
from repro.experiments.runner import replication_seed
from repro.metrics.collector import validate_metric
from repro.metrics.stats import PointEstimate, mean_ci
from repro.workload.scenario import Scenario

__all__ = [
    "PanelResult",
    "SpreadSweepResult",
    "run_node_order_sweep",
    "run_panel",
    "run_spread_sweep",
]

#: Defaults tuned so a full panel runs in seconds; the paper-scale values
#: (10 M time units, 10 replications) are available via parameters.
DEFAULT_TOTAL_TIME: float = 200_000.0
DEFAULT_REPLICATIONS: int = 3
DEFAULT_SEED: int = 2007


@dataclass(frozen=True, slots=True)
class PanelResult:
    """All series of one panel: algorithm → per-load point estimates."""

    spec: PanelSpec
    loads: tuple[float, ...]
    series: Mapping[str, tuple[PointEstimate, ...]]
    total_time: float
    replications: int

    def mean_curve(self, algorithm: str) -> list[float]:
        """The mean reject-ratio curve of one algorithm."""
        return [p.mean for p in self.series[algorithm]]

    def wins(self, algorithm: str, *, tol: float = 0.0) -> int:
        """Load points where ``algorithm``'s mean is lowest (ties excluded).

        ``tol`` widens the comparison: a win requires beating every other
        series by more than ``tol``.
        """
        others = [a for a in self.series if a != algorithm]
        count = 0
        for i in range(len(self.loads)):
            mine = self.series[algorithm][i].mean
            if all(self.series[o][i].mean > mine + tol for o in others):
                count += 1
        return count

    def mean_gap(self, better: str, worse: str) -> float:
        """Average (worse − better) reject-ratio gap across loads."""
        diffs = [
            self.series[worse][i].mean - self.series[better][i].mean
            for i in range(len(self.loads))
        ]
        return sum(diffs) / len(diffs)


def run_panel(
    spec: PanelSpec,
    *,
    loads: Sequence[float] | None = None,
    replications: int = DEFAULT_REPLICATIONS,
    total_time: float = DEFAULT_TOTAL_TIME,
    seed: int = DEFAULT_SEED,
    metric: str = "reject_ratio",
    validate: bool = True,
    workers: int | None = None,
) -> PanelResult:
    """Run one figure panel: both algorithms over the SystemLoad grid.

    Replication seeds are derived from ``(seed, load index, rep)`` so every
    point is independent yet fully reproducible, while both algorithms of a
    panel see *identical* task sets at each point (paired comparison, as in
    the paper).  ``workers`` fans the whole panel's runs out over processes.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    validate_metric(metric)
    grid = tuple(loads) if loads is not None else DEFAULT_LOADS

    specs: list[RunSpec] = []
    for li, load in enumerate(grid):
        cfg = spec.base_config(
            system_load=float(load),
            total_time=total_time,
            seed=seed + 7919 * li,  # distinct workload per load point
        )
        point = Scenario.from_config(cfg, name=spec.panel_id)
        for algorithm in spec.algorithms:
            for rep in range(replications):
                specs.append(
                    RunSpec(
                        scenario=point.with_seed(replication_seed(cfg.seed, rep)),
                        algorithm=algorithm,
                        # Grouped by grid index, not load value — a grid may
                        # legitimately repeat a load (each entry gets its own
                        # seed and its own point).
                        labels={
                            "load": float(load),
                            "load_index": li,
                            "replication": rep,
                        },
                        validate=validate,
                    )
                )

    results = BatchRunner(workers=workers).run(specs)

    series: dict[str, list[PointEstimate]] = {a: [] for a in spec.algorithms}
    for li, load in enumerate(grid):
        at_load = results.filter(load_index=li)
        for algorithm in spec.algorithms:
            samples = at_load.filter(algorithm=algorithm).values(metric)
            series[algorithm].append(
                PointEstimate(x=float(load), ci=mean_ci(samples), samples=samples)
            )
    return PanelResult(
        spec=spec,
        loads=grid,
        series={a: tuple(pts) for a, pts in series.items()},
        total_time=total_time,
        replications=replications,
    )


@dataclass(frozen=True, slots=True)
class SpreadSweepResult:
    """One heterogeneity sweep: algorithm → per-spread point estimates.

    ``spreads`` is the swept ``speed_spread`` grid (0 = the paper's
    homogeneous cluster); every series shares the task sets point-wise, so
    algorithm comparisons are paired exactly like the paper's load sweeps.
    """

    spreads: tuple[float, ...]
    series: Mapping[str, tuple[PointEstimate, ...]]
    metric: str
    total_time: float
    replications: int

    def mean_curve(self, algorithm: str) -> list[float]:
        """The mean metric curve of one algorithm across spreads."""
        return [p.mean for p in self.series[algorithm]]


#: One series of a spread-grid sweep: the series key, the RunSpec fields
#: it varies, the extra labels it stamps, and the ResultSet.filter(...)
#: keywords that select its records back out.
_SpreadVariant = tuple[str, dict, dict, dict]


def _run_spread_grid(
    *,
    spreads: Sequence[float],
    variants: Sequence[_SpreadVariant],
    system_load: float,
    nodes: int,
    cms: float,
    cps: float,
    avg_sigma: float,
    dc_ratio: float,
    replications: int,
    total_time: float,
    seed: int,
    metric: str,
    validate: bool,
    workers: int | None,
    workers_mode: str,
    admission_engine: str = DEFAULT_ADMISSION_ENGINE,
) -> SpreadSweepResult:
    """Shared driver of the heterogeneity-spread sweeps.

    Each grid point runs :meth:`Scenario.paper_baseline` with
    ``speed_spread = s`` and the workload re-calibrated against that
    cluster's actual ``E(Avgσ, N)``; every variant (algorithm or
    node-order series) shares the task sets point-wise (paired
    comparison) and all runs flatten into one
    :class:`~repro.experiments.batch.BatchRunner` batch.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    validate_metric(metric)
    grid = tuple(float(s) for s in spreads)
    if not grid:
        raise ValueError("spreads must be non-empty")

    specs: list[RunSpec] = []
    for si, spread in enumerate(grid):
        point = Scenario.paper_baseline(
            system_load=system_load,
            total_time=total_time,
            seed=seed + 7919 * si,  # distinct workload per grid point
            nodes=nodes,
            cms=cms,
            cps=cps,
            avg_sigma=avg_sigma,
            dc_ratio=dc_ratio,
            speed_spread=spread,
            name=f"spread-{spread:g}",
        )
        for _key, spec_kwargs, extra_labels, _selector in variants:
            for rep in range(replications):
                specs.append(
                    RunSpec(
                        scenario=point.with_seed(
                            replication_seed(seed + 7919 * si, rep)
                        ),
                        labels={
                            "speed_spread": spread,
                            "spread_index": si,
                            **extra_labels,
                            "replication": rep,
                        },
                        validate=validate,
                        admission_engine=admission_engine,
                        **spec_kwargs,
                    )
                )

    results = BatchRunner(workers=workers, workers_mode=workers_mode).run(specs)

    series: dict[str, list[PointEstimate]] = {v[0]: [] for v in variants}
    for si, spread in enumerate(grid):
        at_point = results.filter(spread_index=si)
        for key, _spec_kwargs, _extra_labels, selector in variants:
            samples = at_point.filter(**selector).values(metric)
            series[key].append(
                PointEstimate(x=spread, ci=mean_ci(samples), samples=samples)
            )
    return SpreadSweepResult(
        spreads=grid,
        series={k: tuple(pts) for k, pts in series.items()},
        metric=metric,
        total_time=total_time,
        replications=replications,
    )


def run_spread_sweep(
    *,
    spreads: Sequence[float],
    algorithms: Sequence[str] = ("EDF-DLT", "EDF-OPR-MN"),
    system_load: float = 0.6,
    nodes: int = 16,
    cms: float = 1.0,
    cps: float = 100.0,
    avg_sigma: float = 200.0,
    dc_ratio: float = 2.0,
    replications: int = DEFAULT_REPLICATIONS,
    total_time: float = DEFAULT_TOTAL_TIME,
    seed: int = DEFAULT_SEED,
    metric: str = "reject_ratio",
    validate: bool = True,
    workers: int | None = None,
    workers_mode: str = "process",
    admission_engine: str = DEFAULT_ADMISSION_ENGINE,
) -> SpreadSweepResult:
    """Sweep intrinsic cluster heterogeneity at a fixed SystemLoad.

    Each grid point runs :meth:`Scenario.paper_baseline` with
    ``speed_spread = s``: node processing costs span
    ``[cps·(1-s/2), cps·(1+s/2)]`` linearly while the workload stays
    calibrated against that cluster's actual ``E(Avgσ, N)`` — so the sweep
    isolates the *scheduling* cost of heterogeneity from the capacity
    shift.  All runs of the sweep flatten into one batch and fan out over
    the :class:`~repro.experiments.batch.BatchRunner`.
    """
    return _run_spread_grid(
        spreads=spreads,
        variants=[
            (a, {"algorithm": a}, {}, {"algorithm": a}) for a in algorithms
        ],
        system_load=system_load,
        nodes=nodes,
        cms=cms,
        cps=cps,
        avg_sigma=avg_sigma,
        dc_ratio=dc_ratio,
        replications=replications,
        total_time=total_time,
        seed=seed,
        metric=metric,
        validate=validate,
        workers=workers,
        workers_mode=workers_mode,
        admission_engine=admission_engine,
    )


def run_node_order_sweep(
    *,
    spreads: Sequence[float],
    node_orders: Sequence[str] = NODE_ORDERS,
    algorithm: str = "EDF-DLT",
    system_load: float = 0.6,
    nodes: int = 16,
    cms: float = 1.0,
    cps: float = 100.0,
    avg_sigma: float = 200.0,
    dc_ratio: float = 2.0,
    replications: int = DEFAULT_REPLICATIONS,
    total_time: float = DEFAULT_TOTAL_TIME,
    seed: int = DEFAULT_SEED,
    metric: str = "reject_ratio",
    validate: bool = True,
    workers: int | None = None,
    workers_mode: str = "process",
    admission_engine: str = DEFAULT_ADMISSION_ENGINE,
) -> SpreadSweepResult:
    """Grid node-ordering policies against cluster heterogeneity spreads.

    The ROADMAP follow-on to the node-ordering work: one algorithm, the
    heterogeneity ``speed_spread`` grid on the x-axis, and one series per
    node-ordering policy (``availability`` — the paper's node-id order —
    ``fastest-first``, ``bandwidth-first``).  At ``spread = 0`` all
    orderings coincide on the homogeneous cluster; the sweep shows where
    they start to diverge.  Every series shares the task sets point-wise
    (paired comparison), and all runs flatten into one
    :class:`~repro.experiments.batch.BatchRunner` batch.

    Returns a :class:`SpreadSweepResult` whose ``series`` keys are the
    node-order names.
    """
    orders = tuple(node_orders)
    if not orders:
        raise ValueError("node_orders must be non-empty")
    if len(set(orders)) != len(orders):
        raise ValueError(f"duplicate node orders in {orders!r}")
    for order in orders:
        validate_node_order(order)
    return _run_spread_grid(
        spreads=spreads,
        variants=[
            (
                o,
                {"algorithm": algorithm, "node_order": o},
                {"node_order": o},
                {"node_order": o},
            )
            for o in orders
        ],
        system_load=system_load,
        nodes=nodes,
        cms=cms,
        cps=cps,
        avg_sigma=avg_sigma,
        dc_ratio=dc_ratio,
        replications=replications,
        total_time=total_time,
        seed=seed,
        metric=metric,
        validate=validate,
        workers=workers,
        workers_mode=workers_mode,
        admission_engine=admission_engine,
    )
