"""Command-line interface.

Examples
--------
List every figure panel::

    python -m repro list-figures

Regenerate one panel at bench scale and print the series table::

    python -m repro run-figure fig3a --replications 3 --total-time 200000

Run a single point and dump all metrics::

    python -m repro run-point --algorithm EDF-DLT --load 0.5 --seed 42 --json

Run a composed scenario — bursty arrivals, heavy-tailed sizes — with four
replications fanned out over two worker processes::

    python -m repro run-scenario --arrivals bursty --sizes pareto \\
        --load 0.6 --replications 4 --workers 2 --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.algorithms import ALGORITHMS, algorithm_names
from repro.core.cluster import ClusterProfile
from repro.core.errors import InvalidParameterError, ReproError
from repro.core.fastpath import ADMISSION_ENGINES, DEFAULT_ADMISSION_ENGINE
from repro.core.partition import NODE_ORDERS
from repro.experiments.batch import BatchRunner, RunSpec
from repro.experiments.figures import DEFAULT_LOADS, FIGURES
from repro.experiments.report import panel_to_csv, render_chart, render_panel
from repro.experiments.runner import replication_seed, simulate
from repro.experiments.sweep import run_node_order_sweep, run_panel, run_spread_sweep
from repro.faults import FaultPlan, FaultProcess
from repro.fleet.routing import routing_policy_names, static_routing_policy_names
from repro.fleet.scenario import FleetScenario
from repro.learn import LEARN_MODES, LearnConfig, reward_model_names
from repro.metrics.collector import metric_names, validate_metric
from repro.workload.trace_report import summarize_trace
from repro.workload.models import (
    MMPPProcess,
    ParetoSizes,
    PoissonProcess,
    ProportionalDeadlines,
    TraceArrivals,
    TruncatedNormalSizes,
    UniformDeadlines,
    UniformSizes,
)
from repro.workload.scenario import Scenario, WorkloadModel

__all__ = ["main"]


def _add_scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--total-time",
        type=float,
        default=200_000.0,
        help="TotalSimulationTime per run (paper: 10,000,000)",
    )
    p.add_argument(
        "--replications",
        type=int,
        default=3,
        help="independent runs per point (paper: 10)",
    )
    p.add_argument("--seed", type=int, default=2007, help="base seed")


#: Node count used when neither --nodes nor a cost vector is given.
_DEFAULT_NODES = 16


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--nodes",
        type=int,
        default=None,
        help=f"cluster size (default {_DEFAULT_NODES}; must match any "
        "--cps-vector/--cms-vector length)",
    )
    p.add_argument("--cms", type=float, default=1.0)
    p.add_argument("--cps", type=float, default=100.0)
    p.add_argument(
        "--cps-vector",
        type=float,
        nargs="+",
        default=None,
        metavar="CPS_I",
        help="per-node processing costs (heterogeneous cluster; "
        "overrides --nodes/--cps)",
    )
    p.add_argument(
        "--cms-vector",
        type=float,
        nargs="+",
        default=None,
        metavar="CMS_I",
        help="per-link transmission costs (requires/implies the same "
        "node count as --cps-vector or --nodes)",
    )
    p.add_argument(
        "--speed-spread",
        type=float,
        default=0.0,
        help="deterministic linear heterogeneity: node cps spans "
        "[cps(1-s/2), cps(1+s/2)] (0 = homogeneous, < 2)",
    )


def _cluster_from_args(args: argparse.Namespace) -> ClusterProfile:
    """Build the ClusterProfile a CLI invocation describes."""
    if args.cps_vector is not None or args.cms_vector is not None:
        if args.speed_spread:
            raise InvalidParameterError(
                "--speed-spread cannot be combined with explicit cost vectors"
            )
        if args.cps_vector is not None:
            cps: list[float] | float = list(args.cps_vector)
            nodes = len(args.cps_vector)
        else:
            cps = [args.cps] * len(args.cms_vector)
            nodes = len(args.cms_vector)
        cms: list[float] | float = (
            list(args.cms_vector) if args.cms_vector is not None else args.cms
        )
        if isinstance(cms, list) and len(cms) != nodes:
            raise InvalidParameterError(
                f"--cms-vector length {len(cms)} != --cps-vector length {nodes}"
            )
        if args.nodes is not None and args.nodes != nodes:
            raise InvalidParameterError(
                f"--nodes {args.nodes} contradicts the cost vector length {nodes}"
            )
        return ClusterProfile.from_vectors(cps=cps, cms=cms)
    nodes = args.nodes if args.nodes is not None else _DEFAULT_NODES
    return ClusterProfile.with_spread(
        nodes, args.cms, args.cps, speed_spread=args.speed_spread
    )


def _add_sim_flag_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--eager-release",
        action="store_true",
        help="hand nodes back at actual rather than estimated completion",
    )
    p.add_argument(
        "--shared-head-link",
        action="store_true",
        help="serialize all chunk transmissions through one head-node link "
        "(ablation; estimates may be exceeded)",
    )
    p.add_argument(
        "--node-order",
        choices=NODE_ORDERS,
        default="availability",
        help="tie-break among simultaneously available nodes "
        "(default: the paper's node-id order)",
    )
    _add_engine_arg(p)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    """Fault-injection flags (run-scenario / fleet / serve / replay)."""
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="explicit JSON fault plan (see examples/sample_faults.json)",
    )
    g.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="seeded random faults at RATE events per time unit, "
        "materialized from the scenario seed's dedicated fault stream",
    )


def _faults_from_args(
    args: argparse.Namespace,
) -> FaultPlan | FaultProcess | None:
    """The faults field a CLI invocation describes (``None`` = fault-free)."""
    if getattr(args, "fault_plan", None):
        return FaultPlan.from_json(args.fault_plan)
    rate = getattr(args, "fault_rate", None)
    if rate is not None:
        return FaultProcess(rate=rate)
    return None


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--admission-engine",
        choices=ADMISSION_ENGINES,
        default=DEFAULT_ADMISSION_ENGINE,
        help="schedulability-test engine (bit-identical outputs; "
        "see docs/performance.md)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dls",
        description=(
            "Real-time divisible load scheduling with different processor "
            "available times — reproduction harness"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-figures", help="list all reproducible figure panels")
    sub.add_parser("list-algorithms", help="list all registered algorithms")

    p_fig = sub.add_parser("run-figure", help="regenerate one figure panel")
    p_fig.add_argument("panel", choices=sorted(FIGURES), metavar="PANEL")
    _add_scale_args(p_fig)
    p_fig.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="SystemLoad grid (default: 0.1..1.0)",
    )
    p_fig.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweep (default: serial)",
    )
    p_fig.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p_fig.add_argument(
        "--chart", action="store_true", help="also draw an ASCII chart of the panel"
    )

    p_pt = sub.add_parser("run-point", help="run a single simulation")
    p_pt.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="EDF-DLT")
    _add_cluster_args(p_pt)
    p_pt.add_argument("--load", type=float, default=0.5)
    p_pt.add_argument("--avg-sigma", type=float, default=200.0)
    p_pt.add_argument("--dc-ratio", type=float, default=2.0)
    p_pt.add_argument("--total-time", type=float, default=200_000.0)
    p_pt.add_argument("--seed", type=int, default=2007)
    p_pt.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON metrics dump",
    )
    _add_sim_flag_args(p_pt)

    p_sc = sub.add_parser(
        "run-scenario",
        help="run a composed scenario (pluggable arrival/size/deadline models)",
    )
    p_sc.add_argument(
        "--algorithm",
        dest="algorithms",
        choices=sorted(ALGORITHMS),
        action="append",
        default=None,
        metavar="ALGO",
        help="algorithm to run (repeatable; default: EDF-DLT)",
    )
    p_sc.add_argument("--name", default="cli-scenario", help="scenario label")
    _add_cluster_args(p_sc)
    p_sc.add_argument(
        "--arrivals",
        choices=("poisson", "bursty", "trace"),
        default="poisson",
        help="arrival process (default: the paper's Poisson)",
    )
    p_sc.add_argument(
        "--load",
        type=float,
        default=0.5,
        help="SystemLoad calibrating the long-run arrival rate",
    )
    p_sc.add_argument(
        "--mean-interarrival",
        type=float,
        default=None,
        help="override the calibrated mean inter-arrival time",
    )
    p_sc.add_argument(
        "--burst-factor",
        type=float,
        default=4.0,
        help="bursty arrivals: burst-to-calm rate ratio (> 1)",
    )
    p_sc.add_argument(
        "--trace-file",
        default=None,
        help="trace arrivals: file with one arrival time per line, a "
        ".csv trace (first/'arrival_time' column), or a .parquet trace "
        "(same column rules; needs pyarrow)",
    )
    p_sc.add_argument(
        "--sizes",
        choices=("normal", "uniform", "pareto"),
        default="normal",
        help="data-size model (default: the paper's truncated normal)",
    )
    p_sc.add_argument("--avg-sigma", type=float, default=200.0)
    p_sc.add_argument(
        "--size-range",
        type=float,
        nargs=2,
        default=None,
        metavar=("LO", "HI"),
        help="uniform sizes: bounds (default: [Avgσ/2, 3Avgσ/2])",
    )
    p_sc.add_argument(
        "--pareto-alpha",
        type=float,
        default=2.5,
        help="pareto sizes: tail index alpha > 1",
    )
    p_sc.add_argument(
        "--deadlines",
        choices=("uniform", "proportional"),
        default="uniform",
        help="deadline model (default: the paper's uniform window)",
    )
    p_sc.add_argument("--dc-ratio", type=float, default=2.0)
    p_sc.add_argument(
        "--deadline-factor",
        type=float,
        default=None,
        help="proportional deadlines: D_i = factor × E(σ_i, N) "
        "(default: --dc-ratio)",
    )
    _add_scale_args(p_sc)
    p_sc.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the batch (default: serial)",
    )
    p_sc.add_argument(
        "--workers-mode",
        choices=("process", "thread"),
        default="process",
        help="parallel executor kind (thread = fork-free environments)",
    )
    p_sc.add_argument(
        "--metric",
        default="reject_ratio",
        help="metric to aggregate (see repro.metrics.metric_names())",
    )
    _add_sim_flag_args(p_sc)
    _add_fault_args(p_sc)
    p_sc.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also run the first algorithm's replication 0 with tracing on "
        "and write the span stream to FILE (.json = Chrome trace-event "
        "format for Perfetto, anything else = JSON-lines); the traced "
        "rerun is bit-identical to the untraced one",
    )
    fmt = p_sc.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit all records as JSON")
    fmt.add_argument("--csv", action="store_true", help="emit all records as CSV")

    p_sw = sub.add_parser(
        "sweep",
        help="sweep a scenario axis (currently: cluster heterogeneity spread)",
    )
    p_sw.add_argument(
        "--axis",
        choices=("speed-spread", "node-order"),
        default="speed-spread",
        help="the swept series: algorithms across speed spreads "
        "(speed-spread) or node-ordering policies across speed spreads "
        "(node-order; single algorithm)",
    )
    p_sw.add_argument(
        "--values",
        type=float,
        nargs="+",
        default=(0.0, 0.25, 0.5, 0.75, 1.0),
        metavar="V",
        help="axis grid (speed-spread values in [0, 2))",
    )
    p_sw.add_argument(
        "--algorithm",
        dest="algorithms",
        choices=sorted(ALGORITHMS),
        action="append",
        default=None,
        metavar="ALGO",
        help="algorithm to sweep (repeatable; default: EDF-DLT vs "
        "EDF-OPR-MN — with --axis node-order only the first is used)",
    )
    p_sw.add_argument("--nodes", type=int, default=16)
    p_sw.add_argument("--cms", type=float, default=1.0)
    p_sw.add_argument("--cps", type=float, default=100.0)
    p_sw.add_argument("--load", type=float, default=0.6)
    p_sw.add_argument("--avg-sigma", type=float, default=200.0)
    p_sw.add_argument("--dc-ratio", type=float, default=2.0)
    _add_scale_args(p_sw)
    p_sw.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweep (default: serial)",
    )
    p_sw.add_argument(
        "--workers-mode",
        choices=("process", "thread"),
        default="process",
        help="parallel executor kind (thread = fork-free environments)",
    )
    p_sw.add_argument(
        "--metric",
        default="reject_ratio",
        help="metric to aggregate (see repro.metrics.metric_names())",
    )
    p_sw.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    _add_engine_arg(p_sw)

    p_fl = sub.add_parser(
        "fleet",
        help="shard one workload stream across several simulated clusters",
    )
    p_fl.add_argument(
        "--clusters",
        type=int,
        default=4,
        help="number of member clusters (default: 4)",
    )
    p_fl.add_argument(
        "--policy",
        dest="policies",
        choices=routing_policy_names(),
        action="append",
        default=None,
        metavar="POLICY",
        help="routing policy (repeatable; default: all policies)",
    )
    p_fl.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="EDF-DLT"
    )
    p_fl.add_argument("--nodes", type=int, default=16, help="nodes per cluster")
    p_fl.add_argument("--cms", type=float, default=1.0)
    p_fl.add_argument("--cps", type=float, default=100.0)
    p_fl.add_argument(
        "--load",
        type=float,
        default=0.6,
        help="per-cluster SystemLoad (the shared stream runs at "
        "clusters x this rate)",
    )
    p_fl.add_argument("--avg-sigma", type=float, default=200.0)
    p_fl.add_argument("--dc-ratio", type=float, default=2.0)
    p_fl.add_argument(
        "--speed-spread",
        type=float,
        default=0.0,
        help="per-node heterogeneity within each cluster (see run-point)",
    )
    p_fl.add_argument(
        "--cluster-spread",
        type=float,
        default=0.0,
        help="heterogeneity across clusters: member j's nominal cps spans "
        "[cps(1-s/2), cps(1+s/2)] (0 = identical clusters, < 2)",
    )
    _add_scale_args(p_fl)
    p_fl.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the batch (default: serial)",
    )
    p_fl.add_argument(
        "--workers-mode",
        choices=("process", "thread"),
        default="process",
        help="parallel executor kind (thread = fork-free environments)",
    )
    p_fl.add_argument(
        "--metric",
        default="reject_ratio",
        help="metric to aggregate (see repro.metrics.metric_names())",
    )
    p_fl.add_argument(
        "--per-cluster",
        action="store_true",
        help="also print a per-cluster breakdown of the first replication "
        "(and per-arm learning statistics for bandit policies)",
    )
    learn_defaults = LearnConfig()
    p_fl.add_argument(
        "--learn-arms",
        nargs="+",
        choices=static_routing_policy_names(),
        default=None,
        metavar="ARM",
        help="bandit policies: static policy arms to select among "
        "(default: all static policies)",
    )
    p_fl.add_argument(
        "--learn-mode",
        choices=LEARN_MODES,
        default=learn_defaults.mode,
        help="bandit policies: arms are static routers (policies) or the "
        "member clusters directly (clusters)",
    )
    p_fl.add_argument(
        "--learn-reward",
        choices=reward_model_names(),
        default=learn_defaults.reward,
        help="bandit policies: reward model turning task outcomes into "
        "learning signal",
    )
    p_fl.add_argument(
        "--learn-epsilon",
        type=float,
        default=learn_defaults.epsilon,
        help="epsilon-greedy: exploration probability in [0, 1]",
    )
    p_fl.add_argument(
        "--learn-ucb-c",
        type=float,
        default=learn_defaults.ucb_c,
        help="ucb1: exploration-bonus scale (> 0; 1 = classic UCB1)",
    )
    _add_fault_args(p_fl)
    fmt_fl = p_fl.add_mutually_exclusive_group()
    fmt_fl.add_argument("--json", action="store_true", help="emit all records as JSON")
    fmt_fl.add_argument("--csv", action="store_true", help="emit all records as CSV")

    p_ts = sub.add_parser(
        "trace-summary",
        help="rate/burstiness/size/deadline marginals of an arrival trace "
        "(CSV or Parquet)",
    )
    p_ts.add_argument(
        "trace_file",
        help="trace CSV or .parquet file (see run-scenario --trace-file; "
        "parquet needs the optional pyarrow)",
    )
    p_ts.add_argument(
        "--column",
        default="arrival_time",
        help="arrival-time column of a headered CSV (default: arrival_time)",
    )
    p_ts.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as machine-readable JSON",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run a live admission-control server over a simulated cluster "
        "or fleet (protocol: docs/serving.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (0 = ephemeral; the chosen port is printed on "
        "the 'listening on' line)",
    )
    p_srv.add_argument(
        "--once",
        action="store_true",
        help="exit after the first successful finalize (replay harness mode)",
    )
    p_srv.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose a Prometheus text-format /metrics endpoint on "
        "this port (0 = ephemeral; printed on the 'metrics on' line)",
    )
    _add_serve_shared_args(p_srv)

    p_rp = sub.add_parser(
        "replay",
        help="stream a scenario's task set against a live admission server "
        "and optionally diff the result against the offline simulation",
    )
    p_rp.add_argument(
        "--server",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'repro serve' instance",
    )
    p_rp.add_argument(
        "--check-offline",
        action="store_true",
        help="also run the identical simulation offline and require the "
        "server records to be bit-identical (exit 1 on any diff)",
    )
    p_rp.add_argument(
        "--window",
        type=int,
        default=64,
        help="max submissions kept in flight (pipelining depth)",
    )
    p_rp.add_argument(
        "--codec",
        choices=("json", "msgpack"),
        default="json",
        help="wire codec (msgpack needs the optional dependency on both "
        "ends; frames are self-describing either way)",
    )
    p_rp.add_argument(
        "--json",
        action="store_true",
        help="emit the replay summary as machine-readable JSON",
    )
    p_rp.add_argument(
        "--metrics",
        action="store_true",
        help="also fetch the server's repro.obs metrics snapshot (the "
        "'metrics' op) before finalize and report a digest of it",
    )
    _add_serve_shared_args(p_rp)

    p_pr = sub.add_parser(
        "profile",
        help="capture one admission call stream and profile each engine's "
        "replay of it (decisions/sec + per-phase kernel breakdown)",
    )
    p_pr.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="EDF-DLT")
    p_pr.add_argument(
        "--engines",
        nargs="+",
        choices=ADMISSION_ENGINES,
        default=("fast",),
        metavar="ENGINE",
        help="engines to replay (default: fast; with several, their "
        "decision streams are asserted identical)",
    )
    p_pr.add_argument(
        "--clusters",
        type=int,
        default=1,
        help="member clusters (>1 profiles the fleet member kernel, "
        "probe fan-out included)",
    )
    p_pr.add_argument("--nodes", type=int, default=16, help="nodes per cluster")
    p_pr.add_argument("--cms", type=float, default=1.0)
    p_pr.add_argument("--cps", type=float, default=100.0)
    p_pr.add_argument("--load", type=float, default=0.5)
    p_pr.add_argument("--avg-sigma", type=float, default=200.0)
    p_pr.add_argument("--dc-ratio", type=float, default=2.0)
    p_pr.add_argument(
        "--cluster-spread",
        type=float,
        default=0.0,
        help="heterogeneity across clusters (fleet profiling only)",
    )
    p_pr.add_argument("--total-time", type=float, default=50_000.0)
    p_pr.add_argument("--seed", type=int, default=2007)
    p_pr.add_argument(
        "--reps",
        type=int,
        default=2,
        help="timed replays per engine (best-of; default 2)",
    )
    p_pr.add_argument(
        "--deep-queue",
        action="store_true",
        help="preset: the deep-queue benchmark panel's shape (FIFO-DLT, "
        "load 10.0, dc-ratio 120 — an overloaded stream whose waiting "
        "queue stays ~100 deep, where the prefix-checkpoint store pays); "
        "overrides --algorithm, --load and --dc-ratio",
    )
    p_pr.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="ablate the prefix-checkpoint store (decisions identical; "
        "the prefix_restore phase row disappears and cold walks return)",
    )
    p_pr.add_argument(
        "--json",
        action="store_true",
        help="emit the profile report as machine-readable JSON",
    )

    return parser


def _add_serve_shared_args(p: argparse.ArgumentParser) -> None:
    """Flags shared by ``serve`` and ``replay``.

    Both sides must describe the *same* scenario: the server builds its
    backend from these flags, the replayer generates the task stream —
    and the offline reference run — from them.  The ``hello`` handshake
    cross-checks the two descriptions and refuses a mismatch.
    """
    p.add_argument(
        "--clusters",
        type=int,
        default=1,
        help="member clusters (1 = single-cluster backend, no routing)",
    )
    p.add_argument(
        "--policy",
        choices=routing_policy_names(),
        default="round-robin",
        help="routing policy for a multi-cluster backend (bandits use "
        "their default LearnConfig)",
    )
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="EDF-DLT")
    p.add_argument("--nodes", type=int, default=16, help="nodes per cluster")
    p.add_argument("--cms", type=float, default=1.0)
    p.add_argument("--cps", type=float, default=100.0)
    p.add_argument(
        "--speed-spread",
        type=float,
        default=0.0,
        help="per-node heterogeneity within each cluster (see run-point)",
    )
    p.add_argument(
        "--cluster-spread",
        type=float,
        default=0.0,
        help="heterogeneity across clusters (see fleet)",
    )
    p.add_argument(
        "--load",
        type=float,
        default=0.5,
        help="per-cluster SystemLoad calibrating the Poisson stream",
    )
    p.add_argument("--avg-sigma", type=float, default=200.0)
    p.add_argument("--dc-ratio", type=float, default=2.0)
    p.add_argument(
        "--arrivals",
        choices=("poisson", "trace"),
        default="poisson",
        help="arrival process of the replayed stream",
    )
    p.add_argument(
        "--trace-file",
        default=None,
        help="trace arrivals: .csv, .parquet or bare one-per-line file "
        "(sizes/deadlines still come from the seeded models)",
    )
    p.add_argument("--total-time", type=float, default=200_000.0)
    p.add_argument("--seed", type=int, default=2007)
    _add_engine_arg(p)
    p.add_argument(
        "--node-order",
        choices=NODE_ORDERS,
        default="availability",
        help="tie-break among simultaneously available nodes",
    )
    p.add_argument(
        "--eager-release",
        action="store_true",
        help="hand nodes back at actual rather than estimated completion",
    )
    _add_fault_args(p)


def _serve_fleet_scenario(args: argparse.Namespace) -> FleetScenario:
    """The FleetScenario a ``serve`` / ``replay`` invocation describes."""
    from repro.fleet.routing import ROUTING_POLICIES

    learn = (
        LearnConfig()
        if getattr(ROUTING_POLICIES[args.policy], "learns", False)
        else None
    )
    base = FleetScenario.uniform(
        n_clusters=args.clusters,
        system_load=args.load,
        total_time=args.total_time,
        seed=args.seed,
        policy=args.policy,
        nodes=args.nodes,
        cms=args.cms,
        cps=args.cps,
        avg_sigma=args.avg_sigma,
        dc_ratio=args.dc_ratio,
        speed_spread=args.speed_spread,
        cluster_spread=args.cluster_spread,
        name="serve",
        learn=learn,
    )
    faults = _faults_from_args(args)
    if faults is not None:
        base = base.with_faults(faults)
    if args.arrivals == "trace":
        from dataclasses import replace

        arrivals = _trace_arrivals(args.trace_file)
        base = replace(base, workload=replace(base.workload, arrivals=arrivals))
    return base


def _serve_backend_kwargs(args: argparse.Namespace) -> dict:
    """Backend options shared by the server and the offline reference."""
    return dict(
        node_order=args.node_order,
        admission_engine=args.admission_engine,
        eager_release=args.eager_release,
    )


def _cmd_list_figures() -> int:
    for panel_id, spec in FIGURES.items():
        print(f"{panel_id:<8s} {spec.title}")
    return 0


def _cmd_list_algorithms() -> int:
    for name in algorithm_names():
        print(f"{name:<16s} {ALGORITHMS[name].description}")
    return 0


def _cmd_run_figure(args: argparse.Namespace) -> int:
    spec = FIGURES[args.panel]
    result = run_panel(
        spec,
        loads=tuple(args.loads) if args.loads else DEFAULT_LOADS,
        replications=args.replications,
        total_time=args.total_time,
        seed=args.seed,
        workers=args.workers,
    )
    print(panel_to_csv(result) if args.csv else render_panel(result))
    if args.chart and not args.csv:
        print()
        print(render_chart(result))
    return 0


def _cmd_run_point(args: argparse.Namespace) -> int:
    cluster = _cluster_from_args(args)
    scenario = Scenario(
        cluster=cluster,
        workload=WorkloadModel.paper(
            system_load=args.load,
            avg_sigma=args.avg_sigma,
            dc_ratio=args.dc_ratio,
            cluster=cluster,
        ),
        total_time=args.total_time,
        seed=args.seed,
        name="cli-point",
    )
    result = simulate(
        scenario,
        args.algorithm,
        eager_release=args.eager_release,
        shared_head_link=args.shared_head_link,
        node_order=args.node_order,
        admission_engine=args.admission_engine,
    )
    m = result.metrics
    if args.json:
        payload = m.as_dict()
        payload["validation"] = result.output.validation.summary()
        print(json.dumps(payload, indent=2))
        return 0
    print(f"algorithm            : {m.algorithm}")
    print(f"arrivals             : {m.arrivals}")
    print(f"accepted / rejected  : {m.accepted} / {m.rejected}")
    print(f"task reject ratio    : {m.reject_ratio:.4f}")
    print(f"executed tasks       : {m.executed}")
    print(f"deadline misses      : {m.deadline_misses}")
    print(f"node utilization     : {m.utilization:.4f}")
    print(f"allocated fraction   : {m.allocated_fraction:.4f}")
    print(f"IIT inside allocs    : {m.iit_inside_allocations:.1f} node-time units")
    print(f"mean nodes per task  : {m.mean_nodes_per_task:.2f}")
    print(f"mean estimate slack  : {m.mean_slack:.3f}")
    print(f"validation           : {result.output.validation.summary()}")
    return 0


def _trace_arrivals(trace_file: str | None) -> TraceArrivals:
    """Load a trace-arrivals file: .csv, .parquet, or bare one-per-line."""
    if trace_file is None:
        raise ReproError("--arrivals trace requires --trace-file")
    if trace_file.endswith(".csv"):
        return TraceArrivals.from_csv(trace_file)
    if trace_file.endswith(".parquet"):
        return TraceArrivals.from_parquet(trace_file)
    with open(trace_file, encoding="utf-8") as fh:
        times = [float(line) for line in fh if line.strip()]
    return TraceArrivals.from_sequence(times)


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Compose the Scenario a ``run-scenario`` invocation describes."""
    cluster = _cluster_from_args(args)
    if args.mean_interarrival is not None:
        mean_gap = args.mean_interarrival
    else:
        if args.load <= 0:
            raise InvalidParameterError(f"--load must be > 0, got {args.load}")
        mean_exec = cluster.min_execution_time(args.avg_sigma)
        mean_gap = mean_exec / args.load

    if args.arrivals == "poisson":
        arrivals = PoissonProcess(mean_interarrival=mean_gap)
    elif args.arrivals == "bursty":
        arrivals = MMPPProcess.balanced(mean_gap, burst_factor=args.burst_factor)
    else:  # trace
        arrivals = _trace_arrivals(args.trace_file)

    if args.sizes == "normal":
        sizes = TruncatedNormalSizes(mean=args.avg_sigma)
    elif args.sizes == "uniform":
        lo, hi = (
            tuple(args.size_range)
            if args.size_range is not None
            else (args.avg_sigma / 2.0, 1.5 * args.avg_sigma)
        )
        sizes = UniformSizes(low=lo, high=hi)
    else:  # pareto
        sizes = ParetoSizes(mean=args.avg_sigma, alpha=args.pareto_alpha)

    if args.deadlines == "uniform":
        deadlines = UniformDeadlines.from_dc_ratio(
            args.dc_ratio, args.avg_sigma, cluster
        )
    else:  # proportional
        factor = (
            args.deadline_factor if args.deadline_factor is not None else args.dc_ratio
        )
        deadlines = ProportionalDeadlines(factor=factor)

    return Scenario(
        cluster=cluster,
        workload=WorkloadModel(arrivals=arrivals, sizes=sizes, deadlines=deadlines),
        total_time=args.total_time,
        seed=args.seed,
        name=args.name,
        faults=_faults_from_args(args),
    )


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    validate_metric(args.metric)
    if args.replications < 1:
        raise InvalidParameterError(
            f"--replications must be >= 1, got {args.replications}"
        )
    scenario = _scenario_from_args(args)
    algorithms = args.algorithms or ["EDF-DLT"]

    specs = [
        RunSpec(
            scenario=scenario.with_seed(replication_seed(scenario.seed, rep)),
            algorithm=algorithm,
            labels={"replication": rep},
            eager_release=args.eager_release,
            shared_head_link=args.shared_head_link,
            node_order=args.node_order,
            admission_engine=args.admission_engine,
        )
        for algorithm in algorithms
        for rep in range(args.replications)
    ]
    results = BatchRunner(workers=args.workers, workers_mode=args.workers_mode).run(
        specs
    )

    trace_note: str | None = None
    if args.trace:
        trace_note = _write_scenario_trace(
            args,
            scenario.with_seed(replication_seed(scenario.seed, 0)),
            algorithms[0],
        )

    if args.json:
        print(results.to_json())
        if trace_note:
            print(trace_note, file=sys.stderr)
        return 0
    if args.csv:
        print(results.to_csv(), end="")
        if trace_note:
            print(trace_note, file=sys.stderr)
        return 0

    d = scenario.describe()
    print(
        f"scenario {scenario.name!r}: N={d['nodes']}, Cms={_fmt_cost(d['cms'])}, "
        f"Cps={_fmt_cost(d['cps'])}, arrivals={d['arrivals']}, "
        f"sizes={d['sizes']}, deadlines={d['deadlines']}"
    )
    print(
        f"horizon={scenario.total_time:g}, replications={args.replications}, "
        f"base seed={scenario.seed}, metric={args.metric}"
    )
    print()
    width = max(len(a) for a in algorithms)
    for algorithm in algorithms:
        sub = results.filter(algorithm=algorithm)
        ci = sub.aggregate(args.metric)
        mean_arrivals = sum(r.metrics.arrivals for r in sub) / len(sub)
        print(
            f"{algorithm:<{width}s}  {args.metric} = {ci.mean:.4f} "
            f"± {ci.half_width:.4f}  (n={ci.n}, mean arrivals/run "
            f"{mean_arrivals:.0f})"
        )
    if trace_note:
        print()
        print(trace_note)
    return 0


def _write_scenario_trace(
    args: argparse.Namespace, scenario: Scenario, algorithm: str
) -> str:
    """Traced rerun of one replication; write the span stream to a file.

    The rerun is bit-identical to the untraced batch run of the same
    replication (the repro.obs determinism contract), so the trace
    describes exactly the run whose metrics were just reported.  A
    ``.json`` filename selects the Chrome trace-event format (load it in
    Perfetto / chrome://tracing); anything else gets JSON-lines.
    """
    from repro.obs import Observability

    obs = Observability(trace=True)
    simulate(
        scenario,
        algorithm,
        eager_release=args.eager_release,
        shared_head_link=args.shared_head_link,
        node_order=args.node_order,
        admission_engine=args.admission_engine,
        obs=obs,
    )
    tracer = obs.tracer
    assert tracer is not None  # Observability(trace=True) always builds one
    with open(args.trace, "w", encoding="utf-8") as fp:
        if args.trace.endswith(".json"):
            tracer.write_chrome(fp)
            kind = "chrome trace-event"
        else:
            tracer.write_jsonl(fp)
            kind = "JSON-lines"
    return (
        f"trace: {len(tracer.records)} records ({kind}, {algorithm} "
        f"replication 0) -> {args.trace}"
    )


def _fmt_cost(value: float | int | str) -> str:
    """Render a describe() cost: scalar → %g, vector string → as-is."""
    return f"{value:g}" if isinstance(value, (int, float)) else str(value)


def _cmd_fleet(args: argparse.Namespace) -> int:
    validate_metric(args.metric)
    if args.replications < 1:
        raise InvalidParameterError(
            f"--replications must be >= 1, got {args.replications}"
        )
    policies = tuple(args.policies) if args.policies else routing_policy_names()
    from repro.fleet.routing import ROUTING_POLICIES

    learn = None
    if any(getattr(ROUTING_POLICIES[p], "learns", False) for p in policies):
        learn = LearnConfig(
            arms=tuple(args.learn_arms) if args.learn_arms else (),
            mode=args.learn_mode,
            reward=args.learn_reward,
            epsilon=args.learn_epsilon,
            ucb_c=args.learn_ucb_c,
        )
    base = FleetScenario.uniform(
        n_clusters=args.clusters,
        system_load=args.load,
        total_time=args.total_time,
        seed=args.seed,
        nodes=args.nodes,
        cms=args.cms,
        cps=args.cps,
        avg_sigma=args.avg_sigma,
        dc_ratio=args.dc_ratio,
        speed_spread=args.speed_spread,
        cluster_spread=args.cluster_spread,
        name=f"cli-fleet-{args.clusters}x{args.nodes}",
        learn=learn,
    )
    faults = _faults_from_args(args)
    if faults is not None:
        base = base.with_faults(faults)

    specs = [
        RunSpec(
            scenario=base.with_policy(policy).with_seed(
                replication_seed(base.seed, rep)
            ),
            algorithm=args.algorithm,
            labels={"policy": policy, "replication": rep},
            # --per-cluster prints the rep-0 breakdown from these outputs
            # instead of re-simulating.
            keep_output=args.per_cluster and rep == 0,
        )
        for policy in policies
        for rep in range(args.replications)
    ]
    results = BatchRunner(workers=args.workers, workers_mode=args.workers_mode).run(
        specs
    )

    if args.json:
        print(results.to_json())
        return 0
    if args.csv:
        print(results.to_csv(), end="")
        return 0

    d = base.describe()
    print(
        f"fleet {base.name!r}: {d['clusters']} clusters x {args.nodes} nodes, "
        f"policy x {len(policies)}, algorithm={args.algorithm}"
    )
    print(
        f"per-cluster load={args.load:g}, cluster_spread={args.cluster_spread:g}, "
        f"horizon={base.total_time:g}, replications={args.replications}, "
        f"base seed={base.seed}, metric={args.metric}"
    )
    print()
    width = max(len(p) for p in policies)
    for policy in policies:
        sub = results.filter(policy=policy)
        ci = sub.aggregate(args.metric)
        mean_arrivals = sum(r.metrics.arrivals for r in sub) / len(sub)
        print(
            f"{policy:<{width}s}  {args.metric} = {ci.mean:.4f} "
            f"± {ci.half_width:.4f}  (n={ci.n}, mean arrivals/run "
            f"{mean_arrivals:.0f})"
        )
    if args.per_cluster:
        print()
        for policy in policies:
            [record] = results.filter(policy=policy, replication=0)
            out = record.output
            assert out is not None  # keep_output was set on rep-0 specs
            cells = "  ".join(
                f"[{i}] rr={m.reject_ratio:.3f} util={m.utilization:.3f} "
                f"n={count}"
                for i, (m, count) in enumerate(
                    zip(out.per_cluster, out.routed_counts)
                )
            )
            print(f"{policy:<{width}s}  {cells}")
            if out.learning is not None:
                rep = out.learning
                arms = "  ".join(
                    f"{a.name}: {a.pulls} pulls, mean {a.mean_reward:.3f}"
                    for a in rep.arms
                )
                print(
                    f"{'':<{width}s}  learned[{rep.reward_model}] "
                    f"best={rep.best_arm} "
                    f"regret={rep.cumulative_regret:.1f}  {arms}"
                )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    validate_metric(args.metric)
    shared = dict(
        spreads=args.values,
        system_load=args.load,
        nodes=args.nodes,
        cms=args.cms,
        cps=args.cps,
        avg_sigma=args.avg_sigma,
        dc_ratio=args.dc_ratio,
        replications=args.replications,
        total_time=args.total_time,
        seed=args.seed,
        metric=args.metric,
        workers=args.workers,
        workers_mode=args.workers_mode,
        admission_engine=args.admission_engine,
    )
    if args.axis == "node-order":
        algorithm = (args.algorithms or ["EDF-DLT"])[0]
        result = run_node_order_sweep(algorithm=algorithm, **shared)
        label = f"algorithm={algorithm}"
    else:
        algorithms = tuple(args.algorithms or ("EDF-DLT", "EDF-OPR-MN"))
        result = run_spread_sweep(algorithms=algorithms, **shared)
        label = f"algorithms={','.join(algorithms)}"
    series_keys = tuple(result.series)
    if args.csv:
        print(f"speed_spread,{','.join(series_keys)}")
        for i, spread in enumerate(result.spreads):
            cells = ",".join(
                f"{result.series[k][i].mean:.6f}" for k in series_keys
            )
            print(f"{spread:g},{cells}")
        return 0
    print(
        f"axis={args.axis}, {label}, load={args.load:g}, N={args.nodes}, "
        f"metric={args.metric}, replications={args.replications}, "
        f"horizon={args.total_time:g}"
    )
    print()
    width = max(len(k) for k in series_keys)
    header = "spread".rjust(8) + "  " + "  ".join(k.rjust(width) for k in series_keys)
    print(header)
    for i, spread in enumerate(result.spreads):
        cells = "  ".join(
            f"{result.series[k][i].mean:.4f}".rjust(width) for k in series_keys
        )
        print(f"{spread:8g}  {cells}")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    summary = summarize_trace(args.trace_file, column=args.column)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2))
        return 0
    print(f"trace                : {summary.path}")
    print(f"arrivals             : {summary.count}")
    print(f"span                 : {summary.span:g} time units")
    rate = f"{summary.rate:g}" if summary.count > 1 else "n/a"
    print(f"rate                 : {rate} arrivals/time unit")
    print(
        f"inter-arrival gap    : mean {summary.mean_gap:g}, "
        f"min {summary.min_gap:g}, max {summary.max_gap:g}"
    )
    print(
        f"burstiness (CV^2)    : {summary.gap_cv2:.3f} ({summary.burstiness}; "
        "Poisson = 1)"
    )
    for col in (summary.sigma, summary.deadline):
        if col is not None:
            print(
                f"{col.name:<21s}: mean {col.mean:g} ± {col.std:g} "
                f"[{col.minimum:g}, {col.maximum:g}]"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.backend import make_backend
    from repro.serve.server import AdmissionServer

    scenario = _serve_fleet_scenario(args)
    backend = make_backend(scenario, args.algorithm, **_serve_backend_kwargs(args))

    async def _main() -> Exception | None:
        server = AdmissionServer(
            backend,
            host=args.host,
            port=args.port,
            once=args.once,
            metrics_port=args.metrics_port,
        )
        await server.start()
        host, port = server.address
        print(f"listening on {host}:{port}", flush=True)
        if server.metrics_address is not None:
            m_host, m_port = server.metrics_address
            print(f"metrics on http://{m_host}:{m_port}/metrics", flush=True)
        await server.wait_closed()
        return server.failure

    failure = None
    try:
        failure = asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    if failure is not None:
        print(
            f"backend failed: {type(failure).__name__}: {failure}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.serve.client import AdmissionClient
    from repro.serve.replay import loopback_diff, replay_tasks

    host, sep, port_text = args.server.rpartition(":")
    if not sep or not port_text.isdigit():
        raise InvalidParameterError(
            f"--server must be HOST:PORT, got {args.server!r}"
        )
    scenario = _serve_fleet_scenario(args)
    kwargs = _serve_backend_kwargs(args)
    tasks = scenario.stream_scenario().generate_tasks()

    expected = {
        "kind": "cluster" if scenario.n_clusters == 1 else "fleet",
        "algorithm": args.algorithm,
        "scenario": (
            scenario.member_scenario(0).describe()
            if scenario.n_clusters == 1
            else scenario.describe()
        ),
    }
    latencies: list[float] = []
    metrics_snapshot = None
    with AdmissionClient(host, int(port_text), codec=args.codec) as client:
        assert client.server_info is not None  # set by the handshake
        served = client.server_info["server"]
        if served != expected:
            print("server scenario does not match the replay flags:")
            print(f"  server: {json.dumps(served, sort_keys=True)}")
            print(f"  replay: {json.dumps(expected, sort_keys=True)}")
            return 2
        decisions = replay_tasks(
            client, tasks, window=args.window, latencies=latencies
        )
        if args.metrics:
            metrics_snapshot = client.metrics()
        payload = client.finalize()

    accepted = sum(1 for d in decisions if d["accepted"])
    summary = {
        "server": args.server,
        "kind": payload["kind"],
        "tasks": len(decisions),
        "accepted": accepted,
        "rejected": len(decisions) - accepted,
        "reject_ratio": (
            (len(decisions) - accepted) / len(decisions) if decisions else 0.0
        ),
    }
    percentiles = None
    if latencies:
        import numpy as np

        p50, p95, p99 = np.percentile(latencies, (50.0, 95.0, 99.0))
        percentiles = {
            "p50_ms": float(p50) * 1e3,
            "p95_ms": float(p95) * 1e3,
            "p99_ms": float(p99) * 1e3,
        }
        summary["latency"] = percentiles
    if metrics_snapshot is not None:
        summary["metrics"] = metrics_snapshot

    problems: list[str] = []
    if args.check_offline:
        if scenario.n_clusters == 1:
            result = simulate(
                scenario.member_scenario(0), args.algorithm, **kwargs
            )
            problems = loopback_diff(payload, result.output)
        else:
            from repro.fleet.sim import simulate_fleet

            fleet_out = simulate_fleet(scenario, args.algorithm, **kwargs)
            problems = loopback_diff(payload, fleet_out)
        summary["loopback"] = "ok" if not problems else problems

    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"replayed {summary['tasks']} tasks against {args.server} "
            f"({summary['kind']} backend): {accepted} accepted, "
            f"{summary['rejected']} rejected "
            f"(reject ratio {summary['reject_ratio']:.4f})"
        )
        if percentiles is not None:
            print(
                "client latency (pipeline wait included): "
                f"p50 {percentiles['p50_ms']:.3f} ms, "
                f"p95 {percentiles['p95_ms']:.3f} ms, "
                f"p99 {percentiles['p99_ms']:.3f} ms"
            )
        if metrics_snapshot is not None:
            requests = sum(
                int(cell.get("value", 0))
                for name, cell in sorted(metrics_snapshot.items())
                if name.startswith("serve_requests_total")
                and cell.get("type") == "counter"
            )
            print(
                f"server metrics: {len(metrics_snapshot)} instruments, "
                f"{requests} requests served"
            )
        if args.check_offline and not problems:
            print("loopback OK: server records are bit-identical to the offline run")
        for problem in problems:
            print(f"loopback DIFF: {problem}")
    return 1 if problems else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_admission

    if args.deep_queue:
        # The deep-queue benchmark panel's shape (benchmarks/
        # test_bench_core.py): FIFO ordering + a ~100-deep waiting queue
        # is where prefix checkpointing shows its full effect.
        args.algorithm = "FIFO-DLT"
        args.load = 10.0
        args.dc_ratio = 120.0
    fleet = args.clusters > 1
    scenario: Scenario | FleetScenario
    if fleet:
        scenario = FleetScenario.uniform(
            n_clusters=args.clusters,
            system_load=args.load,
            total_time=args.total_time,
            seed=args.seed,
            nodes=args.nodes,
            cms=args.cms,
            cps=args.cps,
            avg_sigma=args.avg_sigma,
            dc_ratio=args.dc_ratio,
            cluster_spread=args.cluster_spread,
            name="cli-profile",
        )
    else:
        cluster = ClusterProfile.with_spread(args.nodes, args.cms, args.cps)
        scenario = Scenario(
            cluster=cluster,
            workload=WorkloadModel.paper(
                system_load=args.load,
                avg_sigma=args.avg_sigma,
                dc_ratio=args.dc_ratio,
                cluster=cluster,
            ),
            total_time=args.total_time,
            seed=args.seed,
            name="cli-profile",
        )
    report = profile_admission(
        scenario,
        args.algorithm,
        engines=tuple(args.engines),
        reps=args.reps,
        fleet=fleet,
        checkpoint=not args.no_checkpoint,
    )
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    shape = (
        f"{args.clusters} clusters x {args.nodes} nodes"
        if fleet
        else f"{args.nodes} nodes"
    )
    print(
        f"profiled {report['calls']} admission calls ({args.algorithm}, "
        f"{shape}, load={args.load:g}, horizon={args.total_time:g}, "
        f"best of {args.reps})"
    )
    print()
    width = max(len(e) for e in report["engines"])
    for engine, cell in report["engines"].items():
        print(
            f"{engine:<{width}s}  {cell['seconds'] * 1e3:9.2f} ms  "
            f"{cell['decisions_per_sec']:12,.0f} decisions/sec"
        )
    for engine, cell in report["engines"].items():
        if not cell["phases"]:
            continue
        total = sum(row["seconds"] for row in cell["phases"]) or 1.0
        print()
        print(f"{engine} phases (profiled replay):")
        for row in cell["phases"]:
            print(
                f"  {row['phase']:<16s} {row['seconds'] * 1e3:9.2f} ms  "
                f"{row['seconds'] / total * 100.0:5.1f}%  "
                f"({row['calls']} spans)"
            )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list-figures":
        return _cmd_list_figures()
    if args.command == "list-algorithms":
        return _cmd_list_algorithms()
    if args.command == "run-figure":
        return _cmd_run_figure(args)
    if args.command == "run-point":
        return _cmd_run_point(args)
    if args.command == "run-scenario":
        return _cmd_run_scenario(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "trace-summary":
        return _cmd_trace_summary(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "profile":
        return _cmd_profile(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
