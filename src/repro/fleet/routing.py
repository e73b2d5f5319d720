"""Routing policies: which member cluster receives the next arrival.

The router sits in front of N independent cluster schedulers and decides,
*at each task's arrival instant*, which cluster's head node the task is
submitted to.  Policies range from state-blind (``round-robin``,
``random-weighted``) to state-aware (``least-loaded``) to model-aware
(``earliest-finish``, which runs each cluster's own admission analysis as
a what-if probe).  Multi-source DLT scheduling (Cao/Wu/Robertazzi) and RL
distribution-sequencing results both show this choice dominates
reject-ratio once clusters are heterogeneous — the policies here are the
classical deterministic ends of that spectrum.

Every policy is deterministic given the fleet seed: ``random-weighted``
draws from the scenario's dedicated routing stream, and all tie-breaks
fall back to the lowest cluster index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.task import DivisibleTask

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

    from repro.learn.config import LearnConfig
    from repro.learn.feedback import RoutingFeedback

__all__ = [
    "ROUTING_POLICIES",
    "ClusterView",
    "EarliestFinish",
    "LeastLoaded",
    "RandomWeighted",
    "RoundRobin",
    "RoutingPolicy",
    "make_routing_policy",
    "routing_policy_names",
    "static_routing_policy_names",
    "validate_routing_policy",
]


@dataclass(frozen=True, slots=True)
class ClusterView:
    """Read-only snapshot of one member cluster at a routing instant.

    Attributes
    ----------
    index:
        Member position within the fleet (the value policies return).
    nodes:
        Cluster size ``N``.
    capacity:
        Aggregate processing capacity ``sum(1 / Cps_i)`` — work units per
        time unit with every node busy (the ``random-weighted`` weights).
    outstanding:
        Admitted-but-unfinished tasks (waiting + running) on this cluster.
    backlog_fn:
        Zero-argument callable returning :attr:`backlog`.  The snapshot
        holds the computation rather than its value because most
        policies never read it: only ``least-loaded``, the
        ``earliest-finish`` fallback and learning feedback do, all before
        the routed task is submitted.
    probe:
        ``probe(task)`` runs the cluster's own schedulability test as a
        what-if and returns the estimated completion time the cluster
        would commit to, or ``None`` when the cluster would reject the
        task.  Probes never touch scheduling state (reservations, queues,
        counters); for stochastic partitioners (User-Split) a probe may
        consume the member's per-task algorithm draw, which is
        deterministic — exactly one draw per stream task, in arrival
        order, reused if the task is then routed there.
    up:
        ``False`` while the member sits inside a fault blackout window
        (every node down).  State-aware policies steer around downed
        members; state-blind ones (``round-robin``) ignore it, which is
        exactly what makes them the baseline under churn.  Admission on a
        downed member still runs honestly — its node availability is
        floored at the recovery instant, so most submissions bounce.
    """

    index: int
    nodes: int
    capacity: float
    outstanding: int
    backlog_fn: Callable[[], float]
    probe: Callable[[DivisibleTask], float | None]
    up: bool = True

    @property
    def backlog(self) -> float:
        """Mean reserved node-time beyond ``now`` (how far ahead the
        cluster's nodes are committed), computed on each read."""
        return self.backlog_fn()


class RoutingPolicy(ABC):
    """Strategy interface: pick a member cluster for each arrival.

    Policies may keep per-run state (cycling counters, RNG streams); the
    fleet simulation builds a fresh instance per run via
    :func:`make_routing_policy`, so a scenario stays frozen and picklable.
    """

    #: Registry name of the policy (e.g. ``"round-robin"``).
    name: str = "abstract"

    #: Whether the policy consumes outcome feedback (:meth:`observe`).
    #: The fleet simulation skips the feedback machinery entirely for
    #: policies that leave this ``False``, so static routing stays as
    #: cheap as it was before the learning layer existed.
    learns: ClassVar[bool] = False

    @abstractmethod
    def route(self, task: DivisibleTask, views: Sequence[ClusterView]) -> int:
        """Return the index of the cluster that receives ``task``.

        ``views`` is ordered by member index and freshly snapshotted at
        the task's arrival time; implementations must return an index in
        ``range(len(views))`` and must not mutate cluster scheduling
        state (probing via :attr:`ClusterView.probe` is allowed — see its
        contract).
        """

    def observe(self, feedback: "RoutingFeedback") -> None:
        """Consume one per-task outcome report (no-op for static policies).

        The fleet simulation calls this with a
        :class:`~repro.learn.feedback.RoutingFeedback` after each routed
        task's admission test, and again when the task completes —
        learning policies (``learns = True``) update their arm statistics
        here; the default implementation ignores the feedback.
        """


class RoundRobin(RoutingPolicy):
    """Cycle through member clusters in index order, one task each.

    State-blind and load-blind: the right baseline, and near-optimal when
    clusters are identical and the stream is smooth.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, task: DivisibleTask, views: Sequence[ClusterView]) -> int:
        """Return the next cluster in the cycle."""
        index = self._next % len(views)
        self._next = index + 1
        return index


class RandomWeighted(RoutingPolicy):
    """Pick a cluster at random, weighted by processing capacity.

    The classic stateless sharder: cluster ``j`` receives a task with
    probability proportional to ``sum_i(1 / Cps_i)`` over its nodes, so a
    2× faster cluster absorbs 2× the stream on average.  Draws come from
    the fleet scenario's dedicated routing stream — same seed, same
    routing sequence, regardless of what happens inside the clusters.
    """

    name = "random-weighted"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng()
        self._weights: "NDArray[np.float64] | None" = None

    def route(self, task: DivisibleTask, views: Sequence[ClusterView]) -> int:
        """Draw one cluster index from the capacity-weighted distribution."""
        if self._weights is None or self._weights.size != len(views):
            caps = np.asarray([v.capacity for v in views], dtype=np.float64)
            self._weights = caps / caps.sum()
        return int(self.rng.choice(len(views), p=self._weights))


class LeastLoaded(RoutingPolicy):
    """Route to the cluster with the fewest outstanding tasks.

    Joins the shortest queue: primary key is member health (up members
    beat blacked-out ones), then admitted-but-unfinished task count, ties
    broken by the smaller reserved backlog (mean committed node-time
    beyond now), then by cluster index.  Reacts to load imbalance — and,
    under fault injection, to member blackouts — without any model of the
    task itself.
    """

    name = "least-loaded"

    def route(self, task: DivisibleTask, views: Sequence[ClusterView]) -> int:
        """Return the argmin of (not up, outstanding, backlog, index)."""
        return min(
            views, key=lambda v: (not v.up, v.outstanding, v.backlog, v.index)
        ).index


class EarliestFinish(RoutingPolicy):
    """Route to the cluster whose admission analysis finishes the task first.

    For each cluster the router runs the *actual* schedulability test
    (policy order, partitioner, per-node availability — the full Figure 2
    machinery of that cluster) as a what-if and reads off the estimated
    completion the cluster would guarantee.  The task goes to the earliest
    estimate; clusters that would reject are skipped.  When every cluster
    would reject, the task falls back to the least-loaded choice — it is
    (almost certainly) rejected there, and the reject is counted on that
    cluster.

    This is the DLT-aware policy: it sees through heterogeneity (a fast
    cluster with a deep queue vs. a slow idle one) at the cost of N
    admission probes per arrival.
    """

    name = "earliest-finish"

    def route(self, task: DivisibleTask, views: Sequence[ClusterView]) -> int:
        """Return the admitting cluster with the earliest estimate."""
        best_index: int | None = None
        best_completion = np.inf
        for view in views:
            completion = view.probe(task)
            if completion is not None and completion < best_completion:
                best_completion = completion
                best_index = view.index
        if best_index is not None:
            return best_index
        return LeastLoaded().route(task, views)


#: Registry of routing policies, keyed by CLI/scenario name.  The
#: learning layer (``repro.learn.bandits``) registers its bandit policies
#: here on import; the accessors below trigger that import lazily so the
#: full registry is visible without callers importing ``repro.learn``.
ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    RoundRobin.name: RoundRobin,
    RandomWeighted.name: RandomWeighted,
    LeastLoaded.name: LeastLoaded,
    EarliestFinish.name: EarliestFinish,
}


def _ensure_learning_policies() -> None:
    """Pull the bandit policies into the registry (idempotent)."""
    import repro.learn.bandits  # noqa: F401  (registers on import)


def routing_policy_names() -> tuple[str, ...]:
    """All registered routing-policy names (static + learning), sorted."""
    _ensure_learning_policies()
    return tuple(sorted(ROUTING_POLICIES))


def static_routing_policy_names() -> tuple[str, ...]:
    """The non-learning routing-policy names, sorted (the bandit arms)."""
    _ensure_learning_policies()
    return tuple(
        sorted(
            name
            for name, cls in ROUTING_POLICIES.items()
            if not getattr(cls, "learns", False)
        )
    )


def validate_routing_policy(name: str) -> str:
    """Return ``name`` if it names a routing policy, else raise."""
    _ensure_learning_policies()
    if name not in ROUTING_POLICIES:
        raise InvalidParameterError(
            f"unknown routing policy {name!r}; "
            f"valid: {', '.join(routing_policy_names())}"
        )
    return name


def make_routing_policy(
    name: str,
    *,
    rng: np.random.Generator | None = None,
    learn: "LearnConfig | None" = None,
    learning_rng: np.random.Generator | None = None,
) -> RoutingPolicy:
    """Instantiate a fresh, per-run routing policy by registry name.

    ``rng`` seeds stochastic policies (``random-weighted``) — and is the
    stream a bandit hands to its stochastic policy arms, so a bandit
    pinned to ``random-weighted`` replays the static run exactly.
    ``learn``/``learning_rng`` configure and seed bandit policies
    (ignored by static ones): the learning stream is dedicated, so bandit
    draws never perturb routing/workload/algorithm randomness.
    """
    validate_routing_policy(name)
    cls = ROUTING_POLICIES[name]
    if getattr(cls, "learns", False):
        return cls(config=learn, rng=learning_rng, routing_rng=rng)  # type: ignore[call-arg]
    if cls is RandomWeighted:
        return RandomWeighted(rng)
    return cls()
