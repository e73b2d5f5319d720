"""Fast admission engine: the Figure-2 schedulability test, optimized.

:class:`FastSchedulabilityTest` is a drop-in replacement for
:class:`repro.core.admission.SchedulabilityTest` that produces **bit-identical**
:class:`~repro.core.admission.AdmissionDecision` streams while doing far less
work per call.  The reference implementation stays exactly where it was — the
property suite (``tests/test_fastpath_properties.py``) replays random
scenarios through both engines and asserts record-by-record equality.

Why this module exists
----------------------
Every metric in the paper flows through the schedulability test, and the test
is the system's hot path cubed: each arrival re-plans the *entire* waiting
queue, each re-plan scans candidate node counts, and the fleet's probing
routers multiply that by one full admission test per member cluster per task.
Six coordinated optimizations attack that cost without changing a single
output bit:

1. **Per-task plan memoization** — a placement depends only on the task, the
   availability vector the walk hands it, and (for the paper's ``ñ_min`` /
   ``n_min`` rules) the admission-test time through the node-count bound.
   The engine caches each task's last computed plan keyed on the raw
   availability bytes and revalidates the cheap scalar node-count bound; when
   the queue prefix ahead of a newcomer's EDF slot is undisturbed (and under
   load it almost always is), the whole prefix replays as cache hits.  The
   same mechanism makes a fleet probe followed by a routed submission cost
   one test instead of two.
2. **Scalar placement kernels** — the DLT-IIT and OPR placement paths
   are re-implemented on Python floats with the *same arithmetic
   operations in the same order* as
   :func:`repro.core.het_model.build_model` /
   :func:`repro.core.dlt.het_alphas` (so results are bitwise equal), and
   without the per-call validation, intermediate dataclasses and NumPy
   dispatch of the reference path.  Every cluster has a handful of
   nodes, where a NumPy call costs more than the arithmetic it runs.
   Exactness rests on four facts: IEEE-754 element-wise operations round
   the same in NumPy and Python; ``sorted`` is the stable argsort (a
   ``(floored, tiebreak)`` key is ``np.lexsort``); ``np.cumprod`` is a
   sequential product; and :func:`_pairwise_sum` replays
   ``np.add.reduce``'s summation order.
3. **Monotonicity-aware candidate search** — the ``fixed_point_node_count``
   ablation's ``k = 1..N`` scan exploits that the node-count bound is
   non-decreasing in ``k``: the scan starts at the ``ñ_min`` lower bound,
   jumps over candidates that cannot satisfy ``n_req <= k``, skips repeated
   ``n_req`` values whose placement already failed, and shares one prefix
   cumprod across all heterogeneous candidate evaluations
   (:class:`_SharedPrefixAlphas`) instead of recomputing the recurrence per
   ``k``.
4. **Scratch buffers** — the walk works on preallocated vectors instead
   of building a :class:`~repro.core.reservations.NodeReservations` copy and
   fresh availability arrays per task.
5. **Prefix checkpoints** — consecutive admission tests usually walk the
   *same* queue prefix against the *same* committed availability: a
   newcomer perturbs the walk only from its policy-order slot onward, and
   the committed state changes only when the scheduler dispatches,
   eagerly releases, or floors a fault outage (all of which bump
   :attr:`repro.core.reservations.NodeReservations.epoch`).  The engine
   therefore keeps the last walk's per-position placements and replays the
   longest still-valid prefix with a handful of scalar writes instead of
   re-deriving it, re-validating the paper rule's ``now``-dependent
   node-count bound per position through the guard-banded threshold table
   (certain answers only; any doubt falls back to a cold walk).  Admission
   cost becomes proportional to what changed, not to queue depth.
6. **Depth-0 admission** — in the paper's regime (load <= 1, small
   DCRatio) nearly every test runs against an empty waiting queue, where
   the walk is one placement of the newcomer.  Such a test skips the
   queue-order rebuild, the strided restore and the memo sweep, and
   updates the walk's state directly (:meth:`_admit_alone`).  Queue
   depth, a property of the input, selects the path — there is no knob.

Partitioners the engine does not specialize (multi-round plans, third-party
strategies) and stochastic re-draw configurations (User-Split with
``redraw_on_replan=True``, whose RNG stream consumption must match call for
call) transparently fall back to the reference implementation, so the engine
is always safe to enable.  :func:`make_admission_test` is the factory the
scheduler uses; ``engine="reference"`` selects the original implementation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core import dlt
from repro.core.admission import AdmissionDecision, SchedulabilityTest
from repro.core.cluster import ClusterProfile
from repro.core.errors import InvalidParameterError
from repro.core.partition import (
    DltIitPartitioner,
    OprPartitioner,
    Partitioner,
    PlacementPlan,
    UserSplitPartitioner,
    feasible_by,
)
from repro.core.policies import SchedulingPolicy
from repro.core.reservations import NodeReservations
from repro.core.task import DivisibleTask

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

__all__ = [
    "ADMISSION_ENGINES",
    "DEFAULT_ADMISSION_ENGINE",
    "FastSchedulabilityTest",
    "make_admission_test",
    "validate_admission_engine",
]

#: Valid admission-engine names: ``"fast"`` (this module, the default) and
#: ``"reference"`` (the original :class:`SchedulabilityTest`).  Both
#: produce bit-identical decision streams.
ADMISSION_ENGINES: tuple[str, ...] = ("fast", "reference")

#: The admission engine every entry point uses unless told otherwise
#: (simulation, fleet, experiments, the serve backends and the CLI).
DEFAULT_ADMISSION_ENGINE = "fast"

#: Checkpoint snapshot stride: a full copy of the scratch availability
#: vector is stored after every ``_CKPT_STRIDE``-th queue position, so a
#: prefix restore costs one vector copy plus at most ``_CKPT_STRIDE - 1``
#: per-position completion replays — O(1) in queue depth.
_CKPT_STRIDE = 16


def validate_admission_engine(engine: str) -> str:
    """Return ``engine`` if it names an admission engine, else raise."""
    if engine not in ADMISSION_ENGINES:
        raise InvalidParameterError(
            f"unknown admission engine {engine!r}; "
            f"valid: {', '.join(ADMISSION_ENGINES)}"
        )
    return engine


def make_admission_test(
    policy: SchedulingPolicy,
    partitioner: Partitioner,
    cluster: ClusterProfile,
    *,
    engine: str = DEFAULT_ADMISSION_ENGINE,
    obs=None,
    checkpoint: bool = True,
) -> "SchedulabilityTest | FastSchedulabilityTest":
    """Build the admission test for a scheduler.

    ``engine="fast"`` (default) returns the optimized engine of this
    module; ``engine="reference"`` the original walk.  Both produce
    bit-identical decisions — the choice only trades speed against
    simplicity.  ``obs`` (an :class:`repro.obs.Observability`) wires the
    fast engine's plan-cache counters and admission spans onto the
    caller's registry and tracer; the reference engine carries no
    instrumentation (it is the untouched ground truth) and ignores it.
    ``checkpoint=False`` disables the fast engine's prefix-checkpoint
    store (the benchmark ablation axis); decisions are identical either
    way.
    """
    validate_admission_engine(engine)
    if engine == "reference":
        return SchedulabilityTest(policy, partitioner, cluster)
    return FastSchedulabilityTest(
        policy, partitioner, cluster, obs=obs, checkpoint=checkpoint
    )


#: Sentinel marking "node-count token not precomputed" in placement calls.
_UNSET = object()


def _trusted_plan(
    task: DivisibleTask,
    method: str,
    node_ids: tuple[int, ...],
    release_times: tuple[float, ...],
    dispatch_releases: tuple[float, ...],
    alphas: tuple[float, ...],
    est_completion: float,
) -> PlacementPlan:
    """Build a :class:`PlacementPlan` whose invariants hold by construction.

    The kernels take node ids from an argsort prefix (unique by
    construction) and all vectors from the same prefix length, so the
    ``__post_init__`` validation pass is redundant on this path.  Field
    values are exactly what the reference constructor would store, so
    plans compare equal across engines.
    """
    plan = PlacementPlan.__new__(PlacementPlan)
    set_ = object.__setattr__
    set_(plan, "task", task)
    set_(plan, "method", method)
    set_(plan, "node_ids", node_ids)
    set_(plan, "release_times", release_times)
    set_(plan, "dispatch_releases", dispatch_releases)
    set_(plan, "alphas", alphas)
    set_(plan, "est_completion", est_completion)
    set_(plan, "explicit_chunks", None)
    return plan


def _pairwise_sum(v: list[float]) -> float:
    """``np.add.reduce`` of ``v`` on Python floats, bit for bit.

    NumPy sums a contiguous float64 vector pairwise: sequentially below 8
    elements; up to 128 in eight interleaved lanes folded as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus a sequential tail; and
    above that by recursive halving at a multiple of 8.  The reduction
    starts from the identity ``0.0``.  Replaying that order makes every
    sum here equal the one the reference computes.
    """
    n = len(v)
    if n < 8:
        res = 0.0
        for x in v:
            res += x
        return res
    return 0.0 + _pairwise_block(v, 0, n)


def _pairwise_block(v: list[float], lo: int, n: int) -> float:
    """NumPy's pairwise kernel on ``v[lo:lo + n]`` for ``n >= 8``."""
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = v[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += v[i]
            r1 += v[i + 1]
            r2 += v[i + 2]
            r3 += v[i + 3]
            r4 += v[i + 4]
            r5 += v[i + 5]
            r6 += v[i + 6]
            r7 += v[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += v[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_block(v, lo, n2) + _pairwise_block(v, lo + n2, n - n2)


def _ratio_products(cms: list[float], cps: list[float]) -> list[float]:
    """Running products of ``X_i = Cps_{i-1} / (Cms_i + Cps_i)``, i >= 2
    (``np.cumprod`` is a sequential product, and ``1.0 * X_2 == X_2``)."""
    prods = []
    p = 1.0
    for i in range(1, len(cps)):
        p *= cps[i - 1] / (cms[i] + cps[i])
        prods.append(p)
    return prods


def _normalized(prods: list[float]) -> list[float]:
    """``[1, *prods] / (1 + sum(prods))`` — the fractions of Eq. 4-5."""
    denom = 1.0 + _pairwise_sum(prods)
    return [1.0 / denom] + [q / denom for q in prods]


def _alphas(cms: list[float], cps: list[float]) -> list[float]:
    """Equal-finish fractions (Eq. 4-5): ``dlt.het_alphas`` on floats."""
    if len(cps) == 1:
        return [1.0]
    return _normalized(_ratio_products(cms, cps))


def _dot_sum(a: list[float], b: list[float]) -> float:
    """``(a * b).sum()`` as NumPy computes it."""
    return _pairwise_sum([x * y for x, y in zip(a, b)])


class _SharedPrefixAlphas:
    """Equal-finish fractions for every prefix of one ordered node set.

    The heterogeneous recurrence ratios ``X_i = Cps_{i-1}/(Cms_i + Cps_i)``
    depend only on the intrinsic costs of the ordered candidates, so every
    candidate prefix of the ``fixed_point_node_count`` scan shares one
    running product.  A prefix of a sequential product *is* the product
    of the prefix, and the normalizer's pairwise sum depends only on the
    summed values, so :meth:`alphas` equals :func:`_alphas` on the prefix
    (and so ``dlt.het_alphas``) while computing the shared part once.
    """

    __slots__ = ("cms", "cps", "_prods")

    def __init__(self, cms: list[float], cps: list[float]) -> None:
        self.cms = cms
        self.cps = cps
        self._prods: list[float] | None = None

    def alphas(self, n: int) -> list[float]:
        """Fractions for the first ``n`` candidates (``het_alphas`` bitwise)."""
        if n == 1:
            return [1.0]
        if self._prods is None:
            self._prods = _ratio_products(self.cms, self.cps)
        return _normalized(self._prods[: n - 1])


class _MemoEntry:
    """One task's last computed placement, keyed for exact revalidation."""

    __slots__ = ("key", "n_req", "plan", "ids", "ckpt_win")

    def __init__(
        self,
        key: bytes,
        n_req: int | None,
        plan: PlacementPlan | None,
        ids: list[int] | None,
    ) -> None:
        self.key = key
        self.n_req = n_req
        self.plan = plan
        self.ids = ids
        #: Lazily computed certain test-time window ``(t_lo, t_hi)`` of
        #: this placement's node-count token (see ``_ckpt_window``).
        self.ckpt_win: tuple[float, float] | None = None


#: Relative guard band around each node-count threshold.  Inside the band
#: the comparison-based classification abstains and the exact scalar bound
#: runs instead; outside it, libm's few-ulp errors (~1e-16 relative) cannot
#: flip the comparison, so the table's answer equals the scalar one.
_BOUND_EPS = 1e-9


class _NodeBoundTable:
    """Guard-banded ``ñ_min`` / ``n_min`` thresholds on ``g``.

    The paper bound (Eq. 14 / [22]) is ``n_req = ceil(v - rtol)`` with
    ``v = log(g)/log(beta)`` clamped to ``[1, N]`` (``None`` beyond ``N``).
    Since ``log(beta) < 0`` and ``g`` enters monotonically, ``n_req <= m``
    exactly when ``g >= B[m] = exp((m + rtol) * log(beta))``.  The table
    stores ``B[N..1]`` ascending, widened by a guard band (``lo``/``hi``)
    that covers the cases libm error could in principle decide.  The
    checkpoint restore uses it to certify, with float comparisons only,
    that a stored position's node-count token is unchanged at a new test
    time; any ``g`` inside a band falls back to the exact scalar bound.
    """

    __slots__ = ("lo", "hi", "n")

    def __init__(self, n: int, log_b: float) -> None:
        asc = [
            math.exp((m + dlt.FEASIBILITY_RTOL) * log_b)
            for m in range(n, 0, -1)
        ]
        self.lo = [v * (1.0 + _BOUND_EPS) for v in asc]
        self.hi = [v * (1.0 - _BOUND_EPS) for v in asc]
        self.n = n


class FastSchedulabilityTest:
    """Optimized, bit-identical Figure-2 schedulability test.

    Same constructor and :meth:`try_admit` contract as
    :class:`~repro.core.admission.SchedulabilityTest`; see the module
    docstring for the optimization inventory.  Unknown partitioner types
    delegate to an internal reference instance, so behaviour never diverges.

    Observability (``obs``, optional) adds per-engine plan-cache
    hit/miss counters and — when a tracer is attached — admission spans;
    the public ``profile`` attribute accepts a
    :class:`repro.obs.profile.PhaseProfile` for opt-in wall-clock phase
    timing.  All three read simulated state only: decisions are
    bit-identical with or without them (the zero-perturbation contract
    of :mod:`repro.obs`, asserted by the property suite).
    """

    #: Engine label carried into per-engine metric labels.
    engine_name = "fast"

    def __init__(
        self,
        policy: SchedulingPolicy,
        partitioner: Partitioner,
        cluster: ClusterProfile,
        *,
        obs=None,
        checkpoint: bool = True,
    ) -> None:
        self.policy = policy
        self.partitioner = partitioner
        self.cluster = cluster
        #: Opt-in wall-clock phase profile (``repro profile`` attaches one).
        self.profile = None
        self._tracer = obs.tracer if obs is not None else None
        if obs is not None:
            labels = {"engine": self.engine_name}
            self._cache_hits = obs.registry.counter(
                "admission_plan_cache_hits_total",
                "Admission walks served from the per-task plan memo.",
                labels=labels,
            )
            self._cache_misses = obs.registry.counter(
                "admission_plan_cache_misses_total",
                "Admission placements recomputed by the kernel.",
                labels=labels,
            )
            self._ckpt_hits = obs.registry.counter(
                "admission_ckpt_hits_total",
                "Admission walks that restored a checkpointed queue prefix.",
                labels=labels,
            )
            self._ckpt_misses = obs.registry.counter(
                "admission_ckpt_misses_total",
                "Admission walks rebuilt cold (no valid prefix checkpoint).",
                labels=labels,
            )
            self._ckpt_tasks = obs.registry.counter(
                "admission_ckpt_tasks_total",
                "Queued placements replayed from the prefix checkpoint.",
                labels=labels,
            )
        else:
            self._cache_hits = None
            self._cache_misses = None
            self._ckpt_hits = None
            self._ckpt_misses = None
            self._ckpt_tasks = None

        self._n = cluster.nodes
        self._homog = cluster.is_homogeneous
        self._cms = cluster.cms if self._homog else 0.0
        self._cps = cluster.cps if self._homog else 0.0
        self._worst_cms = cluster.worst_cms
        self._worst_cps = cluster.worst_cps
        #: ``log(beta)`` at the worst-case costs — the only transcendental
        #: the ``ñ_min`` / ``n_min`` bounds need, hoisted out of the hot
        #: path (``math.log1p`` is deterministic, so caching is exact).
        self._log_b_worst = math.log1p(
            -self._worst_cms / (self._worst_cms + self._worst_cps)
        )
        if self._homog:
            # E(sigma, n) = [(1-b)/(1-b^n)] * sigma * (Cms+Cps): the
            # bracket depends only on n, so tabulate it once per node
            # count.  Same subexpressions, same evaluation order as
            # ``dlt.execution_time`` — bitwise-identical results.
            b = self._cps / (self._cms + self._cps)
            self._exec_coeff = tuple(
                (1.0 - b) / -math.expm1(n * self._log_b_worst)
                for n in range(1, self._n + 1)
            )
            self._cost_sum = self._cms + self._cps
        else:
            self._exec_coeff = ()
            self._cost_sum = 0.0

        #: Per-node intrinsic costs by node id, as Python floats for the
        #: scalar kernels (uniform lists on a homogeneous cluster).
        self._cms_l: list[float] = cluster.cms_array.tolist()
        self._cps_l: list[float] = cluster.cps_array.tolist()
        #: Homogeneous OPR fractions by node count, ``dlt.opr_alphas``
        #: itself evaluated once per ``n`` on first use (they depend on
        #: nothing else).
        self._opr_alphas: list[tuple[float, ...] | None] = [None] * (self._n + 1)
        self._temp = np.empty(self._n, dtype=np.float64)
        self._memo: dict[int, _MemoEntry] = {}
        #: Last computed queue order (policy-sorted), reused incrementally.
        self._order_cache: list[DivisibleTask] | None = None
        self._memo_enabled = True
        #: Recompute the now-dependent node-count token on memo hits
        #: (``None`` for rules whose placement does not depend on ``now``).
        self._token: Callable[[DivisibleTask, float], int | None] | None = None
        self._delegate: SchedulabilityTest | None = None
        self._fallback_test: SchedulabilityTest | None = None

        node_order = getattr(partitioner, "node_order", "availability")
        #: Per-node tie-break key among equally available candidates
        #: (``None``: node id, the paper's order).
        self._tiebreak: list[float] | None = (
            None
            if node_order == "availability"
            else self._cps_l if node_order == "fastest-first" else self._cms_l
        )

        place: Callable[..., _MemoEntry] | None = None
        #: Placement kernel of the specialized partitioners: DLT-IIT or OPR.
        self._kernel: Callable[..., tuple | None] | None = None
        if type(partitioner) in (DltIitPartitioner, OprPartitioner):
            self._kernel = (
                self._dlt_kernel
                if type(partitioner) is DltIitPartitioner
                else self._opr_kernel
            )
            if partitioner.assign_all_nodes:
                place = self._place_all_nodes
            elif partitioner.fixed_point_node_count:
                place = self._place_fixed_point
            else:
                place = self._place_paper_rule
                self._token = self._node_count_token
        elif type(partitioner) is UserSplitPartitioner:
            place = self._place_via_partitioner
            # Figure 2's literal reading re-rolls the user's node request on
            # every re-plan; skipping any place() call would desynchronize
            # the RNG stream, so memoization must stay off.
            self._memo_enabled = not partitioner.redraw_on_replan
        else:
            self._delegate = SchedulabilityTest(policy, partitioner, cluster)
        self._place = place

        #: Guard-banded node-count threshold table (checkpoint token
        #: revalidation).
        self._bound_table = _NodeBoundTable(self._n, self._log_b_worst)
        # -- prefix checkpoint state (see _ckpt_restore) -------------------
        #: Whether the prefix-checkpoint store is active.  Off when the
        #: caller ablates it, when memoization is off (stochastic re-draw
        #: partitioners must consume RNG per position) and when the
        #: partitioner delegates to the reference walk.
        self._ckpt_enabled = (
            bool(checkpoint) and self._memo_enabled and self._delegate is None
        )
        #: Per-position ``(task, entry, node_ids, completion)`` of the last
        #: walk, in policy order.
        self._ckpt_items: list[tuple] = []
        #: Task ids matching ``_ckpt_items`` (prefix comparison key).
        self._ckpt_tids: list[int] = []
        self._ckpt_valid = False
        self._ckpt_res: NodeReservations | None = None
        self._ckpt_epoch = -1
        self._ckpt_now = math.nan
        #: Floored availability base the checkpointed walk started from.
        self._ckpt_base = np.empty(self._n, dtype=np.float64)
        #: Staging buffer for a cold walk's base (promoted on commit).
        self._ckpt_newbase = np.empty(self._n, dtype=np.float64)
        #: Strided scratch-vector snapshots (row ``r`` = state after
        #: position ``(r + 1) * _CKPT_STRIDE - 1``) and the running buffer
        #: :meth:`_ckpt_splice` rebuilds them with.
        self._ckpt_snap: "NDArray[np.float64] | None" = None
        self._ckpt_run = np.empty(self._n, dtype=np.float64)
        #: Newcomer's slot in the last ordered queue (see
        #: :meth:`_ordered_queue`); bounds the committed-queue prefix a
        #: rejected cold walk may re-seed the store with.
        self._insert_pos = 0
        #: ``tuple(waiting)`` of the previous call and the common prefix
        #: between this walk's order and the previous one (``-1`` =
        #: unknown, recomputed by the restore's per-position scan).
        self._order_waiting: tuple | None = None
        self._order_common = -1
        #: Agreement length between the store and ``_order_cache`` —
        #: chained through ``_order_common`` each walk so the restore's
        #: queue-prefix match is O(1), not O(prefix).
        self._ckpt_sync = -1
        # Token-constancy columns (paper rule only), grown on demand: the
        # cumulative test-time window [wlo, whi] within which every
        # position up to this one certainly keeps its stored node count.
        self._ckpt_cap = 0
        self._ckpt_wlo: "NDArray[np.float64] | None" = None
        self._ckpt_whi: "NDArray[np.float64] | None" = None

    # -- the walk ---------------------------------------------------------
    def try_admit(
        self,
        new_task: DivisibleTask,
        waiting: Sequence[DivisibleTask],
        reservations: NodeReservations,
        now: float,
    ) -> AdmissionDecision:
        """Run the test for ``new_task`` against the committed state.

        Same contract (and bit-identical result) as
        :meth:`repro.core.admission.SchedulabilityTest.try_admit`.
        """
        if self._delegate is not None:
            return self._delegate.try_admit(new_task, waiting, reservations, now)
        if reservations.nodes != self._n:
            return self._fallback().try_admit(new_task, waiting, reservations, now)
        # An empty queue (the paper regime's common case) is one placement;
        # the phase profile keeps the full walk, whose phases it times.
        walk = (
            self._admit_walk
            if waiting or self.profile is not None
            else self._admit_alone
        )
        tracer = self._tracer
        if tracer is None:
            return walk(new_task, waiting, reservations, now)
        with tracer.span(
            "admission.try_admit",
            "admission",
            now,
            task=new_task.task_id,
            queue=len(waiting),
            engine=self.engine_name,
        ):
            decision = walk(new_task, waiting, reservations, now)
            tracer.event(
                "admission.decision",
                "admission",
                now,
                task=new_task.task_id,
                accepted=decision.accepted,
            )
        return decision

    def _admit_walk(
        self,
        new_task: DivisibleTask,
        waiting: Sequence[DivisibleTask],
        reservations: NodeReservations,
        now: float,
    ) -> AdmissionDecision:
        """The memoized queue walk behind :meth:`try_admit`."""
        prof = self.profile
        tracer = self._tracer
        hits = self._cache_hits
        if prof is not None:
            t0 = perf_counter()
        ordered = self._ordered_queue(waiting, new_task)
        if prof is not None:
            prof.add("queue_order", perf_counter() - t0)
        memo = self._memo
        if len(memo) > 2 * len(ordered) + 32:
            keep = {t.task_id for t in ordered}
            for tid in [k for k in memo if k not in keep]:
                del memo[tid]

        temp = self._temp
        np.copyto(temp, reservations.release_times)
        # Every write below is a completion >= now, so flooring once here
        # makes the reference's per-task max(release, now) the identity —
        # and leaves each position's memo key byte-identical to what the
        # per-task floor produced.
        np.maximum(temp, now, out=temp)
        ckpt_on = self._ckpt_enabled
        start = 0
        side: list[tuple] = []
        if ckpt_on:
            if prof is not None:
                tk = perf_counter()
            start = self._ckpt_restore(ordered, temp, reservations, now)
            if prof is not None:
                prof.add("prefix_restore", perf_counter() - tk)
            if hits is not None:
                self._ckpt_tally(start)
            if start == 0:
                np.copyto(self._ckpt_newbase, temp)
        place = self._place
        assert place is not None  # delegate handled every other case
        token_fn = self._token
        memo_on = self._memo_enabled
        plans: dict[int, PlacementPlan] = {}
        if start:
            items = self._ckpt_items
            for i in range(start):
                item = items[i]
                plans[item[0].task_id] = item[1].plan
        n_hits = n_misses = 0
        for task in ordered[start:] if start else ordered:
            tid = task.task_id
            entry: _MemoEntry | None = None
            key = b""
            token = _UNSET
            if memo_on:
                key = temp.tobytes()
                cached = memo.get(tid)
                if cached is not None and cached.key == key:
                    win = cached.ckpt_win
                    if token_fn is None or (
                        win is not None and win[0] <= now <= win[1]
                    ):
                        # Inside the cached window the node-count token
                        # is certainly the stored one (_ckpt_window).
                        entry = cached
                    else:
                        token = token_fn(task, now)
                        if token == cached.n_req:
                            entry = cached
            if entry is None:
                n_misses += 1
                if prof is not None:
                    tk = perf_counter()
                entry = place(task, temp, now, token)
                if prof is not None:
                    prof.add("kernel_place", perf_counter() - tk)
                if tracer is not None:
                    tracer.event(
                        "admission.kernel",
                        "admission",
                        now,
                        task=tid,
                        n=None if entry.ids is None else len(entry.ids),
                    )
                if memo_on:
                    entry.key = key
                    memo[tid] = entry
            else:
                n_hits += 1
                if tracer is not None:
                    tracer.event(
                        "admission.plan_cache", "admission", now, task=tid
                    )
            plan = entry.plan
            if plan is None:
                if hits is not None:
                    self._flush_cache_tallies(n_hits, n_misses)
                if ckpt_on and start == 0:
                    # A rejection leaves the committed queue untouched, so
                    # the positions walked *before the newcomer's slot* are
                    # a valid checkpoint of it.  Re-seeding here is what
                    # lets the store survive dispatch -> rejection streaks.
                    keep = self._insert_pos
                    if len(side) < keep:
                        keep = len(side)
                    if keep:
                        self._ckpt_splice(
                            0,
                            side if keep == len(side) else side[:keep],
                            reservations,
                            now,
                        )
                return AdmissionDecision(
                    accepted=False, plans={}, failed_task_id=tid
                )
            completion = plan.est_completion
            for node in entry.ids:
                temp[node] = completion
            plans[tid] = plan
            if ckpt_on:
                side.append((task, entry, plan.node_ids, plan.est_completion))
        if hits is not None:
            self._flush_cache_tallies(n_hits, n_misses)
        if ckpt_on:
            self._ckpt_splice(start, side, reservations, now)
        return AdmissionDecision(accepted=True, plans=plans)

    def _admit_alone(
        self,
        new_task: DivisibleTask,
        waiting: Sequence[DivisibleTask],
        reservations: NodeReservations,
        now: float,
    ) -> AdmissionDecision:
        """:meth:`_admit_walk` for an empty ``waiting``: one placement.

        The ordered queue is ``[new_task]``, so the walk reduces to one
        memoized placement or a one-position checkpoint restore.  This
        path computes exactly that and writes every piece of engine state
        the walk writes, with the same values: the order-cache
        bookkeeping of :meth:`_ordered_queue`, the memo and its pruning
        bound, the ``_ckpt_sync`` chain and the one-position store of
        :meth:`_ckpt_restore` / :meth:`_ckpt_splice`, and the same
        registry counts and trace events.  The staging buffer
        ``_ckpt_newbase`` is the one thing it skips: the walk only reads
        it back within the walk that wrote it.
        """
        tid = new_task.task_id
        cached = self._order_cache
        if cached is None:
            common = -1
        elif self._order_waiting == () and cached[0] is new_task:
            common = 1  # the same newcomer re-asked against an empty queue
        else:
            common = 0
        if common != 1:
            self._order_cache = [new_task]
        self._order_waiting = ()
        self._insert_pos = 0
        self._order_common = common
        memo = self._memo
        if len(memo) > 34:  # the walk's bound, 2 * len(ordered) + 32
            kept = memo.get(tid)
            memo.clear()
            if kept is not None:
                memo[tid] = kept

        temp = self._temp
        np.copyto(temp, reservations.release_times)
        np.maximum(temp, now, out=temp)
        counted = self._cache_hits is not None
        ckpt_on = self._ckpt_enabled
        if ckpt_on:
            sync = self._ckpt_sync
            if common < 0:
                sync = -1
            elif 0 <= sync and common < sync:
                sync = common
            self._ckpt_sync = sync
            items = self._ckpt_items
            start = 0
            # A zero agreement length restores nothing whatever the base
            # is, so the base comparison only runs when it can matter.
            if self._ckpt_valid and items and sync and (
                (
                    reservations is self._ckpt_res
                    and reservations.epoch == self._ckpt_epoch
                    and now == self._ckpt_now
                )
                or np.array_equal(temp, self._ckpt_base)
            ):
                if sync > 0:
                    start = sync
                else:
                    start = self._ckpt_sync = int(self._ckpt_tids[0] == tid)
                if start and self._token is not None and now != self._ckpt_now:
                    start = self._ckpt_token_prefix(1, now)
            if counted:
                self._ckpt_tally(start)
            if start:
                # The stored position is this newcomer's placement; keep
                # it as the whole store (``_ckpt_splice(1, [])``).
                item = items[0]
                del items[1:]
                del self._ckpt_tids[1:]
                self._ckpt_res = reservations
                self._ckpt_epoch = reservations.epoch
                self._ckpt_now = now
                self._ckpt_sync = 1
                return AdmissionDecision(
                    accepted=True, plans={item[0].task_id: item[1].plan}
                )

        entry: _MemoEntry | None = None
        token = _UNSET
        memo_on = self._memo_enabled
        if memo_on:
            key = temp.tobytes()
            hit = memo.get(tid)
            if hit is not None and hit.key == key:
                win = hit.ckpt_win
                if self._token is None or (
                    win is not None and win[0] <= now <= win[1]
                ):
                    entry = hit
                else:
                    token = self._token(new_task, now)
                    if token == hit.n_req:
                        entry = hit
        tracer = self._tracer
        if entry is None:
            entry = self._place(new_task, temp, now, token)
            if tracer is not None:
                tracer.event(
                    "admission.kernel",
                    "admission",
                    now,
                    task=tid,
                    n=None if entry.ids is None else len(entry.ids),
                )
            if memo_on:
                entry.key = key
                memo[tid] = entry
            if counted:
                self._cache_misses.inc()
        else:
            if tracer is not None:
                tracer.event("admission.plan_cache", "admission", now, task=tid)
            if counted:
                self._cache_hits.inc()
        plan = entry.plan
        if plan is None:
            return AdmissionDecision(accepted=False, plans={}, failed_task_id=tid)
        if ckpt_on:
            # ``_ckpt_splice(0, [item])``: a cold one-position store.
            del items[:]
            items.append((new_task, entry, plan.node_ids, plan.est_completion))
            tids = self._ckpt_tids
            del tids[:]
            tids.append(tid)
            if not self._ckpt_cap:
                self._ckpt_grow(1)
            np.copyto(self._ckpt_base, temp)
            if self._token is not None:
                win = entry.ckpt_win
                if win is None:
                    win = entry.ckpt_win = self._ckpt_window(new_task, entry.n_req)
                self._ckpt_wlo[0] = win[0]
                self._ckpt_whi[0] = win[1]
            self._ckpt_res = reservations
            self._ckpt_epoch = reservations.epoch
            self._ckpt_now = now
            self._ckpt_valid = True
            self._ckpt_sync = 1
        return AdmissionDecision(accepted=True, plans={tid: plan})

    def _flush_cache_tallies(self, n_hits: int, n_misses: int) -> None:
        """Fold one walk's memo tallies into the registry counters.

        A memo hit costs about one dict probe, so a registry
        ``Counter.inc`` per hit would dominate the instrumented hit path
        (and show up as tracing overhead the perf gate rejects).  The
        walk tallies plain local ints and folds them in here, once per
        admission test.  Only called with a registry attached.
        """
        if n_hits:
            self._cache_hits.inc(n_hits)
        if n_misses:
            self._cache_misses.inc(n_misses)

    # -- prefix checkpoints ------------------------------------------------
    def _ckpt_tally(self, start: int) -> None:
        """Fold one walk's checkpoint outcome into the registry counters
        (O(1) per walk; only called with a registry attached)."""
        if start:
            self._ckpt_hits.inc()
            self._ckpt_tasks.inc(start)
        else:
            self._ckpt_misses.inc()

    def _ckpt_restore(
        self,
        ordered: Sequence[DivisibleTask],
        temp: "NDArray[np.float64]",
        reservations: NodeReservations,
        now: float,
    ) -> int:
        """Replay the longest still-valid checkpointed prefix into ``temp``.

        A stored position is reusable exactly when the walk that placed it
        would recompute it bit-for-bit, which requires three things:

        1. **Same base** — the floored committed availability the walk
           started from is unchanged.  Cheap path: the same
           :class:`~repro.core.reservations.NodeReservations` object at
           the same :attr:`~repro.core.reservations.NodeReservations.epoch`
           and the same ``now`` (completions, eager releases, fault
           floors, displacement and re-admission all bump the epoch).
           Fallback: exact value equality against the stored base vector,
           which also covers callers handing in fresh copies per call.
        2. **Same queue prefix** — the policy-ordered task ids ahead of
           the position are unchanged (the longest common prefix of the
           new order against the stored one; a newcomer's insertion slot,
           cancellations and departures all truncate it).
        3. **Same node-count token** — for the paper rule, whose bound is
           the placement's only ``now``-dependence, the stored ``n_req``
           must be *certainly* unchanged at the new test time; positions
           whose ``g`` leaves the guard-banded certainty interval of
           their stored count (or whose deadline budget expired) end the
           prefix conservatively and re-walk.

        Returns the number of leading ``ordered`` positions restored
        (``0`` = cold walk) and writes their completions into ``temp`` —
        one strided snapshot copy plus at most ``_CKPT_STRIDE - 1``
        per-position replays, so the restore itself is O(1) in prefix
        depth.  The store is left untouched: a *rejected* walk leaves the
        committed queue exactly as it was, so the pre-walk checkpoint
        stays the best description of it — only :meth:`_ckpt_splice`
        (accepted walks, plus the committed-prefix re-seed of rejected
        cold walks) replaces it.
        """
        # Chain the queue-order delta into the store-agreement length
        # *unconditionally* — even walks that restore nothing advance the
        # order cache, and the next walk's O(1) prefix match depends on
        # every step of the chain having been applied.
        common = self._order_common
        sync = self._ckpt_sync
        if common < 0:
            sync = self._ckpt_sync = -1
        elif 0 <= sync and common < sync:
            sync = self._ckpt_sync = common
        if not self._ckpt_valid:
            return 0
        items = self._ckpt_items
        if not items or not (
            (
                reservations is self._ckpt_res
                and reservations.epoch == self._ckpt_epoch
                and now == self._ckpt_now
            )
            or np.array_equal(temp, self._ckpt_base)
        ):
            return 0
        if sync >= 0:
            k = sync
            if k > len(ordered):  # pragma: no cover - sync is capped above
                k = len(ordered)
        else:
            k = 0
            for task, tid in zip(ordered, self._ckpt_tids):
                if task.task_id != tid:
                    break
                k += 1
            self._ckpt_sync = k
        if k == 0:
            return 0
        if self._token is not None and now != self._ckpt_now:
            # O(1) certainty test: the cumulative window [wlo, whi] is the
            # (conservatively shrunk) intersection of every prefix
            # position's certain test-time interval; inside it no stored
            # node count can have drifted.  Outside, fall back to the
            # exact per-position scan.
            if not (self._ckpt_wlo[k - 1] <= now <= self._ckpt_whi[k - 1]):
                k = self._ckpt_token_prefix(k, now)
                if k == 0:
                    return 0
        full = k // _CKPT_STRIDE
        i0 = 0
        if full:
            np.copyto(temp, self._ckpt_snap[full - 1])
            i0 = full * _CKPT_STRIDE
        for i in range(i0, k):
            _, _, ids, completion = items[i]
            for node in ids:
                temp[node] = completion
        return k

    def _ckpt_token_prefix(self, k: int, now: float) -> int:
        """Cap ``k`` at the first position whose node-count token is not
        *certainly* the stored one at test time ``now``.

        Rare path: only runs when the O(1) cumulative window check fails,
        to find the shorter prefix whose per-position windows all contain
        ``now``.  Any position outside its window — band-adjacent ``g``,
        expired budget, or a not-yet-arrived task whose bound pins to its
        arrival — conservatively ends the prefix and re-walks.
        """
        items = self._ckpt_items
        for i in range(k):
            entry = items[i][1]
            win = entry.ckpt_win
            if win is None:
                win = entry.ckpt_win = self._ckpt_window(
                    items[i][0], entry.n_req
                )
            if not (win[0] <= now <= win[1]):
                return i
        return k

    def _ckpt_window(
        self, task: DivisibleTask, n0: int
    ) -> tuple[float, float]:
        """The certain test-time window of a placement's node-count token.

        While ``now`` lies in ``[t_lo, t_hi]``, the paper bound's
        ``g(now) = 1 - sigma*worst_cms / (absdl - now)`` stays strictly
        inside the guard-banded interval of the stored count ``n0``
        (:class:`_NodeBoundTable`), so the bound provably returns ``n0``
        and reuse is bitwise-safe.  The bounds come from rearranging the
        band inequalities for ``now`` and shrinking by a 1e-6-relative
        margin that dwarfs the rearrangement rounding — a window pass is
        therefore strictly conservative, and a near-edge ``now`` merely
        re-walks.  The window is intrinsic to ``(task, n0)``: it never
        goes stale and is cached on the memo entry.
        """
        table = self._bound_table
        j = table.n - n0
        arr = task.arrival
        sig = task.sigma * self._worst_cms
        absdl = arr + task.deadline
        lo = table.lo[j]
        one_lo = 1.0 - lo
        if one_lo > 0.0:
            q = sig / one_lo
            t_hi = absdl - q - 1e-6 * (q + abs(absdl) + 1.0)
        else:  # pragma: no cover - lo >= 1 is never certain
            t_hi = -math.inf
        if n0 > 1:
            q = sig / (1.0 - table.hi[j + 1])
            t_lo = absdl - q + 1e-6 * (q + abs(absdl) + 1.0)
            if arr > t_lo:
                t_lo = arr
        else:
            t_lo = arr
        return (t_lo, t_hi)

    def _ckpt_splice(
        self,
        k: int,
        side: list,
        reservations: NodeReservations,
        now: float,
    ) -> None:
        """Commit a walk's result: keep prefix ``k``, append ``side``.

        Called for every accepted walk (full result) and for rejected
        *cold* walks (the committed-queue prefix ahead of the newcomer's
        slot, which the rejection cannot have changed).  The
        token-constancy columns and snapshots of kept positions never go
        stale — they depend only on the task, its stored node count and
        the base vector — so only the new suffix positions are recorded:
        strided snapshot rows are rebuilt from the running buffer exactly
        when a stride boundary falls inside the appended region, and the
        cumulative certainty window continues from the kept prefix.  The
        walk's base vector is promoted from the staging buffer on cold
        walks (``k == 0``); a warm walk validated it unchanged.
        """
        items = self._ckpt_items
        tids = self._ckpt_tids
        del items[k:]
        del tids[k:]
        total = k + len(side)
        if total > self._ckpt_cap:
            self._ckpt_grow(total)
        if k == 0:
            np.copyto(self._ckpt_base, self._ckpt_newbase)
        stride = _CKPT_STRIDE
        snap = self._ckpt_snap
        run = self._ckpt_run
        need_rows = (total // stride) > (k // stride)
        if need_rows:
            # Rebuild the running state at position ``k`` from the nearest
            # kept snapshot (byte-identical replay of at most a stride).
            full = k // stride
            np.copyto(run, snap[full - 1] if full else self._ckpt_base)
            for i in range(full * stride, k):
                _, _, ids, completion = items[i]
                for node in ids:
                    run[node] = completion
        push = self._token is not None
        if push:
            if k:
                wlo = float(self._ckpt_wlo[k - 1])
                whi = float(self._ckpt_whi[k - 1])
            else:
                wlo = -math.inf
                whi = math.inf
            wlo_col = self._ckpt_wlo
            whi_col = self._ckpt_whi
        i = k
        for item in side:
            items.append(item)
            tids.append(item[0].task_id)
            if need_rows:
                completion = item[3]
                for node in item[2]:
                    run[node] = completion
            if push:
                entry = item[1]
                win = entry.ckpt_win
                if win is None:
                    win = entry.ckpt_win = self._ckpt_window(
                        item[0], entry.n_req
                    )
                if win[0] > wlo:
                    wlo = win[0]
                if win[1] < whi:
                    whi = win[1]
                wlo_col[i] = wlo
                whi_col[i] = whi
            i += 1
            if need_rows and not (i % stride):
                np.copyto(snap[i // stride - 1], run)
        self._ckpt_res = reservations
        self._ckpt_epoch = reservations.epoch
        self._ckpt_now = now
        self._ckpt_valid = True
        # The store now mirrors a prefix of the walk's own order, which is
        # exactly what the order cache holds.
        self._ckpt_sync = len(items)

    def _ckpt_grow(self, need: int) -> None:
        """Grow the checkpoint capacity (snapshot rows and, for the paper
        rule, token columns) to at least ``need`` positions, preserving
        stored values (amortized doubling)."""
        new_cap = 64 if self._ckpt_cap == 0 else self._ckpt_cap
        while new_cap < need:
            new_cap *= 2
        rows = new_cap // _CKPT_STRIDE
        snap = np.empty((rows, self._n), dtype=np.float64)
        old_snap = self._ckpt_snap
        if old_snap is not None:
            snap[: old_snap.shape[0]] = old_snap
        self._ckpt_snap = snap
        if self._token is not None:
            for name in ("_ckpt_wlo", "_ckpt_whi"):
                old = getattr(self, name)
                arr = np.empty(new_cap, dtype=np.float64)
                if old is not None:
                    arr[: old.size] = old
                setattr(self, name, arr)
        self._ckpt_cap = new_cap

    def _ordered_queue(
        self, waiting: Sequence[DivisibleTask], new_task: DivisibleTask
    ) -> list[DivisibleTask]:
        """Policy order of ``[*waiting, new_task]``, maintained incrementally.

        The reference walk re-sorts the whole queue on every admission test
        — O(Q log Q) key builds per arrival, the last superlinear term left
        in the hot path.  Both policies' keys are *total* orders (the
        ``task_id`` tie-break makes every comparison strict), so the sorted
        order of any task set is unique and any sorted list stays sorted
        under element removal.  That licenses an exact incremental scheme:

        * keep the previously computed order;
        * drop tasks that have since left the queue (started, or a probed
          task that was never submitted) — an O(Q) id filter;
        * bisect the newcomer into its slot — O(log Q) key evaluations.

        Whenever the current ``waiting`` set is not a subset of the cached
        order (fresh test instance, external callers driving ``try_admit``
        directly), it falls back to the reference's full sort.  Either
        path returns the exact list ``policy.order([*waiting, new_task])``
        would.

        Two steady-state fast paths skip even the O(Q) id filter by
        recognizing the previous call's waiting set: unchanged (the last
        newcomer was rejected — drop it from the cached order) or grown
        by exactly the last newcomer (it was accepted — the cached order
        is already the waiting order).  Both are verified element-wise
        (tuple equality short-circuits on object identity), never
        assumed.  As a byproduct every path records the exact common
        prefix between the new order and the cached one in
        ``_order_common`` (``-1`` when it rebuilt from scratch), which is
        what lets the checkpoint restore match its stored queue prefix in
        O(1) instead of comparing task ids position by position.
        """
        cached = self._order_cache
        n_wait = len(waiting)
        key = self.policy.key
        w = tuple(waiting)
        prev_w = self._order_waiting
        self._order_waiting = w
        if cached is not None:
            prev_pos = self._insert_pos
            if prev_w is not None and len(cached) == len(prev_w) + 1:
                if w == prev_w:
                    if cached[prev_pos] is new_task:
                        # Same newcomer re-tested against the same waiting
                        # set (a probe followed by its routed submit):
                        # the order is identical, agreement is total.
                        self._order_common = len(cached)
                        return cached
                    # Same waiting set: the cached order minus the
                    # rejected (or probed-only) previous newcomer.
                    kept = cached.copy()
                    del kept[prev_pos]
                    pos = bisect_right(kept, key(new_task), key=key)
                    kept.insert(pos, new_task)
                    self._order_common = prev_pos if prev_pos < pos else pos
                    self._insert_pos = pos
                    self._order_cache = kept
                    return kept
                if (
                    n_wait == len(prev_w) + 1
                    and w[n_wait - 1] is cached[prev_pos]
                    and w[: n_wait - 1] == prev_w
                ):
                    # Waiting grew by exactly the accepted previous
                    # newcomer: the cached order already orders it.
                    kept = cached.copy()
                    pos = bisect_right(kept, key(new_task), key=key)
                    kept.insert(pos, new_task)
                    self._order_common = pos
                    self._insert_pos = pos
                    self._order_cache = kept
                    return kept
            if len(cached) >= n_wait:
                ids = {task.task_id for task in waiting}
                kept = [task for task in cached if task.task_id in ids]
                if len(kept) == n_wait:
                    pos = bisect_right(kept, key(new_task), key=key)
                    kept.insert(pos, new_task)
                    if len(cached) == n_wait:
                        common = pos
                    else:
                        # First departed position in the cached order caps
                        # the agreement between old and new order.
                        common = 0
                        for task in cached:
                            if task.task_id not in ids:
                                break
                            common += 1
                        if pos < common:
                            common = pos
                    self._order_common = common
                    self._insert_pos = pos
                    self._order_cache = kept
                    return kept
        ordered = self.policy.order([*waiting, new_task])
        # The keys are a total order, so the newcomer's slot is exactly
        # where bisect says it is (needed by the checkpoint re-seed).
        self._insert_pos = bisect_right(ordered, key(new_task), key=key) - 1
        self._order_common = -1
        self._order_cache = ordered
        return ordered

    def _fallback(self) -> SchedulabilityTest:
        """Reference walk for reservation sizes the scratch buffers don't fit
        (lazy, cached separately so the fast path stays enabled)."""
        fallback = self._fallback_test
        if fallback is None:
            fallback = self._fallback_test = SchedulabilityTest(
                self.policy, self.partitioner, self.cluster
            )
        return fallback

    # -- node-count bounds -------------------------------------------------
    def _min_nodes_worst(self, sigma: float, budget: float) -> int | None:
        """``dlt.min_nodes`` at the cluster's worst-case costs, with the
        constant ``log(beta)`` precomputed (bitwise-identical results)."""
        if budget <= 0:
            return None
        g = 1.0 - (sigma * self._worst_cms) / budget
        if g <= 0.0:
            return None
        if g >= 1.0:  # pragma: no cover - unreachable with positive costs
            return 1
        n = math.ceil(math.log(g) / self._log_b_worst - dlt.FEASIBILITY_RTOL)
        if n < 1:
            n = 1
        return None if n > self._n else n

    def _node_count_token(self, task: DivisibleTask, now: float) -> int | None:
        """``ñ_min`` / ``n_min`` at the admission-test time — the paper
        rules' only dependence on ``now`` (Eq. 14 / [22])."""
        t_test = now if now > task.arrival else task.arrival
        return self._min_nodes_worst(
            task.sigma, task.arrival + task.deadline - t_test
        )

    # -- scalar placement kernels ------------------------------------------
    def _candidates(
        self, task: DivisibleTask, avail: "NDArray[np.float64]", now: float
    ) -> tuple[list[int], list[float]]:
        """Candidate order and floored availability, as the reference
        ``place`` (:func:`repro.core.partition.sorted_candidates`) has them.

        Returns ``(order, floored)``: node ids sorted by availability
        (ties per the node order), and the per-node availability floored
        at the task's arrival.  ``avail`` is the walk's scratch vector,
        already floored at ``now``, so the arrival floor only changes it
        when the task arrives after ``now`` (direct callers only; the
        simulators never do).  ``sorted`` is stable, so it returns
        ``argsort(kind="stable")``; with a tie-break the key
        ``(floored, tiebreak)`` is ``np.lexsort((tiebreak, floored))``.
        """
        floored = avail.tolist()
        arrival = task.arrival
        if arrival > now:
            floored = [v if v > arrival else arrival for v in floored]
        tiebreak = self._tiebreak
        if tiebreak is None:
            order = sorted(range(self._n), key=floored.__getitem__)
        else:
            order = sorted(
                range(self._n), key=lambda i: (floored[i], tiebreak[i])
            )
        return order, floored

    def _costs(
        self, ids: list[int], shared: _SharedPrefixAlphas | None
    ) -> tuple[list[float], list[float], list[float]]:
        """Intrinsic ``(Cms, Cps)`` of the chosen nodes, in availability
        order, and their equal-finish fractions (heterogeneous clusters)."""
        if shared is not None:
            n = len(ids)
            return shared.cms[:n], shared.cps[:n], shared.alphas(n)
        cms_l = self._cms_l
        cps_l = self._cps_l
        cms = [cms_l[i] for i in ids]
        cps = [cps_l[i] for i in ids]
        return cms, cps, _alphas(cms, cps)

    def _dlt_kernel(
        self,
        task: DivisibleTask,
        ids: list[int],
        releases: list[float],
        shared: _SharedPrefixAlphas | None = None,
    ) -> tuple | None:
        """DLT-IIT placement on the chosen nodes (Eq. 1, 4-7).

        ``build_model`` bitwise, minus validation and the intermediate
        :class:`~repro.core.het_model.HeterogeneousModel`.  Returns
        ``(completion, alphas, None)``, or ``None`` when the completion
        misses the deadline.
        """
        sigma = task.sigma
        n = len(releases)
        rn = releases[-1]
        if self._homog:
            cms = self._cms
            cps = self._cps
            if n == 1:
                alphas = [1.0]
            else:
                # Eq. 1 speedups and the Eq. 4-5 ratios in one pass:
                # X_i = Cps_{i-1}^eff / (Cms + Cps_i^eff).
                e = self._exec_coeff[n - 1] * sigma * self._cost_sum
                prev = (e / (e + (rn - releases[0]))) * cps
                prods = []
                p = 1.0
                for i in range(1, n):
                    eff = (e / (e + (rn - releases[i]))) * cps
                    p *= prev / (cms + eff)
                    prods.append(p)
                    prev = eff
                alphas = _normalized(prods)
            exec_time = sigma * cms + alphas[-1] * sigma * cps
        else:
            cms_v, cps_v, a0 = self._costs(ids, shared)
            e = sigma * _dot_sum(a0, cms_v) + a0[-1] * sigma * cps_v[-1]
            cps_eff = [
                (e / (e + (rn - r))) * c for r, c in zip(releases, cps_v)
            ]
            alphas = _alphas(cms_v, cps_eff)
            exec_time = (
                sigma * _dot_sum(alphas, cms_v) + alphas[-1] * sigma * cps_v[-1]
            )
        completion = rn + exec_time
        if not feasible_by(completion, task.absolute_deadline):
            return None
        return completion, alphas, None

    def _opr_kernel(
        self,
        task: DivisibleTask,
        ids: list[int],
        releases: list[float],
        shared: _SharedPrefixAlphas | None = None,
    ) -> tuple | None:
        """OPR placement: simultaneous start at ``r_n`` on the chosen nodes.

        Returns ``(completion, alphas, r_n)``, or ``None`` when the
        completion misses the deadline.
        """
        sigma = task.sigma
        n = len(releases)
        rn = releases[-1]
        if self._homog:
            completion = rn + self._exec_coeff[n - 1] * sigma * self._cost_sum
            if not feasible_by(completion, task.absolute_deadline):
                return None
            alphas = self._opr_alphas[n]
            if alphas is None:
                alphas = self._opr_alphas[n] = tuple(
                    dlt.opr_alphas(n, self._cms, self._cps).tolist()
                )
            return completion, alphas, rn
        cms_v, cps_v, alphas = self._costs(ids, shared)
        completion = rn + (
            sigma * _dot_sum(alphas, cms_v) + alphas[-1] * sigma * cps_v[-1]
        )
        if not feasible_by(completion, task.absolute_deadline):
            return None
        return completion, alphas, rn

    def _entry(
        self,
        task: DivisibleTask,
        order: list[int],
        floored: list[float],
        n: int,
        shared: _SharedPrefixAlphas | None = None,
    ) -> _MemoEntry | None:
        """Place ``task`` on the first ``n`` candidates; ``None`` if
        infeasible.  The kernel is DLT-IIT or OPR per the partitioner."""
        ids = order[:n]
        releases = [floored[i] for i in ids]
        placed = self._kernel(task, ids, releases, shared)
        if placed is None:
            return None
        completion, alphas, opr_rn = placed
        release_t = tuple(releases)
        plan = _trusted_plan(
            task,
            self.partitioner.method,
            tuple(ids),
            release_t,
            release_t if opr_rn is None else (opr_rn,) * n,
            tuple(alphas),
            completion,
        )
        return _MemoEntry(b"", None, plan, ids)

    # -- placements (kernel ``self._kernel`` = DLT-IIT or OPR) -------------
    def _place_paper_rule(
        self,
        task: DivisibleTask,
        avail: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _MemoEntry:
        """Paper rule: ``ñ_min`` / ``n_min`` at the admission-test time."""
        n_req = (
            self._node_count_token(task, now) if token is _UNSET else token
        )
        if n_req is None:
            return _MemoEntry(b"", None, None, None)
        order, floored = self._candidates(task, avail, now)
        entry = self._entry(task, order, floored, n_req)
        if entry is None:
            return _MemoEntry(b"", n_req, None, None)
        entry.n_req = n_req
        return entry

    def _place_all_nodes(
        self,
        task: DivisibleTask,
        avail: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _MemoEntry:
        """"-AN" variants: always the whole cluster, exact feasibility."""
        order, floored = self._candidates(task, avail, now)
        entry = self._entry(task, order, floored, self._n)
        return entry if entry is not None else _MemoEntry(b"", None, None, None)

    def _place_fixed_point(
        self,
        task: DivisibleTask,
        avail: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _MemoEntry:
        """Fixed-point ablation scan, monotonicity-aware.

        The reference scans ``k = 1..N`` evaluating the node-count bound
        at each candidate start time and trying a placement whenever
        ``n_req <= k``.  Because the sorted availability is non-decreasing
        the bound is non-decreasing in ``k``, which licenses three exact
        shortcuts (the accepted plan is unchanged): start at the first
        ``k`` that can satisfy ``n_req <= k``, jump ``k`` straight to
        ``n_req`` whenever the bound exceeds it, and skip repeated
        ``n_req`` values whose placement already failed (the placement
        depends on ``n_req`` alone, not ``k``).  ``None`` from the bound
        is terminal: the budget only shrinks as ``k`` grows.
        """
        order, floored = self._candidates(task, avail, now)
        shared = self._shared_prefix(order)
        tracer = self._tracer
        scanned = 0
        big_n = self._n
        failed_n = 0
        absdl = task.arrival + task.deadline
        k = 1
        while k <= big_n:
            n_req = self._min_nodes_worst(
                task.sigma, absdl - floored[order[k - 1]]
            )
            if n_req is None:
                break
            if n_req > k:
                k = n_req
                continue
            if n_req > failed_n:
                if tracer is not None:
                    scanned += 1
                entry = self._entry(task, order, floored, n_req, shared)
                if entry is not None:
                    if tracer is not None:
                        tracer.event(
                            "admission.node_scan",
                            "admission",
                            now,
                            task=task.task_id,
                            placements=scanned,
                            n=n_req,
                        )
                    return entry
                failed_n = n_req
            k += 1
        if tracer is not None:
            tracer.event(
                "admission.node_scan",
                "admission",
                now,
                task=task.task_id,
                placements=scanned,
                n=None,
            )
        return _MemoEntry(b"", None, None, None)

    def _shared_prefix(self, order: list[int]) -> _SharedPrefixAlphas | None:
        """Shared prefix-product helper for heterogeneous scans."""
        if self._homog:
            return None
        cms_l = self._cms_l
        cps_l = self._cps_l
        return _SharedPrefixAlphas(
            [cms_l[i] for i in order], [cps_l[i] for i in order]
        )

    # -- stochastic / generic partitioners --------------------------------
    def _place_via_partitioner(
        self,
        task: DivisibleTask,
        avail: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _MemoEntry:
        """Defer to the partitioner's own ``place`` (User-Split)."""
        plan = self.partitioner.place(task, avail, self.cluster, now)
        if plan is None:
            return _MemoEntry(b"", None, None, None)
        return _MemoEntry(b"", None, plan, list(plan.node_ids))
