"""Batch-vectorized admission engine: the Figure-2 test as array programs.

:class:`BatchSchedulabilityTest` is the third admission engine behind
:func:`repro.core.fastpath.make_admission_test` (``engine="batch"``): it
produces **bit-identical** :class:`~repro.core.admission.AdmissionDecision`
streams to both the reference walk and the fast engine while replacing the
remaining per-task Python work of the walk with per-*batch* numpy passes.
The property suite (``tests/test_fastpath_properties.py``) replays random
scenarios through all three engines and asserts record-by-record equality.

What is batched, and why it stays bitwise-exact
-----------------------------------------------
The fast engine made one admission test cheap; the structure left on the
table is that each test still loops Python-side over the queue, and each
queued task re-evaluates the same family of scalar expressions.  Three
kernels lift those loops into arrays:

1. **Queue-prefix replay as one array program** — the walk's scratch
   availability vector is floored at ``now`` *once* (every later write is
   a completion ``>= now``, so the reference's per-task
   ``max(release, now)`` is the identity from then on), and the
   ``ñ_min`` / ``n_min`` node-count bound of *every* queued task is
   classified in a single vectorized pass (see kernel 2).  Rejected walks
   return early without materializing a single
   :class:`~repro.core.partition.PlacementPlan`: entries carry the raw
   outputs of the fast engine's scalar placement kernel (both engines run
   the one kernel set) and build their plan objects lazily, only when a walk
   accepts — under overload most walks reject, so most placements never
   pay tuple conversion at all.
2. **All-candidates bound evaluation without transcendentals** — the
   bound ``n_req = ceil(log(g)/log(beta) - rtol)`` is the hot path's only
   transcendental.  Inverting it: ``n_req <= m`` exactly when
   ``g >= B[m] = exp((m + rtol) * log(beta))`` in real arithmetic, so a
   precomputed threshold table classifies any batch of ``g`` values with
   one ``searchsorted`` — no logs.  Because ``B[m]`` and ``log(g)`` each
   carry at most a few ulp of libm error, comparisons against
   ``B[m] * (1 ± 1e-9)`` are *certain* (the guard band is ~6 orders of
   magnitude wider than any rounding effect); only ``g`` values inside a
   guard band fall back to the reference's scalar formula, which is the
   bitwise ground truth.  The same table evaluates every ``k = 1..N``
   candidate of the ``fixed_point_node_count`` scan in one ``(candidates,)``
   vector pass, with the monotone scan applied to the precomputed bounds.
3. **Fleet-arrival member kernel** — :meth:`probe_completion` runs the
   identical walk but returns only the newcomer's earliest-finish
   estimate, skipping decision/plan materialization entirely.
   :class:`~repro.fleet.sim.FleetSimulation`'s probing routers call it
   per member on one arrival, and the walk's memo makes the subsequent
   routed ``submit``
   replay the probed member's walk as cache hits.

Additionally the memo keeps **two** entries per task instead of one: a
failed walk (a rejected newcomer perturbs the availability seen by every
task after its slot) no longer evicts the committed-prefix entry, so
high-reject regimes — exactly where admission control earns its keep —
stop recomputing the same committed placements after every rejection.

Everything the fast engine does not specialize (multi-round partitioners,
``redraw_on_replan`` User-Split, mismatched reservation sizes) falls back
through the inherited paths, so the batch engine is always safe to enable.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.admission import AdmissionDecision
from repro.core.fastpath import (  # noqa: F401  (_NodeBoundTable re-exported)
    _UNSET,
    FastSchedulabilityTest,
    _NodeBoundTable,
    _trusted_plan,
)
from repro.core.partition import PlacementPlan
from repro.core.reservations import NodeReservations
from repro.core.task import DivisibleTask

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

__all__ = ["BatchSchedulabilityTest"]


class _BatchEntry:
    """One task's placement with the plan object deferred.

    ``ids is None`` marks an infeasible placement (the walk rejects on
    it).  Feasible entries carry the kernel's raw outputs a
    :class:`~repro.core.partition.PlacementPlan` is built from;
    :meth:`BatchSchedulabilityTest._materialize` converts them exactly
    once, on the first *accepted* walk that needs the plan — rejected
    walks never pay the tuple conversions.
    """

    __slots__ = (
        "key",
        "n_req",
        "task",
        "ids",
        "completion",
        "releases",
        "alphas",
        "opr_rn",
        "plan",
        "ckpt_win",
    )

    def __init__(
        self,
        task: DivisibleTask,
        ids: list[int] | None = None,
        completion: float = 0.0,
        releases: list[float] | None = None,
        alphas: Sequence[float] | None = None,
        opr_rn: float | None = None,
        n_req: int | None = None,
    ) -> None:
        self.key = b""
        self.n_req = n_req
        self.task = task
        self.ids = ids
        self.completion = completion
        self.releases = releases
        self.alphas = alphas
        self.opr_rn = opr_rn
        self.plan: PlacementPlan | None = None
        #: Lazily computed certain test-time window of the node-count
        #: token (see ``FastSchedulabilityTest._ckpt_window``).
        self.ckpt_win: tuple[float, float] | None = None


class BatchSchedulabilityTest(FastSchedulabilityTest):
    """Batch-vectorized, bit-identical Figure-2 schedulability test.

    Same constructor and :meth:`try_admit` contract as the reference
    :class:`~repro.core.admission.SchedulabilityTest`; see the module
    docstring for the kernel inventory.  Inherits the fast engine's
    ordered-queue maintenance, placement arithmetic, fallback rules and
    observability surface (plan-cache counters labelled
    ``engine="batch"``, admission spans, the opt-in ``profile`` phase
    timers) — all of it zero-perturbation, per the :mod:`repro.obs`
    contract.
    """

    #: Engine label carried into per-engine metric labels.
    engine_name = "batch"

    def __init__(
        self, policy, partitioner, cluster, *, obs=None, checkpoint=True
    ) -> None:
        super().__init__(
            policy, partitioner, cluster, obs=obs, checkpoint=checkpoint
        )
        if obs is not None:
            self._tier2_hits = obs.registry.counter(
                "admission_plan_cache_tier2_hits_total",
                "Placements served from the placement-input (tier-2) cache.",
                labels={"engine": self.engine_name},
            )
        else:
            self._tier2_hits = None
        #: Tier-2 hits tallied during the current walk, folded into the
        #: counter by :meth:`_flush_cache_tallies` once per test.
        self._tier2_pending = 0
        #: tid -> up to two :class:`_BatchEntry` (most recent first); the
        #: second slot preserves the committed-prefix entry across the
        #: perturbed keys a failed walk writes.
        self._memo: dict[int, list[_BatchEntry]] = {}
        #: tid -> placement-input key ``(n, ids, releases)`` -> entry: the
        #: second memo tier.  A newcomer mid-queue bumps its chosen nodes
        #: to a *late* completion, so a task behind it usually keeps the
        #: exact same ``n`` earliest nodes — the full availability vector
        #: differs (tier 1 misses) but the placement inputs do not.
        self._plan_cache: dict[int, dict[tuple, _BatchEntry]] = {}

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
        tracer = self._tracer
        if tracer is None:
            entries, failed = self._walk(new_task, waiting, reservations, now)
        else:
            with tracer.span(
                "admission.try_admit",
                "admission",
                now,
                task=new_task.task_id,
                queue=len(waiting),
                engine=self.engine_name,
            ):
                entries, failed = self._walk(
                    new_task, waiting, reservations, now
                )
                tracer.event(
                    "admission.decision",
                    "admission",
                    now,
                    task=new_task.task_id,
                    accepted=failed is None,
                )
        if failed is not None:
            return AdmissionDecision(accepted=False, plans={}, failed_task_id=failed)
        return AdmissionDecision(
            accepted=True,
            plans={
                item[0].task_id: self._materialize(item[1]) for item in entries
            },
        )

    def probe_completion(
        self,
        new_task: DivisibleTask,
        waiting: Sequence[DivisibleTask],
        reservations: NodeReservations,
        now: float,
    ) -> float | None:
        """The newcomer's estimated completion, or ``None`` on rejection.

        The fleet member kernel: identical walk (and identical memo
        effects — a routed ``submit`` right after replays it as cache
        hits) but no decision object and no plan materialization, which
        a probe discards anyway.
        """
        if self._delegate is not None or reservations.nodes != self._n:
            decision = self.try_admit(new_task, waiting, reservations, now)
            if not decision.accepted:
                return None
            return decision.plans[new_task.task_id].est_completion
        tracer = self._tracer
        if tracer is None:
            entries, failed = self._walk(new_task, waiting, reservations, now)
        else:
            with tracer.span(
                "admission.probe",
                "admission",
                now,
                task=new_task.task_id,
                queue=len(waiting),
                engine=self.engine_name,
            ):
                entries, failed = self._walk(
                    new_task, waiting, reservations, now
                )
        if failed is not None:
            return None
        pos = self._insert_pos
        if pos < len(entries) and entries[pos][0] is new_task:
            return entries[pos][3]
        target = new_task.task_id
        for item in entries:
            if item[0].task_id == target:
                return item[3]
        raise AssertionError("newcomer missing from its own walk")

    def _walk(
        self,
        new_task: DivisibleTask,
        waiting: Sequence[DivisibleTask],
        reservations: NodeReservations,
        now: float,
    ) -> tuple[list[tuple], int | None]:
        """Shared walk core: ``(entries, None)`` or ``([], failed_tid)``.

        ``entries`` is the checkpoint item list — per-position
        ``(task, entry, ids_list, completion)`` tuples in policy order,
        aliased by the prefix-checkpoint store and therefore only valid
        until the next walk mutates it (both callers consume it
        immediately).  When a checkpoint prefix validates
        (:meth:`~repro.core.fastpath.FastSchedulabilityTest._ckpt_restore`),
        those positions skip memo probing and placement entirely: their
        completions are replayed into the scratch vector and the walk
        starts at the first changed position.
        """
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
            plan_cache = self._plan_cache
            for tid in [k for k in plan_cache if k not in keep]:
                del plan_cache[tid]

        temp = self._temp
        np.copyto(temp, reservations.release_times)
        # Every write below is a completion >= now, so flooring once here
        # makes the reference's per-task max(release, now) the identity.
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
        use_tokens = self._token is not None
        bound_token = self._bound_token
        memo_on = self._memo_enabled
        token: object = _UNSET
        n_hits = n_misses = 0
        for task in ordered[start:] if start else ordered:
            tid = task.task_id
            if use_tokens:
                arr = task.arrival
                t_test = now if now > arr else arr
                token = bound_token(task.sigma, arr + task.deadline - t_test)
            entry: _BatchEntry | None = None
            key = b""
            slot: list[_BatchEntry] | None = None
            if memo_on:
                key = temp.tobytes()
                slot = memo.get(tid)
                if slot is not None:
                    cached = slot[0]
                    if cached.key == key and (
                        not use_tokens or cached.n_req == token
                    ):
                        entry = cached
                    elif len(slot) == 2:
                        cached = slot[1]
                        if cached.key == key and (
                            not use_tokens or cached.n_req == token
                        ):
                            entry = cached
                            slot[0], slot[1] = slot[1], slot[0]
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
                    if slot is None:
                        memo[tid] = [entry]
                    elif slot[0] is not entry:
                        # A tier-2 hit can resurface an object already in
                        # the slot; keep the pair free of duplicates.
                        if len(slot) == 2 and slot[1] is entry:
                            slot[0], slot[1] = slot[1], slot[0]
                        else:
                            slot.insert(0, entry)
                            del slot[2:]
            else:
                n_hits += 1
                if tracer is not None:
                    tracer.event(
                        "admission.plan_cache", "admission", now, task=tid
                    )
            ids = entry.ids
            if ids is None:
                if hits is not None:
                    self._flush_cache_tallies(n_hits, n_misses)
                if ckpt_on and start == 0:
                    # A rejection leaves the committed queue untouched, so
                    # the positions walked *before the newcomer's slot*
                    # re-seed the store (see the fast engine's walk).
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
                return [], tid
            completion = entry.completion
            for node in ids:
                temp[node] = completion
            side.append((task, entry, ids, completion))
        if hits is not None:
            self._flush_cache_tallies(n_hits, n_misses)
        if ckpt_on:
            self._ckpt_splice(start, side, reservations, now)
            return self._ckpt_items, None
        return side, None

    def _flush_cache_tallies(self, n_hits: int, n_misses: int) -> None:
        """As the fast engine's, plus the batched tier-2 hit tally."""
        if n_hits:
            self._cache_hits.inc(n_hits)
        if n_misses:
            self._cache_misses.inc(n_misses)
        if self._tier2_pending:
            self._tier2_hits.inc(self._tier2_pending)
            self._tier2_pending = 0

    # -- node-count bound via the threshold table --------------------------
    def _bound_token(self, sigma: float, budget: float) -> int | None:
        """:meth:`_min_nodes_worst`, decided by comparisons when certain.

        Same scalar ``g`` as the reference; the threshold table answers
        everything outside a guard band without a transcendental, and the
        guard-band remainder recomputes exactly.
        """
        if budget <= 0.0:
            return None
        g = 1.0 - (sigma * self._worst_cms) / budget
        table = self._bound_table
        c = bisect_right(table.asc, g)
        if c:
            if g >= table.lo[c - 1] and (c == table.n or g <= table.hi[c]):
                return table.n - c + 1
        elif g <= table.hi[0]:
            return None
        return self._min_nodes_worst(sigma, budget)

    def _fixed_point_bounds(
        self, task: DivisibleTask, order: list[int], floored: list[float]
    ) -> list[int | None]:
        """The bound at every candidate count ``k = 1..N`` in one pass."""
        absdl = task.arrival + task.deadline
        sigma = task.sigma
        bound_token = self._bound_token
        return [bound_token(sigma, absdl - floored[i]) for i in order]

    # -- lazy entries over the shared kernel ------------------------------
    def _entry(
        self,
        task: DivisibleTask,
        order: list[int],
        floored: list[float],
        n: int,
        shared=None,
    ) -> _BatchEntry | None:
        """The fast engine's placement (same kernel), plan deferred."""
        ids = order[:n]
        releases = [floored[i] for i in ids]
        placed = self._kernel(task, ids, releases, shared)
        if placed is None:
            return None
        completion, alphas, opr_rn = placed
        return _BatchEntry(task, ids, completion, releases, alphas, opr_rn)

    def _entry_cached(
        self,
        task: DivisibleTask,
        order: list[int],
        floored: list[float],
        n: int,
        shared=None,
    ) -> _BatchEntry | None:
        """Tier-2 memo: placements keyed on their *actual* inputs.

        A placement depends only on ``(n, ids[:n], releases[:n])``.  A
        newcomer bumps its chosen nodes to a *late* completion, so tasks
        behind it usually keep the identical ``n``-smallest candidate
        prefix even though the full availability vector (the tier-1 key)
        changed — hitting here skips the placement arithmetic entirely.
        """
        if not self._memo_enabled:
            return self._entry(task, order, floored, n, shared)
        ids = tuple(order[:n])
        key = (ids, tuple([floored[i] for i in ids]))
        cache = self._plan_cache.get(task.task_id)
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                if self._tier2_hits is not None:
                    self._tier2_pending += 1
                return hit
        entry = self._entry(task, order, floored, n, shared)
        if entry is not None:
            if cache is None:
                cache = self._plan_cache[task.task_id] = {}
            elif len(cache) >= 8:
                cache.clear()
            cache[key] = entry
        return entry

    def _materialize(self, entry: _BatchEntry) -> PlacementPlan:
        """Build (once) the exact plan the fast engine would have built."""
        plan = entry.plan
        if plan is not None:
            return plan
        releases_t = tuple(entry.releases)
        opr_rn = entry.opr_rn
        plan = _trusted_plan(
            entry.task,
            self.partitioner.method,
            tuple(entry.ids),
            releases_t,
            releases_t if opr_rn is None else (opr_rn,) * len(releases_t),
            tuple(entry.alphas),
            entry.completion,
        )
        entry.plan = plan
        return plan

    # -- placements (kernel ``self._kernel`` = DLT-IIT or OPR) -------------
    def _place_paper_rule(
        self,
        task: DivisibleTask,
        temp: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _BatchEntry:
        """Paper rule: ``ñ_min`` / ``n_min`` at the admission-test time."""
        n_req = self._node_count_token(task, now) if token is _UNSET else token
        if n_req is None:
            return _BatchEntry(task)
        order, floored = self._candidates(task, temp, now)
        entry = self._entry_cached(task, order, floored, n_req)
        if entry is None:
            return _BatchEntry(task, n_req=n_req)
        entry.n_req = n_req
        return entry

    def _place_all_nodes(
        self,
        task: DivisibleTask,
        temp: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _BatchEntry:
        """"-AN" variants: always the whole cluster, exact feasibility."""
        order, floored = self._candidates(task, temp, now)
        entry = self._entry_cached(task, order, floored, self._n)
        return entry if entry is not None else _BatchEntry(task)

    def _place_fixed_point(
        self,
        task: DivisibleTask,
        temp: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _BatchEntry:
        """Fixed-point ablation scan over precomputed all-``k`` bounds.

        The scan logic (start at the first satisfiable ``k``, jump to
        ``n_req``, skip failed ``n_req`` repeats, stop at ``None``) is the
        fast engine's, applied to the precomputed bound vector — same
        accepted plan, same rejection.
        """
        order, floored = self._candidates(task, temp, now)
        shared = self._shared_prefix(order)
        bounds = self._fixed_point_bounds(task, order, floored)
        big_n = self._n
        failed_n = 0
        k = 1
        while k <= big_n:
            n_req = bounds[k - 1]
            if n_req is None:
                break
            if n_req > k:
                k = n_req
                continue
            if n_req > failed_n:
                entry = self._entry_cached(task, order, floored, n_req, shared)
                if entry is not None:
                    return entry
                failed_n = n_req
            k += 1
        return _BatchEntry(task)

    # -- stochastic / generic partitioners --------------------------------
    def _place_via_partitioner(
        self,
        task: DivisibleTask,
        temp: "NDArray[np.float64]",
        now: float,
        token: object = _UNSET,
    ) -> _BatchEntry:
        """Defer to the partitioner's own ``place`` (User-Split)."""
        plan = self.partitioner.place(task, temp, self.cluster, now)
        if plan is None:
            return _BatchEntry(task)
        entry = _BatchEntry(
            task, ids=list(plan.node_ids), completion=plan.est_completion
        )
        entry.plan = plan
        return entry
