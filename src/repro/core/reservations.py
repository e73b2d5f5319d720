"""Node reservation state: the ``Release(node_k)`` model of Figure 2.

The schedulability test reasons about each node through a single scalar —
the time the node is released by the task currently holding it.  Idle gaps
*before* a planned allocation are deliberately **not** tracked: a node
assigned to a future task is considered unavailable from its previous
release onward, which is exactly the Inserted-Idle-Time inefficiency the
paper's partitioner then exploits (and the OPR baseline suffers from).

Only *started* (dispatched) tasks hold committed reservations; tasks still
in the waiting queue are re-planned from scratch on every arrival, per the
pseudocode's ``TempTaskList ← NewTask + TaskWaitingQueue``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.errors import InvalidParameterError, ScheduleConsistencyError

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

__all__ = ["NodeReservations"]


class NodeReservations:
    """Per-node next-free times for a cluster of ``N`` nodes.

    The structure is intentionally tiny — a NumPy vector plus invariant
    checks — because the schedulability test copies it once per admission
    attempt (``TempSchedule`` in Figure 2).
    """

    __slots__ = ("_release", "_owner", "_epoch")

    #: Owner value meaning "nobody holds this node".
    NO_OWNER = -1

    def __init__(self, nodes: int) -> None:
        if nodes < 1:
            raise InvalidParameterError(f"nodes must be >= 1, got {nodes}")
        self._release = np.zeros(nodes, dtype=np.float64)
        self._owner = np.full(nodes, self.NO_OWNER, dtype=np.int64)
        self._epoch = 0

    # -- construction ----------------------------------------------------
    @classmethod
    def from_times(cls, times: Iterable[float]) -> "NodeReservations":
        """Build from explicit next-free times (tests / ablations)."""
        arr = np.asarray(list(times), dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameterError("times must be a non-empty 1-D sequence")
        obj = cls(int(arr.size))
        obj._release[:] = arr
        return obj

    def copy(self) -> "NodeReservations":
        """Deep copy for temp planning (cheap: two small ndarrays)."""
        clone = NodeReservations(self.nodes)
        clone._release[:] = self._release
        clone._owner[:] = self._owner
        clone._epoch = self._epoch
        return clone

    # -- queries ----------------------------------------------------------
    @property
    def nodes(self) -> int:
        """Cluster size ``N``."""
        return int(self._release.size)

    @property
    def epoch(self) -> int:
        """Availability epoch: bumped by every mutation of the hold vector.

        The fast admission engine (:mod:`repro.core.fastpath`) keys
        its prefix checkpoints on ``(identity, epoch)``: a checkpoint
        taken against this object at epoch ``e`` is trivially valid while
        the epoch still reads ``e``, because :meth:`assign` (dispatch),
        :meth:`release_early` (eager release / actual completion) and
        :meth:`floor_release` (fault outage) each advance it.  Fault
        windows, displacement and re-admission therefore invalidate
        checkpoints through the same counter without any engine-specific
        hook.
        """
        return self._epoch

    @property
    def release_times(self) -> "NDArray[np.float64]":
        """Read-only view of raw next-free times (by node id)."""
        view = self._release.view()
        view.flags.writeable = False
        return view

    def availability(self, now: float) -> "NDArray[np.float64]":
        """``max(Release(node_k), now)`` per node — Figure 2's ``AN(t)`` basis."""
        return np.maximum(self._release, now)

    def available_count(self, t: float) -> int:
        """``AN(t)`` — number of nodes free at (or before) time ``t``."""
        return int(np.count_nonzero(self._release <= t))

    def earliest_time_for(self, n: int, now: float) -> float:
        """Earliest time ``t`` at which ``AN(t) >= n`` nodes are available."""
        if not 1 <= n <= self.nodes:
            raise InvalidParameterError(
                f"need 1 <= n <= {self.nodes} nodes, got {n}"
            )
        avail = np.sort(self.availability(now), kind="stable")
        return float(avail[n - 1])

    # -- mutation ---------------------------------------------------------
    def assign(
        self, node_ids: Iterable[int], until: float, owner: int | None = None
    ) -> None:
        """Hold ``node_ids`` until ``until`` (their new release time).

        ``owner`` (a task id) records who holds the node last; it gates
        :meth:`release_early` so a finished task can never shrink a hold
        that has since been handed to a successor.

        Raises
        ------
        ScheduleConsistencyError
            If an assignment would move a node's release time *backwards* —
            the planner only ever extends holds (completion estimates are
            beyond availability by construction), so a regression means a
            scheduling bug.

        A dispatch holds a handful of nodes, so the checks run on Python
        scalars: ``until < c - 1e-9`` is monotone in ``c``, so testing the
        largest current release decides it for every node.
        """
        ids = [int(i) for i in node_ids]
        if not ids:
            raise InvalidParameterError("assign() needs at least one node id")
        release = self._release
        nodes = release.size
        for i in ids:
            if i < 0 or i >= nodes:
                raise InvalidParameterError(
                    f"node ids out of range [0, {nodes}): {ids}"
                )
        current = max([release[i] for i in ids])
        if until < current - 1e-9:
            raise ScheduleConsistencyError(
                "assignment would shrink a node hold: "
                f"until={until} < current release {current}"
            )
        holder = self.NO_OWNER if owner is None else owner
        owners = self._owner
        for i in ids:
            release[i] = until
            owners[i] = holder
        self._epoch += 1

    def release_early(
        self,
        node_ids: Iterable[int],
        times: Iterable[float],
        owner: int | None = None,
    ) -> None:
        """Shrink holds to actual completion times (eager-release ablation).

        The default (paper) bookkeeping keeps a node reserved until the
        *estimated* completion even though Theorem 4 says the actual finish
        is earlier.  The eager-release ablation hands the node back at the
        actual finish instead; this method applies that shrink (it never
        extends a hold).

        With ``owner`` given, nodes whose hold has since been re-assigned
        to a different task are left untouched — otherwise a completing
        task would tear down its successor's reservation and let a third
        task double-book the node.
        """
        ids = np.asarray(list(node_ids), dtype=np.intp)
        t = np.asarray(list(times), dtype=np.float64)
        if ids.shape != t.shape:
            raise InvalidParameterError("node_ids and times must have equal length")
        if np.any(ids < 0) or np.any(ids >= self.nodes):
            raise InvalidParameterError(
                f"node ids out of range [0, {self.nodes}): {ids.tolist()}"
            )
        if owner is not None:
            mask = self._owner[ids] == owner
            ids, t = ids[mask], t[mask]
            if ids.size == 0:
                return
        self._release[ids] = np.minimum(self._release[ids], t)
        self._owner[ids] = self.NO_OWNER
        self._epoch += 1

    def floor_release(self, node_ids: Iterable[int], until: float) -> None:
        """Raise holds to at least ``until`` (a fault outage).

        A crashed node cannot be handed to anyone before it recovers, so
        its release time is *floored* at the recovery instant.  The floor
        is monotone (``max`` with the current hold, so overlapping
        outages compose to the latest recovery) and ownerless: it belongs
        to the environment, not to any task, and clearing the owner means
        no completing task's :meth:`release_early` can ever undercut it.
        Later assignments extend past it normally — admission plans start
        at or after availability, which now includes the floor.
        """
        ids = np.asarray(list(node_ids), dtype=np.intp)
        if ids.size == 0:
            return
        if np.any(ids < 0) or np.any(ids >= self.nodes):
            raise InvalidParameterError(
                f"node ids out of range [0, {self.nodes}): {ids.tolist()}"
            )
        self._release[ids] = np.maximum(self._release[ids], until)
        self._owner[ids] = self.NO_OWNER
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeReservations({self._release.tolist()})"
