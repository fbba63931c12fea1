"""Message matching: posted-receive queue and unexpected-message queue.

MPI matching rules implemented here:

* a receive matches a message when contexts are equal, the receive's source
  is :data:`~repro.mpi.status.ANY_SOURCE` or equals the message's source
  rank, and the receive's tag is :data:`~repro.mpi.status.ANY_TAG` or equals
  the message's tag;
* *non-overtaking*: messages are considered in arrival order, receives in
  posting order — the first compatible pair matches;
* a message that matches no posted receive is queued as *unexpected* (the
  paper's §3.1 points out that leader-based replication inflates this queue;
  we count hits so the ablation can measure it).

Two implementations share that contract:

:class:`MatchEngine` (the default) indexes both queues by
``(ctx, source, tag)`` *pattern lanes*.  A posted receive lives in exactly
one lane — the lane of its own pattern, wildcards included.  An arriving
envelope can be claimed by at most four patterns (``(ctx, src, tag)``,
``(ctx, src, ANY)``, ``(ctx, ANY, tag)``, ``(ctx, ANY, ANY)``), so
``arrive`` peeks four lane heads and takes the earliest-posted candidate —
which is exactly the "first compatible receive in posting order" rule.
Symmetrically, an unexpected envelope is registered under all four of its
pattern lanes; ``post`` looks up the single lane of the receive's own
pattern and claims the head.

Structure-of-arrays layout (the run-time working-set pass): entries live
in parallel slot arrays (``seq``/``item`` for posted, ``seq``/``env``/
``refs`` for unexpected) with a free-slot stack, and a lane is a plain
list of slot indices whose element 0 is the head cursor — ``[head, s0,
s1, ...]``.  The previous layout kept one ``deque`` per pattern lane
holding a 3-element list per entry; at 8192+ processes those per-lane
deques (~760 B each, ~tens of lanes per PML) were the single largest
run-time working-set term the profiler found.  A lane list costs ~64 B
and an entry costs two array cells plus one lane int.  Claimed/cancelled
entries are tombstoned in place (``item``/``env`` cell cleared — which
frees the payload immediately) and their slots recycled when they surface
at a lane head, keeping every operation amortized O(1); an unexpected
slot is recycled once all four lanes have dropped their reference
(``refs`` cell).  Drained lanes are truncated back to ``[1]`` and long
dead prefixes compacted, so lane lists cannot grow without bound.

The seed engine's O(n)-scan implementation survives as a test-side
reference (``tests/reference``): the property tests in
``tests/test_matching_equivalence.py`` drive both engines with randomized
post/arrive/cancel/probe streams (including wildcards) and require
identical pairing decisions, and the reference job runs entire jobs on it
for the fingerprint-equivalence suites.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.mpi.status import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.pml import Envelope, PmlRecvRequest

__all__ = ["MatchEngine"]

#: compact a lane's dead prefix once the head cursor passes this depth
_COMPACT_AT = 32


class MatchEngine:
    """Per-process matching state: (ctx, source, tag) lanes over slot arrays."""

    __slots__ = (
        "_posted_lanes",
        "_posted_entry",
        "_posted_seq",
        "_posted_pending",
        "_p_seq",
        "_p_item",
        "_p_free",
        "_unexpected_lanes",
        "_unexpected_seq",
        "_unexpected_pending",
        "_u_seq",
        "_u_env",
        "_u_refs",
        "_u_free",
        "unexpected_count",
        "unexpected_peak",
    )

    def __init__(self) -> None:
        #: posting-order lanes: pattern key -> [head, slot, slot, ...]
        self._posted_lanes: Dict[Tuple, list] = {}
        #: recv identity -> its slot index (for O(1) cancel)
        self._posted_entry: Dict[int, int] = {}
        self._posted_seq = 0
        self._posted_pending = 0
        # posted slot arrays (parallel): posting seq + the request itself;
        # a cleared item cell is a tombstone, recycled via the free stack
        self._p_seq: List[int] = []
        self._p_item: List[Optional["PmlRecvRequest"]] = []
        self._p_free: List[int] = []
        #: arrival-order lanes: pattern key -> [head, slot, slot, ...];
        #: each envelope's slot appears in all four patterns that could
        #: claim it
        self._unexpected_lanes: Dict[Tuple, list] = {}
        self._unexpected_seq = 0
        self._unexpected_pending = 0
        # unexpected slot arrays (parallel): arrival seq, the envelope
        # (cleared on claim — frees payload while tombstones linger), and
        # the number of lanes still referencing the slot (recycle at 0)
        self._u_seq: List[int] = []
        self._u_env: List[Optional["Envelope"]] = []
        self._u_refs: List[int] = []
        self._u_free: List[int] = []
        #: number of messages that arrived before their receive was posted
        self.unexpected_count = 0
        #: high-water mark of the unexpected queue
        self.unexpected_peak = 0

    # ----------------------------------------------------- diagnostic views
    @property
    def posted(self) -> List["PmlRecvRequest"]:
        """Pending posted receives in posting order (diagnostics/tests)."""
        seqs = self._p_seq
        live = [
            (seqs[slot], item)
            for slot, item in enumerate(self._p_item)
            if item is not None
        ]
        live.sort(key=lambda e: e[0])
        return [item for _s, item in live]

    @property
    def unexpected(self) -> List["Envelope"]:
        """Pending unexpected envelopes in arrival order (diagnostics/tests)."""
        seqs = self._u_seq
        live = [
            (seqs[slot], env)
            for slot, env in enumerate(self._u_env)
            if env is not None
        ]
        live.sort(key=lambda e: e[0])
        return [env for _s, env in live]

    # ----------------------------------------------------------- post side
    def post(self, recv: "PmlRecvRequest") -> Optional["Envelope"]:
        """Register a receive; returns an unexpected envelope if one matches."""
        key = (recv.ctx, recv.source, recv.tag)
        lane = self._unexpected_lanes.get(key)
        if lane is not None:
            u_env = self._u_env
            u_refs = self._u_refs
            u_free = self._u_free
            h = lane[0]
            n = len(lane)
            claimed = None
            while h < n:
                slot = lane[h]
                h += 1
                env = u_env[slot]
                # This lane drops its reference whether the slot is a
                # tombstone being compacted or the live head being claimed.
                r = u_refs[slot] - 1
                u_refs[slot] = r
                if env is not None:
                    # Clearing the env cell frees the envelope's payload
                    # now, even though the other three lanes only drop
                    # their tombstones when they surface at a head.
                    u_env[slot] = None
                    if r == 0:
                        u_free.append(slot)
                    claimed = env
                    break
                if r == 0:
                    u_free.append(slot)
            if h >= n:
                del lane[1:]
                lane[0] = 1
            elif h > _COMPACT_AT:
                del lane[1:h]
                lane[0] = 1
            else:
                lane[0] = h
            if claimed is not None:
                self._unexpected_pending -= 1
                return claimed
        self._posted_seq += 1
        p_free = self._p_free
        if p_free:
            slot = p_free.pop()
            self._p_seq[slot] = self._posted_seq
            self._p_item[slot] = recv
        else:
            slot = len(self._p_seq)
            self._p_seq.append(self._posted_seq)
            self._p_item.append(recv)
        posted_lane = self._posted_lanes.get(key)
        if posted_lane is None:
            posted_lane = self._posted_lanes[key] = [1]
        posted_lane.append(slot)
        self._posted_entry[id(recv)] = slot
        self._posted_pending += 1
        return None

    def cancel(self, recv: "PmlRecvRequest") -> bool:
        """Remove a posted receive; False if it already matched."""
        slot = self._posted_entry.pop(id(recv), None)
        if slot is None:
            return False
        # Tombstone in place; the slot recycles when it surfaces at its
        # lane's head (arrive/post head-compaction).
        self._p_item[slot] = None
        self._posted_pending -= 1
        return True

    # -------------------------------------------------------- arrival side
    def arrive(self, env: "Envelope") -> Optional["PmlRecvRequest"]:
        """Offer an arriving envelope; returns the matching posted receive,
        or None after queuing the envelope as unexpected."""
        ctx = env.ctx
        src = env.src_rank
        tag = env.tag
        lanes = self._posted_lanes
        p_item = self._p_item
        p_seq = self._p_seq
        p_free = self._p_free
        best_seq = 0
        best_lane = None
        best_slot = -1
        for key in (
            (ctx, src, tag),
            (ctx, src, ANY_TAG),
            (ctx, ANY_SOURCE, tag),
            (ctx, ANY_SOURCE, ANY_TAG),
        ):
            lane = lanes.get(key)
            if lane is None:
                continue
            h = lane[0]
            n = len(lane)
            # Drop tombstones (matched or cancelled receives) at the head,
            # recycling their slots.
            while h < n:
                slot = lane[h]
                if p_item[slot] is not None:
                    break
                p_free.append(slot)
                h += 1
            if h >= n:
                if n > 1:
                    del lane[1:]
                lane[0] = 1
                continue
            if h > _COMPACT_AT:
                del lane[1:h]
                lane[0] = 1
            else:
                lane[0] = h
            slot = lane[lane[0]]
            s = p_seq[slot]
            if best_lane is None or s < best_seq:
                best_seq = s
                best_lane = lane
                best_slot = slot
        if best_lane is not None:
            recv = p_item[best_slot]
            p_item[best_slot] = None
            p_free.append(best_slot)
            h = best_lane[0] + 1
            if h >= len(best_lane):
                del best_lane[1:]
                best_lane[0] = 1
            else:
                best_lane[0] = h
            del self._posted_entry[id(recv)]
            self._posted_pending -= 1
            return recv
        # Unexpected: register the slot under every pattern that could
        # later claim it (four lane references).
        self._unexpected_seq += 1
        u_free = self._u_free
        if u_free:
            slot = u_free.pop()
            self._u_seq[slot] = self._unexpected_seq
            self._u_env[slot] = env
            self._u_refs[slot] = 4
        else:
            slot = len(self._u_seq)
            self._u_seq.append(self._unexpected_seq)
            self._u_env.append(env)
            self._u_refs.append(4)
        ulanes = self._unexpected_lanes
        for key in (
            (ctx, src, tag),
            (ctx, src, ANY_TAG),
            (ctx, ANY_SOURCE, tag),
            (ctx, ANY_SOURCE, ANY_TAG),
        ):
            lane = ulanes.get(key)
            if lane is None:
                lane = ulanes[key] = [1]
            lane.append(slot)
        self._unexpected_pending += 1
        self.unexpected_count += 1
        if self._unexpected_pending > self.unexpected_peak:
            self.unexpected_peak = self._unexpected_pending
        return None

    # ------------------------------------------------------------- queries
    def probe(self, ctx, source: int, tag: int) -> Optional["Envelope"]:
        """First unexpected envelope compatible with (ctx, source, tag)."""
        lane = self._unexpected_lanes.get((ctx, source, tag))
        if lane is None:
            return None
        u_env = self._u_env
        u_refs = self._u_refs
        u_free = self._u_free
        h = lane[0]
        n = len(lane)
        # Non-destructive for live entries, but dead heads can be dropped.
        while h < n:
            slot = lane[h]
            env = u_env[slot]
            if env is not None:
                lane[0] = h
                return env
            r = u_refs[slot] - 1
            u_refs[slot] = r
            if r == 0:
                u_free.append(slot)
            h += 1
        del lane[1:]
        lane[0] = 1
        return None

    def drain_unexpected(self) -> List["Envelope"]:
        """Remove and return every pending unexpected envelope, in arrival
        order (end-of-run teardown: the PML returns them to its arena)."""
        u_env = self._u_env
        u_seq = self._u_seq
        live = [
            (u_seq[slot], env) for slot, env in enumerate(u_env) if env is not None
        ]
        live.sort(key=lambda e: e[0])
        out = [env for _s, env in live]
        self._unexpected_lanes.clear()
        del u_env[:]
        del u_seq[:]
        del self._u_refs[:]
        del self._u_free[:]
        self._unexpected_pending = 0
        return out

    def stats(self) -> dict:
        return {
            "unexpected_count": self.unexpected_count,
            "unexpected_peak": self.unexpected_peak,
            "posted_pending": self._posted_pending,
            "unexpected_pending": self._unexpected_pending,
        }
