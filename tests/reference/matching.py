"""Linear-scan message matching: the seed engine, kept as the matching spec.

Same contract as :class:`repro.mpi.matching.MatchEngine` (non-overtaking
``(ctx, source, tag)`` matching with wildcards, unexpected-queue
accounting), implemented as O(n) scans over two deques.  The matching
property tests drive both engines with identical streams;
:class:`reference.ReferenceJob` with ``matching="linear"`` runs whole jobs
on this one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, TYPE_CHECKING

from repro.mpi.status import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.pml import Envelope, PmlRecvRequest

__all__ = ["LinearMatchEngine"]


def _compatible(recv: "PmlRecvRequest", env: "Envelope") -> bool:
    if recv.ctx != env.ctx:
        return False
    if recv.source != ANY_SOURCE and recv.source != env.src_rank:
        return False
    if recv.tag != ANY_TAG and recv.tag != env.tag:
        return False
    return True


class LinearMatchEngine:
    """The seed engine: linear scans over plain deques.

    The executable specification of MPI matching semantics; the indexed
    :class:`repro.mpi.matching.MatchEngine` must be observationally
    equivalent (see ``tests/test_matching_equivalence.py``).
    """

    def __init__(self) -> None:
        self.posted: Deque["PmlRecvRequest"] = deque()
        self.unexpected: Deque["Envelope"] = deque()
        self.unexpected_count = 0
        self.unexpected_peak = 0

    # ----------------------------------------------------------- post side
    def post(self, recv: "PmlRecvRequest") -> Optional["Envelope"]:
        """Register a receive; returns an unexpected envelope if one matches."""
        for i, env in enumerate(self.unexpected):
            if _compatible(recv, env):
                del self.unexpected[i]
                return env
        self.posted.append(recv)
        return None

    def cancel(self, recv: "PmlRecvRequest") -> bool:
        """Remove a posted receive; False if it already matched."""
        try:
            self.posted.remove(recv)
            return True
        except ValueError:
            return False

    # -------------------------------------------------------- arrival side
    def arrive(self, env: "Envelope") -> Optional["PmlRecvRequest"]:
        """Offer an arriving envelope; returns the matching posted receive,
        or None after queuing the envelope as unexpected."""
        for i, recv in enumerate(self.posted):
            if _compatible(recv, env):
                del self.posted[i]
                return recv
        self.unexpected.append(env)
        self.unexpected_count += 1
        self.unexpected_peak = max(self.unexpected_peak, len(self.unexpected))
        return None

    # ------------------------------------------------------------- queries
    def probe(self, ctx, source: int, tag: int) -> Optional["Envelope"]:
        """First unexpected envelope compatible with (ctx, source, tag)."""
        for env in self.unexpected:
            if env.ctx != ctx:
                continue
            if source != ANY_SOURCE and source != env.src_rank:
                continue
            if tag != ANY_TAG and tag != env.tag:
                continue
            return env
        return None

    def drain_unexpected(self) -> List["Envelope"]:
        """Remove and return every pending unexpected envelope, in arrival
        order (end-of-run teardown: the PML returns them to its arena)."""
        out = list(self.unexpected)
        self.unexpected.clear()
        return out

    def stats(self) -> dict:
        return {
            "unexpected_count": self.unexpected_count,
            "unexpected_peak": self.unexpected_peak,
            "posted_pending": len(self.posted),
            "unexpected_pending": len(self.unexpected),
        }
