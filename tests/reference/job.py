"""``ReferenceJob``: a :class:`repro.harness.runner.Job` on seed-shaped stacks.

Every host-side optimisation of the engine keeps its seed-shaped
predecessor as an executable specification, and the equivalence suites run
the same program on both and compare fingerprints.  The predecessors live
here, not in ``src/``: a reference job builds the production stacks and then
patches the built objects, so production code carries no switch for them.

Each keyword turns one reference mode on when set to its non-default value
(the defaults reproduce the production :class:`Job` exactly):

* ``bucketed=False`` — heap-only queue: every now-time insertion is pushed
  onto the kernel heap as ``(now, seq, event)`` instead of the near-horizon
  bucket (see :func:`heap_only`);
* ``pooling=False`` — no Frame/Envelope recycling: every acquire constructs
  fresh, while the acquire/release accounting stays on;
* ``shared_state=False`` — private per-stack copies of the flyweight state
  (cost rows, protocol config, world communicator members);
* ``interning=False`` — no payload intern table (every snapshot stays a
  distinct object);
* ``arena_trim=False`` — no quiescent-point trims (free lists grow to their
  all-time peak);
* ``matching="linear"`` — every PML matches on
  :class:`reference.matching.LinearMatchEngine`.

``ReferenceJob(..., **ALL_REFERENCE)`` is the fully seed-shaped stack.
The patches are applied in :meth:`ReferenceJob._build_stack`, so they
re-apply to the stacks ``spawn_replica`` rebuilds on a recovery fork.
"""

from __future__ import annotations

from heapq import heappush

from repro.harness.runner import Job
from repro.sim.kernel import Simulator

from reference.matching import LinearMatchEngine

__all__ = ["ALL_REFERENCE", "ReferenceJob", "heap_only"]

#: every reference mode at once
ALL_REFERENCE = dict(
    pooling=False,
    bucketed=False,
    shared_state=False,
    interning=False,
    arena_trim=False,
    matching="linear",
)


class _HeapBucket:
    """Stand-in for ``Simulator._bucket`` that routes now-time insertions
    to the heap with a fresh sequence number — the heap-only queue.  It is
    always empty, so the dispatch loop's bucket phase never runs."""

    __slots__ = ("sim",)

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def append(self, event) -> None:
        sim = self.sim
        sim._seq += 1
        heappush(sim._queue, (sim._now, sim._seq, event))

    def popleft(self):
        raise IndexError("pop from the heap-only bucket")

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())


def heap_only(sim: Simulator) -> Simulator:
    """Switch *sim* to the heap-only queue (idempotent); entries already in
    the bucket move onto the heap in FIFO order."""
    bucket = sim._bucket
    if type(bucket) is not _HeapBucket:
        sim._bucket = _HeapBucket(sim)
        for event in bucket:
            sim._bucket.append(event)
    return sim


class _DiscardList(list):
    """A free list that never keeps anything: releases are dropped, so every
    acquire misses and constructs fresh."""

    __slots__ = ()

    def append(self, item) -> None:
        pass


class ReferenceJob(Job):
    """A :class:`Job` with the selected seed-shaped reference modes."""

    def __init__(
        self,
        *args,
        pooling: bool = True,
        bucketed: bool = True,
        shared_state: bool = True,
        interning: bool = True,
        arena_trim: bool = True,
        matching: str = "indexed",
        **kwargs,
    ) -> None:
        if matching not in ("indexed", "linear"):
            raise ValueError(f"matching must be 'indexed' or 'linear', got {matching!r}")
        self.pooling = pooling
        self.bucketed = bucketed
        self.shared_state = shared_state
        self.interning = interning
        self.matching = matching
        super().__init__(*args, **kwargs)
        if not arena_trim:
            self.sim.on_advance = None

    def _build_stack(self, proc: int) -> None:
        if not self.bucketed:
            heap_only(self.sim)
        if not self.shared_state:
            self._proto_shared = None
            self._world_shared = None
        super()._build_stack(proc)
        pml = self.pmls[proc]
        if not self.pooling:
            pml._env_pool = _DiscardList()
            fabric = self.fabric
            if type(fabric._frame_pool) is not _DiscardList:
                fabric._frame_pool = _DiscardList()
        if not self.shared_state:
            pml._send_row = {}
            pml._recv_row = {}
        if not self.interning:
            pml._interner = None
        if self.matching == "linear":
            pml.matching = LinearMatchEngine()
