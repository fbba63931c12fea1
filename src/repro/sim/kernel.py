"""The event loop: virtual clock plus a deterministic two-level queue.

Determinism contract
--------------------
Events scheduled for the same virtual time fire in the order they were
scheduled (FIFO tie-breaking via a sequence counter).  Nothing in the kernel
consults wall-clock time or unseeded randomness, so a simulation is a pure
function of its inputs.  This property is load-bearing: the send-determinism
checker (:mod:`repro.trace.determinism`) relies on being able to perturb
*only* the knobs it intends to perturb.

Two-level queue
---------------
The queue has two levels keyed on the current virtual time:

* the **near-horizon bucket** — a plain FIFO (`deque`) holding events
  scheduled *at* the current timestamp.  Now-time insertions are the
  majority of queue traffic in MPI simulations (zero-delay completions,
  endpoint wake-ups, same-time follow-ups of a frame arrival), and a FIFO
  append/popleft replaces an O(log n) heap push/pop pair whose depth grows
  with rank count;
* the **heap** — `heapq` of ``(time, seq, event)`` for strictly-future
  timestamps only.

FIFO ``(time, seq)`` order is provably unchanged: every entry the heap
holds for time *T* was pushed while ``now < T`` and therefore carries a
lower sequence number than anything appended to the bucket once the clock
reads *T* — so draining heap-at-now entries first, then the bucket (which
preserves insertion order by construction), reproduces exactly the order
a heap-only queue would have produced.  The heap-only queue survives as a
test-side reference (``tests/reference``), which the queue equivalence
suite compares this one against.

Every now-time insertion site appends to ``Simulator._bucket``: the
kernel's :meth:`Simulator.schedule`/:meth:`Simulator.schedule_at`, and the
inlined hot paths in :mod:`repro.sim.sync` (zero-delay ``Event.succeed``,
``Timeout``), :mod:`repro.sim.process` (zero CPU charges) and
:mod:`repro.network.fabric` (endpoint wake-ups, zero-latency arrivals).
Bucket entries carry no sequence number — the FIFO *is* the order — so
the dominant insertion also skips the counter increment and tuple build.

Hot-path notes
--------------
:meth:`Simulator.run` and the exclusive shard-window drain share one
dispatch loop, :meth:`Simulator._drain`: no per-event hook branch, no
``getattr`` fallback for ``cancelled``, locals hoisted out of the loop,
and events sharing a virtual timestamp dispatched as one batch with one
deadline compare per timestamp.  Every schedulable object therefore
**must** carry a ``cancelled`` attribute (see :class:`EventLike`); a
class-level ``cancelled = False`` is enough for events that are never
revoked.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from typing import Any, Callable, Optional

__all__ = ["Simulator", "SimulationError", "StopSimulation"]


class SimulationError(RuntimeError):
    """Raised for fatal kernel-level errors (deadlock, time travel, ...)."""


class StopSimulation(Exception):
    """Raised internally to abort :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Simulator:
    """A deterministic discrete-event simulator."""

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_bucket",
        "_running",
        "_stopped",
        "on_advance",
        "events_dispatched",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._queue: list = []  # heap of (time, seq, event) — future times
        self._bucket: deque = deque()  # FIFO of events at the current time
        self._running = False
        self._stopped: Optional[StopSimulation] = None
        #: quiescent-point hook: a zero-argument callable invoked after all
        #: events at the current timestamp have fired, just before the
        #: clock advances.  Deliberately *not* a scheduled event — it never
        #: touches ``events_dispatched`` or the queue order, so enabling it
        #: is unobservable to determinism goldens.  The callee must not
        #: schedule events or raise; the harness uses it to trim arena
        #: free lists between timestamp batches.
        self.on_advance: Optional[Callable[[], None]] = None
        #: number of events dispatched so far (observability/bench metric)
        self.events_dispatched: int = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, event: "EventLike", delay: float = 0.0) -> "EventLike":
        """Enqueue *event* to fire ``delay`` seconds from now.

        Returns the event to allow chaining.  Negative delays are a
        programming error and raise :class:`SimulationError`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        if delay:
            self._seq += 1
            heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        else:
            self._bucket.append(event)
        return event

    def schedule_at(self, event: "EventLike", when: float) -> "EventLike":
        """Enqueue *event* to fire at absolute virtual time *when*."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when} (now t={self._now})"
            )
        if when > self._now:
            self._seq += 1
            heapq.heappush(self._queue, (when, self._seq, event))
        else:
            self._bucket.append(event)
        return event

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callback at absolute time *when*."""
        self.schedule_at(_Callback(fn), when)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callback ``delay`` seconds from now."""
        self.schedule(_Callback(fn), delay)

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> Any:
        """Dispatch events until the queue drains or *until* is reached.

        With *until*, events at exactly ``until`` fire and the clock parks
        at ``until`` even if the queue drained earlier; without it the
        clock stays at the last dispatched timestamp.  Returns the value
        carried by :class:`StopSimulation` if the simulation was stopped
        explicitly, else ``None``.
        """
        return self._drain(until, inclusive=True)

    def run_until_before(self, horizon: float) -> Any:
        """Dispatch every event with virtual time strictly below *horizon*.

        The conservative-window drain used by sharded-parallel execution
        (:mod:`repro.sim.shard`): unlike :meth:`run`, which is *inclusive*
        of events at ``until``, this leaves every event at
        ``t >= horizon`` pending and the clock strictly below *horizon*
        (or unchanged if nothing fired).  A shard can therefore run its
        window ``[W, W + lookahead)``, exchange cross-shard frames whose
        arrivals all land at ``>= W + lookahead``, and resume — without
        ever firing an event whose inputs a peer shard could still
        change.
        """
        return self._drain(horizon, inclusive=False)

    def _drain(self, horizon: Optional[float], inclusive: bool) -> Any:
        """The one dispatch loop: inclusive for :meth:`run`, exclusive for
        the shard-window drain.

        Events sharing the current virtual time are dispatched as one
        *batch*: heap entries at the current time first (they were pushed
        before the clock reached it and carry lower sequence numbers),
        then the near-horizon bucket in FIFO order — anything a batch
        member schedules *at* the current time lands at the bucket's tail,
        which is exactly where a heap-only queue's higher sequence number
        would have placed it.  Firing a bucket event can append to the
        bucket but never push a same-time heap entry (now-time insertions
        are routed to the bucket), which is what makes the phase split
        safe.

        The horizon becomes one exclusive ``limit`` up front (for an
        inclusive horizon, the next float above it), so the deadline costs
        one compare per timestamp, never one per event.  An inclusive
        horizon below the current time raises :class:`SimulationError`:
        parking the clock there would rewind it.  An exclusive one at or
        below the current time fires nothing and leaves the clock alone —
        a shard whose clock already passed a window's horizon simply sits
        that window out.

        ``events_dispatched`` is accumulated in a local and written back on
        exit (including the StopSimulation path); nothing in-tree reads it
        mid-run.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if horizon is None:
            limit = math.inf
        elif not inclusive:
            limit = horizon
        elif horizon < self._now:
            raise SimulationError(
                f"cannot run to t={horizon}: the clock already reads t={self._now}"
            )
        else:
            limit = math.nextafter(horizon, math.inf)
        self._running = True
        self._stopped = None
        queue = self._queue
        bucket = self._bucket
        heappop = heapq.heappop
        popleft = bucket.popleft
        dispatched = self.events_dispatched
        # The dispatch loop allocates heavily (events, frames, generator
        # frames) but creates almost no garbage cycles; pausing the cyclic
        # collector for the duration avoids whole-heap scans mid-run.  It
        # is restored whatever happens, and has no observable effect on
        # simulation results.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            now = self._now
            while now < limit:
                while queue and queue[0][0] == now:
                    event = heappop(queue)[2]
                    if not event.cancelled:
                        dispatched += 1
                        event.fire()
                while bucket:
                    event = popleft()
                    if not event.cancelled:
                        dispatched += 1
                        event.fire()
                if not queue:
                    break
                when = queue[0][0]
                if when == now:
                    # Unrouted same-time push (direct heappush by
                    # embedding code): defensive re-drain.
                    continue
                if when >= limit:
                    break
                advance = self.on_advance
                if advance is not None:
                    advance()
                self._now = now = when
            if inclusive and horizon is not None:
                self._now = horizon
        except StopSimulation as stop:
            self._stopped = stop
        finally:
            self.events_dispatched = dispatched
            if gc_was_enabled:
                gc.enable()
            self._running = False
        return self._stopped.value if self._stopped is not None else None

    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty."""
        queue = self._queue
        bucket = self._bucket
        if bucket:
            # Heap entries at the current time (pushed before the clock
            # reached it, hence lower seq) fire before bucket entries.
            if queue and queue[0][0] <= self._now:
                when, _seq, event = heapq.heappop(queue)
                self._now = when
            else:
                event = bucket.popleft()
        elif queue:
            when, _seq, event = heapq.heappop(queue)
            self._now = when
        else:
            return False
        if event.cancelled:
            return True
        self.events_dispatched += 1
        event.fire()
        return True

    def stop(self, value: Any = None) -> None:
        """Stop the simulation from inside an event callback."""
        raise StopSimulation(value)

    @property
    def queue_size(self) -> int:
        return len(self._queue) + len(self._bucket)

    def peek(self) -> Optional[float]:
        """Virtual time of the next pending event, or None if idle."""
        if self._bucket:
            return self._now
        return self._queue[0][0] if self._queue else None


class _Callback:
    """Adapter turning a plain callable into a schedulable event."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.cancelled = False

    def fire(self) -> None:
        self.fn()


class EventLike:
    """Protocol for objects accepted by :meth:`Simulator.schedule`.

    Anything with a ``fire()`` method and a ``cancelled`` attribute
    qualifies; :class:`repro.sim.sync.Event` is the canonical
    implementation.  ``cancelled`` is **required** (a class attribute
    ``cancelled = False`` suffices): the dispatch loop reads it directly
    instead of paying a per-event ``getattr`` fallback.
    """

    cancelled: bool = False

    def fire(self) -> None:  # pragma: no cover - protocol stub
        raise NotImplementedError
