"""Property tests: two-level event queue ≡ heap-only queue.

PR 4 split the kernel queue into a near-horizon FIFO bucket (events at the
current virtual time) backed by the heap (strictly-future times) — see
:mod:`repro.sim.kernel`.  The split is a host-side optimisation and must be
*observationally invisible*: ``ReferenceJob(bucketed=False)`` (see
``tests/reference``) keeps every insertion on the heap exactly as the seed
engine did (the executable specification),
and every randomized configuration here runs the same program under both
modes and compares the full engine fingerprint — per-rank results,
bit-identical virtual times and finish times, dispatched-event and frame
counts, per-kind frame histograms.  This mirrors
``tests/test_pooling_equivalence.py`` (arenas vs fresh allocation) and
``tests/test_matching_equivalence.py`` (indexed vs linear matching).

All five protocols are exercised: the replication protocols multiply
zero-delay completions (ack fan-out, reorder release, endpoint wake-ups),
which is exactly the traffic the bucket absorbs.  The kernel-level FIFO law
is additionally pinned directly: interleaved now-time and future
insertions, including insertions made *while* a same-time batch drains,
dispatch in identical order under both modes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.runner import cluster_for
from repro.sim.kernel import Simulator

from reference import ReferenceJob, fingerprint, heap_only
from reference.apps import collective_mix, mixed_p2p, rendezvous_ring

SIZES = [2, 3, 4, 5]
PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _run(protocol: str, n_ranks: int, app, bucketed: bool, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    job = ReferenceJob(
        n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, cfg.degree), bucketed=bucketed
    )
    return job.launch(app, **kwargs).run()


def _assert_equivalent(protocol, n, app, **kwargs):
    bucketed = _run(protocol, n, app, bucketed=True, **kwargs)
    heap_only = _run(protocol, n, app, bucketed=False, **kwargs)
    assert fingerprint(bucketed) == fingerprint(heap_only), (
        f"two-level queue diverged from heap-only spec ({protocol}, n={n})"
    )


# ----------------------------------------------------------------- the law
@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    protocol=st.sampled_from(PROTOCOLS),
    rounds=st.integers(1, 4),
    anonymous=st.booleans(),
    tagset=st.sampled_from([(1,), (1, 2), (3, 1, 2)]),
)
def test_p2p_queue_equivalence(n, protocol, rounds, anonymous, tagset):
    _assert_equivalent(
        protocol, n, mixed_p2p, rounds=rounds, anonymous=anonymous, tagset=tagset
    )


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    protocol=st.sampled_from(PROTOCOLS),
    iters=st.integers(1, 3),
    nbytes=st.sampled_from([16384, 65536]),
)
def test_rendezvous_queue_equivalence(n, protocol, iters, nbytes):
    _assert_equivalent(protocol, n, rendezvous_ring, iters=iters, nbytes=nbytes)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    protocol=st.sampled_from(PROTOCOLS),
    iters=st.integers(1, 3),
)
def test_collective_queue_equivalence(n, protocol, iters):
    _assert_equivalent(protocol, n, collective_mix, iters=iters)


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(["sdr", "mirror", "leader"]),
    crash_us=st.floats(min_value=1.0, max_value=150.0),
)
def test_failover_queue_equivalence(protocol, crash_us):
    """Crash handling (detector fan-out, failover resends, duplicate
    suppression) schedules bursts of now-time events — the two modes must
    agree on the whole fingerprint through a fail-stop too."""

    def run_mode(bucketed):
        cfg = ReplicationConfig(degree=2, protocol=protocol)
        job = ReferenceJob(4, cfg=cfg, cluster=cluster_for(4, 2), bucketed=bucketed)
        job.launch(mixed_p2p, rounds=3, anonymous=True, tagset=(1, 2))
        job.crash(1, 1, at=crash_us * 1e-6)
        return job.run(allow_lost_ranks=True)

    assert fingerprint(run_mode(True)) == fingerprint(run_mode(False))


# ------------------------------------------------------- kernel-level laws
def _record_order(sim):
    seen = []
    # Interleave: future events that, when fired, schedule same-time
    # follow-ups (the clumpy MPI shape), plus pre-run now-time events.
    def fire(label, follow=()):
        def cb(label=label, follow=follow):
            seen.append((label, sim.now))
            for f in follow:
                sim.call_in(0.0, lambda f=f: seen.append((f, sim.now)))
        return cb

    sim.call_in(0.0, fire("pre-a", follow=("pre-a.0", "pre-a.1")))
    sim.call_at(1.0, fire("t1-a", follow=("t1-a.0",)))
    sim.call_at(1.0, fire("t1-b", follow=("t1-b.0", "t1-b.1")))
    sim.call_at(2.0, fire("t2-a"))
    sim.call_in(0.0, fire("pre-b"))
    sim.run()
    return seen


def test_kernel_fifo_order_matches_heap_only():
    """Same-time insertions made while a batch drains fire in exactly the
    order the heap-only queue would have given them."""
    assert _record_order(Simulator()) == _record_order(heap_only(Simulator()))


def test_kernel_step_and_peek_agree():
    for sim in (Simulator(), heap_only(Simulator())):
        seen = []
        sim.call_in(0.0, lambda: seen.append("now"))
        sim.call_at(3.0, lambda: seen.append("later"))
        assert sim.peek() == 0.0
        assert sim.queue_size == 2
        assert sim.step() and seen == ["now"]
        assert sim.peek() == 3.0
        assert sim.step() and seen == ["now", "later"]
        assert not sim.step()
        assert sim.peek() is None and sim.queue_size == 0


def test_heap_only_mode_really_uses_the_heap():
    sim = heap_only(Simulator())
    sim.call_in(0.0, lambda: None)
    assert len(sim._queue) == 1 and not sim._bucket
    sim2 = Simulator()
    sim2.call_in(0.0, lambda: None)
    assert len(sim2._bucket) == 1 and not sim2._queue
