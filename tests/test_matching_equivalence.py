"""Property tests: indexed MatchEngine ≡ LinearMatchEngine.

The indexed engine replaces the seed engine's linear scans with pattern
lanes; MPI semantics (non-overtaking, first-compatible-pair, wildcard
receives) must be preserved *exactly* — the pairing decisions of the two
engines on any operation stream have to be identical, because matching
order is observable through virtual timestamps and ANY_SOURCE results.

The streams below interleave arrivals, posts (with ANY_SOURCE/ANY_TAG in
all four combinations), cancels and probes over multiple contexts, and
compare every return value plus the pending-queue contents and stats after
every step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mpi.matching import MatchEngine
from repro.mpi.pml import Envelope, PmlRecvRequest
from repro.mpi.status import ANY_SOURCE, ANY_TAG

from reference import LinearMatchEngine


def make_env(ctx, src, tag, seq):
    return Envelope(
        kind="eager",
        ctx=ctx,
        src_rank=src,
        tag=tag,
        world_src=src,
        world_dst=1,
        seq=seq,
        nbytes=8,
        data=None,
        src_phys=src,
        dst_phys=1,
    )


CTXS = [("w", "p"), ("c", 1)]
SRC = st.integers(0, 2)
TAG = st.integers(0, 2)
WSRC = st.one_of(st.just(ANY_SOURCE), st.integers(0, 2))
WTAG = st.one_of(st.just(ANY_TAG), st.integers(0, 2))
CTX = st.sampled_from(CTXS)

# op encodings: ("arrive", ctx, src, tag) | ("post", ctx, src?, tag?)
#               | ("cancel", k) — cancel the k-th still-pending posted recv
#               | ("probe", ctx, src?, tag?)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), CTX, SRC, TAG),
        st.tuples(st.just("post"), CTX, WSRC, WTAG),
        st.tuples(st.just("cancel"), st.integers(0, 5)),
        st.tuples(st.just("probe"), CTX, WSRC, WTAG),
    ),
    min_size=1,
    max_size=60,
)


def snapshot(engine):
    return (
        [id(r) for r in engine.posted],
        [id(e) for e in engine.unexpected],
        engine.stats(),
    )


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_indexed_engine_matches_linear_reference(ops):
    fast, ref = MatchEngine(), LinearMatchEngine()
    # Shared objects: both engines see the *same* request/envelope instances
    # so identity-based comparison of results is meaningful.
    pending_recvs = []
    seq = 0
    for op in ops:
        if op[0] == "arrive":
            _, ctx, src, tag = op
            env = make_env(ctx, src, tag, seq)
            seq += 1
            got_fast = fast.arrive(env)
            got_ref = ref.arrive(env)
            assert got_fast is got_ref
            if got_fast is not None and got_fast in pending_recvs:
                pending_recvs.remove(got_fast)
        elif op[0] == "post":
            _, ctx, src, tag = op
            recv = PmlRecvRequest(ctx, src, tag)
            got_fast = fast.post(recv)
            got_ref = ref.post(recv)
            assert got_fast is got_ref
            if got_fast is None:
                pending_recvs.append(recv)
        elif op[0] == "cancel":
            _, k = op
            if not pending_recvs:
                continue
            recv = pending_recvs[k % len(pending_recvs)]
            ok_fast = fast.cancel(recv)
            ok_ref = ref.cancel(recv)
            assert ok_fast == ok_ref
            if ok_fast:
                pending_recvs.remove(recv)
        else:  # probe
            _, ctx, src, tag = op
            assert fast.probe(ctx, src, tag) is ref.probe(ctx, src, tag)
        assert snapshot(fast) == snapshot(ref), "queues diverged mid-stream"


@settings(max_examples=150, deadline=None)
@given(
    arrivals=st.lists(st.tuples(SRC, TAG), min_size=1, max_size=25),
    wild=st.lists(st.booleans(), min_size=25, max_size=25),
)
def test_wildcard_drain_preserves_arrival_order(arrivals, wild):
    """Draining with a mix of specific and wildcard receives pairs both
    engines identically and respects non-overtaking per pattern."""
    fast, ref = MatchEngine(), LinearMatchEngine()
    ctx = CTXS[0]
    for i, (src, tag) in enumerate(arrivals):
        env = make_env(ctx, src, tag, i)
        assert fast.arrive(env) is ref.arrive(env)
    for i, (src, tag) in enumerate(arrivals):
        if wild[i]:
            recv = PmlRecvRequest(ctx, ANY_SOURCE, ANY_TAG)
        else:
            recv = PmlRecvRequest(ctx, src, tag)
        assert fast.post(recv) is ref.post(recv)
    assert snapshot(fast) == snapshot(ref)


def test_cancelled_receive_never_matches():
    fast = MatchEngine()
    ctx = CTXS[0]
    r1 = PmlRecvRequest(ctx, ANY_SOURCE, 1)
    r2 = PmlRecvRequest(ctx, ANY_SOURCE, 1)
    fast.post(r1)
    fast.post(r2)
    assert fast.cancel(r1)
    assert not fast.cancel(r1), "double-cancel must report failure"
    env = make_env(ctx, 0, 1, 0)
    assert fast.arrive(env) is r2, "tombstoned receive matched"
    assert fast.stats()["posted_pending"] == 0


def test_tombstones_do_not_leak_into_views():
    fast = MatchEngine()
    ctx = CTXS[0]
    envs = [make_env(ctx, s, 0, s) for s in range(3)]
    for env in envs:
        fast.arrive(env)
    # Claim the middle one via a specific receive: lanes for the wildcard
    # patterns still hold its tombstone internally.
    got = fast.post(PmlRecvRequest(ctx, 1, 0))
    assert got is envs[1]
    assert fast.unexpected == [envs[0], envs[2]]
    assert fast.probe(ctx, ANY_SOURCE, ANY_TAG) is envs[0]
    assert fast.stats()["unexpected_pending"] == 2
