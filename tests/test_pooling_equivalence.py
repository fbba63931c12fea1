"""Property tests: arena-pooled engine ≡ no-pooling engine.

PR 3 extended the Frame/Envelope arenas to every envelope kind (eager/rts/
data cross the interposition surface under the explicit ownership contract
— see :mod:`repro.mpi.pml`).  Recycling is a host-side optimisation and
must be *observationally invisible*: ``ReferenceJob(pooling=False)`` (see
``tests/reference``) bypasses both
arenas (every acquire constructs a fresh object; the ownership accounting
stays on), and every randomized configuration here runs the same program
under both modes and compares the full engine fingerprint — per-rank
results, bit-identical virtual times, dispatched-event and frame counts.
This mirrors ``tests/test_matching_equivalence.py`` (indexed vs linear
matching) and ``tests/test_collectives_equivalence.py`` (flat vs spec
collectives): the bypass mode is the executable specification of what
pooling must preserve.

All five protocols are exercised: native (no filter, no hooks), sdr (ack
hooks + ctrl recycling), mirror (duplicate drops release borrowed
envelopes), leader (deferred receives inflate the unexpected queue, whose
entries the arena owns), and redmpi (per-send hash ctrl traffic + digest
checks inside the borrow window).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.runner import cluster_for
from repro.mpi.datatypes import Phantom

from reference import ReferenceJob, fingerprint

#: mixes power-of-two and odd sizes (collective algorithm switches)
SIZES = [2, 3, 4, 5]
PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _run(protocol: str, n_ranks: int, app, pooling: bool, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    job = ReferenceJob(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, cfg.degree), pooling=pooling)
    return job.launch(app, **kwargs).run()


def _assert_equivalent(protocol, n, app, **kwargs):
    pooled = _run(protocol, n, app, pooling=True, **kwargs)
    bypass = _run(protocol, n, app, pooling=False, **kwargs)
    assert fingerprint(pooled) == fingerprint(bypass), (
        f"pooled engine diverged from no-pooling spec ({protocol}, n={n})"
    )


# ------------------------------------------------------------ applications
def mixed_p2p(mpi, rounds, anonymous, tagset):
    """Eager p2p with optional wildcards: matched, unexpected and reorder
    paths, all below the eager limit."""
    acc = 0.0
    if mpi.rank == 0:
        for r in range(rounds):
            for _ in range(mpi.size - 1):
                src = mpi.ANY_SOURCE if anonymous else (_ % (mpi.size - 1)) + 1
                d, st = yield from mpi.recv(source=src, tag=tagset[r % len(tagset)])
                acc += float(d[0])
            for dst in range(1, mpi.size):
                yield from mpi.send(np.array([acc]), dest=dst, tag=tagset[r % len(tagset)])
    else:
        for r in range(rounds):
            yield from mpi.send(
                np.array([float(mpi.rank + r)]), dest=0, tag=tagset[r % len(tagset)]
            )
            d, _ = yield from mpi.recv(source=0, tag=tagset[r % len(tagset)])
            acc = float(d[0])
    return acc


def rendezvous_ring(mpi, iters, nbytes):
    """Modeled large payloads force the rts/cts/data path + a collective."""
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    acc = 0.0
    for _ in range(iters):
        yield from mpi.sendrecv(Phantom(nbytes), dest=right, source=left, sendtag=5)
        acc += float((yield from mpi.allreduce(float(mpi.rank), op="sum")))
    return acc


def collective_mix(mpi, iters):
    acc = 0.0
    for it in range(iters):
        root = it % mpi.size
        data = yield from mpi.bcast(np.arange(4, dtype=np.float64) + it, root=root)
        acc += float(data[0])
        acc += float((yield from mpi.allreduce(float(mpi.rank + it), op="max")))
        gathered = yield from mpi.gather(mpi.rank + it, root=root)
        acc += float((yield from mpi.scatter(gathered if mpi.rank == root else None, root=root)))
    return acc


# ----------------------------------------------------------------- the law
@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    protocol=st.sampled_from(PROTOCOLS),
    rounds=st.integers(1, 4),
    anonymous=st.booleans(),
    tagset=st.sampled_from([(1,), (1, 2), (3, 1, 2)]),
)
def test_p2p_pooling_equivalence(n, protocol, rounds, anonymous, tagset):
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
def test_rendezvous_pooling_equivalence(n, protocol, iters, nbytes):
    _assert_equivalent(protocol, n, rendezvous_ring, iters=iters, nbytes=nbytes)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    protocol=st.sampled_from(PROTOCOLS),
    iters=st.integers(1, 3),
)
def test_collective_pooling_equivalence(n, protocol, iters):
    _assert_equivalent(protocol, n, collective_mix, iters=iters)


def test_bypass_mode_really_bypasses():
    """pooling=False must construct fresh on every acquire (pool stays
    empty) while the ownership accounting still balances."""
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = ReferenceJob(4, cfg=cfg, cluster=cluster_for(4, 2), pooling=False)
    job.launch(mixed_p2p, rounds=3, anonymous=True, tagset=(1, 2)).run()
    for pml in job.pmls.values():
        assert pml.env_allocated == pml.env_acquired  # no reuse ever
        assert len(pml._env_pool) == 0
    assert len(job.fabric._frame_pool) == 0
    assert job.fabric.frames_allocated == job.fabric.frames_acquired
