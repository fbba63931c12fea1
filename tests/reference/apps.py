"""Application generators the equivalence suites run under both engines.

Each suite passes its own sizes (``rounds``/``iters``) explicitly, so one
copy serves every pair the suites compare.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.datatypes import Phantom


def mixed_p2p(mpi, rounds, anonymous, tagset):
    """Eager p2p with optional wildcards: matched, unexpected and reorder
    paths, all below the eager limit — dense same-timestamp batches of
    completions and wake-ups."""
    acc = 0.0
    if mpi.rank == 0:
        for r in range(rounds):
            for _ in range(mpi.size - 1):
                src = mpi.ANY_SOURCE if anonymous else (_ % (mpi.size - 1)) + 1
                d, _st = yield from mpi.recv(source=src, tag=tagset[r % len(tagset)])
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
    """Modeled large payloads force the rts/cts/data handshake + a collective."""
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


def mixed_traffic(mpi, rounds, nbytes=65536):
    """Eager p2p + ANY_SOURCE + rendezvous Phantoms + collectives: every
    path shared state or the working-set layers could influence
    (interned Phantom payloads, bursty arena use, wildcard match lanes)."""
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    acc = 0.0
    for r in range(rounds):
        yield from mpi.sendrecv(Phantom(nbytes), dest=right, source=left, sendtag=1)
        if mpi.rank == 0:
            for _ in range(mpi.size - 1):
                d, _st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=2)
                acc += float(d[0])
        else:
            yield from mpi.send(np.array([float(mpi.rank + r)]), dest=0, tag=2)
        acc += float((yield from mpi.allreduce(float(mpi.rank), op="sum")))
        yield from mpi.compute(1e-6)
    return acc
