"""Seed-shaped collectives: the executable specification of the flat ones.

Each ``*_spec`` function delegates through the nonblocking API exactly the
way the seed engine's collectives did (``_send``/``_recv`` ->
``isend_on``/``irecv_on`` -> ``wait_handles``).  The flattened production
versions in :mod:`repro.mpi.collectives.algorithms` must match them in
results *and* engine behaviour; ``tests/test_collectives_equivalence.py``
runs both in real jobs.  Any schedule change is made here first.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.mpi.collectives.algorithms import _TOKEN, _base_tag
from repro.mpi.datatypes import combine

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.api import MpiProcess
    from repro.mpi.comm import Communicator

__all__ = [
    "barrier_spec",
    "bcast_spec",
    "reduce_spec",
    "allreduce_spec",
    "gather_spec",
    "scatter_spec",
    "allgather_spec",
    "alltoall_spec",
    "reduce_scatter_block_spec",
    "scan_spec",
]


def _send(api: "MpiProcess", comm: "Communicator", peer: int, tag: int, data: Any) -> Generator:
    req = yield from api.isend_on(comm, comm.ctx_coll, peer, tag, data)
    return req


def _recv(api: "MpiProcess", comm: "Communicator", peer: int, tag: int) -> Generator:
    req = yield from api.irecv_on(comm, comm.ctx_coll, peer, tag)
    return req


def _sendrecv_spec(api, comm, send_peer, recv_peer, tag, data) -> Generator:
    """Post both sides, then progress both to completion (deadlock-free)."""
    rreq = yield from _recv(api, comm, recv_peer, tag)
    sreq = yield from _send(api, comm, send_peer, tag, data)
    yield from api.wait_handles([sreq, rreq])
    return rreq.data


def barrier_spec(api: "MpiProcess", comm: "Communicator") -> Generator:
    """Dissemination barrier: round k talks to rank ± 2^k."""
    n = comm.size
    if n == 1:
        return
    me = comm.rank
    tag0 = _base_tag(comm)
    k = 0
    dist = 1
    while dist < n:
        to = (me + dist) % n
        frm = (me - dist) % n
        yield from _sendrecv_spec(api, comm, to, frm, tag0 + k, _TOKEN)
        dist <<= 1
        k += 1


def bcast_spec(api: "MpiProcess", comm: "Communicator", data: Any, root: int) -> Generator:
    """Binomial-tree broadcast; returns the payload on every rank."""
    n = comm.size
    if n == 1:
        return data
    me = (comm.rank - root) % n  # virtual rank: root becomes 0
    tag0 = _base_tag(comm)
    # Receive phase: my parent clears my lowest set bit.
    if me != 0:
        mask = me & (-me)
        parent = (me - mask + root) % n
        req = yield from _recv(api, comm, parent, tag0)
        yield from api.wait_handles([req])
        data = req.data
        mask >>= 1
    else:
        mask = 1 << ((n - 1).bit_length() - 1)
    # Send phase: forward to children below my lowest set bit.
    while mask >= 1:
        child = me + mask
        if child < n:
            peer = (child + root) % n
            req = yield from _send(api, comm, peer, tag0, data)
            yield from api.wait_handles([req])
        mask >>= 1
    return data


def reduce_spec(api: "MpiProcess", comm: "Communicator", data: Any, op: str, root: int) -> Generator:
    """Binomial-tree reduction; result only meaningful at *root*."""
    n = comm.size
    if n == 1:
        return data
    me = (comm.rank - root) % n
    tag0 = _base_tag(comm)
    acc = data
    mask = 1
    while mask < n:
        if me & mask:
            parent = ((me & ~mask) + root) % n
            req = yield from _send(api, comm, parent, tag0, acc)
            yield from api.wait_handles([req])
            break
        child = me | mask
        if child < n:
            peer = (child + root) % n
            req = yield from _recv(api, comm, peer, tag0)
            yield from api.wait_handles([req])
            acc = combine(op, acc, req.data)
        mask <<= 1
    return acc if comm.rank == root else None


def allreduce_spec(api: "MpiProcess", comm: "Communicator", data: Any, op: str) -> Generator:
    """Recursive doubling for power-of-two sizes, reduce+bcast otherwise."""
    n = comm.size
    if n == 1:
        return data
    if n & (n - 1):  # not a power of two
        acc = yield from reduce_spec(api, comm, data, op, root=0)
        acc = yield from bcast_spec(api, comm, acc, root=0)
        return acc
    me = comm.rank
    tag0 = _base_tag(comm)
    acc = data
    mask = 1
    k = 0
    while mask < n:
        peer = me ^ mask
        other = yield from _sendrecv_spec(api, comm, peer, peer, tag0 + k, acc)
        # Fixed combine order (lower rank's contribution first) so every
        # rank computes bitwise-identical results.
        acc = combine(op, acc, other) if peer > me else combine(op, other, acc)
        mask <<= 1
        k += 1
    return acc


def gather_spec(api: "MpiProcess", comm: "Communicator", data: Any, root: int) -> Generator:
    """Linear gather; returns the rank-ordered list at root, None elsewhere."""
    n = comm.size
    tag0 = _base_tag(comm)
    if comm.rank == root:
        out: List[Any] = [None] * n
        out[root] = data
        reqs = []
        for r in range(n):
            if r == root:
                continue
            req = yield from _recv(api, comm, r, tag0)
            reqs.append((r, req))
        yield from api.wait_handles([req for _r, req in reqs])
        for r, req in reqs:
            out[r] = req.data
        return out
    req = yield from _send(api, comm, root, tag0, data)
    yield from api.wait_handles([req])
    return None


def scatter_spec(
    api: "MpiProcess", comm: "Communicator", chunks: Optional[List[Any]], root: int
) -> Generator:
    """Linear scatter of a rank-indexed list from root."""
    n = comm.size
    tag0 = _base_tag(comm)
    if comm.rank == root:
        if chunks is None or len(chunks) != n:
            raise ValueError(f"scatter at root requires a list of {n} chunks")
        reqs = []
        for r in range(n):
            if r == root:
                continue
            req = yield from _send(api, comm, r, tag0, chunks[r])
            reqs.append(req)
        yield from api.wait_handles(reqs)
        return chunks[root]
    req = yield from _recv(api, comm, root, tag0)
    yield from api.wait_handles([req])
    return req.data


def allgather_spec(api: "MpiProcess", comm: "Communicator", data: Any) -> Generator:
    """Ring allgather: n-1 rounds, each forwarding the next slice."""
    n = comm.size
    me = comm.rank
    out: List[Any] = [None] * n
    out[me] = data
    if n == 1:
        return out
    tag0 = _base_tag(comm)
    right = (me + 1) % n
    left = (me - 1) % n
    carry = data
    for k in range(n - 1):
        carry = yield from _sendrecv_spec(api, comm, right, left, tag0 + k, carry)
        out[(me - 1 - k) % n] = carry
    return out


def alltoall_spec(api: "MpiProcess", comm: "Communicator", chunks: List[Any]) -> Generator:
    """Pairwise-exchange alltoall (XOR schedule for power-of-two sizes)."""
    n = comm.size
    me = comm.rank
    if chunks is None or len(chunks) != n:
        raise ValueError(f"alltoall requires a list of {n} chunks")
    out: List[Any] = [None] * n
    out[me] = chunks[me]
    tag0 = _base_tag(comm)
    pow2 = n & (n - 1) == 0
    for k in range(1, n):
        if pow2:
            peer = me ^ k
            send_peer = recv_peer = peer
        else:
            send_peer = (me + k) % n
            recv_peer = (me - k) % n
        got = yield from _sendrecv_spec(api, comm, send_peer, recv_peer, tag0 + k, chunks[send_peer])
        out[recv_peer] = got
    return out


def reduce_scatter_block_spec(
    api: "MpiProcess", comm: "Communicator", chunks: List[Any], op: str
) -> Generator:
    """Block reduce-scatter: elementwise reduce of rank-indexed chunk lists,
    each rank keeping its own chunk.  Implemented as reduce + scatter."""
    n = comm.size
    if chunks is None or len(chunks) != n:
        raise ValueError(f"reduce_scatter requires a list of {n} chunks")
    # combine() is elementwise over lists, so a plain tree reduce of the
    # chunk lists followed by a scatter implements the block variant.
    reduced = yield from reduce_spec(api, comm, list(chunks), op=op, root=0)
    return (yield from scatter_spec(api, comm, reduced, root=0))


def scan_spec(api: "MpiProcess", comm: "Communicator", data: Any, op: str) -> Generator:
    """Inclusive prefix scan along the rank order (linear chain)."""
    me = comm.rank
    n = comm.size
    tag0 = _base_tag(comm)
    acc = data
    if me > 0:
        req = yield from _recv(api, comm, me - 1, tag0)
        yield from api.wait_handles([req])
        acc = combine(op, req.data, acc)
    if me < n - 1:
        req = yield from _send(api, comm, me + 1, tag0, acc)
        yield from api.wait_handles([req])
    return acc
