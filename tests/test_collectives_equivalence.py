"""Property tests: flattened collectives ≡ generator-spec collectives.

PR 2 flattened the collective algorithms' ``yield from`` towers into
inline-progress fast paths (see ``repro/mpi/collectives/algorithms.py``);
the original towers survive as the ``*_spec`` functions in
``tests/reference/collectives.py``.  The two
implementations must be *observationally identical*: same per-rank
results, same virtual runtime, same dispatched-event and frame counts —
matching order, combine order and the rendezvous handshake are all
observable through those.  This mirrors ``tests/test_matching_equivalence.py``
(indexed vs linear matching): the spec is executable, and every randomized
configuration runs both implementations in real jobs and compares the
engine fingerprint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.mpi.collectives import algorithms as coll

from reference import collectives as ref_coll

OPS = ["sum", "prod", "max", "min"]
#: mixes power-of-two and odd sizes: allreduce/alltoall switch algorithms
SIZES = [2, 3, 4, 5, 8]
#: every shipped protocol: the flat wait loops specialize on handle type
#: (stock done predicate, needs_advance, needs_ack), and mirror's
#: multi-request SendHandles, SDR's ack gating and redMPI's per-send hash
#: traffic each exercise a different branch of those guards
PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _run(protocol: str, n_ranks: int, app, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, cfg.degree))
    return job.launch(app, **kwargs).run()


def _norm(value):
    """Comparable form of an app result (numpy arrays → nested lists)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    return value


def _fingerprint(res):
    return {
        "results": {proc: _norm(v) for proc, v in sorted(res.app_results.items())},
        "runtime": repr(res.runtime),
        "finish": {p: repr(t) for p, t in sorted(res.finish_times.items())},
        "events": res.events,
        "frames": res.fabric["frames"],
        "bytes": res.fabric["bytes"],
        "by_kind": dict(sorted(res.fabric["by_kind"].items())),
    }


def _assert_equivalent(protocol, n, app, **kwargs):
    flat = _fingerprint(_run(protocol, n, app, impl="flat", **kwargs))
    spec = _fingerprint(_run(protocol, n, app, impl="spec", **kwargs))
    assert flat == spec, f"flattened collective diverged from spec ({protocol}, n={n})"


# ------------------------------------------------------------- applications
def _rooted_app(flat_fn, spec_fn, make_data):
    def app(mpi, impl, root):
        fn = flat_fn if impl == "flat" else spec_fn
        return (yield from fn(mpi, mpi.world, make_data(mpi), root))

    return app


def _op_app(flat_fn, spec_fn, make_data):
    def app(mpi, impl, op):
        fn = flat_fn if impl == "flat" else spec_fn
        return (yield from fn(mpi, mpi.world, make_data(mpi), op))

    return app


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    root=st.integers(0, 7),
    protocol=st.sampled_from(PROTOCOLS),
    payload=st.sampled_from(["scalar", "array"]),
)
def test_bcast_equivalence(n, root, protocol, payload):
    def make_data(mpi):
        if payload == "array":
            return np.arange(6, dtype=np.float64) * (mpi.rank + 1)
        return float(mpi.rank * 10 + 1)

    app = _rooted_app(coll.bcast, ref_coll.bcast_spec, make_data)
    _assert_equivalent(protocol, n, app, root=root % n)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    root=st.integers(0, 7),
    op=st.sampled_from(OPS),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_reduce_equivalence(n, root, op, protocol):
    def app(mpi, impl, root, op):
        fn = coll.reduce if impl == "flat" else ref_coll.reduce_spec
        return (yield from fn(mpi, mpi.world, float(mpi.rank + 2), op, root))

    _assert_equivalent(protocol, n, app, root=root % n, op=op)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    op=st.sampled_from(OPS),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_allreduce_equivalence(n, op, protocol):
    def make_data(mpi):
        return np.array([mpi.rank + 1.0, mpi.rank * 0.5])

    app = _op_app(coll.allreduce, ref_coll.allreduce_spec, make_data)
    _assert_equivalent(protocol, n, app, op=op)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from(SIZES), protocol=st.sampled_from(PROTOCOLS))
def test_barrier_equivalence(n, protocol):
    def app(mpi, impl):
        fn = coll.barrier if impl == "flat" else ref_coll.barrier_spec
        yield from fn(mpi, mpi.world)
        return mpi.wtime()

    _assert_equivalent(protocol, n, app)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    root=st.integers(0, 7),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_gather_scatter_equivalence(n, root, protocol):
    def app(mpi, impl, root):
        gather_fn = coll.gather if impl == "flat" else ref_coll.gather_spec
        scatter_fn = coll.scatter if impl == "flat" else ref_coll.scatter_spec
        gathered = yield from gather_fn(mpi, mpi.world, mpi.rank * 3 + 1, root)
        chunks = gathered if mpi.rank == root else None
        back = yield from scatter_fn(mpi, mpi.world, chunks, root)
        return gathered, back

    _assert_equivalent(protocol, n, app, root=root % n)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from(SIZES), protocol=st.sampled_from(PROTOCOLS))
def test_allgather_alltoall_equivalence(n, protocol):
    def app(mpi, impl):
        allgather_fn = coll.allgather if impl == "flat" else ref_coll.allgather_spec
        alltoall_fn = coll.alltoall if impl == "flat" else ref_coll.alltoall_spec
        everyone = yield from allgather_fn(mpi, mpi.world, mpi.rank + 0.5)
        swapped = yield from alltoall_fn(
            mpi, mpi.world, [mpi.rank * mpi.size + j for j in range(mpi.size)]
        )
        return everyone, swapped

    _assert_equivalent(protocol, n, app)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    op=st.sampled_from(OPS),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_scan_reduce_scatter_equivalence(n, op, protocol):
    def app(mpi, impl, op):
        scan_fn = coll.scan if impl == "flat" else ref_coll.scan_spec
        rs_fn = coll.reduce_scatter_block if impl == "flat" else ref_coll.reduce_scatter_block_spec
        prefix = yield from scan_fn(mpi, mpi.world, float(mpi.rank + 1), op)
        mine = yield from rs_fn(mpi, mpi.world, [float(j + 1) for j in range(mpi.size)], op)
        return prefix, mine

    _assert_equivalent(protocol, n, app, op=op)


# --------------------------------------------------------- deterministic mix
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("n", [4, 6])
def test_mixed_collective_program_equivalence(protocol, n):
    """A program interleaving every collective (including a rendezvous-size
    payload) fingerprints identically under both implementations."""

    def app(mpi, impl):
        flat = impl == "flat"
        acc = 0.0
        for it in range(2):
            root = it % mpi.size
            yield from (coll.barrier if flat else ref_coll.barrier_spec)(mpi, mpi.world)
            data = yield from (coll.bcast if flat else ref_coll.bcast_spec)(
                mpi, mpi.world, np.full(16384, float(mpi.rank + it)), root
            )
            acc += float(data[0])
            r = yield from (coll.reduce if flat else ref_coll.reduce_spec)(
                mpi, mpi.world, float(mpi.rank), "sum", root
            )
            if r is not None:
                acc += r
            acc += (yield from (coll.allreduce if flat else ref_coll.allreduce_spec)(
                mpi, mpi.world, float(mpi.rank + it), "max"
            ))
            acc += (yield from (coll.scan if flat else ref_coll.scan_spec)(
                mpi, mpi.world, 1.0, "sum"
            ))
        return acc

    _assert_equivalent(protocol, n, app)
