"""The flyweight footprint contract (PR 5).

Everything immutable and identical across a job's simulated processes is
allocated once per :class:`~repro.harness.runner.Job` and shared — the
world communicator's member tuple and rank map, the fabric's
:class:`~repro.network.fabric.CostTable` rows, the protocols'
:class:`~repro.core.replicated.ProtocolShared` config — while the
per-process residue is slotted and lazy.  These tests pin three things:

* **equivalence** — ``ReferenceJob(shared_state=False)`` (see
  ``tests/reference``) keeps the seed-shaped private-copies construction
  as the executable spec, and the shared
  engine must produce bit-identical fingerprints across all five
  protocols, crash-free and crashy;
* **budget** — a tracemalloc-measured bytes-per-process ceiling at the
  paper tier, with generous headroom (the seed construction was ~42 KB
  per process; the flyweight engine is ~4 KB — the budget catches a
  regression back toward per-proc copies, not allocator noise);
* **attribution & guard** — the strand-attribution satellite
  (``JobResult.stranded_by_site``) reports per-mechanism losses, and the
  ``incoming_filter`` ownership guard turns a silently-stranding custom
  filter into a loud, named failure.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.core.interpose import set_filter_guard
from repro.core.recovery import RecoveryManager
from repro.core.sdr import SdrProtocol
from repro.harness.runner import Job, _PROTOCOL_CLASSES, cluster_for
from repro.mpi.errors import DeadlockError

from reference import ReferenceJob, fingerprint
from reference.apps import mixed_traffic

PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _job(protocol="native", n=2, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    return ReferenceJob(n, cfg=cfg, cluster=cluster_for(n, cfg.degree), **kwargs)


class TestSharedStateEquivalence:
    """Shared-config stacks ≡ seed-shaped per-proc construction."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_crash_free_fingerprints_identical(self, protocol):
        def run(shared):
            job = _job(protocol, n=4, shared_state=shared)
            return job.launch(mixed_traffic, rounds=3).run()

        assert fingerprint(run(True), stranded=True) == fingerprint(run(False), stranded=True), (
            f"shared-state engine diverged from per-proc spec ({protocol})"
        )

    @pytest.mark.parametrize("protocol", ["sdr", "mirror", "leader"])
    @pytest.mark.parametrize("crash_at", [2e-5, 9e-5])
    def test_failover_fingerprints_identical(self, protocol, crash_at):
        """Failover exercises the lazily-materialized scratch (substitute
        maps, early acks, reorder buffers) — shared and private stacks
        must still agree bit-for-bit.  Some (protocol, crash-time) pairs
        legitimately wedge (a mirror crash mid-rendezvous has no failover
        resend); a deadlock is then the *outcome* both modes must agree
        on, down to the blocked-process set — and the arenas must still
        balance once survivors are abandoned."""

        def run(shared):
            job = _job(protocol, n=4, shared_state=shared)
            job.launch(mixed_traffic, rounds=3)
            job.crash(1, 1, at=crash_at)
            try:
                return fingerprint(job.run(), stranded=True)
            except DeadlockError as err:
                job._assert_arenas_balanced()
                return ("deadlock", sorted(err.blocked.items()))

        assert run(True) == run(False), (
            f"shared-state engine diverged under failover ({protocol})"
        )

    def test_shared_objects_are_actually_shared(self):
        job = _job("sdr", n=4)
        protos = list(job.protocols.values())
        pmls = list(job.pmls.values())
        assert all(p.shared is protos[0].shared for p in protos)
        # every world communicator references the one job-level tuple
        worlds = [m.world for m in job.mpis.values()]
        assert all(w.members is worlds[0].members for w in worlds)
        assert all(w._world_to_rank is worlds[0]._world_to_rank for w in worlds)
        # PMLs on the same node share cost rows; all rows come from the table
        by_node = {}
        for pml in pmls:
            by_node.setdefault(pml._node_of[pml.proc], []).append(pml)
        for node_pmls in by_node.values():
            first = node_pmls[0]
            assert all(p._send_row is first._send_row for p in node_pmls)
            assert all(p._recv_row is first._recv_row for p in node_pmls)

    def test_seed_shaped_objects_are_private(self):
        job = _job("sdr", n=4, shared_state=False)
        protos = list(job.protocols.values())
        assert len({id(p.shared) for p in protos}) == len(protos)
        pmls = list(job.pmls.values())
        assert len({id(p._send_row) for p in pmls}) == len(pmls)


class TestFootprintBudget:
    """tracemalloc-based bytes-per-process ceilings."""

    #: 2x headroom over the measured ~3.8 KB/proc — tight enough that the
    #: fully-unshared seed-shaped construction (~15.4 KB/proc at this
    #: tier) *fails* it, so a silent slide back toward per-proc copies is
    #: caught, while allocator noise is not
    BYTES_PER_PROC_BUDGET = 8 * 1024

    def test_paper_tier_construction_budget(self):
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        cluster = cluster_for(256, 2)
        tracemalloc.start()
        job = Job(256, cfg=cfg, cluster=cluster)
        current, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_proc = current / job.rmap.n_procs
        assert per_proc <= self.BYTES_PER_PROC_BUDGET, (
            f"job construction costs {per_proc:.0f} B/proc "
            f"(budget {self.BYTES_PER_PROC_BUDGET}) — per-proc copies of "
            "shared state have crept back in"
        )

    def test_shared_construction_beats_seed_shaped(self):
        """The flyweight engine must stay well under the per-proc spec —
        a 3x floor on an ~11x measured gap."""
        cfg = ReplicationConfig(degree=2, protocol="sdr")

        def measure(shared):
            tracemalloc.start()
            ReferenceJob(256, cfg=cfg, cluster=cluster_for(256, 2), shared_state=shared)
            current, _peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return current

        assert measure(True) * 3 < measure(False)


class TestStrandAttribution:
    """Per-drop-site stranded counters surfaced in JobResult."""

    def _eager_env(self, pml, dst=1):
        return pml.acquire_env("eager", ("w",), 0, 1, 0, dst, 0, 8, b"x" * 8, dst)

    def test_dead_source_site(self):
        job = _job(n=2)
        fab = job.fabric
        env = self._eager_env(job.pmls[0])
        fab.crash(0)
        fab.send(0, 1, 8, env, "eager")
        assert fab.strands_by_site == {"dead_source": [1, 1]}

    def test_dead_endpoint_site(self):
        job = _job(n=2)
        fab = job.fabric
        frame = fab.acquire_frame(0, 1, 8, self._eager_env(job.pmls[0]), kind="eager")
        fab.crash(1)
        fab.endpoints[1].deliver(frame)
        # crash(1) cleared an (empty) inbox; the in-flight arrival lands at
        # the dead endpoint
        assert fab.strands_by_site.get("dead_endpoint") == [1, 1]

    def test_inbox_clear_site(self):
        job = _job(n=2)
        fab = job.fabric
        fab.endpoints[1].deliver(fab.acquire_frame(0, 1, 8, self._eager_env(job.pmls[0]), kind="eager"))
        fab.endpoints[1].deliver(fab.acquire_frame(-1, 1, 0, ("failure", 0), kind="svc"))
        fab.crash(1)  # clears both queued frames
        # the svc frame carries no envelope: 2 frames, 1 envelope
        assert fab.strands_by_site == {"inbox_clear": [2, 1]}

    def test_abandoned_pipeline_site_in_jobresult(self):
        """A crash landing mid-traffic strands pipeline-owned envelopes;
        the result attributes them instead of lumping them into a total."""

        def fanin(mpi, rounds=12):
            if mpi.rank == 0:
                total = 0.0
                for _ in range(rounds):
                    for _ in range(mpi.size - 1):
                        d, _st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=2)
                        total += float(d[0])
                    for dst in range(1, mpi.size):
                        yield from mpi.send(np.array([total]), dest=dst, tag=3)
                return total
            for _ in range(rounds):
                yield from mpi.send(np.array([float(mpi.rank)]), dest=0, tag=2)
                yield from mpi.recv(source=0, tag=3)

        job = _job("sdr", n=4)
        job.launch(fanin)
        job.crash(1, 1, at=2e-5)
        res = job.run()
        total_envs = sum(cell["envs"] for cell in res.stranded_by_site.values())
        total_frames = sum(cell["frames"] for cell in res.stranded_by_site.values())
        # attribution is complete: sites sum to the arena-balance totals
        assert total_frames == res.fabric["frames_stranded"]
        assert total_envs == (
            res.fabric["envs_stranded"]
            + res.stat_total("env_stranded")
            + job._reap_sites["reorder_reap"]
            + job._reap_sites["retired_stack"]
        )
        assert total_envs > 0

    def test_crash_free_run_has_empty_attribution(self):
        def app(mpi):
            yield from mpi.allreduce(float(mpi.rank), op="sum")

        res = _job("sdr", n=2).launch(app).run()
        assert res.stranded_by_site == {}

    def test_reorder_reap_site(self):
        """An early arrival orphaned in a reorder buffer is reaped at
        teardown and attributed to ``reorder_reap``."""

        def app(mpi):
            yield from mpi.allreduce(float(mpi.rank), op="sum")

        job = _job("sdr", n=2)
        proto = job.protocols[0]
        pml = job.pmls[0]
        # Park seq 5 while 0 is expected: the filter holds it in the
        # reorder buffer; the sender of 0..4 "never existed", so the gap
        # never fills and teardown must reap it.
        env = pml.acquire_env("eager", ("w",), 1, 7, 1, 0, 5, 8, b"y" * 8, 0)
        gen = proto._filter_incoming(env)
        for _ in gen:
            pass
        res = job.launch(app).run()
        assert res.stranded_by_site.get("reorder_reap") == {"frames": 0, "envs": 1}

    def test_retired_stack_site(self):
        """A stack replaced by a respawn carries its parked envelopes into
        the ``retired_stack`` attribution."""

        def app(mpi):
            yield from mpi.allreduce(float(mpi.rank), op="sum")

        job = _job("sdr", n=2)
        proto = job.protocols[0]
        pml = job.pmls[0]
        env = pml.acquire_env("eager", ("w",), 1, 7, 1, 0, 5, 8, b"y" * 8, 0)
        gen = proto._filter_incoming(env)
        for _ in gen:
            pass
        job._build_stack(0)  # respawn-style replacement retires the stack
        res = job.launch(app).run()
        assert res.stranded_by_site.get("retired_stack") == {"frames": 0, "envs": 1}

    def test_recovery_respawn_attributes_retired_stacks(self):
        """End-to-end §3.4 recovery: the attribution keys stay consistent
        with the balance totals through a real respawn."""

        class IterState:
            def __init__(self):
                self.it = 0
                self.acc = 0.0

        def app(mpi, iters=40, state=None):
            st_ = state or IterState()
            mpi.register_state(st_)
            while st_.it < iters:
                it = st_.it
                if mpi.rank == 1:
                    yield from mpi.send(np.array([float(it)]), dest=0, tag=1)
                    got, _ = yield from mpi.recv(source=0, tag=2)
                else:
                    got, _ = yield from mpi.recv(source=1, tag=1)
                    yield from mpi.send(np.array([2.0 * it]), dest=1, tag=2)
                st_.acc += float(got[0])
                st_.it += 1
                yield from mpi.recovery_point()
                yield from mpi.compute(1e-6)
            return st_.acc

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        job.launch(app)
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        res = job.run()
        assert job._retired_stacks
        total_frames = sum(cell["frames"] for cell in res.stranded_by_site.values())
        total_envs = sum(cell["envs"] for cell in res.stranded_by_site.values())
        assert total_frames == res.fabric["frames_stranded"]
        stranded_pml = sum(
            pml.env_stranded for pml in list(job.pmls.values()) + [p for p, _ in job._retired_stacks]
        )
        assert total_envs == (
            res.fabric["envs_stranded"]
            + stranded_pml
            + job._reap_sites["reorder_reap"]
            + job._reap_sites["retired_stack"]
        )


class UnguardedFilterProtocol(SdrProtocol):
    """The contract violation the guard exists for: an envelope-owning
    charge yielded with no strand guard around it."""

    name = "sdr-unguarded"

    def _filter_incoming(self, env):
        yield 100e-6  # owns env across this yield — unguarded!
        yield from super()._filter_incoming(env)
        return False


class TestFilterGuard:
    """Runtime assert catching filters that strand silently."""

    def _run_guarded(self, protocol_cls, crash_at=None):
        previous = set_filter_guard(True)
        try:
            _PROTOCOL_CLASSES["_guard_test"] = protocol_cls
            cfg = ReplicationConfig(degree=2, protocol="sdr")
            object.__setattr__(cfg, "protocol", "_guard_test")
            job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
            del _PROTOCOL_CLASSES["_guard_test"]

            def app(mpi, rounds=6):
                peer = 1 - mpi.rank
                for r in range(rounds):
                    if mpi.rank == 0:
                        yield from mpi.send(np.ones(2), dest=peer, tag=r)
                    else:
                        yield from mpi.recv(source=peer, tag=r)
                return mpi.rank

            job.launch(app)
            if crash_at is not None:
                job.crash(1, 0, at=crash_at)
            return job.run(allow_lost_ranks=True)
        finally:
            set_filter_guard(previous)

    def test_unguarded_filter_fails_loudly_on_crash(self):
        """The receiver crashes mid-filter-charge: without the guard this
        would strand silently; with it, the run dies naming the filter."""
        with pytest.raises(AssertionError, match="incoming_filter.*_filter_incoming"):
            self._run_guarded(UnguardedFilterProtocol, crash_at=50e-6)

    def test_guarded_intree_filter_passes(self):
        """The stock replicated filter strands properly — the guard stays
        silent through the same crash, and the run balances."""
        res = self._run_guarded(SdrProtocol, crash_at=50e-6)
        assert res.runtime > 0

    def test_guard_transparent_on_crash_free_run(self):
        guarded = self._run_guarded(SdrProtocol)
        # same cluster shape as _run_guarded builds
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        plain_job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))

        def app(mpi, rounds=6):
            peer = 1 - mpi.rank
            for r in range(rounds):
                if mpi.rank == 0:
                    yield from mpi.send(np.ones(2), dest=peer, tag=r)
                else:
                    yield from mpi.recv(source=peer, tag=r)
            return mpi.rank

        plain = plain_job.launch(app).run()
        assert guarded.events == plain.events
        assert repr(guarded.runtime) == repr(plain.runtime)

    def test_violations_surface_even_on_wedged_runs(self):
        """A wedged run (deadlock) is exactly where an unguarded filter
        stranded something — the recorded violation must outrank the
        DeadlockError, not be lost to it."""
        job = _job("sdr", n=2)

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(source=1, tag=9)  # never sent: wedges
            return 0

        job.launch(app)
        job.pmls[0].guard_violations = ["synthetic violation"]
        with pytest.raises(AssertionError, match="synthetic violation"):
            job.run()

    def test_guard_off_by_default(self):
        job = _job("sdr", n=2)
        pml = job.pmls[0]
        # no wrapper: the installed filter is the protocol's bound method
        assert pml.incoming_filter.__func__ is SdrProtocol._filter_incoming
