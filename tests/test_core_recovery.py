"""Replica recovery (§3.4, Fig. 4)."""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.core.recovery import RecoveryManager, RecoveryUnsupported
from repro.harness.runner import Job, cluster_for

from reference import ALL_REFERENCE, LinearMatchEngine, ReferenceJob, fingerprint


class IterState:
    def __init__(self):
        self.it = 0
        self.acc = 0.0


def recoverable_exchange(mpi, iters=60, state=None):
    st = state or IterState()
    mpi.register_state(st)
    while st.it < iters:
        it = st.it
        if mpi.rank == 1:
            yield from mpi.send(np.array([float(it)]), dest=0, tag=1)
            got, _ = yield from mpi.recv(source=0, tag=2)
        else:
            got, _ = yield from mpi.recv(source=1, tag=1)
            yield from mpi.send(np.array([2.0 * it]), dest=1, tag=2)
        st.acc += float(got[0])
        st.it += 1
        yield from mpi.recovery_point()
        yield from mpi.compute(1e-6)
    return st.acc


def _job(n_ranks=2, iters=60):
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, 2, cores_per_node=1))
    job.launch(recoverable_exchange, iters=iters)
    return job


def _want(iters=60):
    return {0: sum(float(i) for i in range(iters)), 1: sum(2.0 * i for i in range(iters))}


class TestRecovery:
    @pytest.mark.parametrize("crash_at,respawn_at", [(60e-6, 100e-6), (30e-6, 35e-6), (100e-6, 300e-6)])
    def test_respawned_replica_finishes_correctly(self, crash_at, respawn_at):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=crash_at)
        job.sim.call_at(respawn_at, lambda: manager.request_respawn(1))
        res = job.run()
        want = _want()
        assert len(res.app_results) == 4  # including the respawned process
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]
        assert manager.respawns_done == [job.rmap.phys(1, 1)]

    def test_recovery_of_replica_zero(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(0, 0, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(0))
        res = job.run()
        want = _want()
        assert len(res.app_results) == 4
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]

    def test_substitute_stops_on_behalf_duty_after_respawn(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        sub = job.protocols[job.rmap.phys(1, 0)]
        assert sub.substitute[1] == 1  # identity restored
        assert job.rmap.phys(0, 1) not in sub.physical_dests.get(0, [])

    def test_peer_resumes_pairwise_sends(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        peer = job.protocols[job.rmap.phys(0, 1)]  # p^1_0
        assert job.rmap.phys(1, 1) in peer.physical_dests.get(1, [])

    def test_protocol_state_cloned(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        fresh = job.protocols[job.rmap.phys(1, 1)]  # post-respawn protocol
        # the respawned replica continued the logical channels: its send
        # counters cover the full run
        assert fresh._send_seq.get(0, 0) >= 1
        assert fresh._expected.get(0, 0) >= 1

    def test_no_pending_respawn_is_noop(self):
        job = _job()
        RecoveryManager(job)
        res = job.run()  # recovery_point called every iteration, no pending
        want = _want()
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]

    def test_respawn_request_before_crash_is_harmless(self):
        job = _job()
        manager = RecoveryManager(job)
        manager.request_respawn(1)  # nothing dead yet
        job.crash(1, 1, at=60e-6)
        res = job.run()
        assert len(res.app_results) == 4  # respawn happens once the crash lands


class TestRecoveryValidity:
    def test_degree_three_rejected(self):
        cfg = ReplicationConfig(degree=3, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 3, cores_per_node=1))
        with pytest.raises(RecoveryUnsupported) as err:
            RecoveryManager(job)
        assert "degree" in str(err.value)

    def test_mirror_protocol_rejected(self):
        cfg = ReplicationConfig(degree=2, protocol="mirror")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        with pytest.raises(RecoveryUnsupported):
            RecoveryManager(job)

    def test_unregistered_state_rejected(self):
        def stateless(mpi, iters=30, state=None):
            for it in range(iters):
                yield from mpi.barrier()
                yield from mpi.recovery_point()
                yield from mpi.compute(1e-6)

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        job.launch(stateless)
        manager = RecoveryManager(job)
        job.crash(1, 1, at=50e-6)
        job.sim.call_at(60e-6, lambda: manager.request_respawn(1))
        with pytest.raises(RecoveryUnsupported):
            job.run()


class TestReferenceModesSurviveRespawn:
    """Every reference mode at once must re-apply to the stack a recovery
    fork rebuilds (``spawn_replica`` -> ``_build_stack``) and still agree
    with the production engine on the whole fingerprint."""

    @staticmethod
    def _run(job_cls, protocol, crash_rep, respawn, **modes):
        cfg = ReplicationConfig(degree=2, protocol=protocol)
        job = job_cls(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1), **modes)
        job.launch(recoverable_exchange, iters=60)
        job.crash(1, crash_rep, at=60e-6)
        if respawn:
            manager = RecoveryManager(job)
            job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        return job, job.run()

    @pytest.mark.parametrize("crash_rep", [1, 0])
    def test_sdr_recovery_fork(self, crash_rep):
        _prod_job, prod = self._run(Job, "sdr", crash_rep, respawn=True)
        ref_job, ref = self._run(ReferenceJob, "sdr", crash_rep, respawn=True, **ALL_REFERENCE)
        assert len(ref_job._retired_stacks) == 1
        respawned = ref_job.rmap.phys(1, crash_rep)
        pml = ref_job.pmls[respawned]
        assert type(pml.matching) is LinearMatchEngine
        assert pml._interner is None
        assert pml.env_allocated == pml.env_acquired > 0  # nothing recycled
        assert pml._send_row is not ref_job.fabric.cost_table.send_row(pml._node_of[respawned])
        sharing = {id(proto.shared) for proto in ref_job.protocols.values()}
        assert len(sharing) == len(ref_job.protocols)
        assert not ref_job.sim._bucket and ref_job.sim.on_advance is None
        assert fingerprint(prod, stranded=True) == fingerprint(ref, stranded=True)

    def test_leader_failover(self):
        """Leader-based replication has no recovery fork (the manager
        rejects it), so its case is the crash and failover alone."""
        with pytest.raises(RecoveryUnsupported):
            self._run(Job, "leader", 1, respawn=True)
        _prod_job, prod = self._run(Job, "leader", 1, respawn=False)
        _ref_job, ref = self._run(ReferenceJob, "leader", 1, respawn=False, **ALL_REFERENCE)
        assert fingerprint(prod, stranded=True) == fingerprint(ref, stranded=True)
