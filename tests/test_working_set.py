"""The run-time working-set contract (PR 8).

Three coordinated memory layers, each keeping the previous implementation
as its executable spec in ``tests/reference`` (``ReferenceJob`` flags):

* **payload interning** (``interning``) — a job-wide
  :class:`~repro.mpi.datatypes.PayloadInterner` collapses the millions of
  size-only ``Phantom`` snapshots (and small immutable bytes/str
  payloads) to one object per distinct value;
* **high-water-trimmed arenas** (``arena_trim``) — the Frame/Envelope
  free lists are capped at a windowed high-water bound by a trimmer
  running from the kernel's quiescent-point ``on_advance`` hook;
* **SoA match lanes** (the default :class:`~repro.mpi.matching.MatchEngine`,
  with ``matching="linear"`` keeping the seed engine) — parallel slot
  arrays + int-list lanes instead of a deque of entry lists per pattern.

All three are host-side memory policy and must be *observationally
invisible*: every randomized configuration here runs the same program
with the flag on and off and compares the full engine fingerprint —
per-rank results, bit-identical virtual times, dispatched-event and
frame counts — across all five protocols, crash-free and crashy.  The
zero-leak balance (``acquired == released + stranded``) must keep
holding while trims drop pooled shells.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.report import render_table, working_set_rows
from repro.harness.runner import Job, cluster_for
from repro.mpi.datatypes import PayloadInterner, Phantom
from repro.mpi.errors import DeadlockError

from reference import ALL_REFERENCE, ReferenceJob, fingerprint
from reference.apps import mixed_traffic

PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _job(protocol="native", n=4, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    return ReferenceJob(n, cfg=cfg, cluster=cluster_for(n, cfg.degree), **kwargs)


def _run_flagged(protocol, n, rounds, crash_at=None, **flags):
    """One run under *flags*; wedged runs fingerprint as their blocked set."""
    job = _job(protocol, n=n, **flags)
    job.launch(mixed_traffic, rounds=rounds)
    if crash_at is not None:
        job.crash(1, 1, at=crash_at)
    try:
        return fingerprint(job.run(), stranded=True)
    except DeadlockError as err:
        job._assert_arenas_balanced()
        return ("deadlock", sorted(err.blocked.items()))


# ------------------------------------------------- flag equivalence (crash-free)
class TestFlagEquivalence:
    """flag on ≡ flag off, bit for bit, across all five protocols."""

    @settings(max_examples=15, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        n=st.sampled_from([2, 3, 4]),
        rounds=st.integers(min_value=1, max_value=3),
        flag=st.sampled_from(["interning", "arena_trim"]),
    )
    def test_memory_flags_unobservable(self, protocol, n, rounds, flag):
        on = _run_flagged(protocol, n, rounds, **{flag: True})
        off = _run_flagged(protocol, n, rounds, **{flag: False})
        assert on == off, f"{flag} diverged ({protocol}, n={n})"

    @settings(max_examples=15, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        n=st.sampled_from([2, 3, 4]),
        rounds=st.integers(min_value=1, max_value=3),
    )
    def test_soa_engine_matches_linear_spec(self, protocol, n, rounds):
        indexed = _run_flagged(protocol, n, rounds, matching="indexed")
        linear = _run_flagged(protocol, n, rounds, matching="linear")
        assert indexed == linear, f"SoA engine diverged from linear spec ({protocol})"

    def test_all_flags_off_together(self):
        """The fully seed-shaped stack (every spec mode at once) agrees
        with the fully optimized one."""
        for protocol in PROTOCOLS:
            fast = _run_flagged(protocol, 4, 2)
            spec = _run_flagged(protocol, 4, 2, **ALL_REFERENCE)
            assert fast == spec, f"optimized stack diverged from full spec ({protocol})"

    def test_matching_flag_validated(self):
        with pytest.raises(ValueError, match="indexed.*linear"):
            _job("sdr", matching="soa")


# ---------------------------------------------------- flag equivalence (crashy)
class TestFlagEquivalenceUnderFailover:
    """Crashes and failover resends must not observe the memory policy.

    Some (protocol, crash-time) pairs legitimately wedge; the deadlock —
    down to the blocked-process set — is then the outcome both modes must
    agree on, and the arenas must still balance.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        protocol=st.sampled_from(["sdr", "mirror", "leader"]),
        crash_at=st.sampled_from([2e-5, 9e-5]),
        flag=st.sampled_from(["interning", "arena_trim"]),
    )
    def test_memory_flags_unobservable_on_crashes(self, protocol, crash_at, flag):
        on = _run_flagged(protocol, 4, 3, crash_at=crash_at, **{flag: True})
        off = _run_flagged(protocol, 4, 3, crash_at=crash_at, **{flag: False})
        assert on == off, f"{flag} diverged under failover ({protocol})"

    @settings(max_examples=10, deadline=None)
    @given(
        protocol=st.sampled_from(["sdr", "mirror", "leader"]),
        crash_at=st.sampled_from([2e-5, 9e-5]),
    )
    def test_soa_engine_matches_linear_spec_on_crashes(self, protocol, crash_at):
        indexed = _run_flagged(protocol, 4, 3, crash_at=crash_at, matching="indexed")
        linear = _run_flagged(protocol, 4, 3, crash_at=crash_at, matching="linear")
        assert indexed == linear, f"SoA engine diverged under failover ({protocol})"


# -------------------------------------------------------------- arena trimming
class TestArenaTrim:
    """The quiescent-point trimmer: pools shrink, books still balance."""

    def test_forced_trims_stay_unobservable_and_balanced(self, monkeypatch):
        """Trim at *every* quiescent point (interval 1, full sweep): the
        most aggressive policy possible must still be fingerprint-
        identical to no trimming at all, crash-free and crashy."""
        for crash_at in (None, 2e-5):
            baseline = _run_flagged("sdr", 4, 3, crash_at=crash_at, arena_trim=False)
            monkeypatch.setattr(Job, "TRIM_INTERVAL", 1)
            monkeypatch.setattr(Job, "TRIM_PROCS", 10_000)
            forced = _run_flagged("sdr", 4, 3, crash_at=crash_at, arena_trim=True)
            monkeypatch.undo()
            assert forced == baseline

    def test_trim_caps_pool_and_counts_drops(self):
        """Unit-level policy check: a pool bloated past the windowed
        high-water is cut to ``window + TRIM_SLACK`` and the drop counted;
        the arena balance is untouched (trimmed shells were released)."""
        job = _job("native", n=2, arena_trim=False)
        pml = job.pmls[0]
        # Warm the pool far beyond any real outstanding count.
        envs = [
            pml.acquire_env("eager", ("w",), 0, 1, 0, 1, i, 8, None, 1)
            for i in range(200)
        ]
        for env in envs:
            pml.release_env(env)
        assert len(pml._env_pool) == 200
        assert pml.env_hw_window == 200
        dropped = pml.trim_env_pool()  # folds the window, no cut yet
        assert dropped == 0 and pml.env_high_water == 200
        assert pml.env_hw_window == 0  # nothing outstanding now
        dropped = pml.trim_env_pool()  # second window saw no traffic: cut
        assert dropped == 200 - pml.TRIM_SLACK
        assert len(pml._env_pool) == pml.TRIM_SLACK
        assert pml.env_trimmed == dropped
        assert pml.stats()["env_high_water"] == 200
        # books: acquired == released, trimming moved nothing
        assert pml.env_acquired == pml.env_released == 200

    def test_fabric_trim_mirrors_pml_policy(self):
        job = _job("native", n=2, arena_trim=False)
        fab = job.fabric
        frames = [fab.acquire_frame(0, 1, 8, None) for _ in range(100)]
        for f in frames:
            fab.release_frame(f)
        assert len(fab._frame_pool) == 100
        fab.trim_frame_pool()
        dropped = fab.trim_frame_pool()
        assert dropped == 100 - fab.TRIM_SLACK
        assert fab.frames_trimmed == dropped
        assert fab.stats()["frame_high_water"] == 100

    def test_balance_holds_with_trimming_across_protocols(self, monkeypatch):
        """Zero-leak proof under constant trimming, every protocol, with a
        crash landing mid-traffic."""
        monkeypatch.setattr(Job, "TRIM_INTERVAL", 1)
        monkeypatch.setattr(Job, "TRIM_PROCS", 10_000)
        for protocol in ["sdr", "mirror", "leader", "redmpi"]:
            job = _job(protocol, n=4)
            job.launch(mixed_traffic, rounds=3)
            job.crash(1, 1, at=2e-5)
            try:
                job.run()  # run() audits on completion
            except DeadlockError:
                job._assert_arenas_balanced()


# ------------------------------------------------------------------ interning
class TestPayloadInterning:
    def test_phantoms_collapse_to_one_object(self):
        interner = PayloadInterner()
        a, b = Phantom(4096), Phantom(4096)
        assert a is not b
        canon = interner.intern(a)
        assert interner.intern(b) is canon
        assert interner.intern(Phantom(4096)) is canon
        assert interner.hits == 2 and interner.misses == 1

    def test_numeric_payloads_never_interned(self):
        """``True == 1`` and ``-0.0 == 0.0`` would conflate distinct
        payloads under a value key — numerics must pass through."""
        interner = PayloadInterner()
        for first, second in [(1, True), (0.0, -0.0)]:
            out = interner.intern(second)
            assert out is second
            interner.intern(first)
            assert interner.intern(second) is second
        assert interner.hits == 0

    def test_small_immutables_interned_large_not(self):
        interner = PayloadInterner()
        # runtime-constructed so no two are the same object
        small_a, small_b = bytes(bytearray(16)), bytes(bytearray(16))
        assert small_a is not small_b
        canon = interner.intern(small_a)
        assert interner.intern(small_b) is canon
        assert interner.hits == 1
        n = PayloadInterner.SMALL_LIMIT + 1
        big_a, big_b = bytes(bytearray(n)), bytes(bytearray(n))
        assert interner.intern(big_a) is big_a
        assert interner.intern(big_b) is big_b  # never tabled
        assert interner.hits == 1

    def test_table_is_bounded(self):
        interner = PayloadInterner()
        for i in range(PayloadInterner.MAX_ENTRIES + 50):
            interner.intern(Phantom(i))
        assert len(interner._phantoms) == PayloadInterner.MAX_ENTRIES
        # known values still hit; overflow values stay misses
        assert interner.intern(Phantom(0)) is not None
        before = interner.hits
        interner.intern(Phantom(PayloadInterner.MAX_ENTRIES + 10))
        assert interner.hits == before

    def test_job_counters_surface_in_result(self):
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=3).run()
        assert res.payload_interned > 0
        assert res.payload_misses > 0
        off = _job("sdr", n=4, interning=False).launch(mixed_traffic, rounds=3).run()
        assert off.payload_interned == 0 and off.payload_misses == 0

    def test_unexpected_phantoms_share_one_snapshot(self):
        """The working-set win itself: distinct Phantom sends parked in an
        unexpected queue hold the same canonical object."""
        job = _job("native", n=2)
        sender, receiver = job.pmls[0], job.pmls[1]
        envs = [
            sender.acquire_env(
                "eager", ("w",), 0, i, 0, 1, i, 512, Phantom(512), 1
            )
            for i in range(4)
        ]
        datas = {id(env.data) for env in envs}
        assert datas == {id(envs[0].data)}, "acquire_env did not intern"
        # park them all unexpected (no receives posted) and re-check
        for env in envs:
            assert receiver.matching.arrive(env) is None
        parked = receiver.matching.unexpected
        assert len(parked) == 4
        assert all(env.data is parked[0].data for env in parked)


# ------------------------------------------------------------- high-water marks
class TestHighWaterMarks:
    def test_env_high_water_bounds_pool(self):
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=3).run()
        for proc, stats in res.stats.items():
            assert stats["env_high_water"] >= 1
            assert stats["env_pool_size"] <= stats["env_high_water"], (
                f"proc {proc}: pool retained beyond its high-water"
            )
        assert res.fabric["frame_high_water"] >= 1
        assert res.fabric["frame_pool_size"] <= res.fabric["frame_high_water"]

    def test_report_rows_render(self):
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=2).run()
        header, rows = working_set_rows([("sdr/n4", res)])
        table = render_table("working set", header, rows)
        assert "interned" in table and "env hw" in table
        assert rows[0][1] == res.payload_interned


# ------------------------------------------------------------ kernel on_advance
class TestOnAdvanceHook:
    def test_fires_between_timestamps_not_per_event(self):
        from repro.sim.kernel import Simulator

        sim = Simulator()
        seen = []
        sim.on_advance = lambda: seen.append(sim.now)
        fired = []
        for t in (1.0, 1.0, 2.0, 4.0):
            sim.call_at(t, lambda t=t: fired.append(t))
        sim.run()
        # one advance per distinct timestamp with a successor
        assert seen == [0.0, 1.0, 2.0]
        assert fired == [1.0, 1.0, 2.0, 4.0]
        assert sim.events_dispatched == 4

    def test_hook_does_not_count_as_events(self):
        from repro.sim.kernel import Simulator

        def drive(hooked):
            sim = Simulator()
            if hooked:
                sim.on_advance = lambda: None
            for t in (1.0, 2.0, 3.0):
                sim.call_at(t, lambda: None)
            sim.run()
            return sim.events_dispatched

        assert drive(True) == drive(False) == 3
