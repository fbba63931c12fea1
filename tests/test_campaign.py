"""Campaign engine: seeded fault mixes, the degradation taxonomy, and the
machine-audited invariants every run must satisfy.

The hypothesis suite throws random seeds at random protocols and pins the
campaign contract: the arena books balance (``acquired == released +
stranded``), the per-site strand attribution sums back to the scalar
counters (``run_case`` records any discrepancy as ``invariant_error``),
the outcome is exactly one taxonomy bucket, and one integer reproduces
the run byte-identically (fingerprint equality).
"""

import dataclasses
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.harness.campaign import (
    DEFAULT_PROTOCOLS,
    OUTCOMES,
    CampaignConfig,
    RunRecord,
    run_campaign,
    run_case,
    sample_faults,
)
from repro.scenarios import campaign_app, expected_results

import pytest

from repro.harness.runner import Job, cluster_for


# ----------------------------------------------------------- property suite
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    protocol=st.sampled_from(DEFAULT_PROTOCOLS),
)
# Seeds whose drop/partition mix once leaked envelopes: a second copy of a
# still-held early arrival displaced the first from the reorder buffer.
@example(seed=44, protocol="mirror")
@example(seed=49, protocol="mirror")
@example(seed=173, protocol="mirror")
@example(seed=185, protocol="mirror")
@example(seed=198, protocol="mirror")
@example(seed=213, protocol="mirror")
@example(seed=278, protocol="mirror")
@example(seed=290, protocol="mirror")
@example(seed=293, protocol="mirror")
@example(seed=368, protocol="mirror")
@example(seed=399, protocol="mirror")
@example(seed=3527, protocol="mirror")
@example(seed=201, protocol="leader")
@example(seed=290, protocol="leader")
@example(seed=290, protocol="sdr")
@example(seed=292, protocol="redmpi")
def test_every_seeded_run_balances_and_classifies(seed, protocol):
    rec = run_case(protocol, seed)
    # leak balance + per-site sum consistency: run_case records any
    # discrepancy as an invariant error — there must never be one
    assert rec.invariant_error is None
    # outcome taxonomy is exhaustive and exclusive
    assert rec.outcome in OUTCOMES
    # the strand attribution it reports sums back to the metrics
    assert sum(c["frames"] for c in rec.stranded_by_site.values()) == (
        rec.metrics["stranded_frames"]
    )
    assert sum(c["envs"] for c in rec.stranded_by_site.values()) == (
        rec.metrics["stranded_envs"]
    )
    # the fingerprint is parseable and carries the classification
    payload = json.loads(rec.fingerprint)
    assert payload["outcome"] == rec.outcome
    assert payload["seed"] == seed


def test_displaced_early_arrival_is_released_on_hpccg():
    """hpccg under mirror, seed 15: a resent copy of a held early arrival
    used to displace the first copy from the reorder buffer unreleased."""
    rec = run_case("mirror", 15, dataclasses.replace(CampaignConfig(), workload="hpccg"))
    assert rec.invariant_error is None


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fault_mix_is_a_pure_function_of_the_seed(seed):
    for protocol in ("native", "sdr"):
        a_sched, a_plan, a_mix = sample_faults(seed, CampaignConfig(), protocol)
        b_sched, b_plan, b_mix = sample_faults(seed, CampaignConfig(), protocol)
        assert a_mix == b_mix
        assert a_sched.crashes == b_sched.crashes
        assert a_sched.respawns == b_sched.respawns
        assert a_sched.suspicions == b_sched.suspicions
        assert a_plan == b_plan


def test_same_seed_reproduces_the_run_byte_identically():
    for protocol, seed in (("sdr", 1), ("native", 0), ("redmpi", 2)):
        first = run_case(protocol, seed)
        again = run_case(protocol, seed)
        assert first.fingerprint == again.fingerprint
        assert first.outcome == again.outcome
        assert first.metrics == again.metrics


# ------------------------------------------------------------ taxonomy edges
def test_taxonomy_buckets_are_exercised_across_seeds():
    """Over a handful of seeds the campaign must demonstrate its point:
    the native stack fails on fault mixes the replicated protocols absorb."""
    result = run_campaign(protocols=("native", "sdr"), seeds=range(6))
    assert not result.violations
    counts = result.outcome_counts()
    # native has no dedup filter and only one replica per rank: crashes
    # lose ranks, duplicated frames double-deliver
    assert counts["native"]["failed"] >= 1
    # sdr absorbs the same mixes with measurable degradation
    assert counts["sdr"]["degraded"] >= 1
    assert counts["sdr"]["failed"] == 0
    # the imperfect detector leaves a measurable mark on degraded sdr runs
    latencies = [
        r.metrics["detection_latency_max"]
        for r in result.records
        if r.protocol == "sdr" and r.metrics["crashes"]
    ]
    assert latencies and all(lat > 0.0 for lat in latencies)


def test_outcome_counts_cover_every_bucket_and_json_round_trips():
    result = run_campaign(protocols=("sdr",), seeds=range(3))
    counts = result.outcome_counts()
    assert set(counts["sdr"]) == set(OUTCOMES)
    assert sum(counts["sdr"].values()) == 3
    records = json.loads(result.to_json())
    assert len(records) == 3
    assert {r["protocol"] for r in records} == {"sdr"}
    table = result.table("smoke")
    for column in ("protocol", *OUTCOMES, "violations"):
        assert column in table


def test_run_record_rejects_unknown_outcome():
    with pytest.raises(ValueError, match="not in"):
        RunRecord(
            protocol="sdr", seed=0, outcome="exploded", mix={}, metrics={},
            stranded_by_site={},
        )


def test_campaign_app_expected_results_match_clean_run():
    cfg = CampaignConfig()
    job = Job(cfg.n_ranks, cluster=cluster_for(cfg.n_ranks, 1))
    res = job.launch(campaign_app, steps=cfg.steps).run()
    want = expected_results(cfg)
    assert res.app_results == {p: want[job.rmap.rank_of(p)] for p in res.app_results}


def test_clean_seed_completes():
    """A seed whose mix draws no faults must classify as completed."""
    # find one deterministically: the mix dict is empty when nothing drew
    for seed in range(64):
        _sched, plan, mix = sample_faults(seed, CampaignConfig(), "sdr")
        if not mix and plan is None:
            rec = run_case("sdr", seed)
            assert rec.outcome == "completed"
            assert rec.invariant_error is None
            break
    else:  # pragma: no cover - probability ~0 over 64 seeds
        raise AssertionError("no fault-free mix in 64 seeds")
