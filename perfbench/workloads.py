"""The benchmark's three workloads, their output checks and their counts.

All three are closed loop (each Job or case starts when the previous one
has finished) and generated from one process; each takes the workload
seed.  One *rep* produces one checked result; :mod:`run` repeats reps for
the run's length and requires every rep of a seed to reproduce the first
exactly.

``collectives-2k``
    SDR r=2 ``ring_collectives``, 1024 logical ranks (2048 simulated
    processes), 2 iterations of 4 KB eager messages: a deep kernel heap
    behind a 5-deep collective generator chain.  It has no random input,
    so every seed gives the same result, pinned in ``COLLECTIVES_2K``.
    Predicts: kernel, process and collectives move ``wall_s`` and
    ``events_per_s``; protocol moves them through one SDR ack per
    message; pml/fabric arena ratios move ``peak_rss_mb``; runner,
    campaign, membership, traffic stay at or under 3 %.

    Its sharded twin (:class:`Collectives2kW2`, the same input under
    ``ParallelConfig(workers=2)``, the only run of ``sim/shard``) is not
    timed for the end-to-end metrics: on a host with two cores its
    barrier-synchronised workers need both at once, so any other busy
    process slows it by half and its wall time measures the host.  The
    traced run of ``collectives-2k`` runs the twin instead, checks it
    against ``COLLECTIVES_2K`` and reports the ``shard.*`` layer from it,
    with ``shard.wall_ratio`` (twin wall / serial wall) as what the
    sharded engine earns.
``table2-hpccg``
    The paper's Table 2 HPCCG row at quick scale: native, then SDR r=2,
    on 64 ranks; the seed drives compute noise.  ANY_SOURCE-heavy, with
    128 KB rendezvous faces in a shallow 128-process world.  Predicts:
    matching and the rendezvous share of pml move ``wall_s``; kernel and
    collectives stay small.
``campaign-mix``
    ``run_case`` over a 30-seed block x {sdr, mirror, leader, redmpi,
    native} x {ring, hpccg, traffic-poisson} with the default
    ``CampaignConfig``: hundreds of small faulted Jobs.  Predicts:
    runner, campaign, membership, the fabric fault counters and traffic
    move ``cases_per_s``, ``case_ms_p95`` and ``setup_s``; protocol moves
    it through the leader/mirror/redmpi baselines.
"""

from __future__ import annotations

import dataclasses
import hashlib
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

from repro.apps.hpccg import hpccg_rank
from repro.core.config import ReplicationConfig
from repro.harness.campaign import OUTCOMES, CampaignConfig, RunRecord, run_case
from repro.harness.experiments import SCALES
from repro.harness.metrics import overhead_pct
from repro.harness.runner import Job, JobResult, cluster_for
from repro.scenarios import ring_collectives
from repro.scenarios.ablation import collectives_expected
from repro.sim.shard import ParallelConfig

#: frame kinds that carry application payload; every other kind is control
DATA_FRAME_KINDS = ("eager", "data")

COLLECTIVES_RANKS = 1024
COLLECTIVES_ITERS = 2
COLLECTIVES_NBYTES = 4096
#: the collectives-2k result every seed and both engines must reproduce
COLLECTIVES_2K = {"events": 454526, "frames": 90112, "runtime": 8.586999999999977e-05}

CAMPAIGN_BLOCK = 30
CAMPAIGN_PROTOCOLS = ("sdr", "mirror", "leader", "redmpi", "native")
CAMPAIGN_WORKLOADS = ("ring", "hpccg", "traffic-poisson")


@dataclasses.dataclass
class RepOutput:
    """One checked result of a workload."""

    #: must repeat exactly across reps of one seed
    fingerprint: Any
    #: summed layer counters (see :func:`job_counts`); deterministic per seed
    counts: Dict[str, float]
    events: int
    cases: int
    attempted: int
    failed: int
    #: output checks that did not hold
    errors: List[str]


def sha(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ----------------------------------------------------------------- counts
def job_counts(job: Any, result: Optional[JobResult] = None) -> Dict[str, float]:
    """Layer counters of one Job.  *result* (when the run returned one) is
    preferred: under sharding only the merged result sees the workers."""
    if result is not None:
        stats = result.stats
        fabric = result.fabric
        by_kind = fabric["by_kind"]
        events = result.events
        parallel = result.parallel or {}
    else:
        stats = {p: proto.stats() for p, proto in job.protocols.items()}
        fabric = job.fabric.stats()
        by_kind = dict(job.fabric.frames_by_kind)
        events = job.sim.events_dispatched
        parallel = {}

    def total(key: str) -> int:
        return sum(s.get(key, 0) for s in stats.values())

    frames = fabric["total_frames"]
    data_frames = sum(by_kind.get(kind, 0) for kind in DATA_FRAME_KINDS)
    membership = job.membership
    traffic = job.traffic.totals() if job.traffic is not None else {}
    return {
        "jobs": 1,
        "events": events,
        "sends_posted": total("sends_posted"),
        "recvs_posted": total("recvs_posted"),
        "env_acquired": total("env_acquired"),
        "env_allocated": total("env_allocated"),
        "env_high_water": total("env_high_water"),
        "unexpected": total("unexpected_count"),
        "unexpected_peak": max((s.get("unexpected_peak", 0) for s in stats.values()), default=0),
        "frames": frames,
        "bytes": fabric["total_bytes"],
        "frames_acquired": fabric["frames_acquired"],
        "frames_allocated": fabric["frames_allocated"],
        "ctrl_frames": frames - data_frames,
        "data_frames": data_frames,
        "fault_drops": fabric["fault_drops"],
        "fault_dups": fabric["fault_dups"],
        "fault_delays": fabric["fault_delays"],
        "frames_exported": fabric["frames_exported"],
        "acks_sent": total("acks_sent"),
        "resends": total("resends"),
        "duplicates_dropped": total("duplicates_dropped"),
        "crashes": len(membership.failed),
        "false_suspicions": len(membership.false_suspicions),
        "notify_drops": membership.notify_drops,
        "windows": parallel.get("windows", 0),
        "fallbacks": len(parallel.get("fallback", ())),
        "offered": traffic.get("requests_offered", 0),
        "admitted": traffic.get("requests_admitted", 0),
    }


#: counters combined by maximum across Jobs; every other counter is summed
_PEAK_COUNTS = ("unexpected_peak",)


def merge_counts(parts: List[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = max(out.get(key, 0), value) if key in _PEAK_COUNTS else out.get(key, 0) + value
    return out


# ----------------------------------------------------------------- checks
def check_rank_results(
    app_results: Dict[int, Any], rank_of: Callable[[int], int], expected: Dict[int, Any], label: str
) -> List[str]:
    """Every process returned its rank's expected value."""
    wrong = sorted(p for p, value in app_results.items() if value != expected.get(rank_of(p)))
    missing = sorted(set(expected) - {rank_of(p) for p in app_results})
    errors = []
    if wrong:
        errors.append(f"{label}: wrong results from procs {wrong[:8]}{'...' if len(wrong) > 8 else ''}")
    if missing:
        errors.append(f"{label}: no result for ranks {missing[:8]}")
    return errors


def check_reference(observed: Dict[str, Any], reference: Dict[str, Any], label: str) -> List[str]:
    return [
        f"{label}: {key} {observed[key]!r} != reference {reference[key]!r}"
        for key in reference
        if observed[key] != reference[key]
    ]


def case_failed(record: RunRecord) -> bool:
    """A campaign case fails on an invariant error, or on a ``failed``
    outcome the taxonomy does not model: the modelled ones are lost ranks
    (no error text) and native wrong results under duplication windows."""
    if record.invariant_error:
        return True
    if record.outcome != "failed" or record.error is None:
        return False
    modelled_wrong = (
        record.protocol == "native" and record.error.startswith("wrong results") and "dup_window" in record.mix
    )
    return not modelled_wrong


# -------------------------------------------------------------- workloads
class Workload:
    name = ""
    #: the workload has no random input: every seed gives the same result
    seed_invariant = False
    #: the same input run sharded, traced alongside this workload (see run.py)
    shard_twin: Optional[type] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self, rec) -> None:
        """Untimed small run that pays one-off lazy costs (imports, memo tables)."""

    def rep(self, rec) -> RepOutput:
        raise NotImplementedError


class Collectives2k(Workload):
    name = "collectives-2k"
    seed_invariant = True
    parallel: Optional[ParallelConfig] = None

    def _job(self, n_ranks: int) -> Job:
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        return Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, 2), seed=self.seed, parallel=self.parallel)

    def warm(self, rec) -> None:
        self._job(16).launch(ring_collectives, iters=1, nbytes=COLLECTIVES_NBYTES).run()
        rec.clear()

    def rep(self, rec) -> RepOutput:
        with rec.span("case", case=0):
            job = self._job(COLLECTIVES_RANKS)
            job.launch(ring_collectives, iters=COLLECTIVES_ITERS, nbytes=COLLECTIVES_NBYTES)
            res = job.run()
        rec.take_jobs()
        observed = {"events": res.events, "frames": res.fabric["frames"], "runtime": res.runtime}
        expected = collectives_expected(SimpleNamespace(n_ranks=COLLECTIVES_RANKS, steps=COLLECTIVES_ITERS))
        errors = check_rank_results(res.app_results, job.rmap.rank_of, expected, self.name)
        errors += check_reference(observed, COLLECTIVES_2K, self.name)
        errors += self.check_parallel(res)
        return RepOutput(
            fingerprint=observed,
            counts=job_counts(job, res),
            events=res.events,
            cases=1,
            attempted=1,
            failed=0,
            errors=errors,
        )

    def check_parallel(self, res: JobResult) -> List[str]:
        return [] if res.parallel is None else [f"{self.name}: serial run reports sharding {res.parallel}"]


class Collectives2kW2(Collectives2k):
    name = "collectives-2k-w2"
    parallel = ParallelConfig(workers=2)
    shard_twin = None

    def check_parallel(self, res: JobResult) -> List[str]:
        meta = res.parallel or {}
        if meta.get("shards") != 2 or meta.get("fallback"):
            return [f"{self.name}: expected 2 shards and no serial fallback, got {meta}"]
        return []


class Table2Hpccg(Workload):
    name = "table2-hpccg"
    scale = SCALES["quick"]

    def _run(self, protocol: str, n_ranks: int, iters: int):
        if protocol == "native":
            cfg = ReplicationConfig(degree=1, protocol="native")
        else:
            cfg = ReplicationConfig(degree=2, protocol=protocol)
        cluster = cluster_for(n_ranks, cfg.degree, compute_noise=self.scale.noise)
        job = Job(n_ranks, cfg=cfg, cluster=cluster, seed=self.seed)
        return job, job.launch(hpccg_rank, iters=iters).run()

    def warm(self, rec) -> None:
        self._run("sdr", 4, 1)
        rec.clear()

    def rep(self, rec) -> RepOutput:
        n, iters = self.scale.n_ranks, self.scale.hpccg_iters
        with rec.span("case", case=0):
            native_job, native = self._run("native", n, iters)
            sdr_job, sdr = self._run("sdr", n, iters)
        rec.take_jobs()
        expected = {native_job.rmap.rank_of(p): value for p, value in native.app_results.items()}
        errors = check_rank_results(sdr.app_results, sdr_job.rmap.rank_of, expected, f"{self.name} sdr vs native")
        fingerprint = {
            "native": (native.events, native.fabric["frames"], native.runtime),
            "sdr": (sdr.events, sdr.fabric["frames"], sdr.runtime),
            "overhead_pct": overhead_pct(native.runtime, sdr.runtime),
            "results": sha(sorted(native.app_results.items())),
        }
        return RepOutput(
            fingerprint=fingerprint,
            counts=merge_counts([job_counts(native_job, native), job_counts(sdr_job, sdr)]),
            events=native.events + sdr.events,
            cases=1,
            attempted=2,
            failed=0,
            errors=errors,
        )


class CampaignMix(Workload):
    name = "campaign-mix"

    def seeds(self) -> range:
        """The seed block: consecutive, taken from the seed alone, never curated."""
        return range(CAMPAIGN_BLOCK * self.seed, CAMPAIGN_BLOCK * (self.seed + 1))

    def warm(self, rec) -> None:
        for workload in CAMPAIGN_WORKLOADS:
            cfg = dataclasses.replace(CampaignConfig(), workload=workload)
            for protocol in CAMPAIGN_PROTOCOLS:
                run_case(protocol, 0, cfg)
        rec.clear()

    def rep(self, rec) -> RepOutput:
        fingerprints = []
        parts = []
        outcomes = {outcome: 0 for outcome in OUTCOMES}
        attempted = failed = invariant_errors = events = 0
        for workload in CAMPAIGN_WORKLOADS:
            cfg = dataclasses.replace(CampaignConfig(), workload=workload)
            for protocol in CAMPAIGN_PROTOCOLS:
                for seed in self.seeds():
                    try:
                        with rec.span("case", case=attempted):
                            record = run_case(protocol, seed, cfg)
                    except Exception as exc:  # noqa: BLE001 - an unmodelled raise is a failed case
                        record = None
                        fingerprints.append(f"{workload}/{protocol}/{seed} raised {type(exc).__name__}: {exc}")
                    attempted += 1
                    jobs = rec.take_jobs()
                    if record is None:
                        failed += 1
                        continue
                    fingerprints.append(record.fingerprint)
                    outcomes[record.outcome] += 1
                    events += record.metrics["events"]
                    invariant_errors += bool(record.invariant_error)
                    failed += case_failed(record)
                    parts.append(job_counts(jobs[-1]))
        counts = merge_counts(parts)
        counts["invariant_errors"] = invariant_errors
        counts.update({f"outcome.{outcome}": n for outcome, n in outcomes.items()})
        return RepOutput(
            fingerprint={"cases": sha(fingerprints), "outcomes": outcomes},
            counts=counts,
            events=events,
            cases=attempted,
            attempted=attempted,
            failed=failed,
            errors=[],
        )


Collectives2k.shard_twin = Collectives2kW2

WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (Collectives2k, Table2Hpccg, CampaignMix)}
