"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

(The file is not named ``test_*.py``, so the repository's own test run
does not collect it; the two seed-sensitivity tests take ~30 s.)
"""

from __future__ import annotations

import cProfile
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro.core.config import ReplicationConfig  # noqa: E402
from repro.harness.campaign import RunRecord  # noqa: E402
from repro.harness.runner import Job, JobShape, cluster_for  # noqa: E402
from repro.scenarios import ring_collectives  # noqa: E402


# ------------------------------------------------------------- layer map
def test_every_repro_module_maps_to_exactly_one_layer():
    modules = layers.repro_modules(SRC)
    assert "repro.harness.runner" in modules and "repro.sim.kernel" in modules
    assert layers.check_layer_map(modules) == []


def test_unassigned_or_doubly_assigned_module_fails(monkeypatch):
    assert layers.check_layer_map(["repro.sim.brand_new"]) != []
    monkeypatch.setitem(layers.LAYER_MODULES, "pml", ("repro.mpi.pml", "repro.mpi.matching"))
    assert layers.check_layer_map(["repro.mpi.matching"]) != []


def test_fold_sums_to_traced_total_and_attributes_builtins():
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(16, cfg=cfg, cluster=cluster_for(16, 2))
    profiler = cProfile.Profile()
    profiler.enable()
    job.launch(ring_collectives, iters=2, nbytes=4096).run()
    profiler.disable()
    profiler.create_stats()
    fold = layers.LayerFolder(SRC, HERE).fold(profiler.stats)
    assert sum(fold["self_s"].values()) == pytest.approx(fold["total_s"], rel=1e-9)
    assert set(fold["self_s"]) == set(layers.LAYERS)
    for layer in ("kernel", "process", "collectives", "pml", "fabric", "protocol"):
        assert fold["self_s"][layer] > 0 and fold["calls"][layer] > 0, layer
    assert fold["heap_s"] > 0
    assert fold["resumes"] > 0


# ----------------------------------------------------------------- spans
def test_spans_nest_count_setup_once_and_restore_entry_points():
    originals = (Job.__init__, Job.launch, Job.run, Job.audit, JobShape.__dict__["build"])
    rec = SpanRecorder()
    with rec.installed():
        with rec.span("case", case=7):
            job = Job(4, cfg=ReplicationConfig(degree=1, protocol="native"))
            job.launch(ring_collectives, iters=1, nbytes=64).run()
    assert (Job.__init__, Job.launch, Job.run, Job.audit, JobShape.__dict__["build"]) == originals
    names = [s[0] for s in rec.spans]
    assert names[:3] == ["case", "job", "build"]
    assert {s[1] for s in rec.spans} == {7}
    totals = rec.totals()
    durations = {s[0]: s[4] - s[3] for s in rec.spans}
    # build runs inside Job(...), so set-up counts it once
    assert totals["setup"] == pytest.approx(durations["job"] + durations["launch"])
    assert rec.jobs == [job]


# ---------------------------------------------------------------- checks
def test_corrupted_expected_result_is_rejected():
    results = {0: 6.0, 1: 6.0, 2: 6.0, 3: 6.0}
    rank_of = {0: 0, 1: 1, 2: 0, 3: 1}.__getitem__
    assert workloads.check_rank_results(results, rank_of, {0: 6.0, 1: 6.0}, "x") == []
    assert workloads.check_rank_results(results, rank_of, {0: 6.0, 1: 7.0}, "x") != []
    assert workloads.check_rank_results(results, rank_of, {0: 6.0, 1: 6.0, 2: 6.0}, "x") != []
    reference = dict(workloads.COLLECTIVES_2K)
    assert workloads.check_reference(reference, workloads.COLLECTIVES_2K, "x") == []
    assert workloads.check_reference({**reference, "events": reference["events"] + 1}, reference, "x") != []


def _rep(fingerprint, counts=None, errors=(), failed=0):
    out = workloads.RepOutput(fingerprint, counts or {"events": 1}, 1, 1, 1, failed, list(errors))
    return run.Rep(1.0, out, {"setup": 0.1, "run": 0.5}, [1.0])


def test_rep_that_does_not_repeat_the_first_is_rejected():
    assert run.check_reps([_rep("a"), _rep("a")]) == []
    assert run.check_reps([_rep("a"), _rep("b")]) != []
    assert run.check_reps([_rep("a"), _rep("a", {"events": 2})]) != []
    assert run.check_reps([_rep("a"), _rep("a", failed=1)]) != []
    assert run.check_reps([_rep("a", errors=["wrong"])]) == ["wrong"]


def _record(protocol, outcome, error=None, invariant_error=None, mix=None):
    return RunRecord(protocol, 0, outcome, mix or {}, {}, {}, error=error, invariant_error=invariant_error)


def test_campaign_failure_accounting():
    assert workloads.case_failed(_record("mirror", "deadlocked", invariant_error="envelope arena leak"))
    assert workloads.case_failed(_record("sdr", "failed", error="TypeError: boom"))
    assert workloads.case_failed(_record("sdr", "failed", error="wrong results from procs [1]"))
    assert not workloads.case_failed(_record("sdr", "failed"))  # lost ranks
    assert not workloads.case_failed(_record("sdr", "deadlocked"))
    assert not workloads.case_failed(
        _record("native", "failed", error="wrong results from procs [0]", mix={"dup_window": (0, 1)})
    )
    assert workloads.case_failed(_record("native", "failed", error="wrong results from procs [0]"))


# ---------------------------------------------------------- seed behaviour
def test_seed_changes_campaign_fingerprints():
    rec = SpanRecorder()
    with rec.installed():
        first = workloads.CampaignMix(0).rep(rec)
        second = workloads.CampaignMix(1).rep(rec)
    assert first.fingerprint["cases"] != second.fingerprint["cases"]
    assert first.attempted == second.attempted == 450
    # seeds 0-29 hold the leaking (hpccg, mirror, 15) case: it must show
    assert first.failed >= 1 and first.counts["invariant_errors"] >= 1


def test_seed_does_not_change_collectives_2k():
    rec = SpanRecorder()
    with rec.installed():
        outs = [workloads.Collectives2k(seed).rep(rec) for seed in (0, 5)]
    assert outs[0].errors == [] and outs[1].errors == []
    assert outs[0].fingerprint == outs[1].fingerprint == workloads.COLLECTIVES_2K
    assert outs[0].counts == outs[1].counts


# --------------------------------------------------------------- contract
def test_benchmark_json_matches_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collectives-2k", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
