#!/usr/bin/env python3
"""Benchmark of record for the SDR-MPI simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload collectives-2k --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds with tracing
off and prints the end-to-end metrics.  ``--trace 1`` runs it once more
untraced, for the layer counts and the baseline wall time, then once
under a profiler, and prints the per-layer metrics: each layer's self
time, share of the traced total and call count (see :mod:`layers`), plus
the named counters; a workload with a sharded twin runs the twin the
same way and takes the ``shard.*`` metrics from it.  Either way every rep
is checked (see :mod:`workloads`); a check that fails, or a rep that does
not reproduce the first rep of its seed exactly, makes the command exit 1.

The second-to-last line of output is a JSON object with the host block
(cores, CPU model, Python and numpy versions, git commit), the sample
counts and ``fail_frac`` with its base.  The last line is the result,
``attempted``/``failed`` counting one checked pass (every rep repeats it):
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` also
writes the spans and the layer table to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
from multiprocessing import util
from typing import List, NamedTuple

from layers import LAYERS, LayerFolder
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: reps a timed run makes at least, whatever ``--seconds`` says
MIN_REPS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "ev/s",
    "peak_rss_mb": "MB",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p95": "ms",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "kernel.events": "count",
            "kernel.ns_per_event": "ns",
            "kernel.heap_s": "s",
            "process.resumes": "count",
            "pml.sends_posted": "count",
            "pml.recvs_posted": "count",
            "pml.env_acquired": "count",
            "pml.env_alloc_ratio": "ratio",
            "pml.env_high_water": "count",
            "matching.unexpected": "count",
            "matching.unexpected_peak": "count",
            "matching.unexpected_ratio": "ratio",
            "fabric.frames": "count",
            "fabric.bytes": "B",
            "fabric.frame_alloc_ratio": "ratio",
            "fabric.ctrl_frame_ratio": "ratio",
            "fabric.fault_drops": "count",
            "fabric.fault_dups": "count",
            "fabric.fault_delays": "count",
            "protocol.acks_sent": "count",
            "protocol.resends": "count",
            "protocol.duplicates_dropped": "count",
            "protocol.dup_ratio": "ratio",
            "membership.crashes": "count",
            "membership.false_suspicions": "count",
            "membership.notify_drops": "count",
            "runner.jobs": "count",
            "runner.build_s": "s",
            "runner.launch_s": "s",
            "runner.audit_s": "s",
            "campaign.sample_s": "s",
            "campaign.invariant_errors": "count",
            "campaign.outcome.completed": "count",
            "campaign.outcome.degraded": "count",
            "campaign.outcome.failed": "count",
            "campaign.outcome.deadlocked": "count",
            "traffic.offered": "count",
            "traffic.admit_ratio": "ratio",
            "shard.windows": "count",
            "shard.fallbacks": "count",
            "shard.frames_exported": "count",
            "shard.wait_s": "s",
            "shard.wall_ratio": "ratio",
            "trace.overhead_ratio": "ratio",
            "trace.total_s": "s",
        }
    )
    return units


# ------------------------------------------------------------------ host
def git_commit(root: str):
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_block() -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every reaped child (fork workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of *values* at *q* in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ------------------------------------------------------------------ runs
class Rep(NamedTuple):
    wall: float
    #: the workload's RepOutput
    out: object
    #: seconds per span name (SpanRecorder.totals)
    spans: dict
    #: seconds per case
    cases: List[float]


def run_reps(workload, rec, seconds: float, min_reps: int):
    """Repeat the workload until the next rep would overrun *seconds*."""
    reps = []
    start = time.perf_counter()
    while True:
        rec.clear()
        # A Job is a web of reference cycles: collect the last rep's before
        # timing the next, as a fresh process would start, so neither the
        # rep's time nor the peak RSS depends on how many reps came before.
        gc.collect()
        t0 = time.perf_counter()
        out = workload.rep(rec)
        wall = time.perf_counter() - t0
        reps.append(Rep(wall, out, rec.totals(), rec.case_durations()))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(r.wall for r in reps) > seconds:
            return reps


def check_reps(reps) -> list:
    """Output-check failures plus any rep that does not repeat the first."""
    errors = []
    first = reps[0].out
    for i, rep in enumerate(reps):
        errors += rep.out.errors
        if i and rep.out.fingerprint != first.fingerprint:
            errors.append(f"rep {i} fingerprint {rep.out.fingerprint} != rep 0 {first.fingerprint}")
        if i and (rep.out.attempted, rep.out.failed) != (first.attempted, first.failed):
            errors.append(
                f"rep {i} failed {rep.out.failed}/{rep.out.attempted} != rep 0 {first.failed}/{first.attempted}"
            )
        if i and rep.out.counts != first.counts:
            diff = sorted(k for k in first.counts if rep.out.counts.get(k) != first.counts[k])
            errors.append(f"rep {i} counts differ from rep 0 on {diff}")
    return errors


def end_to_end(reps) -> dict:
    cases_ms = [d * 1e3 for rep in reps for d in rep.cases]
    return {
        "wall_s": statistics.median(r.wall for r in reps),
        "setup_s": statistics.median(r.spans["setup"] for r in reps),
        "events_per_s": statistics.median(r.out.events / r.spans["run"] for r in reps),
        "peak_rss_mb": peak_rss_mb(),
        "cases_per_s": statistics.median(r.out.cases / r.wall for r in reps),
        "case_ms_p50": quantile(cases_ms, 0.50),
        "case_ms_p95": quantile(cases_ms, 0.95),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(reps, fold: dict, traced_wall: float) -> dict:
    counts = reps[0].out.counts
    total = fold["total_s"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = fold["self_s"][layer]
        metrics[f"{layer}.share"] = _ratio(fold["self_s"][layer], total)
        metrics[f"{layer}.calls"] = fold["calls"][layer]

    def span_median(name: str) -> float:
        return statistics.median(r.spans.get(name, 0.0) for r in reps)

    run_s = span_median("run")
    untraced_wall = statistics.median(r.wall for r in reps)
    metrics.update(
        {
            "kernel.events": counts["events"],
            # the kernel's traced share applied to untraced time inside Job.run
            "kernel.ns_per_event": _ratio(metrics["kernel.share"] * run_s, counts["events"]) * 1e9,
            "kernel.heap_s": fold["heap_s"],
            "process.resumes": fold["resumes"],
            "pml.sends_posted": counts["sends_posted"],
            "pml.recvs_posted": counts["recvs_posted"],
            "pml.env_acquired": counts["env_acquired"],
            "pml.env_alloc_ratio": _ratio(counts["env_allocated"], counts["env_acquired"]),
            "pml.env_high_water": counts["env_high_water"],
            "matching.unexpected": counts["unexpected"],
            "matching.unexpected_peak": counts["unexpected_peak"],
            "matching.unexpected_ratio": _ratio(counts["unexpected"], counts["recvs_posted"]),
            "fabric.frames": counts["frames"],
            "fabric.bytes": counts["bytes"],
            "fabric.frame_alloc_ratio": _ratio(counts["frames_allocated"], counts["frames_acquired"]),
            "fabric.ctrl_frame_ratio": _ratio(counts["ctrl_frames"], counts["frames"]),
            "fabric.fault_drops": counts["fault_drops"],
            "fabric.fault_dups": counts["fault_dups"],
            "fabric.fault_delays": counts["fault_delays"],
            "protocol.acks_sent": counts["acks_sent"],
            "protocol.resends": counts["resends"],
            "protocol.duplicates_dropped": counts["duplicates_dropped"],
            "protocol.dup_ratio": _ratio(counts["duplicates_dropped"], counts["data_frames"]),
            "membership.crashes": counts["crashes"],
            "membership.false_suspicions": counts["false_suspicions"],
            "membership.notify_drops": counts["notify_drops"],
            "runner.jobs": counts["jobs"],
            "runner.build_s": span_median("build"),
            "runner.launch_s": span_median("launch"),
            "runner.audit_s": span_median("audit"),
            "campaign.sample_s": span_median("sample"),
            "campaign.invariant_errors": counts.get("invariant_errors", 0),
            "traffic.offered": counts["offered"],
            "traffic.admit_ratio": _ratio(counts["admitted"], counts["offered"]),
            "shard.windows": counts["windows"],
            "shard.fallbacks": counts["fallbacks"],
            "shard.frames_exported": counts["frames_exported"],
            "shard.wait_s": fold["wait_s"],
            "shard.wall_ratio": 0.0,
            "trace.overhead_ratio": traced_wall / untraced_wall,
            "trace.total_s": total,
        }
    )
    for outcome in ("completed", "degraded", "failed", "deadlocked"):
        metrics[f"campaign.outcome.{outcome}"] = counts.get(f"outcome.{outcome}", 0)
    return metrics


def _profile_worker(worker_dir: str, _parent_profiler) -> None:
    """In a multiprocessing child (the shard workers): drop the profiler hook
    inherited from the parent and profile the worker into its own file,
    written when the worker exits."""
    sys.setprofile(None)
    profiler = cProfile.Profile()
    path = os.path.join(worker_dir, f"{os.getpid()}.pstats")
    util.Finalize(None, _dump_worker_profile, args=(profiler, path), exitpriority=0)
    profiler.enable()


def _dump_worker_profile(profiler, path: str) -> None:
    profiler.disable()
    profiler.dump_stats(path)


def traced_rep(workload, rec):
    """One rep under ``cProfile``.  Returns the rep, the parent's profile and
    the profile of every process it ran (parent plus fork workers)."""
    worker_dir = os.path.join(OUT_DIR, f"workers-{os.getpid()}")
    os.makedirs(worker_dir, exist_ok=True)
    rec.clear()
    gc.collect()
    profiler = cProfile.Profile()
    util.register_after_fork(profiler, functools.partial(_profile_worker, worker_dir))
    t0 = time.perf_counter()
    profiler.enable()
    try:
        out = workload.rep(rec)
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    profiler.create_stats()
    parent = dict(profiler.stats)
    merged = pstats.Stats(profiler)
    for name in sorted(os.listdir(worker_dir)):
        merged.add(os.path.join(worker_dir, name))
        os.remove(os.path.join(worker_dir, name))
    os.rmdir(worker_dir)
    return Rep(wall, out, rec.totals(), rec.case_durations()), parent, merged.stats


def shard_probe(workload, rec, folder, serial_reps, metrics: dict):
    """Run *workload*'s sharded twin once untraced and once traced, check it
    against the serial result and put its numbers into the ``shard.*``
    metrics (the serial run never enters the shard layer).  Returns the
    check failures and the twin's reps."""
    twin = workload.shard_twin(workload.seed)
    twin.warm(rec)
    untraced = run_reps(twin, rec, 0.0, min_reps=1)
    traced, parent_stats, all_stats = traced_rep(twin, rec)
    reps = untraced + [traced]
    errors = check_reps(reps)
    serial = serial_reps[0].out.fingerprint
    errors += [
        f"{twin.name}: result {rep.out.fingerprint} != serial {serial}"
        for rep in reps
        if rep.out.fingerprint != serial
    ]
    fold = folder.fold(all_stats)
    counts = untraced[0].out.counts
    metrics.update(
        {
            "shard.self_s": fold["self_s"]["shard"],
            "shard.share": _ratio(fold["self_s"]["shard"], fold["total_s"]),
            "shard.calls": fold["calls"]["shard"],
            "shard.windows": counts["windows"],
            "shard.fallbacks": counts["fallbacks"],
            "shard.frames_exported": counts["frames_exported"],
            "shard.wait_s": folder.fold(parent_stats)["wait_s"],
            "shard.wall_ratio": untraced[0].wall / statistics.median(r.wall for r in serial_reps),
        }
    )
    return errors, reps


def write_trace(name: str, seed: int, rec, metrics: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace.json")
    spans = [
        {"name": n, "case": c, "parent": p, "start": s, "end": e} for n, c, p, s, e in rec.spans
    ]
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "metrics": metrics, "spans": spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    rec = SpanRecorder()
    twin_reps = []
    with rec.installed():
        workload.warm(rec)
        if args.trace:
            reps = run_reps(workload, rec, args.seconds / 3, min_reps=1)
            traced, parent_stats, all_stats = traced_rep(workload, rec)
            errors = check_reps(reps + [traced])
            folder = LayerFolder(SRC, HERE)
            fold = folder.fold(all_stats)
            fold["wait_s"] = folder.fold(parent_stats)["wait_s"]
            metrics = per_layer(reps, fold, traced.wall)
            if workload.shard_twin is not None:
                twin_errors, twin_reps = shard_probe(workload, rec, folder, reps, metrics)
                errors += twin_errors
            units = per_layer_units()
            write_trace(workload.name, args.seed, rec, metrics)
            reps.append(traced)
        else:
            reps = run_reps(workload, rec, args.seconds, min_reps=MIN_REPS)
            errors = check_reps(reps)
            metrics = end_to_end(reps)
            units = END_TO_END_UNITS

    # Operations of one checked pass: every later rep must repeat it exactly
    # (check_reps), and counting one pass keeps the totals independent of
    # how many reps fit in the run.
    attempted = reps[0].out.attempted
    failed = reps[0].out.failed
    cases_ms = [d * 1e3 for r in reps for d in r.cases]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "host": host_block(),
        "seed_invariant": workload.seed_invariant,
        "rep_walls": [r.wall for r in reps],
        "shard_twin_walls": [r.wall for r in twin_reps],
        "case_samples": len(cases_ms),
        "case_samples_beyond_p95": sum(ms > metrics["case_ms_p95"] for ms in cases_ms) if not args.trace else None,
        "fail_frac": {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted},
        "fingerprint": reps[0].out.fingerprint,
        "errors": errors,
    }
    print(json.dumps(detail, default=str))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
