"""Conservative sharded-parallel execution (Chandy–Misra–Bryant lookahead).

One :class:`~repro.harness.runner.Job` normally runs on one core.  This
module shards its simulated processes **by node** across the harness's
fork worker pool (:class:`WorkerPool`) and synchronizes the per-shard
:class:`Simulator` instances on conservative lookahead windows,
exploiting two facts the paper's system model fixes:

* topology and the cost model are immutable after setup, so the minimum
  inter-node wire latency ``L`` is a compile-time constant of the
  placement — any frame injected at time ``t`` toward another node
  arrives no earlier than ``t + L``;
* frames are only examined inside MPI calls (§3.3 no-async-progress), so
  deferring a cross-node delivery's *pricing* to a synchronization
  barrier is unobservable as long as the arrival still lands in time.

The window protocol (one parent round-trip per window)::

    barrier k:  T = min over shards of next-event time  (lower-bounded by
                the previous horizon when relayed frames are in flight)
    window k:   every shard dispatches events in [_, T + L) concurrently;
                inter-node injects are uplink-priced locally and *deferred*
                (:attr:`Fabric.shard_router`), never delivered directly
    barrier k+1: deferred frames are routed to the shard owning the
                destination node, merged in **canonical order**
                ``(inject_time, src_proc, per-shard seq)``, downlink-priced
                (:meth:`Fabric.price_deferred` — FIFO clamp intact) and
                scheduled; every arrival provably lands at ``>= T + L``,
                strictly after anything the window already dispatched.

Determinism is the contract, not a best effort: the serial engine stays
the executable spec, and the merged run must reproduce its per-run
fingerprint byte-for-byte.  Every feature whose serial behaviour depends
on *global* event interleaving that a shard cannot reconstruct — jitter
draws, stochastic fault draws (drop/dup), the imperfect detector's rng
stream, respawn recovery — is a **hazard**: :func:`classify_hazards`
detects them statically and the job falls back to the serial path with
the reasons recorded in ``JobResult.parallel["fallback"]``.  Delay-only
and partition fault windows draw no rng and stay shardable.

Crash schedules are replayed in *every* shard (endpoint liveness and
membership bookkeeping must agree globally); the membership oracle's
notification fan-out is filtered per shard (``MembershipService.local_procs``)
so each svc delivery fires exactly once, and the runner counts fired
crash callbacks so the merged ``events_dispatched`` can subtract the
``n_shards - 1`` duplicate dispatches per crash.

Zero-leak accounting crosses the relay: an exported frame leaves its
shard's custody (``frames_exported``), an imported one enters as a fresh
acquire (``frames_imported``); each shard's audit proves the extended
balance and the parent re-derives the global one (exports == imports,
merged ``acquired - imported`` equals the serial acquire count).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import traceback
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappush
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "ParallelConfig",
    "ShardPlan",
    "WorkerDied",
    "WorkerPool",
    "classify_hazards",
    "fingerprint",
    "run_parallel",
]


#: Observables that describe memory policy or the sharding machinery, not
#: the simulated execution, and are legitimately engine-dependent: each
#: shard owns a private frame pool and trimmer (high-water/pool/allocated/
#: trimmed differ), the relay counters are zero by construction on the
#: serial engine, and the payload interner's hit/miss *split* depends on
#: which shard sees a payload first (the hit+miss total is preserved and
#: fingerprinted as ``payload_lookups``).
_FINGERPRINT_EXCLUDED_FABRIC = frozenset(
    {
        "frame_high_water",
        "frame_pool_size",
        "frames_allocated",
        "frames_trimmed",
        "frames_exported",
        "frames_imported",
        "envs_exported",
        "envs_imported",
    }
)


def fingerprint(result) -> dict:
    """Canonical engine-equivalence fingerprint of a ``JobResult``.

    Every simulation-visible observable — runtime, per-proc finish times
    and app results, protocol stats, dispatched-event count, frame/byte
    totals, arena balances, strand attribution, traffic admission — keyed
    exactly; the serial and sharded engines must produce byte-identical
    fingerprints for the same job (the hypothesis equivalence suite
    enforces it).  Memory-policy and machinery counters are excluded, see
    ``_FINGERPRINT_EXCLUDED_FABRIC``.
    """
    import dataclasses

    out: Dict[str, Any] = {}
    for field in dataclasses.fields(result):
        if field.name in ("parallel", "payload_interned", "payload_misses"):
            continue
        value = getattr(result, field.name)
        if field.name == "fabric":
            value = {
                k: v for k, v in value.items() if k not in _FINGERPRINT_EXCLUDED_FABRIC
            }
        out[field.name] = value
    out["payload_lookups"] = result.payload_interned + result.payload_misses
    return out


@dataclass(frozen=True)
class ParallelConfig:
    """Opt-in multi-core execution for one Job.

    *workers* is the requested worker-process count; the planner never
    creates more shards than there are populated nodes (a node's procs
    share uplink/downlink pricing cells and must stay together).
    """

    workers: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ShardPlan:
    """Immutable node → shard partition plus the derived lookahead.

    Shards are contiguous node ranges balanced by process count, so the
    paper's split-halves placement lands replica sets on distinct shards
    when it can.  ``lookahead`` is the minimum wire latency between any
    two *populated* nodes — the window width that makes deferral safe —
    or ``None`` when the job occupies a single node (no inter-node
    traffic exists to relay, but no safe window exists either: serial).
    """

    n_shards: int
    #: proc id -> shard id (dense list, index by proc)
    shard_of_proc: Tuple[int, ...]
    #: node id -> shard id (only populated nodes appear)
    shard_of_node: Dict[int, int]
    #: per shard, the sorted tuple of proc ids it owns
    local_procs: Tuple[Tuple[int, ...], ...]
    lookahead: Optional[float]

    @classmethod
    def build(cls, placement, workers: int) -> "ShardPlan":
        n_procs = len(placement)
        node_of = [placement.node_of(p) for p in range(n_procs)]
        nodes = sorted(set(node_of))
        n_shards = max(1, min(workers, len(nodes)))
        # Contiguous chunks balanced by proc count: each node is cut into
        # the shard its cumulative proc share falls in (the classic
        # proportional partition — for the common equal-procs-per-node
        # placements this is exactly ``floor(i * n_shards / n_nodes)``).
        # A pathologically skewed placement can leave a shard empty;
        # compressing to dense ids keeps the partition contiguous.
        procs_per_node = {n: 0 for n in nodes}
        for n in node_of:
            procs_per_node[n] += 1
        shard_of_node: Dict[int, int] = {}
        acc = 0
        for node in nodes:
            shard_of_node[node] = acc * n_shards // n_procs
            acc += procs_per_node[node]
        dense: Dict[int, int] = {}
        for node in nodes:
            sid = shard_of_node[node]
            if sid not in dense:
                dense[sid] = len(dense)
            shard_of_node[node] = dense[sid]
        n_shards = len(dense)
        shard_of_proc = tuple(shard_of_node[n] for n in node_of)
        local: List[List[int]] = [[] for _ in range(n_shards)]
        for proc, s in enumerate(shard_of_proc):
            local[s].append(proc)
        lookahead = _min_inter_node_latency(placement.cluster, nodes)
        return cls(
            n_shards=n_shards,
            shard_of_proc=shard_of_proc,
            shard_of_node=shard_of_node,
            local_procs=tuple(tuple(procs) for procs in local),
            lookahead=lookahead,
        )

    def validate(self) -> None:
        """Partition sanity: every proc in exactly one shard, shards
        non-empty, node ranges contiguous and node-aligned."""
        seen = set()
        for sid, procs in enumerate(self.local_procs):
            if not procs:
                raise ValueError(f"shard {sid} owns no processes")
            for p in procs:
                if p in seen:
                    raise ValueError(f"proc {p} appears in two shards")
                seen.add(p)
                if self.shard_of_proc[p] != sid:
                    raise ValueError(f"proc {p}: shard_of_proc disagrees with local_procs")
        if len(seen) != len(self.shard_of_proc):
            raise ValueError("some processes are unassigned")
        last = -1
        for node in sorted(self.shard_of_node):
            sid = self.shard_of_node[node]
            if sid < last:
                raise ValueError("node → shard assignment is not contiguous")
            last = sid


def _min_inter_node_latency(cluster, nodes: List[int]) -> Optional[float]:
    """Minimum wire latency over populated inter-node pairs.

    Exhaustive for small node sets; for large ones the sweep covers
    adjacent pairs only, which is exact for the homogeneous
    :class:`~repro.network.topology.Cluster` (``model_for`` distinguishes
    intra vs inter node only, so every inter-node pair shares one model).
    """
    if len(nodes) < 2:
        return None
    if len(nodes) <= 64:
        pairs = itertools.combinations(nodes, 2)
    else:
        pairs = zip(nodes, nodes[1:])
    lat = min(cluster.model_for(a, b).latency for a, b in pairs)
    return lat if lat > 0.0 else None


def classify_hazards(job, plan: ShardPlan) -> List[str]:
    """Reasons this job cannot run sharded (empty list == shardable).

    Each hazard names a feature whose serial semantics depend on global
    state a shard cannot reproduce deterministically; the caller records
    the list in the result metadata and falls back to the serial engine.
    """
    hazards: List[str] = []
    if plan.n_shards < 2:
        hazards.append("single_shard")
    if plan.lookahead is None:
        hazards.append("no_lookahead")
    if job.fabric._jitter is not None:
        # Jitter draws happen per inject in global event order — per-shard
        # order would reshuffle the stream.
        hazards.append("jitter")
    faults = job.fabric._faults
    if faults is not None and any(
        w.drop_p > 0.0 or w.dup_p > 0.0 for w in faults.windows
    ):
        # Probabilistic draws consume the fault stream in global inject
        # order.  Delay-only windows and partitions draw nothing and are
        # decided from (time, nodes) alone — they stay shardable.
        hazards.append("stochastic_faults")
    if job.membership.detector is not None:
        # The imperfect detector draws notification losses from the
        # membership stream in fan-out order across *all* procs.
        hazards.append("detector")
    if any(
        getattr(proto, "recovery_hook", None) is not None
        for proto in job.protocols.values()
    ):
        # Respawn recovery rebuilds stacks mid-run; the forked shards
        # cannot agree on the substitute's fork point without consensus.
        hazards.append("recovery")
    if "fork" not in mp.get_all_start_methods():
        hazards.append("no_fork")
    return hazards


class _ShardRouter:
    """Per-window collector of deferred inter-node frames.

    :meth:`Fabric.inject` calls :meth:`defer` instead of downlink-pricing
    when :attr:`Fabric.shard_router` is set.  ``seq`` is a shard-local
    monotone counter: within one source process it preserves inject
    order, and the canonical merge key ``(inject_time, src_proc, seq)``
    never compares seqs from different shards (a proc injects in exactly
    one shard).  ``sim_seq`` snapshots the kernel's heap-seq counter at
    the defer — the serial engine heappushes the arrival at this exact
    moment, so the snapshot is the frame's push-order position among
    locally-kept same-timestamp heap entries (imported frames lose it at
    the wire: counters from different shards do not compare).
    """

    __slots__ = ("records", "seq")

    def __init__(self) -> None:
        self.records: List[Tuple[Any, float, float, float, float, int, int]] = []
        self.seq = 0

    def defer(
        self, frame, inject_time: float, t_head: float, ser: float, extra_delay: float, sim_seq: int
    ) -> None:
        self.seq += 1
        self.records.append((frame, inject_time, t_head, ser, extra_delay, self.seq, sim_seq))


def _encode_payload(payload) -> Optional[tuple]:
    """Picklable wire form of a frame payload.

    Envelopes are flattened to their value tuple (``ctx`` is already a
    value-compared tuple, ``data`` an immutable snapshot); anything else
    crosses as-is.  The dst shard mints a *fresh* envelope — single-owner
    arena discipline never crosses a process boundary.
    """
    if payload is None:
        return None
    cls = _envelope_class()
    if isinstance(payload, cls):
        return (
            "env",
            (
                payload.kind,
                payload.ctx,
                payload.src_rank,
                payload.tag,
                payload.world_src,
                payload.world_dst,
                payload.seq,
                payload.nbytes,
                payload.data,
                payload.src_phys,
                payload.dst_phys,
                payload.msg_id,
                payload.ctrl_key,
            ),
        )
    return ("raw", payload)


def _decode_payload(enc: Optional[tuple]):
    if enc is None:
        return None
    tag, body = enc
    if tag == "env":
        return _envelope_class()(*body)
    return body


_ENVELOPE_CLASS: Optional[type] = None


def _envelope_class() -> type:
    global _ENVELOPE_CLASS
    if _ENVELOPE_CLASS is None:
        from repro.mpi.pml import Envelope

        _ENVELOPE_CLASS = Envelope
    return _ENVELOPE_CLASS


class _ShardTaint(Exception):
    """A window whose deferred-frame order the shards cannot reconstruct.

    Raised inside a worker's merge when frames from *different* shards hit
    the same destination node's downlink at the exact same inject time:
    the serial engine would price them in its global same-timestamp
    dispatch order, which no shard-local information can recover.  The
    worker reports it at the barrier and the parent falls back to the
    serial engine — same contract as :class:`_DrainRace`.
    """


def _push_vt(marks: list, seq: int, sim) -> float:
    """Virtual time at which pending heap entry *seq* was pushed.

    *marks* is the worker's ``(seq_counter, vtime)`` checkpoint list,
    appended from ``on_advance`` each time a timestamp closes: every seq
    in ``(marks[k-1][0], marks[k][0]]`` was pushed exactly at
    ``marks[k][1]``.  Seqs beyond the last mark were pushed during the
    still-open current timestamp.
    """
    idx = bisect_left(marks, (seq,))
    if idx == len(marks):
        return sim._now
    return marks[idx][1]


def _merge_deferred(
    job,
    plan: "ShardPlan",
    local: list,
    imported: list,
    marks: Optional[list] = None,
    reseq: Optional[dict] = None,
) -> None:
    """Window barrier: price and schedule every deferred frame.

    *local* entries are ``(frame, inject_time, t_head, ser, extra_delay,
    seq)`` with live frame objects; *imported* are wire records
    ``(inject_time, src, seq, dst, size, kind, t_head, ser, extra_delay,
    payload_enc)``.  Both sort under the canonical key
    ``(inject_time, src_shard, seq)``: for time-distinct injects this is
    the order the serial engine priced the shared downlink in, and for
    same-time injects from one shard the shard-local ``seq`` *is* the
    serial dispatch order projected onto that shard (restricted
    determinism — the whole window protocol rests on it).  Same-time
    injects from *different* shards are ordered by shard id, which is
    only a guess; it matters exactly when they contend for one
    destination node's downlink, and that case raises
    :class:`_ShardTaint` (serial fallback) instead of guessing.

    Heap placement must be serial-true, not merely time-true.  Serial
    dispatch breaks arrival-time ties by heap seq — i.e. by *push order*,
    and a frame is pushed at its inject dispatch.  A deferred frame
    pushed here, at the barrier, would sort after every same-arrival
    local entry pushed during past windows, even ones the serial engine
    pushed *after* the frame's inject (observable: the destination
    process resumes before the frame lands, takes the wait-then-wake
    path, and ``events_dispatched`` drifts).  So each deferred frame is
    compared, via the worker's push-time checkpoints (*marks*), against
    the pending entries sharing its arrival time, and the whole
    same-time cohort is *renumbered* with fresh consecutive integer
    seqs in serial push order.  Renumbering (rather than fractional
    interpolation between neighbouring seqs) survives any insertion
    volume — repeated midpoints exhaust double precision on large
    tiers.  Renumbered non-frame entries lose their mark mapping, so
    their true push time is remembered in *reseq* (new seq -> push
    time), consulted before the marks at later merges.  Entries pushed
    at the exact inject instant by another shard are the one genuinely
    unorderable case (cross-shard same-timestamp interleave) and taint.
    """
    fab = job.fabric
    sim = job.sim
    node_of = fab._node_of
    shard_of_proc = plan.shard_of_proc
    entries: List[Tuple[float, int, int, Any]] = []
    # (inject_time, dst_node) -> src shard; a second distinct shard on the
    # same key is the unorderable downlink tie the docstring describes.
    tie_guard: Dict[Tuple[float, int], int] = {}
    for frame, inject_time, t_head, ser, extra_delay, seq, sim_seq in local:
        src_shard = shard_of_proc[frame.src]
        key = (inject_time, node_of[frame.dst])
        if tie_guard.setdefault(key, src_shard) != src_shard:
            raise _ShardTaint("tied cross-shard downlink contention")
        entries.append((inject_time, src_shard, seq, (frame, t_head, ser, extra_delay, sim_seq)))
    for rec in imported:
        inject_time, src, seq, dst, size, kind, t_head, ser, extra_delay, enc = rec
        src_shard = shard_of_proc[src]
        key = (inject_time, node_of[dst])
        if tie_guard.setdefault(key, src_shard) != src_shard:
            raise _ShardTaint("tied cross-shard downlink contention")
        frame = fab.import_frame(src, dst, size, _decode_payload(enc), kind)
        entries.append((inject_time, src_shard, seq, (frame, t_head, ser, extra_delay, None)))
    if not entries:
        return
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    queue = sim._queue
    # Pass 1 — canonical-order pricing: downlink occupancy must evolve in
    # serial inject order regardless of where each frame lands in the heap.
    priced: List[Tuple[float, float, Any, Any]] = []
    for inject_time, _sh, _seq, (frame, t_head, ser, extra_delay, sim_seq) in entries:
        arrival = fab.price_deferred(frame.src, frame.dst, t_head, ser, extra_delay)
        # Serial inject stamps sent_at at dispatch; imported frames must
        # carry it too — it is the push-order witness for later merges.
        frame.sent_at = inject_time
        priced.append((arrival, inject_time, sim_seq, frame))
    # Pass 2 — serial-true heap placement.  One queue scan collects the
    # pending entries sharing any of our arrival times (and the minimum
    # pending seq, which bounds how far back push-time checkpoints can
    # still be queried — everything older is pruned).
    arrival_times = {p[0] for p in priced}
    colliders: Dict[float, list] = {}
    min_pending: Optional[float] = None
    for t, seq_e, _ev in queue:
        if min_pending is None or seq_e < min_pending:
            min_pending = seq_e
        if t in arrival_times:
            colliders.setdefault(t, []).append((seq_e, _ev))
    if min_pending is not None:
        if marks is not None:
            del marks[: bisect_left(marks, (min_pending,))]
        if reseq:
            for k in [k for k in reseq if k < min_pending]:
                del reseq[k]
    by_arrival: Dict[float, list] = {}
    for arrival, inject_time, defer_seq, frame in priced:
        by_arrival.setdefault(arrival, []).append((inject_time, defer_seq, frame))
    for arrival, news in by_arrival.items():
        row = colliders.get(arrival)
        if row is None:
            # Lookahead guarantees arrival >= window end > sim._now:
            # always a strict-future push, exactly where serial put it.
            for _inject, _dseq, frame in news:
                sim._seq += 1
                heappush(queue, (arrival, sim._seq, frame))
            continue
        # Existing entries in push (= seq) order, each with its recovered
        # virtual push time.  Seqs in a same-time cohort are push-ordered,
        # so push times are monotone along this list.
        row.sort()
        merged: List[Tuple[float, Any, Optional[float], bool]] = []
        for seq_e, ev in row:
            pushed_at = getattr(ev, "sent_at", None)
            if pushed_at is None and reseq is not None:
                pushed_at = reseq.get(seq_e)
            if pushed_at is None:
                pushed_at = _push_vt(marks, seq_e, sim) if marks is not None else -1.0
            merged.append((pushed_at, ev, seq_e, False))
        n_existing = len(merged)
        appended_only = True
        for inject_time, defer_seq, frame in news:
            # Serial-before elements form a prefix of *merged*: push times
            # are monotone, and canonical-earlier frames this merge placed
            # (is_new) are serial-before by construction.  Insert before
            # the first existing entry the serial engine pushed after us.
            pos = len(merged)
            for j, (pushed_at, _ev, seq_e, is_new) in enumerate(merged):
                if is_new:
                    continue
                if pushed_at < inject_time:
                    continue
                if pushed_at == inject_time:
                    if defer_seq is None:
                        # Pushed at the very instant of our inject, in
                        # another shard: the cross-shard same-timestamp
                        # interleave no shard-local record can reconstruct.
                        raise _ShardTaint("same-instant push tie at shared arrival time")
                    # Locally-held frame: the defer snapshotted the kernel
                    # seq counter at the inject dispatch, which is exactly
                    # where the serial engine would have heappushed us —
                    # entries with a higher seq were pushed after.
                    if seq_e <= defer_seq:
                        continue
                pos = j
                break
            if pos != len(merged):
                appended_only = False
            merged.insert(pos, (inject_time, frame, None, True))
        if appended_only:
            # Every deferred frame lands after all pending entries: fresh
            # counter seqs already sort correctly.
            for _pushed, frame, _seq, _new in merged[n_existing:]:
                sim._seq += 1
                heappush(queue, (arrival, sim._seq, frame))
            continue
        # Renumber the whole same-time cohort with fresh consecutive
        # integers in serial order.  Seqs only ever compare within one
        # timestamp, and the new seqs stay below every future push, so
        # this is invisible outside the cohort.
        base = sim._seq
        sim._seq += len(merged)
        remap: Dict[float, float] = {}
        for i, (pushed_at, obj, seq_e, is_new) in enumerate(merged):
            nseq = base + 1 + i
            if is_new:
                queue.append((arrival, nseq, obj))
            else:
                remap[seq_e] = nseq
                if getattr(obj, "sent_at", None) is None and reseq is not None:
                    # Non-frame entries carry no sent_at; keep their true
                    # push time reachable under the new seq.
                    reseq[nseq] = pushed_at
        for k, item in enumerate(queue):
            if item[0] == arrival and item[1] in remap:
                queue[k] = (arrival, remap[item[1]], item[2])
        heapify(queue)


def _drain_router(job, plan: ShardPlan, shard_id: int):
    """Split this window's deferred frames into locally-kept entries and
    per-destination-shard wire records (exporting the latter)."""
    fab = job.fabric
    router = fab.shard_router
    node_of = fab._node_of
    shard_of_node = plan.shard_of_node
    local: list = []
    exports: Dict[int, list] = {}
    for frame, inject_time, t_head, ser, extra_delay, seq, sim_seq in router.records:
        dst_shard = shard_of_node[node_of[frame.dst]]
        if dst_shard == shard_id:
            local.append((frame, inject_time, t_head, ser, extra_delay, seq, sim_seq))
        else:
            rec = (
                inject_time,
                frame.src,
                seq,
                frame.dst,
                frame.size,
                frame.kind,
                t_head,
                ser,
                extra_delay,
                _encode_payload(frame.payload),
            )
            fab.export_frame(frame)
            exports.setdefault(dst_shard, []).append(rec)
    router.records = []
    return local, exports


# ---------------------------------------------------------------- worker pool


class WorkerDied(RuntimeError):
    """A pool worker's pipe reached EOF: the worker exited without replying
    (killed, segfaulted, ``os._exit``)."""

    def __init__(self, role: str, wid: int, exitcode: Optional[int]) -> None:
        super().__init__(f"{role} {wid} died (exit code {exitcode})")
        self.wid = wid
        self.exitcode = exitcode


class WorkerPool:
    """*n* forked workers, each running ``target(conn, wid, *args)`` over its
    own duplex pipe — the one fork pool of the harness (sharded jobs here,
    parameter sweeps in :mod:`repro.harness.sweep`).

    Workers are forked, so *args* (a sharded worker's built ``Job``) are
    inherited, never pickled.  ``recv`` turns a dead worker's EOF into
    :class:`WorkerDied`; ``close`` works whatever state the workers are in.
    """

    def __init__(self, n: int, target: Callable, args: tuple = (), role: str = "worker") -> None:
        self._ctx = mp.get_context("fork")
        self._target = target
        self._args = args
        self._role = role
        self._conns: List[Any] = [None] * n
        self._procs: List[Any] = [None] * n
        for wid in range(n):
            self.spawn(wid)

    def spawn(self, wid: int) -> None:
        """Fork worker *wid*, reaping the one it replaces (if any)."""
        if self._procs[wid] is not None:
            self._conns[wid].close()
            self._procs[wid].join()
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=self._target, args=(child_conn, wid, *self._args), daemon=True)
        proc.start()
        # Closed before any later fork, so only this worker holds the child
        # end: its exit is an EOF on parent_conn.
        child_conn.close()
        self._conns[wid] = parent_conn
        self._procs[wid] = proc

    def send(self, wid: int, msg: Any) -> None:
        self._conns[wid].send(msg)

    def recv(self, wid: int) -> Any:
        try:
            return self._conns[wid].recv()
        except EOFError:
            proc = self._procs[wid]
            proc.join()
            raise WorkerDied(self._role, wid, proc.exitcode) from None

    def wait(self, wids) -> List[int]:
        """Block until a worker in *wids* has a message or has exited;
        return every such wid, sorted."""
        owner: Dict[Any, int] = {}
        for wid in wids:
            owner[self._conns[wid]] = wid
            owner[self._procs[wid].sentinel] = wid
        return sorted({owner[ready] for ready in _wait_ready(list(owner))})

    def close(self) -> None:
        """Tell every worker to exit, join it, terminate stragglers."""
        for conn in self._conns:
            try:
                # An explicit op rather than EOF: workers forked later
                # inherit the parent end of earlier workers' pipes, so
                # closing it here alone never EOFs a worker blocked in recv().
                conn.send(("exit",))
            except OSError:
                pass  # worker already finished or died
            conn.close()
        for proc in self._procs:
            proc.join(30)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join()


# ---------------------------------------------------------------- worker side


def _shard_worker_main(conn, shard_id: int, job, plan: ShardPlan) -> None:
    """Forked worker: own Simulator copy, window loop, audited finalize."""
    try:
        _shard_worker_loop(job, plan, shard_id, conn)
    except BaseException as exc:  # noqa: BLE001 - report, never hang the pool
        try:
            conn.send(("crash", type(exc).__name__, str(exc), traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _local_done_info(job, crash_times: Dict[int, float]):
    """``(done_at, kind, last_proc)`` once every local process has finished
    or crashed, else ``None``.

    ``done_at`` is the local completion time — the moment the last local
    blocker was removed (a finish, or a crash of a never-finished proc);
    ``kind`` says which removed it (``"tie"`` when a finish and a crash
    coincide exactly — the parent cannot reconstruct the serial dispatch
    order and falls back).  ``last_proc`` is the *dispatch-order* last
    finisher (``finish_times`` is insertion-ordered, and finish events
    dispatch in time order), the process that serially would flip the
    all-done flag inside its own finish and never park.  A shard whose
    every local proc is absent reports ``(None, None, None)``: vacuously
    done, exactly as its procs never enter the serial scan.
    """
    done_at = kind = last_proc = None
    for proc, p in job.processes.items():
        if proc in job.finish_times:
            t, k = job.finish_times[proc], "finish"
        elif p.crashed:
            t, k = crash_times.get(proc), "crash"
            if t is None:  # pragma: no cover - hook precedes every start
                return None
        else:
            return None
        if done_at is None or t > done_at:
            done_at, kind = t, k
        elif t == done_at and k != kind:
            kind = "tie"
    if kind == "finish":
        last_proc = next(reversed(job.finish_times))
    return (done_at, kind, last_proc)


def _shard_worker_loop(job, plan: ShardPlan, shard_id: int, conn) -> None:
    sim = job.sim
    fab = job.fabric
    fab.shard_router = _ShardRouter()
    local_set = set(plan.local_procs[shard_id])
    job.membership.local_procs = local_set
    job._shard_mode = True
    # Replayed crashes stamp their sim time: local completion (and the
    # parent's post-completion-crash taint check) needs removal *times*,
    # which Process/membership bookkeeping does not retain.
    crash_times: Dict[int, float] = {}
    fab.on_crash.append(lambda p: crash_times.__setitem__(p, sim.now))
    # Push-time checkpoints for serial-true merge placement: each clock
    # advance closes a timestamp, so (seq counter, vtime) pairs let the
    # merge recover the exact virtual time any pending heap entry was
    # pushed at (see _push_vt).  Chains the inherited hook (arena trimmer).
    marks: List[Tuple[int, float]] = []
    # Push times of renumbered non-frame entries (new seq -> virtual push
    # time); renumbering moves them past the marks' seq range.
    reseq: Dict[int, float] = {}
    _prev_advance = sim.on_advance

    def _mark_advance(_append=marks.append, _sim=sim, _prev=_prev_advance):
        _append((_sim._seq, _sim._now))
        if _prev is not None:
            _prev()

    sim.on_advance = _mark_advance
    # Start only this shard's processes, in proc order — the local t=0
    # bucket order is exactly the serial order's projection onto the shard.
    for proc in plan.local_procs[shard_id]:
        if proc in job.absent:
            continue
        job._start_process(proc, job._app_factory(job.mpis[proc], **job._app_kwargs))
    conn.send(("ready", sim.peek()))
    # Locally-kept deferred frames are *held* until the next barrier and
    # priced in one sorted batch with that window's imports: pricing them
    # eagerly at window end would order every local frame ahead of every
    # relayed one, where serial interleaves them by (inject_time, src).
    held: list = []
    release_rx: Optional[int] = None
    while True:
        cmd = conn.recv()
        op = cmd[0]
        if op == "step":
            _horizon, until, imports = cmd[1], cmd[2], cmd[3]
            try:
                _merge_deferred(job, plan, held, imports, marks, reseq)
            except _ShardTaint as taint:
                # Unorderable window: report instead of guessing.  The
                # parent abandons the pool and reruns serially; this
                # worker just parks until the pipe closes.
                conn.send(("taint", str(taint)))
                continue
            held = []
            if _horizon is not None:
                sim.run_until_before(_horizon)
            else:
                # Final window: inclusive of events at the horizon,
                # clock parked at `until`, exactly like the serial path.
                sim.run(until)
            held, exports = _drain_router(job, plan, shard_id)
            if any(
                job.pmls[p].any_source_posts
                for p in plan.local_procs[shard_id]
                if p in job.pmls
            ):
                # Wildcard matching is order-sensitive at equal
                # timestamps: deferred-frame seqs are assigned at the
                # merge, not at serial inject dispatch, so an ANY_SOURCE
                # receive can claim a different message than the serial
                # engine's.  Report instead of guessing — the parent
                # reruns serially (sharded state is discarded, so a
                # window that already diverged costs nothing but time).
                conn.send(("taint", "any-source receive posted"))
                continue
            wakes = job._drain_wakes
            job._drain_wakes = []
            conn.send(
                (
                    "barrier",
                    exports,
                    sim.peek(),
                    bool(held),
                    _local_done_info(job, crash_times),
                    wakes,
                    max(crash_times.values()) if crash_times else None,
                )
            )
        elif op == "release":
            # Global completion established: flip the all-done flag so the
            # parked finalize-drain loops exit.  The wakes land in the sim
            # bucket and dispatch in the next window.  The delivery count
            # snapshot backs the tied-completion taint check: a frame
            # delivered to a finished proc *after* the release would hit a
            # stale endpoint waiter the serial engine's last finisher does
            # not have.
            job._shard_release_drain(cmd[1])
            release_rx = sum(
                fab.endpoints[p].frames_received
                for p in local_set
                if p in job.finish_times
            )
            conn.send(("released", sim.peek()))
        elif op == "exit":
            return  # WorkerPool.close (taint/fallback/error teardown)
        elif op == "finish":
            until, audit, allow_lost = cmd[1], cmd[2], cmd[3]
            if held:  # pragma: no cover - parent drains deferrals first
                raise RuntimeError("finish with unmerged deferred frames")
            outcome = _finalize_shard(job, until, audit, allow_lost)
            outcome["post_release_rx"] = (
                sum(
                    fab.endpoints[p].frames_received
                    for p in local_set
                    if p in job.finish_times
                )
                - release_rx
                if release_rx is not None
                else 0
            )
            conn.send(("result", outcome, job._result(plan.local_procs[shard_id])))
            return
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown shard command {op!r}")


def _finalize_shard(job, until, audit: bool, allow_lost: bool) -> dict:
    """Per-shard outcome: the serial ``Job.run`` epilogue's checks projected
    onto the shard's processes, the balance audit included.  Recorded, not
    raised — the parent raises after seeing every shard."""
    error = None
    try:
        job._check_guard_violations()
        blocked = job._blocked()
        exceptions = [
            (proc, type(p.exception).__name__, str(p.exception))
            for proc, p in sorted(job.processes.items())
            if p.exception is not None
        ]
        # Mirror the serial epilogue's control flow: the audit runs only
        # on paths where `Job.run` would reach it (no process exception,
        # no DeadlockError, no lost-rank MpiError about to be raised).
        # `blocked` is shard-local here — a remote shard's deadlock makes
        # the parent raise before it ever reads this shard's audit state.
        lost = job.membership.lost_ranks
        skip = bool(exceptions)
        if blocked and until is None and not (lost and allow_lost):
            skip = True
        if lost and not allow_lost:
            skip = True
        if audit and not skip:
            job.audit()
    except BaseException as exc:  # noqa: BLE001 - audit failures must surface
        error = (type(exc).__name__, str(exc), traceback.format_exc())
        blocked = {}
        exceptions = []
    return {
        "error": error,
        "exceptions": exceptions,
        "blocked": blocked,
        "crash_fired": job._crash_fired,
        "traffic_committed": (
            dict(job.traffic._committed) if job.traffic is not None else None
        ),
    }


# ---------------------------------------------------------------- parent side


class _DrainRace(Exception):
    """A drain-loop interleaving the shards cannot replay byte-identically.

    Raised by the parent's taint checks around the finalize-drain release
    (a frame wake or crash at/after the global completion time, an
    ambiguous completion trigger, relay traffic after the release).  The
    run is abandoned and re-executed on the serial engine — correctness
    is never traded for the speedup.
    """


def run_parallel(job, until=None, allow_lost_ranks: bool = False, audit=None):
    """Execute *job* across a shard pool; returns a merged ``JobResult``
    byte-equivalent to the serial engine's (or the serial result itself,
    annotated with the fallback reasons, when a hazard forbids sharding).
    """
    if job._app_factory is None:
        raise RuntimeError("run_parallel before launch()")
    if audit is None:
        audit = until is None
    requested = job.parallel.workers
    plan = ShardPlan.build(job.placement, requested)
    plan.validate()
    hazards = classify_hazards(job, plan)
    if hazards:
        result = job._run_serial_fallback(until=until, allow_lost_ranks=allow_lost_ranks, audit=audit)
        result.parallel = {
            "workers": 1,
            "requested": requested,
            "shards": 1,
            "fallback": hazards,
            "lookahead": plan.lookahead,
            "windows": 0,
        }
        return result
    lookahead = plan.lookahead
    n_shards = plan.n_shards
    windows = 0
    released = False
    release_comp = 0
    tie_release = False
    infos: List[Optional[tuple]] = [None] * n_shards
    max_wake: Optional[float] = None
    max_crash: Optional[float] = None

    def barrier_round() -> None:
        nonlocal peeks, held, max_wake, max_crash, windows
        new_peeks, new_held, new_infos, wake, crash, got_exports = _collect_barrier(
            pool, pending
        )
        peeks, held = new_peeks, new_held
        windows += 1
        for sid, info in enumerate(new_infos):
            if info is not None:
                infos[sid] = info
        if wake is not None:
            max_wake = wake if max_wake is None else max(max_wake, wake)
        if crash is not None:
            max_crash = crash if max_crash is None else max(max_crash, crash)
        if released and (got_exports or any(held)):
            # The release drains run on empty inboxes and must emit
            # nothing; any relay traffic after it is off-script.
            raise _DrainRace("relay traffic after drain release")

    def attempt_release() -> bool:
        """Once every shard reports local completion, establish the global
        completion time, run the taint checks, and command the release."""
        nonlocal released, release_comp, tie_release
        if released or any(info is None for info in infos):
            return False
        real = [info for info in infos if info[0] is not None]
        if not real:
            return False  # no process anywhere: serial never flips either
        t_done = max(info[0] for info in real)
        winners = [info for info in real if info[0] == t_done]
        kinds = {info[1] for info in winners}
        if kinds == {"finish"}:
            if len(winners) == 1:
                last_proc, comp = winners[0][2], 2
            else:
                # Several shards finish at exactly t_done (the norm for
                # symmetric SPMD apps): which proc serially skips the park
                # depends on batch order no shard can see.  The two-event
                # compensation holds regardless of identity; the one
                # unverifiable artifact — the skipped proc's stale endpoint
                # waiter — is guarded by the post-release delivery check.
                last_proc, comp = None, 2
                tie_release = True
        elif kinds == {"crash"}:
            # Completion triggered by a crash: serially *every* finished
            # proc parked and wakes — no park to retire, no compensation.
            last_proc, comp = None, 0
        else:
            raise _DrainRace("ambiguous completion trigger")
        if max_wake is not None and max_wake >= t_done:
            # A parked proc drained a frame at/after the completion time;
            # serially it would have exited the drain loop first.
            raise _DrainRace("drain wake at/after completion")
        if max_crash is not None and max_crash >= t_done:
            raise _DrainRace("crash at/after completion")
        for sid in range(n_shards):
            pool.send(sid, ("release", last_proc))
        for sid in range(n_shards):
            peeks[sid] = _recv(pool, sid, "released")[1]
        released = True
        release_comp = comp
        return True

    # Forked once per job: each worker inherits the built Job.  A worker
    # that dies hard surfaces as WorkerDied (a RuntimeError naming the
    # shard and its exit code) from the first read that meets its EOF.
    pool = WorkerPool(n_shards, _shard_worker_main, (job, plan), role="shard")
    try:
        peeks = [_recv(pool, s, "ready")[1] for s in range(n_shards)]
        pending: List[List[Any]] = [[] for _ in range(n_shards)]
        held = [False] * n_shards
        last_horizon = 0.0
        while True:
            attempt_release()
            live = [t for t in peeks if t is not None]
            deferred = any(pending) or any(held)
            if not live and not deferred:
                final_t = None
            else:
                t = min(live) if live else last_horizon
                if deferred and last_horizon < t:
                    # Deferred arrivals (routed or still held in their
                    # source shard) are only bounded below by the last
                    # horizon; the true minimum may sit anywhere past it.
                    t = last_horizon
                final_t = t
            if final_t is None or (until is not None and final_t + lookahead > until):
                break
            horizon = final_t + lookahead
            for sid in range(n_shards):
                pool.send(sid, ("step", horizon, None, pending[sid]))
                pending[sid] = []
            barrier_round()
            last_horizon = max(last_horizon, horizon)
        if until is not None:
            # Inclusive epilogue: every shard runs `sim.run(until)` so its
            # clock parks at the horizon exactly as the serial engine's.
            # Repeats while anything at or below `until` remains — a late
            # release wake, a deferred frame whose priced arrival lands
            # inside the horizon — so the dispatched-event set matches the
            # serial run's exactly; arrivals past `until` merge into the
            # queue undispatched (the in-flight strand audit sees them).
            while True:
                for sid in range(n_shards):
                    pool.send(sid, ("step", None, until, pending[sid]))
                    pending[sid] = []
                barrier_round()
                if attempt_release():
                    continue
                live = [t for t in peeks if t is not None and t <= until]
                if not live and not any(pending) and not any(held):
                    break
        for sid in range(n_shards):
            pool.send(sid, ("finish", until, audit, allow_lost_ranks))
        replies = [_recv(pool, sid, "result") for sid in range(n_shards)]
        outcomes = [reply[1] for reply in replies]
        if tie_release and any(out["post_release_rx"] for out in outcomes):
            raise _DrainRace("post-release delivery under tied completion")
    except _DrainRace as race:
        result = job._run_serial_fallback(until=until, allow_lost_ranks=allow_lost_ranks, audit=audit)
        result.parallel = {
            "workers": 1,
            "requested": requested,
            "shards": 1,
            "fallback": [f"drain_race: {race}"],
            "lookahead": lookahead,
            "windows": windows,
        }
        return result
    finally:
        pool.close()
    meta = {
        "workers": n_shards,
        "requested": requested,
        "shards": n_shards,
        "fallback": [],
        "lookahead": lookahead,
        "windows": windows,
    }
    return _merge_results(
        job, plan, outcomes, [reply[2] for reply in replies], meta,
        until=until, allow_lost_ranks=allow_lost_ranks,
        release_comp=release_comp,
    )


def _recv(pool: WorkerPool, sid: int, expected: str, also: Tuple[str, ...] = ()):
    msg = pool.recv(sid)
    if msg[0] == "crash":
        name, text, tb = msg[1], msg[2], msg[3]
        raise RuntimeError(f"shard {sid} worker raised {name}: {text}\n{tb}")
    if msg[0] != expected and msg[0] not in also:  # pragma: no cover - protocol error
        raise RuntimeError(f"expected {expected!r} from shard, got {msg[0]!r}")
    return msg


def _collect_barrier(pool: WorkerPool, pending):
    """Gather one barrier round: route every export to its destination
    shard's pending-import list; return the per-shard peeks, held-local
    flags, local-completion infos, the max drain-wake and crash times
    reported this round, and whether any shard exported anything."""
    n_shards = len(pending)
    peeks: List[Optional[float]] = [None] * n_shards
    held = [False] * n_shards
    infos: List[Optional[tuple]] = [None] * n_shards
    max_wake: Optional[float] = None
    max_crash: Optional[float] = None
    got_exports = False
    taint: Optional[str] = None
    for sid in range(n_shards):
        msg = _recv(pool, sid, "barrier", also=("taint",))
        if msg[0] == "taint":
            # Collect the remaining replies before raising so no worker is
            # left blocked mid-send when the pool is torn down.
            taint = msg[1]
            continue
        exports, peek, has_held, info, wakes, crash = msg[1:7]
        peeks[sid] = peek
        held[sid] = has_held
        infos[sid] = info
        if wakes:
            top = max(wakes)
            max_wake = top if max_wake is None else max(max_wake, top)
        if crash is not None:
            max_crash = crash if max_crash is None else max(max_crash, crash)
        if exports:
            got_exports = True
        for dst_shard, records in exports.items():
            pending[dst_shard].extend(records)
    if taint is not None:
        raise _DrainRace(taint)
    return peeks, held, infos, max_wake, max_crash, got_exports


def _fold(values: list):
    """Sum per-shard values: ints add, tuples and dicts add cell by cell."""
    first = values[0]
    if isinstance(first, dict):
        keys = dict.fromkeys(key for value in values for key in value)
        return {key: _fold([v[key] for v in values if key in v]) for key in keys}
    if isinstance(first, tuple):
        return tuple(map(sum, zip(*values)))
    return sum(values)


def _merge_results(
    job, plan, outcomes, parts, meta, until, allow_lost_ranks, release_comp=0
):
    """Re-raise what the serial epilogue would raise, then merge the
    per-shard ``JobResult`` parts into the serial engine's result."""
    from repro.harness.runner import JobResult  # local: runner imports us
    from repro.mpi.errors import DeadlockError, MpiError

    for sid, out in enumerate(outcomes):
        if out["error"] is not None:
            name, text, tb = out["error"]
            exc_type = AssertionError if name == "AssertionError" else RuntimeError
            raise exc_type(f"shard {sid} finalize failed: {name}: {text}\n{tb}")
    exceptions = sorted(exc for out in outcomes for exc in out["exceptions"])
    if exceptions:
        proc, name, text = exceptions[0]
        raise RuntimeError(f"process {proc} died in sharded run: {name}: {text}")
    lost = parts[0].lost_ranks
    crash_fired = outcomes[0]["crash_fired"]
    if any(
        part.lost_ranks != lost or out["crash_fired"] != crash_fired
        for out, part in zip(outcomes, parts)
    ):
        # Crash replay is global state every shard must agree on.
        raise AssertionError(
            "shards disagree on crash replay: "
            f"lost_ranks {[part.lost_ranks for part in parts]}, "
            f"crash_fired {[out['crash_fired'] for out in outcomes]}"
        )
    blocked: Dict[str, str] = {}
    for out in outcomes:
        blocked.update(out["blocked"])
    if blocked and until is None and not (lost and allow_lost_ranks):
        raise DeadlockError(blocked)
    if lost and not allow_lost_ranks:
        raise MpiError(f"application lost ranks {lost}: every replica failed")
    fabric = _fold([part.fabric for part in parts])
    # Cross-shard relay conservation: what left one shard entered another.
    for out_key, in_key in (
        ("frames_exported", "frames_imported"),
        ("envs_exported", "envs_imported"),
    ):
        if fabric[out_key] != fabric[in_key]:
            raise AssertionError(
                f"relay leak: {out_key} {fabric[out_key]} != {in_key} {fabric[in_key]}"
            )
    fabric["frame_high_water"] = max(part.fabric["frame_high_water"] for part in parts)
    # The three corrections.  An imported frame is re-acquired in its
    # destination shard: subtract the double count so the merged figure
    # equals the serial acquire count.  Crash callbacks replay in every
    # shard; each fires once per shard but must count once globally.
    # `release_comp` subtracts the drain-release wake of the globally last
    # finisher — the one park the serial engine never performs (it flips
    # the all-done flag inside its own finish).
    fabric["frames_acquired"] -= fabric["frames_imported"]
    events = sum(part.events for part in parts)
    events -= (plan.n_shards - 1) * crash_fired
    events -= release_comp
    requests = {}
    if job.traffic is not None:
        book = job.traffic
        for out in outcomes:
            for rank, done in (out["traffic_committed"] or {}).items():
                book.commit(rank, done)
        requests = book.totals()
        book.audit()
    finish_times = _per_proc(part.finish_times for part in parts)
    return JobResult(
        runtime=max(finish_times.values()) if finish_times else max(
            part.runtime for part in parts
        ),
        finish_times=finish_times,
        app_results=_per_proc(part.app_results for part in parts),
        stats=_per_proc(part.stats for part in parts),
        fabric=fabric,
        events=events,
        payload_interned=sum(part.payload_interned for part in parts),
        payload_misses=sum(part.payload_misses for part in parts),
        **requests,
        lost_ranks=lost,
        stranded_by_site=_fold([part.stranded_by_site for part in parts]),
        parallel=meta,
    )


def _per_proc(dicts) -> dict:
    """Union of the shards' disjoint per-process dicts, in proc order."""
    return dict(sorted({proc: v for d in dicts for proc, v in d.items()}.items()))
