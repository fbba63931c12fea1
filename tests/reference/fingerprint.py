"""The engine fingerprint the equivalence suites compare.

Two runs of the same program are observationally identical when their
fingerprints are equal: per-rank results, bit-identical virtual runtime and
finish times, dispatched-event and frame counts, per-kind frame histogram,
unexpected-message and ack totals — plus, with ``stranded=True``, the
per-site strand attribution of crashy runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fingerprint"]


def _norm(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    return value


def fingerprint(res, stranded: bool = False) -> dict:
    out = {
        "results": {proc: _norm(v) for proc, v in sorted(res.app_results.items())},
        "runtime": repr(res.runtime),
        "finish": {p: repr(t) for p, t in sorted(res.finish_times.items())},
        "events": res.events,
        "frames": res.fabric["frames"],
        "bytes": res.fabric["bytes"],
        "by_kind": dict(sorted(res.fabric["by_kind"].items())),
        "unexpected": res.stat_total("unexpected_count"),
        "acks": res.stat_total("acks_sent"),
    }
    if stranded:
        out["stranded"] = dict(sorted(res.stranded_by_site.items()))
    return out
