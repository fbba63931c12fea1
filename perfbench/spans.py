"""Spans at the boundaries the benchmark can wrap without editing ``src/``.

:meth:`SpanRecorder.installed` wraps ``JobShape.build``, ``Job.__init__``,
``Job.launch``, ``Job.run``, ``Job.audit`` and the campaign's
``sample_faults`` for the duration of a ``with`` block, and the benchmark
opens a ``case`` span around each unit of work it drives.  Every span
carries the id of the case it belongs to and the index of the span that
was open when it started, so case -> build -> launch -> run -> audit
nest as they ran.  Spans stay in memory; the caller writes them out.

Below ``Job.run`` the layers are generators resumed by the kernel, with
no call/return boundary to wrap, so their time comes from the profile
fold in :mod:`layers`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: (name, case id, parent span index or -1, start, end)
Span = Tuple[str, int, int, float, float]

#: spans whose outermost occurrences make up a Job's set-up time
SETUP_SPANS = ("build", "job", "launch")


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.jobs: List[object] = []
        self._stack: List[int] = []
        self._case = -1

    def clear(self) -> None:
        self.spans.clear()
        self.jobs.clear()

    @contextmanager
    def span(self, name: str, case: Optional[int] = None) -> Iterator[None]:
        if case is not None:
            self._case = case
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self._case, parent, time.perf_counter(), 0.0))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, case_id, parent, start, _ = self.spans[index]
            self.spans[index] = (name, case_id, parent, start, time.perf_counter())

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap the harness entry points; restore them on exit."""
        from repro.harness import campaign
        from repro.harness.runner import Job, JobShape

        recorder = self
        saved = {
            "build": JobShape.__dict__["build"],
            "init": Job.__init__,
            "launch": Job.launch,
            "run": Job.run,
            "audit": Job.audit,
            "sample": campaign.sample_faults,
        }

        def init(job, *args, **kwargs):
            with recorder.span("job"):
                saved["init"](job, *args, **kwargs)
            recorder.jobs.append(job)

        JobShape.build = classmethod(self._wrap("build", saved["build"].__func__))
        Job.__init__ = functools.wraps(saved["init"])(init)
        Job.launch = self._wrap("launch", saved["launch"])
        Job.run = self._wrap("run", saved["run"])
        Job.audit = self._wrap("audit", saved["audit"])
        campaign.sample_faults = self._wrap("sample", saved["sample"])
        try:
            yield self
        finally:
            JobShape.build = saved["build"]
            Job.__init__ = saved["init"]
            Job.launch = saved["launch"]
            Job.run = saved["run"]
            Job.audit = saved["audit"]
            campaign.sample_faults = saved["sample"]

    def take_jobs(self) -> List[object]:
        jobs, self.jobs = self.jobs, []
        return jobs

    def totals(self) -> Dict[str, float]:
        """Seconds per span name, counting only outermost spans of a name,
        plus ``setup``: outermost build/job/launch spans, nested ones once."""
        out: Dict[str, float] = {"setup": 0.0}
        spans = self.spans
        for name, _case, parent, start, end in spans:
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][2]
            if name not in ancestors:
                out[name] = out.get(name, 0.0) + (end - start)
            if name in SETUP_SPANS and not any(a in SETUP_SPANS for a in ancestors):
                out["setup"] += end - start
        return out

    def case_durations(self) -> List[float]:
        return [end - start for name, _c, _p, start, end in self.spans if name == "case"]
