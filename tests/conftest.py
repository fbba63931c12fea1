"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

import pytest

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, JobResult, cluster_for
from repro.network.topology import Cluster


def run_app(
    app: Callable[..., Any],
    n_ranks: int,
    protocol: str = "native",
    degree: int = 2,
    cluster: Optional[Cluster] = None,
    crash: Optional[tuple] = None,
    seed: int = 0,
    **kwargs: Any,
) -> JobResult:
    """One-line job runner used throughout the tests."""
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=degree, protocol=protocol)
    job = Job(
        n_ranks,
        cfg=cfg,
        cluster=cluster or cluster_for(n_ranks, cfg.degree),
        seed=seed,
    )
    job.launch(app, **kwargs)
    if crash is not None:
        rank, rep, at = crash
        job.crash(rank, rep, at=at)
    return job.run()


class DeliverSpy:
    """Proxy standing in for a protocol's (slotted) Pml in filter tests.

    ``Pml`` has ``__slots__``, so tests can no longer monkeypatch
    ``deliver_to_matching`` on the instance; rebinding ``proto.pml`` to
    this proxy reroutes delivery while forwarding everything else."""

    def __init__(self, pml: Any, fake_deliver: Callable[[Any], Any]) -> None:
        self._pml = pml
        self.deliver_to_matching = fake_deliver

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pml, name)


@pytest.fixture
def sim():
    from repro.sim.kernel import Simulator

    return Simulator()


def crash_sweep_worker_at(monkeypatch, index: int) -> None:
    """Make the pooled sweep worker that runs config *index* hard-exit
    (code 43), standing in for an OOM kill or a segfault.  Forked workers
    inherit the patch; the parent itself (serial runs, ``--verify``
    re-execution) never exits."""
    import repro.harness.sweep as sweep

    real = sweep._execute_point
    parent = os.getpid()

    def execute(point, cache=None):
        if point.index == index and os.getpid() != parent:
            os._exit(43)
        return real(point, cache)

    monkeypatch.setattr(sweep, "_execute_point", execute)
