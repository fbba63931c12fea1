"""Seed-shaped reference implementations the equivalence suites compare against.

Production code in ``src/`` runs only the optimised engine.  What it was
optimised *from* lives here, runnable, so every optimisation stays provably
unobservable:

* :mod:`reference.job` — :class:`ReferenceJob` (heap-only queue, no arena
  pooling, private per-stack state, no payload interning, no arena trims,
  linear matching) and :func:`heap_only` for bare simulators;
* :mod:`reference.matching` — :class:`LinearMatchEngine`, the O(n)-scan
  matching spec;
* :mod:`reference.collectives` — the ``*_spec`` generator-tower
  collectives;
* :mod:`reference.fingerprint` — :func:`fingerprint`, the engine
  fingerprint the suites compare;
* :mod:`reference.apps` — the application generators the suites run
  under both engines.

Test modules import it as ``reference`` (``tests/`` is on ``sys.path``
under pytest).
"""

from reference.fingerprint import fingerprint
from reference.job import ALL_REFERENCE, ReferenceJob, heap_only
from reference.matching import LinearMatchEngine

__all__ = ["ALL_REFERENCE", "LinearMatchEngine", "ReferenceJob", "fingerprint", "heap_only"]
