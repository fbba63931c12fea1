"""Layer map and profile fold: where a traced run's host time went.

Every module under ``src/repro`` belongs to exactly one layer, named after
the modules that make it up.  :func:`fold` takes a ``cProfile`` run and
folds each function's self time into the layer that owns its module.
Functions that belong to no layer (builtins such as ``heappop`` and
``generator.send``, the standard library, numpy's Python code) are charged
to the layer that called them, split by the per-caller time the profiler
recorded, so the layer self times sum to the profiled total.  The
benchmark's own code is the ``bench`` layer, which also takes anything
with no caller inside a layer.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

#: layer -> module patterns; ``pkg.*`` matches ``pkg`` and every module under it
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "kernel": ("repro.sim", "repro.sim.kernel", "repro.sim.rng"),
    "process": ("repro.sim.process", "repro.sim.sync"),
    "shard": ("repro.sim.shard",),
    "traffic": ("repro.sim.traffic",),
    "api": (
        "repro.mpi", "repro.mpi.api", "repro.mpi.comm", "repro.mpi.group", "repro.mpi.handles",
        "repro.mpi.status", "repro.mpi.errors", "repro.mpi.datatypes",
    ),
    "collectives": ("repro.mpi.collectives.*",),
    "pml": ("repro.mpi.pml",),
    "matching": ("repro.mpi.matching",),
    "fabric": ("repro.network.*",),
    "protocol": (
        "repro.core", "repro.core.sdr", "repro.core.replicated", "repro.core.interpose",
        "repro.core.config", "repro.core.baselines.*",
    ),
    "membership": ("repro.core.membership", "repro.core.recovery", "repro.core.worlds", "repro.core.io"),
    "runner": (
        "repro", "repro.__main__", "repro.harness", "repro.harness.runner", "repro.harness.experiments",
        "repro.harness.metrics", "repro.harness.report", "repro.harness.cli", "repro.harness.sweep",
        "repro.harness.store", "repro.trace.*",
    ),
    "campaign": ("repro.harness.campaign", "repro.harness.faults"),
    "app": ("repro.apps.*", "repro.scenarios.*"),
}
BENCH_LAYER = "bench"
LAYERS: Tuple[str, ...] = (*LAYER_MODULES, BENCH_LAYER)

#: builtins whose time in the shard layer is the parent blocked on worker pipes
_BLOCKING_BUILTINS = ("posix.read", "select", "poll", "posix.waitpid", "_recv", "recv")
#: the generator entry points a process resume goes through
_RESUME_BUILTINS = ("<method 'send' of 'generator' objects>", "<method 'throw' of 'generator' objects>")


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        pkg = pattern[:-2]
        return module == pkg or module.startswith(pkg + ".")
    return module == pattern


def layer_of_module(module: str) -> str:
    """The one layer owning *module*; raises when none or several claim it."""
    owners = [layer for layer, pats in LAYER_MODULES.items() if any(_matches(p, module) for p in pats)]
    if len(owners) != 1:
        raise KeyError(f"module {module!r} maps to {len(owners)} layers {owners}; assign it to exactly one")
    return owners[0]


def module_name(path: str, src_root: str) -> str:
    """Dotted module name of the ``.py`` file *path* under *src_root*."""
    parts = os.path.relpath(path, src_root)[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def repro_modules(src_root: str) -> List[str]:
    """Dotted names of every module file under ``<src_root>/repro``."""
    return sorted(
        module_name(os.path.join(dirpath, name), src_root)
        for dirpath, _dirs, files in os.walk(os.path.join(src_root, "repro"))
        for name in files
        if name.endswith(".py")
    )


class LayerFolder:
    """Folds ``pstats``-shaped profile data (``{func: (cc, nc, tt, ct, callers)}``)
    into per-layer self time, call counts and the named sub-totals."""

    def __init__(self, src_root: str, bench_root: str) -> None:
        self._repro_root = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        self._bench_root = os.path.realpath(bench_root) + os.sep
        self._src_root = os.path.realpath(src_root)
        self._owner_cache: Dict[str, Optional[str]] = {}

    def owner(self, filename: str) -> Optional[str]:
        """Layer owning a source file, or None for code no layer owns."""
        hit = self._owner_cache.get(filename, "")
        if hit != "":
            return hit
        layer: Optional[str] = None
        if filename and filename[0] != "~":
            path = os.path.realpath(filename)
            if path.startswith(self._repro_root):
                layer = layer_of_module(module_name(path, self._src_root))
            elif path.startswith(self._bench_root):
                layer = BENCH_LAYER
        self._owner_cache[filename] = layer
        return layer

    def fold(self, stats: dict) -> dict:
        """Per-layer ``self_s``/``calls`` plus ``heap_s``, ``resumes``, ``wait_s``
        and the traced ``total_s``."""
        dist: Dict[tuple, Dict[str, float]] = {}

        def layers_of(func: tuple, visiting: frozenset) -> Dict[str, float]:
            # Share of *func*'s time owned by each layer: itself when a layer
            # owns its file, else its callers' shares weighted by the time
            # each caller spent in it.  A caller already on the walk (a cycle
            # through unowned code) is skipped.
            if func in dist:
                return dist[func]
            layer = self.owner(func[0])
            if layer is not None:
                out = {layer: 1.0}
            else:
                callers = stats[func][4] if func in stats else {}
                weights = {}
                for caller, cstat in callers.items():
                    if caller in visiting or caller == func:
                        continue
                    weights[caller] = max(cstat[2], 0.0)
                total = sum(weights.values())
                if total <= 0:
                    # no time recorded per caller: weight by call counts
                    weights = {c: float(callers[c][1]) for c in weights}
                    total = sum(weights.values())
                out = {}
                if total > 0:
                    for caller, w in weights.items():
                        for lay, share in layers_of(caller, visiting | {func}).items():
                            out[lay] = out.get(lay, 0.0) + share * w / total
                if not out:
                    out = {BENCH_LAYER: 1.0}
            dist[func] = out
            return out

        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        heap_s = wait_s = total = 0.0
        resumes = 0
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            total += tt
            layer = self.owner(func[0])
            if layer is not None:
                self_s[layer] += tt
                calls[layer] += nc
                continue
            name = func[2]
            for lay, share in layers_of(func, frozenset()).items():
                part = tt * share
                self_s[lay] += part
                if lay == "kernel" and "_heapq." in name:
                    heap_s += part
                elif lay == "shard" and any(b in name for b in _BLOCKING_BUILTINS):
                    wait_s += part
            if name in _RESUME_BUILTINS:
                resumes += sum(c[1] for caller, c in callers.items() if self.owner(caller[0]) == "process")
        return {
            "self_s": self_s,
            "calls": calls,
            "heap_s": heap_s,
            "wait_s": wait_s,
            "resumes": resumes,
            "total_s": total,
        }


def check_layer_map(modules: Iterable[str]) -> List[str]:
    """Problems with the map for *modules*: unassigned or doubly-assigned ones."""
    problems = []
    for module in modules:
        try:
            layer_of_module(module)
        except KeyError as exc:
            problems.append(str(exc.args[0]))
    return problems
