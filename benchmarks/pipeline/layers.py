"""Per-layer host-time attribution from a ``cProfile`` run.

The benchmark measures the layers from outside: it installs the
profiler around one repetition (no timers inside ``src``), then folds
the per-function statistics into *layers* — this repo's modules, named
by their source path under ``src/repro/``.

- ``self_s``: host seconds inside the layer, excluding layers it calls.
  The profiler runs with ``builtins=False``, so C builtins and numpy's
  compiled code are already part of the calling Python function's own
  time.  Python frames that belong to no layer (numpy's Python wrappers,
  the standard library) are charged to the layer of the nearest
  enclosing layer frame, resolved through the caller edges.
- ``calls``: entries into the layer from a *different* layer.  A
  generator resumed by the engine is one entry per resume.
- edges: ``(caller layer, callee layer) -> calls, inclusive seconds`` —
  the span tree at layer granularity.
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import defaultdict

#: the declared layers, in report order (also BENCHMARK.json's per_layer)
LAYERS = (
    "sim.engine", "sim.resources",
    "machine.network", "machine.filesystem", "machine.node",
    "mpi", "ffs", "adios.bp", "adios.group",
    "core.client", "core.staging", "core.scheduler", "core.accounting",
    "core.placement",
    "operators", "perf.kernels", "dataspaces", "stream", "serve", "query",
    "flow", "apps", "check",
)
#: repro modules outside the declared layers (drivers, presets, wiring)
OTHER = "other"
#: the benchmark's own frames
HARNESS = "harness"
ALL_LAYERS = LAYERS + (OTHER, HARNESS)

_HERE = os.path.dirname(os.path.abspath(__file__))
_DECLARED = frozenset(LAYERS)


def layer_of(filename: str, src_root: str) -> str | None:
    """Layer owning *filename*; None for code outside repo and harness."""
    if filename.startswith(src_root):
        parts = filename[len(src_root):].lstrip(os.sep).split(os.sep)
        pkg = parts[0]
        if len(parts) > 1:
            mod = f"{pkg}.{parts[1].removesuffix('.py')}"
            if mod in _DECLARED:
                return mod
        return pkg if pkg in _DECLARED else OTHER
    if filename.startswith(_HERE):
        return HARNESS
    return None


class LayerTrace:
    """Accumulates traced repetitions; :meth:`report` folds them by layer."""

    def __init__(self, src_root: str):
        self.src_root = os.path.join(os.path.abspath(src_root), "repro")
        self._profile = cProfile.Profile(builtins=False)
        self.wall_s = 0.0
        self.reps = 0

    def run(self, fn, *args):
        """Run ``fn(*args)`` under the profiler; returns its result."""
        t0 = time.perf_counter()
        try:
            return self._profile.runcall(fn, *args)
        finally:
            self.wall_s += time.perf_counter() - t0
            self.reps += 1

    def inclusive_s(self, path_suffix: str, funcname: str) -> float:
        """Mean inclusive seconds per repetition under one function."""
        total = 0.0
        for e in self._profile.getstats():
            code = e.code
            if (not isinstance(code, str) and code.co_name == funcname
                    and code.co_filename.endswith(path_suffix)):
                total += e.totaltime
        return total / max(self.reps, 1)

    def report(self) -> dict:
        """Per-repetition layer table: self_s, calls, edges, coverage."""
        stats = self._profile.getstats()
        layer = {}
        for e in stats:
            code = e.code
            layer[code] = (
                None if isinstance(code, str)
                else layer_of(code.co_filename, self.src_root)
            )

        # Foreign (layerless) functions inherit the layer mix of their
        # callers, weighted by the inclusive time spent under each.
        inbound = defaultdict(list)  # foreign callee -> [(caller, weight)]
        for e in stats:
            for sub in e.calls or ():
                if layer.get(sub.code) is None:
                    inbound[sub.code].append((e.code, sub.totaltime))
        mix = {code: {} for code in inbound}
        for _ in range(8):  # call chains through foreign code are short
            for callee, callers in inbound.items():
                acc = defaultdict(float)
                for caller, w in callers:
                    lay = layer.get(caller)
                    if lay is not None:
                        acc[lay] += w
                    else:
                        for k, frac in mix.get(caller, {}).items():
                            acc[k] += w * frac
                tot = sum(acc.values())
                mix[callee] = {k: v / tot for k, v in acc.items()} if tot else {}

        def owner(code):
            lay = layer.get(code)
            if lay is not None:
                return lay
            m = mix.get(code)
            return max(m, key=m.get) if m else None

        self_s = dict.fromkeys(ALL_LAYERS, 0.0)
        calls = dict.fromkeys(ALL_LAYERS, 0)
        edges = defaultdict(lambda: [0, 0.0])
        total = 0.0
        for e in stats:
            total += e.inlinetime
            lay = layer[e.code]
            if lay is not None:
                self_s[lay] += e.inlinetime
            else:
                for k, frac in mix.get(e.code, {}).items():
                    self_s[k] += e.inlinetime * frac
            src = owner(e.code)
            for sub in e.calls or ():
                dst = layer.get(sub.code)
                if dst is None or src is None or dst == src:
                    continue
                calls[dst] += sub.callcount
                edge = edges[(src, dst)]
                edge[0] += sub.callcount
                edge[1] += sub.totaltime

        n = max(self.reps, 1)
        wall = self.wall_s / n
        attributed = sum(self_s.values()) / n
        return {
            "reps": self.reps,
            "traced_wall_s": wall,
            "profiled_s": total / n,
            "unattributed_frac": max(0.0, 1.0 - attributed / wall) if wall else 0.0,
            "layers": {
                k: {"self_s": self_s[k] / n, "calls": calls[k] / n}
                for k in ALL_LAYERS
            },
            "edges": [
                {"caller": a, "callee": b, "calls": c / n, "inclusive_s": s / n}
                for (a, b), (c, s) in sorted(edges.items())
            ],
        }
