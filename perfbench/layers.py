"""Per-layer timing from outside the library.

:class:`LayerTracer` wraps public entry points of each layer (and the
few engine hooks a layer boundary runs through), keeps a stack of open
spans, and accumulates per-layer *self* time: a span's duration minus
the durations of the spans nested inside it.  Every wrapped call runs
inside a root ``bench`` span opened by the benchmark around a traced
round, so the self times of all layers sum to the traced round's wall
time.

The wrappers are installed only for a traced round and removed after
it; untraced rounds run the library unmodified.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Callable, Dict, List, Tuple

#: layer names, in report order; ``bench`` is the benchmark's own code
#: inside a round (input generation, output checks)
LAYERS = ("bench", "core.api", "sim.engine", "sim.network",
          "core.topology", "core.groups", "core.selection",
          "service.plan", "service.execute", "runtime.launch")


def _targets():
    """``(owner, attribute, layer)`` triples to wrap.

    Imported lazily: the session imports ``repro`` inside its timed
    set-up window.
    """
    from repro.core import groups, selection, topology
    from repro.runtime.launch import ProcessMachine
    from repro.sim.engine import Engine
    from repro.sim.machine import Machine
    from repro.sim.network import FluidNetwork

    out = [
        # the engine's event loop: Machine.run's self time is what is
        # left of a simulation after every other layer's span
        (Machine, "run", "sim.engine"),
        (Engine, "_post_send", "sim.engine"),
        (Engine, "_post_recv", "sim.engine"),
        # one resumption of a rank program: api, primitives, hybrid,
        # communicator context and protocol code up to its next yield
        (Engine, "_advance", "core.api"),
        (FluidNetwork, "start_flow", "sim.network"),
        (FluidNetwork, "fire_completion", "sim.network"),
        (selection.Selector, "ranked", "core.selection"),
        (selection.Selector, "best", "core.selection"),
        (ProcessMachine, "run", "runtime.launch"),
    ]
    topo_classes = [topology.Topology] + [
        c for c in vars(topology).values()
        if isinstance(c, type) and issubclass(c, topology.Topology)
        and c is not topology.Topology]
    for cls in topo_classes:
        for name in ("route", "coords", "node_at"):
            if name in vars(cls):
                out.append((cls, name, "core.topology"))
    # module-level functions: patch every repro module that bound them
    for fn, layer in ((groups.classify, "core.groups"),
                      (selection.selector_for, "core.selection")):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, fn.__name__, None) is fn:
                out.append((mod, fn.__name__, layer))
    return out


class LayerTracer:
    """Self time and call counts per layer, from wrapped entry points.

    Use ``with tracer.installed(): tracer.call("bench", fn)`` around one
    round.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {k: 0.0 for k in LAYERS}
        self.calls: Dict[str, int] = {k: 0 for k in LAYERS}
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        for k in LAYERS:
            self.self_s[k] = 0.0
            self.calls[k] = 0

    def wrap(self, fn: Callable, layer: str) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                self_s[layer] += dt - nested
                calls[layer] += 1
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span of ``layer``."""
        return self.wrap(fn, layer)(*args, **kwargs)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for owner, name, layer in _targets():
            orig = vars(owner)[name]
            self._saved.append((owner, name, orig))
            setattr(owner, name, self.wrap(orig, layer))

    def remove(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()
