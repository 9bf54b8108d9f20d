"""Span tracing of hologen from outside the package.

`Tracer.install` replaces every public function of the seven hologen
modules, and every public method of the classes they define, with a
wrapper that records a span: its name, layer (the module), duration and
the time its child spans took. Python binds names at import, so a
function is also replaced wherever another module holds it under an
imported alias (`hologen.bounds.sup_norm_on_sphere`,
`hologen.cli.verify_growth_bound`, the re-exports in `hologen`), and
`uninstall` puts every original back.

Each thread keeps its own span stack: the worker threads of
`verify-suite --jobs 2` open their spans with no parent, so the `cli`
span of the calling thread keeps the time it waited on the pool as its
own.

Kernel calls (batch evaluation, batch norms and support functionals) are
also counted by the layer that asked for them: the nearest enclosing span
outside `spaces` and `polymaps`. A kernel called from inside another
kernel (a homogeneous part inside `PolyMap.eval_batch`) is not counted
again.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spaces", "polymaps", "numrange", "certify", "bounds", "flows", "cli")
KERNELS = frozenset({
    "polymaps.PolyMap.eval_batch", "polymaps.CallableMap.eval_batch",
    "polymaps.HomogeneousPoly.eval_batch",
    "spaces.NormedSpace.norm_batch", "spaces.NormedSpace.support_batch",
})
_DATA_LAYERS = ("spaces", "polymaps")


class _Frame:
    __slots__ = ("layer", "kernel", "child")

    def __init__(self, layer, kernel):
        self.layer = layer
        self.kernel = kernel
        self.child = 0.0


class Tracer:
    """Span totals of one traced run, kept in memory until it is summarised."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        # name -> [calls, self seconds, rows]
        self.spans = defaultdict(lambda: [0, 0.0, 0])
        # owning layer -> [kernel calls, kernel rows]
        self.owned = defaultdict(lambda: [0, 0])
        self.steps = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"hologen.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        wrapped = self._wrap(fn, f"{layer}.{name}.{attr}", layer)
                        self._patches.append((obj, attr, fn))
                        setattr(obj, attr, wrapped)
        # every module holding a public function, under any name, gets the wrapper
        holders = [importlib.import_module("hologen")] + list(modules.values())
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        kernel = name in KERNELS
        integrate = name == "flows.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(layer, kernel)
            rows = 0
            owner = None
            if kernel and not (stack and stack[-1].kernel):
                rows = _rows(args[1] if len(args) > 1 else kwargs.get("Z"))
                owner = next((f.layer for f in reversed(stack)
                              if f.layer not in _DATA_LAYERS), "bench")
            stack.append(frame)
            steps = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if integrate:
                    steps = result.step_stats.accepted + result.step_stats.rejected
                return result
            except Exception as exc:
                traj = getattr(exc, "trajectory", None) if integrate else None
                if traj is not None:
                    steps = traj.step_stats.accepted + traj.step_stats.rejected
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dur
                with self._lock:
                    rec = self.spans[name]
                    rec[0] += 1
                    rec[1] += dur - frame.child
                    rec[2] += rows
                    if owner is not None:
                        own = self.owned[owner]
                        own[0] += 1
                        own[1] += rows
                    self.steps += steps

        return wrapper

    # -- summaries ------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(v[0] for k, v in self.spans.items() if k.split(".")[0] == layer)

    def layer_self(self, layer: str) -> float:
        return sum(v[1] for k, v in self.spans.items() if k.split(".")[0] == layer)

    def span(self, name: str) -> tuple:
        return tuple(self.spans.get(name, (0, 0.0, 0)))


def _rows(Z) -> int:
    shape = np.shape(Z)
    return int(shape[0]) if len(shape) == 2 else 0
