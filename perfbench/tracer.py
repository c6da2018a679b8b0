"""Outside-in layer tracer: spans at the calls into each module.

The program is not edited.  :meth:`LayerTracer.install` replaces the
public functions and methods of each traced module with thin wrappers
that record a span whenever control crosses *into* that module from
another layer; a call made from inside the same layer passes straight
through, so only layer boundaries cost a span.  Events scheduled on the
simulator are wrapped at scheduling time and attributed to the module
that defined the callback, so ``sim.events`` keeps only the event
loop's own work (heap operations and dispatch).

Spans live in per-thread ``array`` buffers (layer, parent, start, end)
until :meth:`LayerTracer.summary` folds them into per-layer self time
(span duration minus the duration of its direct child spans) and entry
counts.  Only the process that installed the tracer records: a forked
child (a cluster worker) restores every original attribute right after
the fork, so worker processes run unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: Traced layer -> modules whose public callables belong to it.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "engine.compute_node": ("repro.engine.compute_node",),
    "engine.batching": ("repro.engine.batching",),
    "engine.job": ("repro.engine.job",),
    "core.optimizer": ("repro.core.optimizer",),
    "core.cost_model": ("repro.core.cost_model",),
    "core.frequency": ("repro.core.frequency",),
    "cache": ("repro.cache.tiered", "repro.cache.benefit"),
    "store.datanode": ("repro.store.datanode",),
    "runtime.transport": ("repro.runtime.transport",),
    "placement.batch": ("repro.placement.batch",),
    "sim.events": ("repro.sim.events",),
    "sim.network": ("repro.sim.network",),
    "sim.resources": ("repro.sim.resources",),
    "vector": ("repro.vector.kernels", "repro.vector.lanes"),
    "cluster.driver": ("repro.cluster.driver",),
    "cluster.rpc": ("repro.cluster.rpc",),
}

#: Layers reported per run, in order.  ``cluster.codec`` is split into
#: its two directions, wrapped by hand in :meth:`LayerTracer.install`.
LAYERS: tuple[str, ...] = tuple(LAYER_MODULES) + (
    "cluster.codec.encode",
    "cluster.codec.decode",
)

#: Layer id of the benchmark's root span; its self time is the part of
#: the traced wall that no named layer covers.
ROOT = "unattributed"

_SCHEDULERS = ("schedule_at", "schedule_call")
#: ``Simulator`` methods wrapped by :meth:`LayerTracer._wrap_scheduler`.
_SIMULATOR_HOOKS = (*_SCHEDULERS, "run")


class _Buffer:
    """One thread's spans plus its stack of open span indices."""

    __slots__ = ("layer", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class LayerTracer:
    """Records layer-boundary spans for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._module_layer = {
            module: self._ids[layer]
            for layer, modules in LAYER_MODULES.items()
            for module in modules
        }
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.active = False
        #: Simulators seen by ``Simulator.run`` (for their counters).
        self.simulators: list[Any] = []
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def span(self, fn: Callable[..., Any], layer_id: int) -> Callable[..., Any]:
        """``fn`` wrapped to record a span when entered from another layer."""
        local = self._local
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            buf = getattr(local, "buf", None) or tracer._buffer()
            stack = buf.stack
            if stack and buf.layer[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = len(buf.start)
            buf.layer.append(layer_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(index)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()

        return traced

    def root(self) -> "_RootSpan":
        """Context manager for the benchmark's span around one run call.

        Entering it drops the previous run's spans.
        """
        self.reset()
        return _RootSpan(self)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced module's public callables (idempotent)."""
        if self._patches:
            return
        wrapped: dict[int, Any] = {}
        for module_name, layer_id in self._module_layer.items():
            module = importlib.import_module(module_name)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer_id)
                elif inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = (obj, self.span(obj, layer_id))
        self._wrap_codec(wrapped)
        self._wrap_scheduler()
        # Functions are bound by name wherever they were imported, so
        # rebind every repro module's reference, not just the home one.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])

    def _wrap_class(self, cls: type, layer_id: int) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if cls.__name__ == "Simulator" and name in _SIMULATOR_HOOKS:
                continue
            if isinstance(attr, staticmethod):
                fn = attr.__func__
                if not inspect.isgeneratorfunction(fn):
                    self._patch(cls, name, staticmethod(self.span(fn, layer_id)))
            elif isinstance(attr, classmethod):
                fn = attr.__func__
                if not inspect.isgeneratorfunction(fn):
                    self._patch(cls, name, classmethod(self.span(fn, layer_id)))
            elif name == "__init__":
                self._patch(cls, name, self._constructor(attr, layer_id))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                self._patch(cls, name, self.span(attr, layer_id))

    def _constructor(self, init: Any, layer_id: int) -> Callable[..., Any]:
        """``__init__`` as a span that also wraps public bound methods.

        Some constructors pick an implementation per instance
        (``self.submit = self._submit_fast``); callers reach the layer
        through that public attribute, so it is a boundary too.
        """
        tracer = self
        traced_init = self.span(init, layer_id)

        @functools.wraps(init)
        def construct(obj: Any, *args: Any, **kwargs: Any) -> None:
            traced_init(obj, *args, **kwargs)
            attrs = getattr(obj, "__dict__", None)
            if not tracer.active or not attrs:
                return
            for name, value in list(attrs.items()):
                if (
                    not name.startswith("_")
                    and inspect.ismethod(value)
                    and value.__self__ is obj
                ):
                    attrs[name] = tracer.span(value, layer_id)

        return construct

    def _wrap_codec(self, wrapped: dict[int, Any]) -> None:
        codec = sys.modules["repro.cluster.codec"]
        encode = codec.encode_frame
        wrapped[id(encode)] = (
            encode, self.span(encode, self._ids["cluster.codec.encode"])
        )
        frames = codec.Framer.frames

        def decoded(framer: Any) -> Any:
            # Drain eagerly so the span covers the unpickling; the only
            # caller (MessageStream.recv) drains it with list() anyway.
            return iter(list(frames(framer)))

        self._patch(
            codec.Framer, "frames",
            self.span(decoded, self._ids["cluster.codec.decode"]),
        )

    def _wrap_scheduler(self) -> None:
        events = sys.modules["repro.sim.events"]
        sim_cls = events.Simulator
        loop_id = self._ids["sim.events"]
        attribute = self._attribute
        tracer = self

        for name in _SCHEDULERS:
            original = vars(sim_cls)[name]

            def schedule(
                sim: Any, time_: float, callback: Any, _orig=original
            ) -> Any:
                if tracer.active:
                    callback = attribute(callback)
                return _orig(sim, time_, callback)

            self._patch(sim_cls, name, self.span(schedule, loop_id))

        run = sim_cls.run

        def run_loop(sim: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.active and sim not in tracer.simulators:
                tracer.simulators.append(sim)
            return run(sim, *args, **kwargs)

        self._patch(sim_cls, "run", self.span(run_loop, loop_id))

    def _attribute(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap a scheduled callback in a span of its defining module."""
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        layer_id = self._module_layer.get(getattr(target, "__module__", None))
        if layer_id is None:
            return callback
        return self.span(callback, layer_id)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every original attribute (reverse order)."""
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _after_fork_in_child(self) -> None:
        # A forked worker runs the program unmodified and records nothing.
        self.uninstall()
        self._buffers = []

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans (installed wrappers stay)."""
        with self._buffers_lock:
            for buf in self._buffers:
                for column in (buf.layer, buf.parent, buf.start, buf.end):
                    del column[:]
                buf.stack.clear()
        self.simulators = []

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``total_s`` (all spans) and ``calls``."""
        n = len(self.names)
        self_s = [0.0] * n
        total_s = [0.0] * n
        calls = [0] * n
        for buf in self._buffers:
            layer, parent, start, end = buf.layer, buf.parent, buf.start, buf.end
            for i in range(len(start)):
                duration = end[i] - start[i]
                lid = layer[i]
                self_s[lid] += duration
                total_s[lid] += duration
                calls[lid] += 1
                p = parent[i]
                if p >= 0:
                    self_s[layer[p]] -= duration
        return {
            name: {"self_s": self_s[i], "total_s": total_s[i], "calls": calls[i]}
            for i, name in enumerate(self.names)
        }

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self._buffers)

    def write(self, path: Path) -> None:
        """Write every span as ``thread layer parent start end`` lines."""
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as out:
            out.write("thread\tlayer\tparent\tstart\tend\n")
            for t, buf in enumerate(self._buffers):
                for i in range(len(buf.start)):
                    out.write(
                        f"{t}\t{self.names[buf.layer[i]]}\t{buf.parent[i]}\t"
                        f"{buf.start[i]:.9f}\t{buf.end[i]:.9f}\n"
                    )


class _RootSpan:
    """The benchmark's own span around one run call (layer ``ROOT``)."""

    def __init__(self, tracer: LayerTracer) -> None:
        self._tracer = tracer
        self._index = -1

    def __enter__(self) -> "_RootSpan":
        tracer = self._tracer
        tracer.active = True
        buf = tracer._buffer()
        self._index = len(buf.start)
        buf.layer.append(0)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(self._index)
        buf.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc: Any) -> None:
        tracer = self._tracer
        buf = tracer._buffer()
        buf.end[self._index] = time.perf_counter()
        buf.stack.pop()
        tracer.active = False
