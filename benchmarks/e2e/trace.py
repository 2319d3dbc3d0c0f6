"""Per-layer tracing from outside the program.

:class:`LayerTracer` times calls into each layer's public entry points by
wrapping them; no file under ``src/`` changes.  A function is replaced in
*every* loaded module and ``repro`` class that binds it, because several
modules import their callees by name (``core/eas.py``, ``core/rebuild.py``
and ``faults/recovery.py`` all hold their own ``compute_budgets`` /
``schedule_incoming_transactions`` / ``find_gap`` / ``merge_busy``
bindings, and ``workloads.py`` its own ``search_and_repair``).
Uninstalling restores every binding, including ones that a module
imported while the tracer was installed.

A span stack gives each layer its *self* time: a call's duration minus
the time spent in wrapped calls it made.  ``calls`` counts entries into a
layer from outside it, so ``rebuild_schedule`` calling
``rebuild_schedule_traced`` is one rebuild call.  The calibration samples
``run.py`` takes inside an op (:meth:`LayerTracer.exclude`) count towards
no layer.  Optionally the full spans of one op are kept for a
Chrome-trace file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> its public entry points, as ``"module:qualname"``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "slack.budgets": ("repro.core.slack:compute_budgets",),
    "eas.level": ("repro.core.eas:LevelBasedScheduler.run",),
    "comm.lct": ("repro.core.comm:schedule_incoming_transactions",),
    "arch.route": ("repro.arch.acg:ACG.route", "repro.faults.degraded:DegradedACG.route"),
    "overlay.path_probe": ("repro.schedule.overlay:TentativeOverlay.find_earliest_on_path",),
    "overlay.pe_probe": ("repro.schedule.overlay:TentativeOverlay.find_earliest",),
    "overlay.path_busy": ("repro.schedule.overlay:ResourceTables.path_busy",),
    "overlay.write": (
        "repro.schedule.overlay:ResourceTables.reserve",
        "repro.schedule.overlay:ResourceTables.release",
        "repro.schedule.overlay:ResourceTables.truncate_from",
        "repro.schedule.overlay:TentativeOverlay.commit",
    ),
    "overlay.fork": (
        "repro.schedule.overlay:ResourceTables.fork",
        "repro.schedule.overlay:ResourceTables.copy",
    ),
    "table.merge": ("repro.schedule.table:merge_busy",),
    "table.find_gap": ("repro.schedule.table:find_gap",),
    "schedule.place": (
        "repro.schedule.schedule:Schedule.place_task",
        "repro.schedule.schedule:Schedule.place_comm",
    ),
    "schedule.validate": (
        "repro.schedule.schedule:Schedule.validate",
        "repro.schedule.schedule:Schedule.validate_structure",
        "repro.schedule.schedule:Schedule.validate_consistency",
    ),
    "rebuild": (
        "repro.core.rebuild:rebuild_schedule",
        "repro.core.rebuild:rebuild_schedule_traced",
    ),
    "increbuild.evaluate": ("repro.core.increbuild:IncrementalRebuilder.evaluate",),
    "increbuild.promote": ("repro.core.increbuild:IncrementalRebuilder.promote",),
    "repair": ("repro.core.repair:search_and_repair",),
    "faults.degrade": ("repro.faults.degraded:DegradedACG.__init__",),
    "faults.recover": ("repro.faults.recovery:inject_and_recover",),
    "serial.dump": ("repro.schedule.serialization:schedule_to_json",),
    "serial.load": ("repro.schedule.serialization:schedule_from_json",),
}

#: layer -> (metric, size of one call's return value) summed over its calls.
SIZED: Dict[str, Tuple[str, Callable[[Any], int]]] = {"serial.dump": ("serial.bytes", len)}


def _resolve(target: str) -> Tuple[object, str]:
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


def _namespaces() -> Iterator[object]:
    """Every loaded module (the benchmark's own import layers by name too)
    plus every ``repro`` class one of them binds."""
    for module in list(sys.modules.values()):
        if not isinstance(module, types.ModuleType):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("repro"):
                yield value


def bindings() -> Dict[Tuple[str, str], int]:
    """``{(namespace, attribute): id(value)}`` over :func:`_namespaces`."""
    return {
        (f"{ns.__module__}.{ns.__qualname__}" if isinstance(ns, type) else ns.__name__, attr): id(value)
        for ns in _namespaces()
        for attr, value in list(vars(ns).items())
    }


class LayerTracer:
    """Wraps the entry points of :data:`LAYERS` while installed.

    Use as a context manager (``with LayerTracer() as tracer:``); wrappers
    only record between :meth:`begin` and :meth:`end`, so checks the
    benchmark runs on outputs do not count towards any layer.
    """

    def __init__(self) -> None:
        self._originals: Dict[int, Any] = {}  # id(wrapper) -> original
        self._patched: List[Tuple[object, str, Any]] = []
        self._active = False
        self._stack: List[list] = []
        #: (start, end) of the calibration samples taken inside the current op.
        self._windows: List[Tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._start = 0.0
        self._op: Optional[str] = None
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.sizes: Dict[str, int] = {}
        #: spans of the current op when recording: (name, layer, start, end, id, parent).
        self.spans: Optional[List[Tuple[str, str, float, float, int, int]]] = None

    # -- install / uninstall ------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = vars(owner)[attr]
                    wrapper = self._wrap(layer, original)
                    self._originals[id(wrapper)] = original
                    for ns in _namespaces():
                        for name, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, name, wrapper)
                                self._patched.append((ns, name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()
        # A module imported while installed may have bound a wrapper by name.
        for ns in _namespaces():
            for name, value in list(vars(ns).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(ns, name, original)
        self._originals.clear()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        perf = time.perf_counter
        sized = SIZED.get(layer)
        name = getattr(fn, "__qualname__", layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            frame = [layer, 0.0, next(tracer._ids)]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                windows = tracer._windows
                if windows and windows[-1][1] > start:
                    elapsed -= tracer._excluded(start, end)
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + elapsed - frame[1]
                parent[1] += elapsed
                if parent[0] != layer:
                    tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                if tracer.spans is not None:
                    tracer.spans.append((name, layer, start, end, frame[2], parent[2]))
            if sized is not None:
                tracer.sizes[layer] = tracer.sizes.get(layer, 0) + sized[1](result)
            return result

        return wrapper

    # -- one op -------------------------------------------------------------

    def begin(self, spans_of: Optional[str] = None) -> None:
        """Start recording one op; with ``spans_of`` (the op's name) keep its spans."""
        self.calls, self.self_s, self.sizes = {}, {}, {}
        self.spans = [] if spans_of else None
        self._op = spans_of
        self._ids = itertools.count(1)
        self._stack = [["op", 0.0, 0]]
        self._windows = []
        self._active = True
        self._start = time.perf_counter()

    def exclude(self, start: float, end: float) -> None:
        """Count ``[start, end]``, which the benchmark spent inside the op
        (a calibration sample), as time in no layer."""
        if self._active:
            self._windows.append((start, end))

    def _excluded(self, start: float, end: float) -> float:
        """Excluded time inside ``[start, end]``.  A window never straddles
        either end: it is a signal handler's run, and ``start`` and ``end``
        were read by code the handler interrupts only between statements."""
        total = 0.0
        for window_start, window_end in reversed(self._windows):
            if window_end <= start:
                break
            if window_end <= end:
                total += window_end - window_start
        return total

    def end(self) -> Dict[str, float]:
        """Stop recording; ``{"<layer>.calls"|".self_s"|"op.self_s"|...: value}``."""
        now = time.perf_counter()
        wall = now - self._start
        self._active = False
        values: Dict[str, float] = {
            "op.self_s": wall - self._excluded(self._start, now) - self._stack[0][1]
        }
        for layer in LAYERS:
            values[f"{layer}.calls"] = self.calls.get(layer, 0)
            values[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        for layer, (metric, _size) in SIZED.items():
            values[metric] = self.sizes.get(layer, 0)
        if self.spans is not None:
            self.spans.append((self._op, "op", self._start, now, 0, -1))
            self.spans += [("calibration sample", "benchmark", *window, -1, 0) for window in self._windows]
        return values

    def chrome_trace(self) -> str:
        """The kept spans of the last op as a Chrome-trace JSON document."""
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self._start) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": self._op},
            }
            for name, layer, start, end, span_id, parent in sorted(self.spans or (), key=lambda s: s[2])
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
