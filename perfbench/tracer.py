"""Timing spans around the calls into each layer of the pipeline.

The tracer replaces layer functions as they are bound in the modules that
call them (``robustmatch.cli`` and ``robustmatch.flow``) with wrappers that
time each call, and restores the originals afterwards; nothing inside the
program changes.  One traced operation is one ``cli.run`` call, the root
span.  Calls made once or a few times per operation become spans with a
name, start, end, parent span and operation id.  Calls made per shift or per
matching are summed instead, so that tracing adds a few microseconds per call
rather than a span each.

Layer timings are wall seconds; the caller normalises them.  A layer's self
time is its span minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, layer name, kind): "span" records one span per call,
# "sum" only adds the call's time to the layer's total for the operation.
_POINTS = (
    ("robustmatch.cli", "parse_instance", "instance.parse", "span"),
    ("robustmatch.cli", "parse_distribution", "instance.dist", "span"),
    ("robustmatch.cli", "build_rotation_poset", "rotations.poset", "span"),
    ("robustmatch.cli", "enumerate_closed_masks", "rotations.enumerate", "span"),
    ("robustmatch.cli", "closed_set_to_matching", "rotations.materialize", "sum"),
    ("robustmatch.cli", "build_robust_poset", "representation.build", "span"),
    ("robustmatch.cli", "_matching_json", "matching.serialize", "sum"),
    ("robustmatch.flow", "build_rotation_poset", "rotations.poset", "span"),
    ("robustmatch.flow", "build_network", "flow.network", "span"),
    ("robustmatch.flow", "solve", "flow.maxflow", "span"),
    ("robustmatch.flow", "extract_closed_set", "flow.extract", "span"),
    ("robustmatch.flow", "closed_set_to_matching", "rotations.materialize", "sum"),
)

class Tracer:
    """Installs the wrappers, collects spans, and summarises one op at a time."""

    def __init__(self):
        self.spans: list[tuple] = []   # (span id, name, start, end, parent id, op id)
        self._saved: list[tuple] = []
        self._stack: list[list] = []   # [span id, start, time in wrapped children]
        self._next_id = 0
        self._begin_op(None)

    # -- per-operation state ------------------------------------------------

    def _begin_op(self, op_id):
        self.op_id = op_id
        self.totals: dict[str, float] = {}    # layer -> summed seconds
        self.results: dict[str, object] = {}   # layer -> first call's result
        self.status: dict[str, int] = {}       # shift analysis status -> count
        self.first_boy_s = None
        self.layers = None                     # set by root() when the op returns

    def _add(self, name: str, seconds: float):
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, name: str, kind: str):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                seconds = end - frame[1]
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[2] += seconds
                tracer._add(name, seconds)
                if kind == "span":
                    tracer.spans.append((span_id, name, frame[1], end,
                                         parent[0] if parent else None, tracer.op_id))
            tracer.results.setdefault(name, result)
            return result

        return wrapper

    def _timed_analysis(self, fn):
        """Per-shift analysis: time split by list side, status histogram."""
        tracer = self

        def analyze_shift(poset, inst, shift):
            start = perf_counter()
            result = fn(poset, inst, shift)
            seconds = perf_counter() - start
            if tracer._stack:
                tracer._stack[-1][2] += seconds
            if shift.side == "GIRL_LIST":
                tracer._add("shift_analysis.girl", seconds)
            else:
                tracer._add("shift_analysis.boy", seconds)
                if tracer.first_boy_s is None:
                    tracer.first_boy_s = seconds
            tracer.status[result.status] = tracer.status.get(result.status, 0) + 1
            return result

        return analyze_shift

    def _timed_method(self, cls, attr: str, name: str, classmethod_: bool):
        original = cls.__dict__[attr]
        fn = original.__func__ if classmethod_ else original
        wrapped = self._timed(fn, name, "span")
        self._saved.append((cls, attr, original))
        setattr(cls, attr, classmethod(wrapped) if classmethod_ else wrapped)

    def install(self):
        """Replace every traced binding; ``uninstall`` puts the originals back."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, kind in _POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._timed(original, name, kind))
        flow = importlib.import_module("robustmatch.flow")
        self._saved.append((flow, "analyze_shift", flow.analyze_shift))
        flow.analyze_shift = self._timed_analysis(flow.analyze_shift)
        instance = importlib.import_module("robustmatch.instance")
        self._timed_method(instance.ShiftDistribution, "uniform", "instance.dist", True)
        self._timed_method(instance.ShiftDistribution, "validate_for", "instance.validate", False)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- one operation ------------------------------------------------------

    def root(self, op_id, fn, *args):
        """Call fn(*args) as the root span of operation op_id and return its
        result.  Afterwards ``layers`` maps each layer name to its summed wall
        seconds in this op, "cli.run" to the root span and "cli.self" to the
        root's time outside every traced call.
        """
        self._begin_op(op_id)
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, "cli.run", frame[1], end, None, op_id))
        self.layers = dict(self.totals)
        self.layers["cli.run"] = end - frame[1]
        self.layers["cli.self"] = self.layers["cli.run"] - frame[2]
        return result
