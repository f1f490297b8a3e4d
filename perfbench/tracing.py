"""Span recording around the program's public entry points.

The traced run installs wrappers from this file around the calls into each
layer, patched where the caller looks them up (a class attribute, or a
module global that another module imported by name). Every wrapped call
records one span: name, start, end, parent span and the id of the root
span it belongs to (one request, batch or write). Spans stay in memory;
the caller writes them out when the run ends.

A span's *self time* is its duration minus the time its children cover.
Calls run on one thread and nest strictly, so the children of a span never
overlap and the self times of one root's spans sum to the root's
duration. The wall time no root covers is reported as ``unattributed``.
:meth:`SpanRecorder.check_partition` verifies the nesting that this
relies on.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Span name -> layer its self time is charged to.
SPAN_LAYER = {
    "serve.submit": "serve",
    "serve.advance_to": "serve",
    "serve.drain": "serve",
    "api.create_index": "api",
    "api.search": "api",
    "api.search_encoded": "api",
    "encode.queries": "encode",
    "encode.corpus": "encode_corpus",
    "plan.compile": "plan",
    "plan.compile_search": "plan",
    "plan.reprice": "plan",
    "plan.execute": "plan_execute",
    "core.engine": "core_engine",
    "core.scan": "core_scan",
    "core.build": "core_build",
    "gpu.launch": "gpu",
    "finalize": "finalize",
    "stream.insert": "stream",
    "stream.delete": "stream",
    "stream.compact": "stream_compact",
}

LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values())) + ("unattributed",)


class SpanRecorder:
    """In-memory span store fed by the wrappers :func:`instrument` installs.

    Recording is on only inside :meth:`recording`; outside it the wrappers
    call straight through, so the untraced passes of a traced run pay one
    attribute check per wrapped call.
    """

    def __init__(self):
        self.active = False
        # One row per span: [name, start, end, parent index, root id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.observers: dict = {}
        self._stack: list[int] = []
        self._roots = 0
        self.windows: list[tuple[float, float]] = []
        self.wall = 0.0

    @contextmanager
    def recording(self):
        """Record spans for the duration of the block; times the block."""
        self.active = True
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            self.windows.append((start, end))
            self.wall += end - start
            self.active = False

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped to record a ``name`` span while recording.

        ``count(args, kwargs)`` adds to ``counts[name]`` after a call that
        returned (items the call processed). ``observers[name]`` is called
        with ``(result, nested)`` for every returned call.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            spans = recorder.spans
            if stack:
                parent = stack[-1]
                root = spans[parent][4]
                nested = spans[parent][0] == name
            else:
                parent, root, nested = -1, recorder._roots, False
                recorder._roots += 1
            span = [name, time.perf_counter(), 0.0, parent, root]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                recorder.counts[name] += count(args, kwargs)
            observer = recorder.observers.get(name)
            if observer is not None:
                observer(result, nested)
            return result

        return traced

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def layer_split(self) -> dict[str, float]:
        """Self seconds per layer plus ``unattributed``, summing to the wall."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            layers[SPAN_LAYER[name]] += seconds
        roots = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        layers["unattributed"] = self.wall - roots
        return layers

    def check_partition(self) -> float:
        """Check that the spans nest as the layer split assumes.

        Every span lies inside its parent, the children of one span do not
        overlap (so no self time is negative), every root lies inside a
        recording window and no two roots overlap (so ``unattributed`` is
        not negative). Raises ``RuntimeError`` naming the first span that
        breaks a rule, for instance one left open by a wrapper that
        failed to close it or one recorded outside :meth:`recording`.
        Returns the absolute difference between the layer self times plus
        ``unattributed`` and the wall, which is float rounding once the
        rules hold.
        """
        last_end: dict[int, float] = {}   # parent index -> end of its latest child
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                raise RuntimeError(f"span {i} ({name}) ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    raise RuntimeError(f"span {i} ({name}) leaves its parent span {parent}")
            elif not any(w0 <= start and end <= w1 for w0, w1 in self.windows):
                raise RuntimeError(f"root span {i} ({name}) lies outside the recording window")
            if start < last_end.get(parent, -float("inf")):
                raise RuntimeError(f"span {i} ({name}) overlaps an earlier sibling")
            last_end[parent] = end
        layers = self.layer_split()
        if layers["unattributed"] < 0:
            raise RuntimeError("root spans cover more than the traced wall")
        return abs(sum(layers.values()) - self.wall)

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "root": root}
            for name, start, end, parent, root in self.spans
        ]


def _targets():
    """``(owner, attribute, span name, count)`` for every wrapped entry point."""
    from repro.api import models, session
    from repro.cluster.executor import ShardedIndexHandle
    from repro.core import engine
    from repro.core.inverted_index import InvertedIndex
    from repro.gpu.device import Device
    from repro.serve.server import GenieServer
    from repro.stream.state import StreamState

    def n_first(args, kwargs):
        return len(args[1])

    targets = [
        (GenieServer, "submit", "serve.submit", None),
        (GenieServer, "advance_to", "serve.advance_to", None),
        (GenieServer, "drain", "serve.drain", None),
        (session.GenieSession, "create_index", "api.create_index", None),
        (session.IndexHandle, "search", "api.search", None),
        (session.IndexHandle, "search_encoded", "api.search_encoded", None),
        (ShardedIndexHandle, "search_encoded", "api.search_encoded", None),
        (session.IndexHandle, "encode_queries", "encode.queries", n_first),
        (session.IndexHandle, "_compile", "plan.compile", None),
        (session, "compile_search", "plan.compile_search", None),
        (session, "reprice_plan", "plan.reprice", None),
        (session, "execute_plan", "plan.execute", None),
        (engine.GenieEngine, "query", "core.engine", None),
        (engine, "plan_batch_scan", "core.scan", n_first),
        (InvertedIndex, "build", "core.build", None),
        (Device, "launch", "gpu.launch", None),
        (session.IndexHandle, "insert", "stream.insert", None),
        (session.IndexHandle, "delete", "stream.delete", None),
        (StreamState, "compact", "stream.compact", None),
    ]
    for cls in vars(models).values():
        if isinstance(cls, type):
            for attr, name in (("encode_corpus", "encode.corpus"), ("finalize", "finalize")):
                if callable(cls.__dict__.get(attr)):
                    targets.append((cls, attr, name, None))
    return targets


@contextmanager
def instrument(recorder: SpanRecorder):
    """Install the span wrappers for the block; restore the originals after."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__, count))
            else:
                wrapped = recorder.wrap(name, original, count)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
