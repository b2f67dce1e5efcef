"""Per-layer wall-clock tracing from outside the program.

A :class:`LayerTracer` replaces public callables of the ``repro`` layers
with timing wrappers while a traced region is open.  Every wrapped call
pushes a frame on one stack, so each layer gets:

* ``calls`` - how many times it was entered,
* ``busy_s`` - inclusive wall time (outermost entry only, so a layer that
  re-enters itself is not counted twice),
* ``self_s`` - wall time not covered by a nested wrapped call.

The traced region itself is the root frame; its self time is the time no
wrapped layer covered (benchmark glue and unwrapped code), so the self
times of all rows add up to the traced wall time.

Coarse boundaries (train, compile, run_sessions, runtime.run, feed,
send_results) also store one span each: ``(name, start, end, parent,
session)``.  Per-read boundaries run 10^4-10^5 times per run and are only
folded into the counters above.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The row for traced time that no wrapped call covers.
OTHER = "bench.other"

#: One stored span: name, start, end (perf_counter seconds relative to
#: the traced region's start), parent span index (-1 = root), session.
Span = Tuple[str, float, float, int, str]


class _Frame:
    """One open wrapped call: the time its nested wrapped calls took."""

    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class LayerTracer:
    """Wrap layer entry points and fold their calls into per-layer rows."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Span] = []
        self.wall_s = 0.0
        self._depth: Dict[str, int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._span_stack: List[int] = []
        self._sessions: Dict[int, str] = {}
        self._origin = 0.0
        self._paused_s = 0.0
        self.active = False

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, span: bool = False,
              session: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper charged to ``layer``.

        ``session(tracer, args)`` names the session a span belongs to;
        ``after(counts, args, result)`` runs after each traced call to
        update :attr:`counts`.
        """
        fn = getattr(owner, attr)
        setattr(owner, attr, self._wrap(fn, layer, span, session, after))

    def patch_generator(self, owner, attr: str, layer: str,
                        on_start: Callable, after_step: Callable) -> None:
        """Time each ``next()`` of the generator ``owner.attr`` returns.

        ``on_start(instance)`` runs when a traced generator is created and
        ``after_step(counts, instance, item)`` after each step that yielded.
        """
        original = getattr(owner, attr)
        step = self._wrap(next, layer, False, None, None)
        tracer = self

        @functools.wraps(original)
        def wrapper(instance, *args, **kwargs):
            gen = original(instance, *args, **kwargs)
            if not tracer.active:
                return gen
            on_start(instance)
            return _timed_steps(tracer, step, gen, instance, after_step)

        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer, span, session, after):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls, busy, self_s = self.calls, self.busy_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_index = tracer._open_span(layer, args, session) if span else -1
            frame = _Frame()
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                calls[layer] += 1
                self_s[layer] += elapsed - frame.child_s
                if not depth[layer]:
                    busy[layer] += elapsed
                stack[-1].child_s += elapsed
                if span:
                    tracer._close_span(span_index, start + elapsed)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def depth(self, layer: str) -> int:
        """How many calls of ``layer`` are open right now."""
        return self._depth.get(layer, 0)

    # -- spans ----------------------------------------------------------

    def session_name(self, obj) -> str:
        """A stable name for ``obj`` (e.g. an engine): its first-seen rank."""
        key = id(obj)
        if key not in self._sessions:
            self._sessions[key] = f"s{len(self._sessions)}"
        return self._sessions[key]

    def _open_span(self, name, args, session) -> int:
        parent = self._span_stack[-1] if self._span_stack else -1
        who = session(self, args) if session is not None else ""
        self.spans.append((name, time.perf_counter() - self._origin, 0.0, parent, who))
        index = len(self.spans) - 1
        self._span_stack.append(index)
        return index

    def _close_span(self, index: int, end: float) -> None:
        self._span_stack.pop()
        name, start, _, parent, who = self.spans[index]
        self.spans[index] = (name, start, end - self._origin, parent, who)

    # -- traced region --------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._stack.append(_Frame())
        self.active = True
        self._origin = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._origin - self._paused_s
        self.active = False
        root = self._stack.pop()
        self.wall_s += elapsed
        self.self_s[OTHER] += elapsed - root.child_s

    def pause(self) -> "_Paused":
        """Context in which wrapped calls run untimed (e.g. a warm-up)."""
        return _Paused(self)

    def table(self) -> List[Tuple[str, int, float, float]]:
        """``(layer, calls, busy_s, self_s)`` rows, largest self time first."""
        layers = set(self.self_s) | set(self.calls)
        rows = [
            (name, self.calls.get(name, 0), self.busy_s.get(name, 0.0),
             self.self_s.get(name, 0.0))
            for name in layers
        ]
        return sorted(rows, key=lambda row: -row[3])


class _Paused:
    """Excludes a stretch of the traced region from every layer and from
    the region's wall time.  Spans keep real-time offsets."""

    def __init__(self, tracer: LayerTracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        self.started = time.perf_counter()
        self.tracer.active = False

    def __exit__(self, *exc) -> None:
        self.tracer.active = True
        self.tracer._paused_s += time.perf_counter() - self.started


def _timed_steps(tracer, step, gen, instance, after_step):
    try:
        while True:
            try:
                item = step(gen)
            except StopIteration:
                return
            after_step(tracer.counts, instance, item)
            yield item
    finally:
        gen.close()
