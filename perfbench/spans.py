"""Wall-clock spans around the public entry points of each layer.

The tracer lives entirely in the benchmark: it replaces a layer's public
method (at the class attribute) or module function (at the name its
caller looks up) with a wrapper that records a span, and puts the
original back afterwards, so untraced runs execute the program untouched.

A span has a name, a start and an end from ``perf_counter``, the span
that was open when it began (its parent) and, where the call's arguments
or result carry an ``(end_system_id, batch_id)`` pair, that pair as its
key.  Per name the tracer sums **self** seconds (the span's duration
minus the durations of its direct children) and counts calls; a call
nested inside a span of the same name (a subclass method calling its
base) is not counted twice.  Spans stay in memory, up to a cap, and are
written once as a Chrome trace.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept for the Chrome trace; aggregates are exact past the cap.
SPAN_CAPACITY = 400_000


def _batch_key(args: Tuple[Any, ...], result: Any) -> Optional[List[int]]:
    """The ``(end_system_id, batch_id)`` a call carries, also inside a
    network message's payload."""
    for value in (result, *args):
        value = getattr(value, "payload", value)
        system = getattr(value, "end_system_id", None)
        batch = getattr(value, "batch_id", None)
        if system is not None and batch is not None:
            return [int(system), int(batch)]
    return None


class Tracer:
    """Span recorder plus per-name self-time and call aggregates."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counted by ``observe`` hooks (GEMM flops, drained messages).
        self.amounts: Dict[str, float] = defaultdict(float)
        #: Chrome-trace rows: (span id, parent id, name, start, end, key).
        self.spans: List[Tuple[int, int, str, float, float, Any]] = []
        self.spans_dropped = 0
        self._stack: List[List[Any]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> List[Any]:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def end(self, frame: List[Any], key: Any = None, count: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, span_id, parent = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self._depth[name] -= 1
        if count and self._depth[name] == 0:
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < SPAN_CAPACITY:
            self.spans.append((span_id, parent, name, start, end, key))
        else:
            self.spans_dropped += 1

    def wrap(self, name: str, fn: Callable[..., Any], keyed: bool = False,
             observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
             ) -> Callable[..., Any]:
        """A traced stand-in for ``fn``.

        ``observe(args, result)`` runs after each outermost call that
        returned, to count work the call did (flops, bytes, messages).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if observe is not None and result is not None \
                        and tracer._depth[name] == 1:
                    observe(args, result)
                tracer.end(frame, _batch_key(args, result) if keyed else None)

        return traced

    def wrap_iterator(self, name: str, fn: Callable[..., Iterator[Any]]
                      ) -> Callable[..., Iterator[Any]]:
        """Trace each ``next()`` of the iterator ``fn`` returns as one call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            while True:
                frame = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.end(frame, count=False)
                    return
                except BaseException:
                    tracer.end(frame)
                    raise
                tracer.end(frame)
                yield item

        return traced

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attribute: str, name: str, *,
              keyed: bool = False, iterator: bool = False,
              observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
              ) -> None:
        """Replace ``owner.attribute`` (a class or a module) with a traced one.

        Only attributes ``owner`` defines itself are replaced, so a
        subclass that inherits a method is traced through its base.
        """
        raw = vars(owner)[attribute]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor is not None else raw
        if iterator:
            traced = self.wrap_iterator(name, fn)
        else:
            traced = self.wrap(name, fn, keyed=keyed, observe=observe)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, descriptor(traced) if descriptor else traced)

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.unpatch()

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace ``X`` events (microseconds)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "key": key},
            }
            for span_id, parent, name, start, end, key in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_dropped": self.spans_dropped}},
                      handle)
