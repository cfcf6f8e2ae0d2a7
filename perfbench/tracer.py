"""Spans, counters and the attribute patcher behind the benchmark's probes.

Nothing under ``src/`` knows about this module.  The benchmark wraps the
public functions of each layer from the outside (:class:`Patcher`), so the
program under test runs unchanged and every wrapper is removed again when
the workload ends.

A span is opened per call of a wrapped function -- per run, per cycle phase
or per shipment, never per window probe -- and kept in memory as
``[name, start_ns, end_ns, parent_index]``.  Functions that run once per
tuple are wrapped by counting wrappers that take no timestamps.  Self time
is computed after the run by :func:`layer_times`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites see
    the wrapper too.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrapped = make(original)
        targets = [owner]
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                if (module is not owner and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original):
                    targets.append(module)
        for target in targets:
            self._saved.append((target, name, original))
            setattr(target, name, wrapped)

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._depth: Dict[str, List[int]] = {}
        self.active = False
        self.started_ns = 0
        self.stopped_ns = 0

    def start(self) -> None:
        self.active = True
        self.started_ns = _now()

    def stop(self) -> None:
        self.active = False
        self.stopped_ns = _now()

    def timed(self, name: str, after: Optional[Callable] = None,
              outermost: bool = False) -> Callable[[Callable], Callable]:
        """A wrapper factory: one span per call of the wrapped function.

        *after* is called as ``after(result, args, kwargs)`` to bump counters.
        With *outermost*, a call nested in a span of the same name (a super()
        chain) runs unwrapped.
        """
        spans, stack, tracer = self.spans, self._stack, self
        # shared by every function wrapped under this name
        depth = self._depth.setdefault(name, [0])

        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not tracer.active or (outermost and depth[0]):
                    return function(*args, **kwargs)
                index = len(spans)
                record = [name, 0, 0, stack[-1] if stack else -1]
                spans.append(record)
                stack.append(index)
                depth[0] += 1
                record[1] = _now()
                try:
                    result = function(*args, **kwargs)
                finally:
                    record[2] = _now()
                    stack.pop()
                    depth[0] -= 1
                if after is not None:
                    after(result, args, kwargs)
                return result
            wrapper.__wrapped__ = function
            return wrapper
        return make

    def counted(self, what: Any) -> Callable[[Callable], Callable]:
        """A wrapper factory that only counts (per-tuple functions).

        *what* is a counter name, bumped once per call, or a callable
        ``what(counters, args, kwargs)`` that bumps counters itself.
        """
        counters, tracer = self.counters, self
        if isinstance(what, str):
            name = what

            def what(counters_, args, kwargs) -> None:
                counters_[name] += 1

        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if tracer.active:
                    what(counters, args, kwargs)
                return function(*args, **kwargs)
            wrapper.__wrapped__ = function
            return wrapper
        return make

    def open(self, name: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name)

    def dump(self) -> List[Dict[str, Any]]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                for n, s, e, p in self.spans]


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        if not tracer.active:
            self._record = None
            return
        stack = tracer._stack
        self._record = [self._name, _now(), 0, stack[-1] if stack else -1]
        stack.append(len(tracer.spans))
        tracer.spans.append(self._record)

    def __exit__(self, *exc_info) -> None:
        if self._record is not None:
            self._record[2] = _now()
            self._tracer._stack.pop()


def layer_times(spans: Sequence[Sequence[Any]], wall_ns: int
                ) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-name total and self seconds, plus the time no span covers.

    A span's self time is its duration minus the durations of its direct
    children (spans nest strictly: they come from one call stack).  The
    remainder is *wall_ns* minus the durations of the root spans.
    """
    child_ns = [0] * len(spans)
    root_ns = 0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
        else:
            root_ns += end - start
    layers: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - child_ns[index]) / 1e9
    return layers, (wall_ns - root_ns) / 1e9
