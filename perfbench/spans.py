"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public functions of the program at class or module
level, times every call, and restores the original objects on
:meth:`SpanRecorder.uninstall`.  Nothing under ``src/`` knows it exists.

Two kinds of span are kept in memory:

* *detail* spans (cells, engine runs, cache I/O, fingerprints) are kept
  one record per call: name, start, end, parent span id, and the shared
  identifier (cell fingerprint or request id) of the enclosing cell;
* *hot* spans (per-write and per-batch calls, millions per run) are
  folded into one aggregate record per (name, parent span): call count,
  total time and self time.  Keeping them one by one would cost
  hundreds of megabytes on the per-write path.

Self time is a span's duration minus the time its child spans cover.
Calls nest strictly on one thread, so it is computed as each span
closes.  Each thread keeps its own stack and totals.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``after(recorder, args, result)`` hook run once a wrapped call returns.
AfterHook = Callable[["SpanRecorder", tuple, Any], None]


# A frame of the per-thread call stack is a list (cheaper than an
# object on the per-write path): name, instance, method name, detail
# span id (None for hot spans), id of the nearest enclosing detail span,
# shared key, seconds covered by child spans.
_NAME, _OBJ, _ATTR, _ID, _PARENT, _KEY, _CHILD = range(7)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[list] = []
        #: Detail spans: name -> [calls, total seconds, self seconds].
        self.totals: Dict[str, List[float]] = {}
        #: Hot spans: (name, parent id) -> [calls, total seconds, self seconds, key].
        self.aggregates: Dict[Tuple[str, Optional[int]], list] = {}
        self.counters: Dict[str, int] = {}


class SpanRecorder:
    """In-memory spans and per-name totals for wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Detail spans: (id, name, start, end, parent id, key, self seconds).
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: (owner, attribute, original object) for every installed patch.
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # per-thread state

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to an exact counter."""
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + int(amount)

    def record(self, name: str, start: float, end: float, key: Optional[str] = None) -> None:
        """Record a detail span measured by the caller (no parent).

        Used for spans an async client measures itself, where calls
        interleave on one thread and a stack cannot tell the parent.
        """
        duration = end - start
        self.spans.append((next(self._ids), name, start, end, None, key, duration))
        self._add_total(self._state(), name, duration, duration)

    @staticmethod
    def _add_total(state: _ThreadState, name: str, total: float, own: float) -> None:
        entry = state.totals.get(name)
        if entry is None:
            state.totals[name] = [1, total, own]
        else:
            entry[0] += 1
            entry[1] += total
            entry[2] += own

    # ------------------------------------------------------------------
    # wrapping

    def wrap(
        self,
        fn: Callable,
        name: Any,
        *,
        detail: bool = False,
        method: bool = False,
        key: Optional[Callable[[tuple], str]] = None,
        after: Optional[AfterHook] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``name`` is a span name, or for methods a callable mapping the
        instance's class to one (so one wrapper on a base class reports
        per subclass).  A method call that re-enters the same method on
        the same object (``super()`` chains) joins the outer span
        instead of opening a nested one, so call counts stay per
        request.  ``detail`` keeps one record per call instead of an
        aggregate.  ``key`` derives the shared identifier from the
        arguments; inner spans inherit it.
        """
        recorder = self
        clock = self.clock
        local = self._local
        spans = self.spans
        ids = self._ids
        attr = getattr(fn, "__name__", None)
        names: Dict[type, str] = {}
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = recorder._state()
            stack = state.stack
            obj = args[0] if method and args else None
            if stack:
                top = stack[-1]
                if obj is not None and top[_OBJ] is obj and top[_ATTR] == attr:
                    return fn(*args, **kwargs)
                parent = top[_ID] if top[_ID] is not None else top[_PARENT]
                parent_key = top[_KEY]
            else:
                parent = parent_key = None
            if dynamic:
                span_name = names.get(type(obj))
                if span_name is None:
                    span_name = names[type(obj)] = name(type(obj))
            else:
                span_name = name
            frame = [
                span_name,
                obj,
                attr,
                next(ids) if detail else None,
                parent,
                key(args) if key is not None else parent_key,
                0.0,
            ]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += duration
                if detail:
                    spans.append((frame[_ID], span_name, start, end, parent, frame[_KEY], own))
                    recorder._add_total(state, span_name, duration, own)
                else:
                    entry = state.aggregates.get((span_name, parent))
                    if entry is None:
                        state.aggregates[(span_name, parent)] = [1, duration, own, frame[_KEY]]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += own
            if after is not None:
                after(recorder, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = attr or "wrapper"
        return wrapper

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a class or module) with ``wrapper``."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patches(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) of every installed patch."""
        return list(self._patches)

    # ------------------------------------------------------------------
    # results

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), all threads."""
        merged: Dict[str, List[float]] = {}
        for state in list(self._states):
            rows = [(name, entry) for name, entry in state.totals.items()]
            rows += [(name, entry) for (name, _), entry in state.aggregates.items()]
            for name, (calls, total, own, *_) in rows:
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in merged.items()}

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for state in list(self._states):
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def write_jsonl(self, path: str) -> None:
        """Write detail spans, then aggregate records, one JSON per line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, key, own in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "key": key, "self_s": own,
                }) + "\n")
            for state in list(self._states):
                for (name, parent), (calls, total, own, key) in state.aggregates.items():
                    handle.write(json.dumps({
                        "name": name, "parent": parent, "key": key,
                        "calls": int(calls), "total_s": total, "self_s": own,
                    }) + "\n")
