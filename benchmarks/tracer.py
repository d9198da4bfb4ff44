"""Span recorder for the benchmark's traced runs.

The recorder wraps polymut's public functions from outside the package: each
wrapped name is rebound in every loaded ``polymut`` module namespace that
holds the same function object (``deform.mutate``, the names imported into
``cli``, the package's own re-exports), so calls made inside the package are
recorded as well. A dotted attribute such as ``LaurentPoly.__mul__`` is
rebound once, on its class. ``remove`` restores every original binding.

Spans are kept in memory as ``[name, start, end, parent, item]`` lists, where
``parent`` is the index of the enclosing span (or None) and ``item`` is the
identifier of the workload call that caused it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# note(counts, args, result, error) runs after the span has closed, so its
# own cost is charged to the caller and not to the wrapped function.
Note = Callable[[dict, tuple, object, Optional[BaseException]], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item: Optional[int] = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note: Optional[Note]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(rec)
            out = err = None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                err = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if note is not None:
                    note(self.counts, args, out, err)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, span name, note)`` target whose
        module is loaded; a workload cannot call into one that is not."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "polymut" or n.startswith("polymut."))
        ]
        for modname, attr, name, note in targets:
            owner = sys.modules.get(modname)
            if owner is None:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            wrapper = self._wrap(name, fn, note)
            if path:
                self._rebind(owner, leaf, fn, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, key, fn, wrapper)

    def _rebind(self, owner, key: str, fn, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, fn))

    def remove(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def layer_times(self, first: int, last: int) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over spans[first:last]; a span's
        self time is its duration minus the durations of its child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i in range(first, last):
            name, start, end, _, _ = self.spans[i]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def dump(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span, times relative
        to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, item]) + "\n")
