"""In-memory span recorder that times calls into dpabc from the outside.

The tracer replaces public functions in the namespaces of the dpabc modules
that call them (``dpabc.audit.dominance_pairs``, ``dpabc.cli.evaluate_bounds``,
...) with wrappers that record a span -- name, start, end, parent -- around
each call, and puts the originals back on ``unpatch``. Nothing inside ``src/``
is edited. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# span record layout: [name, start, end, parent index (-1 for a root)]
NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self._patched: list = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording one span per call; ``after(args, result)`` may
        update counters once the call returns."""

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, name: str):
        """Wrapper for a generator function: one span per ``next``, the last
        one ending in ``StopIteration``, so that spans opened by the consumer
        between items are not its children. Counts its runs in
        ``counters[name + ".runs"]``."""

        def wrapper(*args, **kwargs):
            self.counters[name + ".runs"] += 1
            items = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, namespace, attr: str, replacement) -> None:
        """Set ``namespace.attr`` (a module) or ``namespace[attr]`` (a dict)."""
        if isinstance(namespace, dict):
            self._patched.append((namespace, attr, namespace[attr]))
            namespace[attr] = replacement
        else:
            self._patched.append((namespace, attr, getattr(namespace, attr)))
            setattr(namespace, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def nesting_violations(self, slack: float = 1e-9) -> int:
        """Spans whose direct children sum to more than the span itself."""
        return sum(1 for t in self.self_times() if t < -slack)

    def totals(self, roots) -> dict:
        """Inclusive seconds, self seconds and call count per span name,
        over the spans below (and including) the given root spans."""
        roots = set(roots)
        owner = [-1] * len(self.spans)
        for i, span in enumerate(self.spans):
            owner[i] = i if span[PARENT] < 0 else owner[span[PARENT]]
        out: dict = {}
        for i, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
            if owner[i] not in roots:
                continue
            entry = out.setdefault(span[NAME], {"s": 0.0, "self_s": 0.0, "count": 0})
            entry["s"] += span[END] - span[START]
            entry["self_s"] += self_s
            entry["count"] += 1
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

