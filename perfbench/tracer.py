"""In-memory spans around calls into the sctest layers.

The tracer replaces a function where its calling module binds it (for
example ``sctest.evm.engine.run_frame``) with a wrapper that records one
span per call: name, binding site, start, end and the index of the span
that was open when it began.  Spans stay in a list until the round ends;
``summary`` then folds them into per-name call counts, inclusive time and
self time (a span's duration minus the durations of its direct children).

``NullTracer`` has the same interface and records nothing, so the
untraced rounds run the workload code unchanged and unpatched.
"""

import functools
import time
from contextlib import contextmanager

_clock = time.perf_counter


class NullTracer:
    @contextmanager
    def span(self, name):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        # [name, site, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # name -> callback(args, kwargs, result), run after the span closes
        self.observers: dict = {}

    def _open(self, name, site) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, site, _clock(), 0.0, parent])
        self._stack.append(i)
        return i

    def _close(self, i) -> None:
        self._stack.pop()
        self.spans[i][3] = _clock()

    @contextmanager
    def span(self, name):
        """Record the enclosed block, run by the benchmark itself."""
        i = self._open(name, "bench")
        try:
            yield
        finally:
            self._close(i)

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span; used for calls the benchmark makes itself."""
        with self.span(name):
            out = fn(*args, **kwargs)
        observe = self.observers.get(name)
        if observe is not None:
            observe(args, kwargs, out)
        return out

    def wrap(self, owner, attr: str, name: str, site: str) -> None:
        """Trace every call made through owner.attr as span `name`."""
        fn = getattr(owner, attr)
        observers = self.observers
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            observe = observers.get(name)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def summary(self, root: int) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        (name, site): calls.  Only the span at index `root` and the spans
        under it count."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, site, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        keep = self._descendants(root)
        names: dict[str, dict] = {}
        sites: dict[tuple[str, str], int] = {}
        for i, (name, site, start, end, _) in enumerate(spans):
            if not keep[i]:
                continue
            rec = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            sites[(name, site)] = sites.get((name, site), 0) + 1
        return {"names": names, "sites": sites}

    def _descendants(self, root: int) -> list[bool]:
        """Flags for spans that are `root` or lie under it."""
        inside = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            parent = span[4]
            inside[i] = i == root or (parent >= 0 and inside[parent])
        return inside

    def count_within(self, name: str, site: str | None, ancestor: str) -> int:
        """Spans called `name` (from `site`, if given) that run inside an
        open span called `ancestor`."""
        spans = self.spans
        under = [False] * len(spans)
        n = 0
        for i, (nm, st, _, _, parent) in enumerate(spans):
            up = parent >= 0 and (under[parent] or spans[parent][0] == ancestor)
            under[i] = up
            if up and nm == name and (site is None or st == site):
                n += 1
        return n
