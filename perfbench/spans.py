"""Span recording from outside the program.

:class:`Tracer` replaces public functions and methods of the detection
stack with timing wrappers while a traced section runs (``with tracer:``)
and puts the originals back afterwards.  Each call becomes a span with a
name, start, end, parent span and the iteration id it belongs to.
Layer self time (span time minus the time its child spans cover) is
accumulated online, so every traced iteration is summarised however many
spans it produces; the raw spans are kept in memory up to a cap and
written out at the end.

:class:`Probe` is the one-name version the untraced runs use to collect
the durations of a single call site (the checkpoint pause).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

__all__ = ["Tracer", "Probe"]


def _lookup(owner, attr):
    """The raw attribute as stored on ``owner`` (function, property, ...)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return klass.__dict__[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return getattr(owner, attr)


class _Patches:
    """Installed replacements, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)`` (a property's getter
        is wrapped in place)."""
        raw = _lookup(owner, attr)
        # An inherited method is shadowed on the subclass, then deleted.
        own = not isinstance(owner, type) or attr in owner.__dict__
        if isinstance(raw, property):
            replacement = property(make(raw.fget))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


class Probe:
    """Collect the durations of calls to one function, by ``clock``."""

    def __init__(self, owner, attr: str, *, clock=perf_counter) -> None:
        self.clock = clock
        self.samples: list[float] = []
        self._patches = _Patches()
        self._target = (owner, attr)

    def __enter__(self) -> "Probe":
        samples = self.samples

        def make(fn):
            clock = self.clock

            def probed(*args, **kwargs):
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(clock() - started)

            return probed

        self._patches.replace(*self._target, make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Spans around a fixed set of call sites, aggregated per name."""

    #: Raw spans kept for the trace file; aggregation continues past it.
    SPAN_CAP = 50_000

    def __init__(self) -> None:
        self._targets: list[tuple] = []
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._patches = _Patches()
        #: Open spans: [name index, span id, start, child seconds].
        self._stack: list[list] = []
        self._next_id = 0
        self.iteration = -1
        self.calls: dict[str, int] = {}
        self.self_seconds: dict[str, float] = {}
        #: Per-call durations for names registered with ``keep_samples``.
        self.samples: dict[str, list[float]] = {}
        #: Sum of root span durations (what the spans cover).
        self.root_seconds = 0.0
        #: Time spent inside ``with tracer:`` sections (what they should
        #: cover), by the same clock as the spans.
        self.section_seconds = 0.0
        self._section_started = 0.0
        #: Extra per-name accounting filled by ``on_result`` callbacks.
        self.extra: dict[str, float] = {}
        #: Kept spans: (iteration, id, parent id, name, start, end).
        self.spans: list[tuple] = []
        self.spans_recorded = 0

    def target(
        self,
        owner,
        attr: str,
        name: str,
        *,
        keep_samples: bool = False,
        count_only: bool = False,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Register a call site; ``name`` may be shared by several sites.

        ``count_only`` counts calls without opening a span, so the time
        stays with the caller's span (a thin pass-through such as the
        kernel's atomic section would otherwise absorb its callee's
        self time).
        """
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
            self.calls[name] = 0
            self.self_seconds[name] = 0.0
        if keep_samples:
            self.samples.setdefault(name, [])
        self._targets.append((owner, attr, name, count_only, on_result))

    # ------------------------------------------------------------ lifecycle

    def begin_iteration(self) -> None:
        """Start a new iteration id for the spans recorded from now on."""
        self.iteration += 1

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count_only, on_result in self._targets:
            if count_only:
                make = self._counter_factory(name)
            else:
                make = self._wrapper_factory(name, on_result)
            self._patches.replace(owner, attr, make)
        self._section_started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.section_seconds += perf_counter() - self._section_started
        self._patches.restore()
        self._stack.clear()

    def _counter_factory(self, name: str):
        calls = self.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _wrapper_factory(self, name: str, on_result):
        index = self._index[name]
        stack = self._stack
        keep = self.samples.get(name)
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                frame = [index, span_id, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer._close(frame, end, keep)
                if on_result is not None:
                    on_result(tracer, result)
                return result

            return traced

        return make

    def _close(self, frame: list, end: float, keep) -> None:
        index, span_id, start, child = frame
        duration = end - start
        name = self._names[index]
        self.calls[name] += 1
        self.self_seconds[name] += duration - child
        if keep is not None:
            keep.append(duration)
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        else:
            self.root_seconds += duration
            parent_id = -1
        self.spans_recorded += 1
        if len(self.spans) < self.SPAN_CAP:
            self.spans.append(
                (self.iteration, span_id, parent_id, name, start, end)
            )

    # -------------------------------------------------------------- results

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def write(self, path: Path) -> None:
        """Write the kept raw spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("iteration", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
