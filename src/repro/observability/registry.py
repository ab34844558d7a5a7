"""Metrics registry: counters, gauges, and histograms with labels.

The single stats surface for the whole stack.  Every component keeps its
cheap native counters on the hot path (plain ``int``/``float`` attributes,
or an owned :class:`Histogram` where per-observation latency matters) and
assembles a :class:`MetricsRegistry` snapshot on demand via a ``metrics()``
method — ``DetectionEngine.metrics()``, ``DetectionCluster.metrics()``,
``DetectionSession.metrics()``, ``DetectionServer.metrics()``.  Exporters
(:mod:`repro.observability.export`) and the gate runner
(:mod:`repro.observability.gates`) consume the registry, never the
components directly.

Design notes
------------

* **Labels** follow the Prometheus model: a *family* is declared once with
  a fixed tuple of label names (``shard``, ``monitor``, ``phase``, ...);
  ``family.labels(shard="0")`` returns the child instrument for that label
  set, creating it on first use.
* **Histograms** use explicit cumulative bucket bounds (``le`` semantics:
  an observation equal to a bound lands in that bound's bucket) plus an
  implicit ``+Inf`` bucket, and keep the *exact* sum and count alongside
  the bucket counts.  Percentiles are estimated by linear interpolation
  inside the containing bucket, which is deterministic given the counts.
* **Thread safety**: one lock per child instrument; the registry itself
  locks family creation.  Observing is a counter bump plus one bisect —
  cheap enough for the WAL append path.
* **Stability**: families carry a ``stable`` flag.  Wall-clock timing
  families are declared ``stable=False`` so the JSON exporter can emit a
  byte-deterministic subset for sim-kernel runs (two identical seeded
  runs produce identical stable-only exports).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default latency bucket bounds (seconds).  Spans 10us .. 10s, the range
#: between a single staged-record append and a pathological world-stop.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram with exact sum/count and percentiles.

    ``bounds`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound.  ``le`` semantics mean an
    observation exactly equal to a bound counts toward that bucket.
    """

    kind = "histogram"

    def __init__(
        self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        # The default bounds are known valid; every engine builds two
        # histograms per session, so skip re-checking them.
        if bounds is not DEFAULT_LATENCY_BUCKETS:
            bounds = tuple(float(b) for b in bounds)
            if not bounds:
                raise ValueError("histogram needs at least one bucket bound")
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ValueError(f"bucket bounds must be increasing: {bounds}")
            if any(math.isinf(b) or math.isnan(b) for b in bounds):
                raise ValueError("+Inf bucket is implicit; bounds must be finite")
        self.bounds = bounds
        self._lock = threading.Lock()
        # One slot per finite bound plus the +Inf slot at the end.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_all(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with differing bounds: "
                f"{self.bounds} != {other.bounds}"
            )
        counts = other.bucket_counts()
        with other._lock:
            other_sum, other_count = other._sum, other._count
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += other_sum
            self._count += other_count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` slot last."""
        with self._lock:
            return tuple(self._counts)

    def cumulative(self) -> tuple[int, ...]:
        """Cumulative counts per bound, Prometheus ``le`` style."""
        out = []
        total = 0
        for count in self.bucket_counts():
            total += count
            out.append(total)
        return tuple(out)

    def percentile(self, q: float) -> float:
        """Estimate the ``q`` quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the containing bucket; the first
        bucket interpolates from 0.  Observations in the ``+Inf`` bucket
        clamp to the highest finite bound (the histogram cannot resolve
        beyond its bounds).  An empty histogram returns 0.0.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            counts = tuple(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if index >= len(self.bounds):  # +Inf bucket
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fraction = (rank - seen) / count
                return lower + (upper - lower) * fraction
            seen += count
        return self.bounds[-1]


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-set child instruments."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        stable: bool = True,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if kind not in _INSTRUMENTS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.stable = stable
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _signature(self) -> tuple:
        extra = self.buckets if self.kind == "histogram" else ()
        return (self.kind, self.labelnames, self.stable, extra)

    def labels(self, **labelvalues: object):
        """Child instrument for one label set (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self.buckets)
                else:
                    child = _INSTRUMENTS[self.kind]()
                self._children[key] = child
            return child

    def samples(self) -> list[tuple[dict[str, str], object]]:
        """``(labels-dict, instrument)`` pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class MetricsRegistry:
    """A collection of metric families, declared idempotently by name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        *,
        stable: bool = True,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        family = MetricFamily(
            name, kind, help, labelnames, stable=stable, buckets=buckets
        )
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing._signature() != family._signature():
                    raise ValueError(
                        f"metric {name!r} re-declared with a different "
                        f"signature: {existing._signature()} "
                        f"!= {family._signature()}"
                    )
                return existing
            self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        stable: bool = True,
    ) -> MetricFamily:
        return self._declare(name, "counter", help, labelnames, stable=stable)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        stable: bool = True,
    ) -> MetricFamily:
        return self._declare(name, "gauge", help, labelnames, stable=stable)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        stable: bool = False,
    ) -> MetricFamily:
        # Histograms default to stable=False: they almost always hold
        # wall-clock latencies, which never reproduce byte-for-byte.
        return self._declare(
            name, "histogram", help, labelnames, stable=stable, buckets=buckets
        )

    def count_table(
        self,
        source: object,
        rows: Iterable[tuple[str, Optional[str], Optional[str]]],
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Export a counter table of ``(attribute, family, help)`` rows:
        one counter family per row, sampled from ``getattr(source,
        attribute)`` and stamped with ``labels``.  A row whose family is
        ``None`` is counted but not exported."""
        base = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(base)
        for attr, family, help in rows:
            if family is not None:
                self.counter(family, help, names).labels(**base).inc(
                    getattr(source, attr)
                )

    def absorb(
        self,
        other: "MetricsRegistry",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Add ``other``'s counters and histograms (not gauges) into this
        registry, stamping ``labels`` onto every sample."""
        base = {str(k): str(v) for k, v in (labels or {}).items()}
        for family in other.collect():
            if family.kind == "gauge":
                continue
            mine = self._declare(
                family.name,
                family.kind,
                family.help,
                tuple(base) + family.labelnames,
                stable=family.stable,
                buckets=family.buckets,
            )
            for sample_labels, child in family.samples():
                target = mine.labels(**base, **sample_labels)
                if family.kind == "counter":
                    target.inc(child.value)
                else:
                    target.merge(child)

    def collect(self) -> list[MetricFamily]:
        """All families, sorted by name (deterministic export order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    # -- convenience lookups used by FaultStatistics and tests ----------

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Sum of a counter/gauge family's children matching ``labels``.

        ``labels=None`` sums every child (e.g. across shards); a partial
        label mapping sums the children whose labels are a superset.
        """
        family = self.get(name)
        if family is None:
            raise KeyError(f"no metric named {name!r}")
        if family.kind == "histogram":
            raise TypeError(
                f"{name!r} is a histogram; use histogram_sum/percentile"
            )
        wanted = {str(k): str(v) for k, v in (labels or {}).items()}
        total = 0.0
        for sample_labels, child in family.samples():
            if all(sample_labels.get(k) == v for k, v in wanted.items()):
                total += child.value  # type: ignore[union-attr]
        return total

    def _histogram_children(
        self, name: str, labels: Optional[Mapping[str, str]]
    ) -> list[Histogram]:
        family = self.get(name)
        if family is None:
            raise KeyError(f"no metric named {name!r}")
        if family.kind != "histogram":
            raise TypeError(f"{name!r} is not a histogram")
        wanted = {str(k): str(v) for k, v in (labels or {}).items()}
        return [
            child  # type: ignore[misc]
            for sample_labels, child in family.samples()
            if all(sample_labels.get(k) == v for k, v in wanted.items())
        ]

    def histogram_sum(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        return sum(c.sum for c in self._histogram_children(name, labels))

    def histogram_count(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> int:
        return sum(c.count for c in self._histogram_children(name, labels))

    def histogram_percentile(
        self,
        name: str,
        q: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        """Percentile across the merged buckets of the matching children."""
        children = self._histogram_children(name, labels)
        if not children:
            return 0.0
        merged = Histogram(children[0].bounds)
        for child in children:
            merged.merge(child)
        return merged.percentile(q)
