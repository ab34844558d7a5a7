"""Unit tests for the metrics registry primitives."""

import math
import threading

import pytest

from repro.observability.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_empty_percentile_is_zero(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.percentile(0.99) == 0.0
        assert histogram.count == 0
        assert histogram.sum == 0.0

    def test_value_equal_to_bound_lands_in_that_bucket(self):
        # Prometheus le semantics: bucket le=X counts observations <= X.
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        histogram.observe(2.0)
        counts = histogram.bucket_counts()
        assert counts == (0, 1, 0, 0)
        cumulative = histogram.cumulative()
        assert cumulative == (0, 1, 1, 1)

    def test_overflow_goes_to_inf_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.bucket_counts() == (0, 0, 1)
        # Percentile of a +Inf-bucket-only histogram clamps to the top
        # finite bound rather than returning infinity.
        assert histogram.percentile(0.5) == 2.0

    def test_exact_sum_and_count(self):
        histogram = Histogram(bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(3.55)

    def test_percentile_interpolates_within_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0, 3.0))
        for __ in range(100):
            histogram.observe(1.5)
        p50 = histogram.percentile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, math.inf))

    def test_merge_requires_identical_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 2.0))
        b.observe(0.5)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 2
        assert a.bucket_counts() == (1, 0, 1)
        with pytest.raises(ValueError):
            a.merge(Histogram(bounds=(1.0, 3.0)))

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 1.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestRegistry:
    def test_counter_children_by_labels(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "repro_test_total", "help text", ("shard", "phase")
        )
        family.labels(shard=0, phase="capture").inc()
        family.labels(shard=0, phase="capture").inc()
        family.labels(shard=1, phase="evaluate").inc(5)
        assert registry.value(
            "repro_test_total", {"shard": "0", "phase": "capture"}
        ) == 2
        # Partial label selectors sum over the matching children.
        assert registry.value("repro_test_total") == 7

    def test_wrong_labelnames_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_test_total", "", ("shard",))
        with pytest.raises(ValueError):
            family.labels(monitor="x")

    def test_redeclare_same_signature_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_same_total", "h", ("shard",))
        second = registry.counter("repro_same_total", "h", ("shard",))
        assert first is second

    def test_redeclare_mismatched_signature_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_clash_total", "h", ("shard",))
        with pytest.raises(ValueError):
            registry.gauge("repro_clash_total", "h", ("shard",))
        with pytest.raises(ValueError):
            registry.counter("repro_clash_total", "h", ("monitor",))

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad-name", "")

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("repro_z_total", "")
        registry.counter("repro_a_total", "")
        names = [family.name for family in registry.collect()]
        assert names == sorted(names)

    def test_value_of_unknown_metric_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.value("repro_missing_total")

    def test_histogram_helpers(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "repro_lat_seconds", "", ("shard",), buckets=(0.1, 1.0)
        )
        family.labels(shard=0).observe(0.05)
        family.labels(shard=1).observe(0.5)
        assert registry.histogram_count("repro_lat_seconds") == 2
        assert registry.histogram_sum("repro_lat_seconds") == pytest.approx(
            0.55
        )
        assert (
            registry.histogram_count("repro_lat_seconds", {"shard": "0"}) == 1
        )
        p99 = registry.histogram_percentile("repro_lat_seconds", 0.99)
        assert 0.0 < p99 <= 1.0

    def test_absorb_adds_samples_under_stamped_labels(self):
        retired = MetricsRegistry()
        retired.counter("repro_bytes_total", "h").labels().inc(5)
        retired.histogram("repro_lat_seconds", "", ("phase",)).labels(
            phase="append"
        ).observe(0.5)
        registry = MetricsRegistry()
        registry.counter("repro_bytes_total", "h", ("shard",)).labels(
            shard=0
        ).inc(2)
        registry.absorb(retired, labels={"shard": 0})
        registry.absorb(retired, labels={"shard": 0})
        assert registry.value("repro_bytes_total", {"shard": "0"}) == 12
        assert registry.histogram_count(
            "repro_lat_seconds", {"shard": "0", "phase": "append"}
        ) == 2

    def test_absorb_skips_gauges(self):
        incarnation = MetricsRegistry()
        incarnation.counter("repro_windows_total").labels().inc(3)
        incarnation.gauge("repro_live_streams").labels().set(2)
        registry = MetricsRegistry()
        registry.absorb(incarnation)
        registry.absorb(incarnation)
        assert registry.value("repro_windows_total") == 6
        assert registry.get("repro_live_streams") is None

    def test_count_table_exports_one_family_per_named_row(self):
        class Source:
            sent = 3
            lost = 1
            internal = 9

        rows = (
            ("sent", "repro_sent_total", "Sent."),
            ("lost", "repro_lost_total", "Lost."),
            ("internal", None, None),
        )
        registry = MetricsRegistry()
        registry.count_table(Source(), rows, {"shard": 0})
        registry.count_table(Source(), rows, {"shard": 1})
        assert [f.name for f in registry.collect()] == [
            "repro_lost_total", "repro_sent_total",
        ]
        assert registry.get("repro_sent_total").help == "Sent."
        assert registry.value("repro_sent_total", {"shard": "1"}) == 3
        assert registry.value("repro_lost_total") == 2


class TestThreadSafety:
    def test_concurrent_increments_from_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_racy_total", "").labels()
        histogram = registry.histogram(
            "repro_racy_seconds", "", buckets=(0.5,)
        ).labels()
        workers = 8
        per_worker = 2000
        barrier = threading.Barrier(workers)

        def hammer():
            barrier.wait()
            for __ in range(per_worker):
                counter.inc()
                histogram.observe(0.25)

        threads = [threading.Thread(target=hammer) for __ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = workers * per_worker
        assert counter.value == total
        assert histogram.count == total
        assert histogram.bucket_counts() == (total, 0)
        assert histogram.sum == pytest.approx(0.25 * total)
