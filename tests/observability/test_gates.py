"""Gate-spec parsing and evaluation tests."""

import json

import pytest

from repro.observability.export import to_json_dict
from repro.observability.gates import (
    MetricsView,
    _parse_toml_subset,
    load_gate_specs,
    parse_gate_specs,
    render_gate_table,
    run_gates,
)
from repro.observability.registry import MetricsRegistry

SPEC_TEXT = """
# hot-path gates
[[gate]]
name = "incremental-beats-full"
metric = "repro_bench_evaluate_seconds"
labels = { mode = "incremental" }
op = "<"
threshold = 1.0
[gate.baseline]
metric = "repro_bench_evaluate_seconds"
labels = { mode = "full" }

[[gate]]
name = "hits-nonzero"
metric = "repro_bench_hits"
op = ">"
threshold = 0
"""


def view_from(registry: MetricsRegistry) -> MetricsView:
    return MetricsView(to_json_dict(registry)["metrics"])


def bench_registry(
    incremental: float = 1.0, full: float = 2.0, hits: float = 10.0
) -> MetricsRegistry:
    registry = MetricsRegistry()
    family = registry.gauge("repro_bench_evaluate_seconds", "", ("mode",))
    family.labels(mode="incremental").set(incremental)
    family.labels(mode="full").set(full)
    registry.gauge("repro_bench_hits", "").labels().set(hits)
    return registry


class TestParsing:
    def test_parse_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        specs = parse_gate_specs(tomllib.loads(SPEC_TEXT))
        assert [spec.name for spec in specs] == [
            "incremental-beats-full",
            "hits-nonzero",
        ]
        assert specs[0].baseline is not None
        assert specs[0].value.labels == (("mode", "incremental"),)

    def test_fallback_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        assert _parse_toml_subset(SPEC_TEXT) == tomllib.loads(SPEC_TEXT)

    def test_fallback_parser_standalone(self):
        data = _parse_toml_subset(SPEC_TEXT)
        specs = parse_gate_specs(data)
        assert len(specs) == 2
        assert specs[1].threshold == 0.0

    def test_repo_gate_specs_parse_both_ways(self):
        tomllib = pytest.importorskip("tomllib")
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / ".github"
        paths = [root / "gates.toml", *sorted((root / "gates").glob("*.toml"))]
        assert len(paths) > 1
        for path in paths:
            raw = path.read_text()
            assert _parse_toml_subset(raw) == tomllib.loads(raw), path
            assert parse_gate_specs(_parse_toml_subset(raw)), path

    def test_load_gate_specs_from_file(self, tmp_path):
        path = tmp_path / "gates.toml"
        path.write_text(SPEC_TEXT)
        specs = load_gate_specs(str(path))
        assert len(specs) == 2

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            parse_gate_specs(
                {"gate": [{"metric": "m", "op": "<", "threshold": 1}]}
            )

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            parse_gate_specs(
                {
                    "gate": [
                        {
                            "name": "g",
                            "metric": "m",
                            "op": "~",
                            "threshold": 1,
                        }
                    ]
                }
            )

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_gate_specs({})


class TestEvaluation:
    def specs(self):
        return parse_gate_specs(_parse_toml_subset(SPEC_TEXT))

    def test_ratio_gate_passes_under_baseline(self):
        results = run_gates(self.specs(), view_from(bench_registry()))
        assert [result.status for result in results] == ["pass", "pass"]
        ratio_result = results[0]
        assert ratio_result.compared == pytest.approx(0.5)

    def test_ratio_gate_fails_over_baseline(self):
        view = view_from(bench_registry(incremental=3.0, full=2.0))
        results = run_gates(self.specs(), view)
        assert results[0].status == "fail"

    def test_zero_baseline_fails(self):
        view = view_from(bench_registry(full=0.0))
        results = run_gates(self.specs(), view)
        assert results[0].status == "fail"
        assert "zero" in results[0].detail

    def test_missing_metric_fails_not_passes(self):
        registry = MetricsRegistry()
        registry.gauge("repro_bench_hits", "").labels().set(1)
        results = run_gates(self.specs(), view_from(registry))
        assert results[0].status == "fail"
        assert "no metric matches" in results[0].detail

    def test_ambiguous_selector_fails(self):
        registry = bench_registry()
        specs = parse_gate_specs(
            {
                "gate": [
                    {
                        "name": "ambiguous",
                        "metric": "repro_bench_evaluate_seconds",
                        "op": ">",
                        "threshold": 0,
                    }
                ]
            }
        )
        results = run_gates(specs, view_from(registry))
        assert results[0].status == "fail"
        assert "ambiguous" in results[0].detail

    def test_histogram_percentile_gate(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_phase_latency_seconds", "", buckets=(0.001, 0.01, 0.1)
        ).labels()
        for __ in range(100):
            histogram.observe(0.005)
        specs = parse_gate_specs(
            {
                "gate": [
                    {
                        "name": "p99-bounded",
                        "metric": "repro_phase_latency_seconds",
                        "percentile": 99,
                        "op": "<",
                        "threshold": 0.1,
                    }
                ]
            }
        )
        results = run_gates(specs, view_from(registry))
        assert results[0].status == "pass"
        assert 0.001 <= results[0].value <= 0.01

    def test_histogram_without_percentile_fails(self):
        registry = MetricsRegistry()
        registry.histogram(
            "repro_phase_latency_seconds", "", buckets=(0.001,)
        ).labels().observe(0.0005)
        specs = parse_gate_specs(
            {
                "gate": [
                    {
                        "name": "histogram-needs-percentile",
                        "metric": "repro_phase_latency_seconds",
                        "op": "<",
                        "threshold": 1,
                    }
                ]
            }
        )
        results = run_gates(specs, view_from(registry))
        assert results[0].status == "fail"
        assert "percentile" in results[0].detail


METRIC_THRESHOLD_TEXT = """
[[gate]]
name = "every-lossy-window-degraded"
metric = "repro_windows_total"
labels = { mode = "degraded" }
op = "=="
threshold = { metric = "repro_windows_total", labels = { mode = "lossy" } }
"""


class TestMetricThreshold:
    """``threshold = { metric = ..., labels = ... }`` compares two samples
    as they are."""

    def windows(self, **counts: float) -> MetricsView:
        registry = MetricsRegistry()
        family = registry.counter("repro_windows_total", "", ("mode",))
        for mode, count in counts.items():
            family.labels(mode=mode).inc(count)
        return view_from(registry)

    def run(self, view: MetricsView):
        [result] = run_gates(
            parse_gate_specs(_parse_toml_subset(METRIC_THRESHOLD_TEXT)), view
        )
        return result

    def test_equal_samples_pass(self):
        result = self.run(self.windows(degraded=6, lossy=6))
        assert result.status == "pass"
        assert result.detail == "6 == 6"
        assert result.gate.describe() == (
            "repro_windows_total{mode=degraded} == "
            "repro_windows_total{mode=lossy}"
        )

    def test_unequal_samples_fail(self):
        result = self.run(self.windows(degraded=5, lossy=6))
        assert result.status == "fail"
        assert result.detail == "5 == 6"

    def test_both_zero_pass(self):
        # Unlike a [gate.baseline] ratio, a zero threshold sample is a
        # value like any other.
        assert self.run(self.windows(degraded=0, lossy=0)).status == "pass"

    def test_missing_threshold_sample_fails(self):
        result = self.run(self.windows(degraded=0))
        assert result.status == "fail"
        assert "no metric matches repro_windows_total{mode=lossy}" in (
            result.detail
        )

    def test_fallback_parser_reads_one_label_threshold_table(self):
        data = _parse_toml_subset(METRIC_THRESHOLD_TEXT)
        assert data["gate"][0]["threshold"] == {
            "metric": "repro_windows_total",
            "labels": {"mode": "lossy"},
        }
        tomllib = pytest.importorskip("tomllib")
        assert data == tomllib.loads(METRIC_THRESHOLD_TEXT)

    def test_threshold_must_be_number_or_table(self):
        with pytest.raises(ValueError, match="threshold"):
            parse_gate_specs(
                {
                    "gate": [
                        {"name": "g", "metric": "m", "op": "<",
                         "threshold": "1"}
                    ]
                }
            )


class TestRendering:
    def test_table_shows_status_and_footer(self):
        results = run_gates(
            parse_gate_specs(_parse_toml_subset(SPEC_TEXT)),
            view_from(bench_registry()),
        )
        table = render_gate_table(results)
        assert "PASS" in table
        assert "2 passed, 0 failed of 2 gate(s)" in table


class TestMetricsViewFiles:
    def test_from_files_merges_documents(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        registry_a = MetricsRegistry()
        registry_a.gauge("repro_bench_hits", "").labels().set(1)
        registry_b = MetricsRegistry()
        registry_b.gauge("repro_bench_misses", "").labels().set(2)
        a.write_text(json.dumps(to_json_dict(registry_a)))
        b.write_text(
            json.dumps(
                {
                    "command": "overhead",
                    "seed": 0,
                    "results": {"metrics": to_json_dict(registry_b)},
                }
            )
        )
        view = MetricsView.from_files([str(a), str(b)])
        names = {entry["name"] for entry in view.entries}
        assert names == {"repro_bench_hits", "repro_bench_misses"}
