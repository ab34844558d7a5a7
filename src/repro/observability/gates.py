"""Obligation-style release gates evaluated against exported metrics.

A gate spec turns "world-stop p99 < 5 ms" or "WAL overhead < 2x memory"
from an ad-hoc CI shell snippet into a declarative obligation::

    [[gate]]
    name = "incremental-beats-full"
    metric = "repro_bench_evaluate_seconds"
    labels = { mode = "incremental" }
    op = "<"
    threshold = 1.0
    [gate.baseline]
    metric = "repro_bench_evaluate_seconds"
    labels = { mode = "full" }

Semantics:

* ``metric`` (+ optional ``labels`` selector) picks a sample from the
  metrics JSON (:mod:`repro.observability.export` schema).  The selector
  must match exactly one entry; zero or many matches fail the gate —
  a gate over a metric that was never exported is a violation, not a
  silent pass.
* ``percentile`` (e.g. ``99`` or ``0.99``) reads ``pNN`` from a
  histogram entry (recomputed from the bucket counts when the canned
  p50/p95/p99 don't cover it).
* ``[gate.baseline]`` names a second sample; the compared value becomes
  the ratio ``value / baseline`` (so ``op="<" threshold=2.0`` states
  "under 2x the baseline").  A zero baseline fails the gate.
* ``threshold`` is a number, or a table naming another sample
  (``threshold = { metric = "...", labels = { k = "v" } }``) whose value
  is compared as it is, zero included: ``degraded == lossy`` holds when
  both are 0.  A threshold sample that is missing fails the gate.
* ``op`` is one of ``< <= > >= == !=``; the gate passes when
  ``compared OP threshold`` holds.

The runner (``repro gates run SPEC --metrics FILE...``) loads one or
more metrics JSON files (raw exports or CLI/bench envelopes), evaluates
every gate, prints a pass/fail table, and exits nonzero on violation.

A campaign (:class:`repro.injection.CampaignResult`) builds the same
``[[gate]]`` tables in Python, with thresholds from its config, and runs
them over the registry of its run through :func:`parse_gate_specs` and
:func:`run_gates`.

TOML parsing uses :mod:`tomllib` where available (python >= 3.11) and
falls back to a minimal built-in parser covering the subset the gate
format needs (``[[gate]]`` array tables, sub-tables, inline tables,
strings/numbers/booleans) — no third-party dependency either way.  It
splits an inline table on every comma, so a table nested in an inline
table (a threshold's ``labels``) holds at most one key there.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

try:  # python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI
    tomllib = None

from repro.observability.export import metric_samples
from repro.observability.registry import Histogram

__all__ = [
    "GateSpec",
    "GateResult",
    "MetricsView",
    "load_gate_specs",
    "parse_gate_specs",
    "run_gates",
    "render_gate_table",
]

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class _Selector:
    """One metric lookup: name + label filter + optional percentile."""

    metric: str
    labels: tuple[tuple[str, str], ...] = ()
    percentile: Optional[float] = None

    @classmethod
    def from_table(cls, table: dict, context: str) -> "_Selector":
        metric = table.get("metric")
        if not isinstance(metric, str) or not metric:
            raise ValueError(f"{context}: 'metric' (string) is required")
        labels = table.get("labels", {})
        if not isinstance(labels, dict):
            raise ValueError(f"{context}: 'labels' must be a table")
        percentile = table.get("percentile")
        if percentile is not None:
            percentile = _normalize_percentile(percentile, context)
        return cls(
            metric=metric,
            labels=tuple(sorted((str(k), str(v)) for k, v in labels.items())),
            percentile=percentile,
        )

    def describe(self) -> str:
        text = self.metric
        if self.labels:
            inner = ",".join(f"{k}={v}" for k, v in self.labels)
            text += "{" + inner + "}"
        if self.percentile is not None:
            text += f" p{self.percentile * 100:g}"
        return text


def _normalize_percentile(value: object, context: str) -> float:
    try:
        q = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"{context}: percentile must be a number") from None
    if q > 1.0:  # "99" means p99
        q /= 100.0
    if not 0.0 < q <= 1.0:
        raise ValueError(f"{context}: percentile out of range: {value}")
    return q


@dataclass(frozen=True)
class GateSpec:
    """One declarative obligation from a ``[[gate]]`` table."""

    name: str
    value: _Selector
    op: str
    #: A number, or the sample whose value is the threshold.
    threshold: Union[float, _Selector]
    baseline: Optional[_Selector] = None

    def describe(self) -> str:
        lhs = self.value.describe()
        if self.baseline is not None:
            lhs = f"{lhs} / {self.baseline.describe()}"
        if isinstance(self.threshold, _Selector):
            return f"{lhs} {self.op} {self.threshold.describe()}"
        return f"{lhs} {self.op} {self.threshold:g}"


@dataclass
class GateResult:
    """Outcome of evaluating one gate against the metrics view."""

    gate: GateSpec
    status: str  # "pass" | "fail"
    value: Optional[float] = None
    compared: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.gate.name,
            "obligation": self.gate.describe(),
            "status": self.status,
            "value": self.value,
            "compared": self.compared,
            "detail": self.detail,
        }


class MetricsView:
    """Metric entries from one or more export documents, queryable."""

    def __init__(self, entries: Sequence[dict]) -> None:
        self.entries = list(entries)

    @classmethod
    def from_files(cls, paths: Sequence[str]) -> "MetricsView":
        entries: list[dict] = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
            if not isinstance(payload, dict):
                raise ValueError(f"{path}: expected a JSON object")
            entries.extend(metric_samples(payload))
        return cls(entries)

    def lookup(self, selector: _Selector) -> float:
        wanted = dict(selector.labels)
        matches = [
            entry
            for entry in self.entries
            if entry.get("name") == selector.metric
            and all(
                str(entry.get("labels", {}).get(k)) == v
                for k, v in wanted.items()
            )
        ]
        if not matches:
            raise LookupError(f"no metric matches {selector.describe()}")
        if len(matches) > 1:
            labels = [entry.get("labels", {}) for entry in matches]
            raise LookupError(
                f"{selector.describe()} is ambiguous: "
                f"{len(matches)} entries match ({labels}); "
                "tighten the labels selector"
            )
        entry = matches[0]
        if entry.get("kind") == "histogram":
            return self._histogram_value(entry, selector)
        if selector.percentile is not None:
            raise LookupError(
                f"{selector.describe()}: percentile requested but "
                f"{selector.metric} is a {entry.get('kind')}"
            )
        value = entry.get("value")
        if not isinstance(value, (int, float)):
            raise LookupError(f"{selector.describe()}: entry has no value")
        return float(value)

    @staticmethod
    def _histogram_value(entry: dict, selector: _Selector) -> float:
        if selector.percentile is None:
            raise LookupError(
                f"{selector.describe()}: histogram gates need 'percentile'"
            )
        canned = {0.50: "p50", 0.95: "p95", 0.99: "p99"}.get(
            selector.percentile
        )
        if canned and isinstance(entry.get(canned), (int, float)):
            return float(entry[canned])
        bounds = entry.get("buckets")
        counts = entry.get("counts")
        if not bounds or not counts:
            raise LookupError(
                f"{selector.describe()}: entry carries no bucket data"
            )
        histogram = Histogram(bounds)
        with histogram._lock:
            for index, count in enumerate(counts):
                histogram._counts[index] = int(count)
            histogram._count = sum(int(c) for c in counts)
            histogram._sum = float(entry.get("sum", 0.0))
        return histogram.percentile(selector.percentile)


# --------------------------------------------------------------------------
# Spec loading


def parse_gate_specs(data: dict) -> list[GateSpec]:
    """Build :class:`GateSpec` objects from a parsed TOML document."""
    tables = data.get("gate")
    if not isinstance(tables, list) or not tables:
        raise ValueError("gate spec must contain at least one [[gate]] table")
    specs: list[GateSpec] = []
    for index, table in enumerate(tables):
        context = f"[[gate]] #{index + 1}"
        if not isinstance(table, dict):
            raise ValueError(f"{context}: expected a table")
        name = table.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{context}: 'name' (string) is required")
        context = f"gate {name!r}"
        op = table.get("op")
        if op not in _OPS:
            raise ValueError(
                f"{context}: 'op' must be one of {sorted(_OPS)}, got {op!r}"
            )
        threshold = table.get("threshold")
        if isinstance(threshold, dict):
            threshold = _Selector.from_table(threshold, f"{context} threshold")
        elif isinstance(threshold, (int, float)) and not isinstance(
            threshold, bool
        ):
            threshold = float(threshold)
        else:
            raise ValueError(
                f"{context}: 'threshold' (number or metric table) is required"
            )
        value = _Selector.from_table(table, context)
        baseline = None
        if "baseline" in table:
            if not isinstance(table["baseline"], dict):
                raise ValueError(f"{context}: [gate.baseline] must be a table")
            baseline = _Selector.from_table(
                table["baseline"], f"{context} baseline"
            )
        specs.append(
            GateSpec(
                name=name,
                value=value,
                op=op,
                threshold=threshold,
                baseline=baseline,
            )
        )
    return specs


def load_gate_specs(path: str) -> list[GateSpec]:
    """Load ``[[gate]]`` specs from a TOML file."""
    with open(path, "rb") as stream:
        raw = stream.read()
    if tomllib is not None:
        data = tomllib.loads(raw.decode("utf-8"))
    else:
        data = _parse_toml_subset(raw.decode("utf-8"))
    return parse_gate_specs(data)


# --------------------------------------------------------------------------
# Evaluation


def _evaluate(spec: GateSpec, view: MetricsView) -> GateResult:
    try:
        value = view.lookup(spec.value)
    except LookupError as error:
        return GateResult(spec, "fail", detail=str(error))
    compared = value
    if spec.baseline is not None:
        try:
            base = view.lookup(spec.baseline)
        except LookupError as error:
            return GateResult(spec, "fail", value=value, detail=str(error))
        if base == 0:
            return GateResult(
                spec,
                "fail",
                value=value,
                detail=f"baseline {spec.baseline.describe()} is zero",
            )
        compared = value / base
    threshold = spec.threshold
    if isinstance(threshold, _Selector):
        try:
            threshold = view.lookup(threshold)
        except LookupError as error:
            return GateResult(spec, "fail", value=value, detail=str(error))
    ok = _OPS[spec.op](compared, threshold)
    detail = f"{compared:g} {spec.op} {threshold:g}"
    return GateResult(
        spec,
        "pass" if ok else "fail",
        value=value,
        compared=compared,
        detail=detail,
    )


def run_gates(
    specs: Sequence[GateSpec], view: MetricsView
) -> list[GateResult]:
    """Evaluate every gate; order preserved from the spec file."""
    return [_evaluate(spec, view) for spec in specs]


def render_gate_table(results: Sequence[GateResult]) -> str:
    """Human-readable pass/fail table, one row per gate."""
    rows = [("gate", "obligation", "status", "detail")]
    for result in results:
        rows.append(
            (
                result.gate.name,
                result.gate.describe(),
                result.status.upper(),
                result.detail,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(
                (
                    row[0].ljust(widths[0]),
                    row[1].ljust(widths[1]),
                    row[2].ljust(widths[2]),
                    row[3],
                )
            ).rstrip()
        )
        if index == 0:
            lines.append("-" * (sum(widths) + 6 + max(len(row[3]), 0)))
    failed = sum(1 for r in results if r.status == "fail")
    lines.append(
        f"{len(results) - failed} passed, {failed} failed "
        f"of {len(results)} gate(s)"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Minimal TOML-subset parser (python 3.10 fallback; no tomllib, no deps).
# Covers exactly what gate specs use: [[array.tables]], [sub.tables],
# key = "string" | number | true/false | { inline = "table" }.


def _parse_toml_scalar(text: str, line_number: int):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        body = text[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ValueError(f"line {line_number}: unterminated inline table")
        inner = text[1:-1].strip()
        table: dict = {}
        if inner:
            for part in inner.split(","):
                if "=" not in part:
                    raise ValueError(
                        f"line {line_number}: bad inline table entry {part!r}"
                    )
                key, value = part.split("=", 1)
                table[key.strip()] = _parse_toml_scalar(value, line_number)
        return table
    try:
        if any(c in text for c in ".eE") and not text.startswith("0x"):
            return float(text)
        return int(text, 0)
    except ValueError:
        raise ValueError(
            f"line {line_number}: unsupported TOML value {text!r} "
            "(fallback parser reads strings, numbers, booleans, "
            "and inline tables)"
        ) from None


def _parse_toml_subset(text: str) -> dict:
    """Parse the TOML subset used by gate specs (3.10 fallback)."""
    root: dict = {}
    current = root
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise ValueError(f"line {line_number}: bad table header")
            path = line[2:-2].strip().split(".")
            parent = root
            for part in path[:-1]:
                parent = _descend(parent, part, line_number)
            array = parent.setdefault(path[-1], [])
            if not isinstance(array, list):
                raise ValueError(
                    f"line {line_number}: {path[-1]!r} is not an array table"
                )
            current = {}
            array.append(current)
        elif line.startswith("["):
            if not line.endswith("]"):
                raise ValueError(f"line {line_number}: bad table header")
            path = line[1:-1].strip().split(".")
            parent = root
            # A [gate.labels] header after [[gate]] attaches to the most
            # recent element of the 'gate' array, per TOML semantics.
            for part in path[:-1]:
                parent = _descend(parent, part, line_number)
            table = parent.setdefault(path[-1], {})
            if not isinstance(table, dict):
                raise ValueError(
                    f"line {line_number}: {path[-1]!r} is not a table"
                )
            current = table
        else:
            if "=" not in line:
                raise ValueError(
                    f"line {line_number}: expected 'key = value', "
                    f"got {raw_line!r}"
                )
            key, value = line.split("=", 1)
            # Strip trailing comments outside strings (best effort: gate
            # specs keep values and comments on simple lines).
            value = value.strip()
            if not value.startswith('"') and "#" in value:
                value = value.split("#", 1)[0].strip()
            current[key.strip()] = _parse_toml_scalar(value, line_number)
    return root


def _descend(parent: dict, part: str, line_number: int) -> dict:
    node = parent.get(part)
    if isinstance(node, list):
        if not node:
            raise ValueError(
                f"line {line_number}: array table {part!r} is empty"
            )
        node = node[-1]
    elif node is None:
        node = parent.setdefault(part, {})
    if not isinstance(node, dict):
        raise ValueError(f"line {line_number}: {part!r} is not a table")
    return node
