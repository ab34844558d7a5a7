"""The one bench harness behind ``repro overhead`` and ``repro scaling``.

A bench is a function that builds its detection stack through
:class:`~repro.detection.session.DetectionSession`, runs a seeded
workload, and records what it measured as ``repro_bench_*`` gauges in a
:class:`~repro.observability.registry.MetricsRegistry`.  Everything
downstream reads only that registry: :func:`render_registry` prints it as
text tables, the CLI writes it as the ``results.metrics`` block of its
JSON envelope, and the gate specs under ``.github/gates*`` select from
the same samples.
"""

from __future__ import annotations

import gc
from typing import Mapping

from repro._tables import render_table
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.threads import ThreadKernel
from repro.observability.registry import MetricsRegistry

__all__ = ["BACKENDS", "make_kernel", "record", "render_registry", "run_kernel"]

BACKENDS: tuple[str, ...] = ("sim", "threads")


def make_kernel(backend: str, seed: int):
    """A seeded sim kernel, or a fast-clock thread kernel."""
    if backend == "sim":
        return SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    if backend == "threads":
        return ThreadKernel(time_scale=0.002)
    raise ValueError(f"unknown backend {backend!r}; use 'sim' or 'threads'")


def run_kernel(kernel, horizon: float) -> None:
    """Run to ``horizon`` with the collector paused.

    Collector pauses are the dominant noise source at millisecond
    operation timings, so they are kept out of the measured window.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.run(until=horizon, max_steps=50_000_000)
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()
    kernel.raise_failures()


def record(
    registry: MetricsRegistry, labels: Mapping[str, object], **values: float
) -> None:
    """Set ``repro_bench_<name>{labels}`` to each keyword's value."""
    names = tuple(labels)
    for name, value in values.items():
        registry.gauge(f"repro_bench_{name}", "", names).labels(
            **labels
        ).set(value)


def _sort_key(values: tuple[str, ...]) -> tuple:
    def natural(value: str) -> tuple:
        try:
            return (0, float(value), "")
        except ValueError:
            return (1, 0.0, value)

    return tuple(natural(value) for value in values)


def _format(value) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def render_registry(registry: MetricsRegistry, title: str) -> str:
    """Every gauge in ``registry`` as text: one table per label-name set,
    one row per label set, one column per metric."""
    groups: dict[tuple[str, ...], dict[str, dict[tuple, float]]] = {}
    for family in registry.collect():
        columns = groups.setdefault(family.labelnames, {})
        for labels, child in family.samples():
            key = tuple(labels[name] for name in family.labelnames)
            columns.setdefault(family.name, {})[key] = child.value
    tables = []
    for labelnames, columns in groups.items():
        keys = sorted(
            {key for cells in columns.values() for key in cells}, key=_sort_key
        )
        rows = [
            list(key) + [_format(cells.get(key)) for cells in columns.values()]
            for key in keys
        ]
        headers = list(labelnames) + [
            name.removeprefix("repro_bench_") for name in columns
        ]
        by = ", ".join(labelnames) or "run"
        tables.append(render_table(headers, rows, title=f"{title} (by {by})"))
    return "\n\n".join(tables)
