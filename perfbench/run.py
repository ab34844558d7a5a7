#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are information only (raw, un-normalised figures and any
failures).  A run whose outputs are wrong exits with status 1.

``--workload all`` runs every workload in turn (untraced, or traced with
``--trace 1``), each in its own process, checks each one's outputs and
prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "durable-fleet", "remote")


def _load_package() -> None:
    """Import the package from this checkout's ``src/`` (and nowhere else)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {ROOT / 'src'}")


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run_one(args) -> int:
    from perfbench import fleet, remote, table1
    from perfbench.harness import Run, median, peak_rss_mb
    from perfbench.layers import layer_metrics, make_tracer

    declared = _declared()
    section = "per_layer" if args.trace else "end_to_end"
    units = {item["name"]: item["unit"] for item in declared[section]}
    measure = {
        "table1": table1.measure,
        "durable-fleet": fleet.measure,
        "remote": remote.measure,
    }[args.workload]
    run = Run(args.seconds, trace=bool(args.trace))
    try:
        if args.trace:
            tracer = make_tracer()
            outcome = measure(run, args.seed, tracer)
            values = layer_metrics(
                tracer,
                iterations=outcome.pop("traced_iterations"),
                counts=outcome.pop("counts"),
                setup_tracer=outcome.pop("setup_tracer", None),
            )
            values.update(outcome)
            values["error_rate"] = run.error_rate
            run.info["spans_recorded"] = tracer.spans_recorded
            tracer.write(Path.cwd() / ".perfbench" / f"spans-{args.workload}.jsonl")
        else:
            values = measure(run, args.seed, None)
            values["setup_s"] = median(run.setup)
            values["peak_rss_mb"] = peak_rss_mb()
        run.info["calibration_s"] = median(run.calibration)
        run.info["error_rate"] = run.error_rate
    finally:
        run.cleanup()
    if sorted(values) != sorted(units):
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json "
            f"{section} {sorted(units)}"
        )
    for key, value in run.info.items():
        print(f"# {key}: {value}")
    for failure in run.failures[:20]:
        print(f"# FAILED: {failure}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


def _run_all(args) -> int:
    declared = _declared()
    status = 0
    rows = []
    better = {
        item["name"]: item["better"]
        for item in declared["end_to_end"] + declared["per_layer"]
    }
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        print(completed.stdout, end="")
        print(completed.stderr, end="", file=sys.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0:
            status = 1
        if completed.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
    for workload, result in rows:
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:38s} {metric['value']:>14.6g} {metric['unit']:10s}"
                  f" ({better[name]} is better)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    try:
        _load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    try:
        return _run_one(args)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
