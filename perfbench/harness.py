"""Run loop, clocks, statistics and bookkeeping shared by the workloads."""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro import Delay

from perfbench import calibration

__all__ = [
    "Iteration",
    "Run",
    "Section",
    "Tally",
    "clock",
    "idle_pacer",
    "instrument",
    "median",
    "peak_rss_mb",
    "percentile",
    "run_kernel",
    "spawn_workload",
    "timed",
]

#: The clock of every timed section: this thread's CPU time.  On a
#: shared machine, wall time also counts the stretches the process sat
#: descheduled, which come and go with other tenants' load and swamp the
#: tail percentiles; CPU time leaves them out.  (The run's time budget
#: is wall time.)
clock = thread_time


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 < q < 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spawn_workload(
    kernel, bodies: Iterable[tuple[str, Iterator]], on_done: Callable[[], None]
) -> None:
    """Spawn named process bodies; call ``on_done`` when the last ends."""
    bodies = list(bodies)
    remaining = [len(bodies)]

    def finishing(body):
        yield from body
        remaining[0] -= 1
        if remaining[0] == 0:
            on_done()

    for name, body in bodies:
        kernel.spawn(finishing(body), name)


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Call ``fn``; return its seconds by :data:`clock` and its result."""
    started = clock()
    result = fn()
    return clock() - started, result


def run_kernel(kernel) -> float:
    """Run a sim kernel until nothing is left to run; return its seconds
    by :data:`clock`."""
    seconds, __ = timed(lambda: kernel.run(max_steps=None))
    kernel.raise_failures()
    return seconds


def idle_pacer(
    kernel,
    *,
    interval: float,
    offset: float = 0.0,
    done: Callable[[], bool] = lambda: False,
    rounds: Optional[int] = None,
) -> Iterator:
    """A process that wakes on a checking schedule and does nothing.

    The plain run of a pair spawns one where the detected run has a
    pacing process (a session shard or a capturing client), at the same
    position in the spawn order.  The seeded scheduler then sees the same
    ready sets at every step in both runs, so the workload follows the
    identical interleaving and the pair differs only by the detection
    work.
    """
    remaining = rounds
    while remaining is None or remaining > 0:
        now = kernel.now()
        step = math.floor((now - offset) / interval + 1e-9) + 1
        yield Delay(max(0.0, offset + step * interval - now))
        if done():
            return
        if remaining is not None:
            remaining -= 1


class Section(NamedTuple):
    """One timed section: its seconds by :data:`clock`, the same converted
    to reference seconds, and what the section returned besides."""

    seconds: float
    ref: float
    value: object


class Iteration(NamedTuple):
    index: int
    #: Traced iterations alternate with untraced pairs in a traced run.
    traced: bool
    #: Which half of the pair runs first alternates too.
    plain_first: bool


class Run:
    """One benchmark process: the time budget, calibration and set-up
    samples, scratch files and the correctness ledger."""

    #: Iterations run even when the time budget is already spent.
    MIN_ITERATIONS = 5

    def __init__(self, seconds: float, *, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace
        self.calibration: list[float] = []
        #: Set-up samples, reference seconds (their median is ``setup_s``).
        self.setup: list[float] = []
        #: Windows evaluated (the ``attempted`` count of the result).
        self.attempted = 0
        #: One line per failure (the ``failed`` count of the result).
        self.failures: list[str] = []
        #: Figures printed for information only, never part of the result.
        self.info: dict[str, object] = {}
        root = Path.cwd() / ".perfbench"
        root.mkdir(exist_ok=True)
        self._scratch = Path(
            tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=root)
        )

    # ------------------------------------------------------------- ledger

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def error_rate(self) -> float:
        return len(self.failures) / max(self.attempted, 1)

    # ------------------------------------------------------------- timing

    def iterations(self) -> Iterator[Iteration]:
        """Yield iterations until the (wall-clock) time budget is spent,
        with the garbage collector off inside them (see :meth:`quiet`)."""
        started = perf_counter()
        index = 0
        with self.quiet():
            while (
                index < self.MIN_ITERATIONS
                or perf_counter() - started < self.seconds
            ):
                yield Iteration(
                    index,
                    traced=self.trace and (index // 2) % 2 == 1,
                    plain_first=index % 2 == 0,
                )
                index += 1
                gc.collect()
        self.info["iterations"] = index

    @staticmethod
    @contextmanager
    def quiet() -> Iterator[None]:
        """Collect garbage, then keep the collector off, so its pauses
        never land in a timed section; the caller collects between
        sections."""
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def bracketed(self, sections: Sequence[Callable]) -> list[Section]:
        """Run each section between calibration chunks.

        A section is a zero-argument callable returning ``(seconds,
        value)``; its reference seconds use the mean of the chunks either
        side of it.
        """
        out = []
        before = self._calibrate()
        for section in sections:
            seconds, value = section()
            after = self._calibrate()
            reference = calibration.to_reference(seconds, (before + after) / 2)
            out.append(Section(seconds, reference, value))
            before = after
        return out

    def paired(
        self,
        iteration: Iteration,
        *,
        set_up: Callable[[], object],
        plain: Callable[[], tuple[float, object]],
        detected: Callable[[object], tuple[float, object]],
        after: Sequence[Callable[[object], tuple[float, object]]] = (),
    ) -> tuple[object, Section, Section, list[Section]]:
        """One pair, bracketed: ``set_up()`` builds the detected run (its
        time is a ``setup_s`` sample), then ``plain()`` and
        ``detected(built)`` in the iteration's order, then each of
        ``after(built)``.  Returns what ``set_up`` built and the
        sections."""
        built: list[object] = []

        def setup_section():
            seconds, value = timed(set_up)
            built.append(value)
            return seconds, value

        halves = [plain, lambda: detected(built[0])]
        if not iteration.plain_first:
            halves.reverse()
        setup, first, second, *rest = self.bracketed(
            [setup_section, *halves]
            + [lambda step=step: step(built[0]) for step in after]
        )
        self.setup.append(setup.ref)
        if not iteration.plain_first:
            first, second = second, first
        return built[0], first, second, rest

    def _calibrate(self) -> float:
        seconds = calibration.chunk()
        self.calibration.append(seconds)
        return seconds

    # -------------------------------------------------------------- files

    def scratch_dir(self, name: str) -> Path:
        """An empty directory for this run (emptied if it exists)."""
        path = self._scratch / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)


def instrument(iteration: Iteration, tracer, probe=None):
    """The context a detected section runs in: the tracer on traced
    iterations, else the probe in an untraced run, else nothing."""
    if iteration.traced:
        return tracer
    if tracer is None and probe is not None:
        return probe
    return nullcontext()


class Tally:
    """Per-iteration figures of one run, reduced to its result metrics.

    Rates and ratios are collected per iteration and reported as
    medians, split by whether the iteration was traced; window latencies
    are pooled across iterations in reference seconds.
    """

    def __init__(self) -> None:
        self.ratios: dict[bool, list[float]] = {True: [], False: []}
        self.event_rates: dict[bool, list[float]] = {True: [], False: []}
        self.op_rates: list[float] = []
        #: The same rates in raw (un-normalised) seconds, for information.
        self.raw_rates: dict[str, list[float]] = {"ops": [], "events": []}
        self.windows: list[float] = []
        self.raw_windows: list[float] = []
        #: Rebuild-and-recover seconds (reference), untraced iterations.
        self.recoveries: list[float] = []
        #: Fault detection latencies, virtual seconds.
        self.detection: list[float] = []
        #: Totals of program counters over traced iterations.
        self.counts: dict[str, float] = {}
        self.traced_iterations = 0

    def pair(
        self,
        iteration: Iteration,
        *,
        ratio: float,
        events: int,
        events_over: tuple[float, float],
        ops: int,
        ops_over: tuple[float, float],
    ) -> None:
        """One iteration's figures.  ``events_over`` and ``ops_over`` are
        the ``(seconds, reference seconds)`` the events and the monitor
        operations are counted over."""
        self.ratios[iteration.traced].append(ratio)
        self.event_rates[iteration.traced].append(events / events_over[1])
        if iteration.traced:
            self.traced_iterations += 1
            return
        self.op_rates.append(ops / ops_over[1])
        self.raw_rates["ops"].append(ops / ops_over[0])
        self.raw_rates["events"].append(events / events_over[0])

    def window_latencies(self, samples: Sequence[float], section: Section) -> None:
        """Add latencies measured inside ``section``, converting them with
        its calibration."""
        self.raw_windows.extend(samples)
        scale = section.ref / section.seconds
        self.windows.extend(sample * scale for sample in samples)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def count_session(self, session) -> None:
        """Add a traced session's own counters."""
        self.count("history.staged_flushes", session.staged_flushes)
        self.count("engine.windows_evaluated", session.evaluations_run)
        self.count("incremental_hits", session.incremental_hits)
        self.count("supervisor.check_failures", session.check_failures)
        self.count(
            "supervisor.retries",
            sum(shard.supervisor.retries_performed for shard in session.shards),
        )

    def end_to_end(self, run: Run) -> dict[str, float]:
        """The workload's end-to-end metrics (``setup_s`` and
        ``peak_rss_mb`` are added by the caller)."""
        run.info["window_samples"] = len(self.windows)
        run.info["window_latency_p99_ms"] = 1e3 * percentile(self.windows, 0.99)
        run.info["raw.monitor_ops_per_s"] = median(self.raw_rates["ops"])
        run.info["raw.events_checked_per_s"] = median(self.raw_rates["events"])
        for name, q in (("p50", 0.5), ("p90", 0.9)):
            run.info[f"raw.window_latency_{name}_ms"] = 1e3 * percentile(
                self.raw_windows, q
            )
        self._info(run)
        return {
            "overhead_ratio": median(self.ratios[False]),
            "monitor_ops_per_s": median(self.op_rates),
            "events_checked_per_s": median(self.event_rates[False]),
            "window_latency_p50_ms": 1e3 * percentile(self.windows, 0.5),
            "window_latency_p90_ms": 1e3 * percentile(self.windows, 0.9),
        }

    def traced_outcome(self, run: Run, metrics: Callable[[], object]) -> dict:
        """What a traced run reports besides the spans: the tracing
        overhead, recovery and detection latency, and one metrics
        snapshot (``metrics()`` returns a registry)."""
        started = clock()
        registry = metrics()
        snapshot_s = clock() - started
        self._info(run)
        outcome = {
            "counts": self.counts,
            "traced_iterations": self.traced_iterations,
            "observability.snapshot_s": snapshot_s,
            "observability.series": sum(
                len(family.samples()) for family in registry.collect()
            ),
            "trace.overhead_ratio_traced": median(self.ratios[True]),
            "trace.overhead_ratio_untraced": median(self.ratios[False]),
            "trace.events_checked_per_s_traced": median(self.event_rates[True]),
            "trace.events_checked_per_s_untraced": median(
                self.event_rates[False]
            ),
        }
        if self.recoveries:
            outcome["recover_s"] = median(self.recoveries)
        if self.detection:
            outcome["detection_latency_p50_vs"] = percentile(self.detection, 0.5)
            outcome["detection_latency_max_vs"] = max(self.detection)
        return outcome

    def _info(self, run: Run) -> None:
        run.info["pairs"] = len(self.ratios[False]) + len(self.ratios[True])
        if self.recoveries:
            run.info["recover_s"] = median(self.recoveries)
        if self.detection:
            run.info["detection_latency_p50_vs"] = percentile(self.detection, 0.5)
            run.info["detection_latency_max_vs"] = max(self.detection)
