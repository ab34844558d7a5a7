"""Evaluation pools: per-shard phase-2 offload, threads or processes.

A :class:`~repro.detection.cluster.DetectionCluster` amortised the
world-stop (phase 1) — but phase-2 rule evaluation still competed for one
interpreter: the per-shard worker *threads* of
:class:`ThreadEvaluationPool` overlap evaluation with capture, yet on
CPython every checker instruction still serialises behind the GIL, so N
shards buy overlap, not parallelism.

:class:`ProcessEvaluationPool` escapes the GIL: one **evaluator worker
process** per shard (stdlib ``multiprocessing``, spawn-safe — workers are
launched from module-level code and receive no unpicklable state).  Each
worker holds the shard's *shadow* evaluation state — Algorithm-1 carried
checking lists, Algorithm-2 cumulative counters, Algorithm-3 replay
machines — rebuilt from rendered declarations and the checkers'
``state_dict``/``restore_state`` surface, exactly like the detection
service's server-side shadow streams.  Captures cross the pipe as JSON
(the :mod:`repro.history.serialize` wire codecs — never pickle), reports
and updated checker state come back the same way, and the parent merges
them through the cluster's deterministic report order.

Fault model: a worker death (``kill -9``, OOM, crash) is detected on the
pipe, recorded as a ``"worker-death"`` :class:`SupervisorEvent` and a
breaker trip on the worker's own :class:`CircuitBreaker`, and the shard
*deterministically falls back to in-thread evaluation*: batches are
applied atomically (a reply is applied in full, or not at all), the
parent re-adopts the worker's checker state after every completed batch,
so the in-flight batch re-evaluates locally from exactly the state the
worker would have used — no window is lost, no report duplicated.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import threading
import time
from time import perf_counter
from typing import Callable, Optional

from repro.detection.config import DetectorConfig
from repro.detection.engine import CheckpointCapture, evaluate_capture
from repro.detection.reports import report_from_dict, report_to_dict
from repro.detection.supervision import CircuitBreaker, SupervisorEvent
from repro.history.serialize import (
    request_list_from_wire,
    request_list_to_wire,
    segment_from_dict,
    segment_to_json,
    state_from_dict,
    state_to_dict,
)

__all__ = [
    "EvaluationPool",
    "ThreadEvaluationPool",
    "ProcessEvaluationPool",
]


# ------------------------------------------------------------- pool base


class EvaluationPool:
    """One dispatch thread + job queue per shard.

    Each shard owns exactly one worker draining its own queue, so
    per-shard checker state (Algorithm-2 counters, replay state) is still
    mutated by a single thread — while different shards evaluate and
    capture concurrently.  Subclasses decide where the evaluation itself
    runs: on the dispatch thread (:class:`ThreadEvaluationPool`) or in a
    worker process it converses with (:class:`ProcessEvaluationPool`).
    """

    def __init__(self, shard_count: int) -> None:
        self._queues: list[queue.Queue] = [
            queue.Queue() for __ in range(shard_count)
        ]
        self.jobs_run = 0
        #: Exceptions that escaped a job (engine-level bugs; checker
        #: failures are already absorbed by the breakers inside the job).
        self.errors: list[Exception] = []
        #: Seconds each dispatch thread spent on-CPU (GIL-bound work:
        #: thread-pool evaluation, process-pool serialisation).
        self.dispatch_cpu: list[float] = [0.0] * shard_count
        #: Threads (by name) that outlived their close timeout.
        self.leaked: list[tuple[int, str]] = []
        self._threads: list[threading.Thread] = []
        for index, jobs in enumerate(self._queues):
            thread = threading.Thread(
                target=self._run,
                args=(index, jobs),
                name=f"shard-evaluate-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _run(self, index: int, jobs: queue.Queue) -> None:
        while True:
            job = jobs.get()
            try:
                if job is None:
                    return
                started = time.thread_time()
                try:
                    job()
                    self.jobs_run += 1
                except Exception as exc:  # noqa: BLE001 — surfaced via errors
                    self.errors.append(exc)
                finally:
                    self.dispatch_cpu[index] += time.thread_time() - started
            finally:
                jobs.task_done()

    # ------------------------------------------------------------ dispatch

    def submit(self, shard_index: int, job: Callable[[], object]) -> None:
        self._queues[shard_index].put(job)

    def submit_shard(self, shard) -> None:
        """Queue one captured checkpoint of ``shard`` for evaluation."""
        raise NotImplementedError

    def drain(self) -> None:
        """Block until every submitted evaluation has finished."""
        for jobs in self._queues:
            jobs.join()

    # ------------------------------------------------- registration hooks

    def entry_registered(self, shard, entry) -> None:
        """A monitor joined ``shard`` (threads: nothing to mirror)."""

    def entry_unregistered(self, shard, label: str) -> None:
        """A monitor left ``shard``."""

    def resync_shard(self, shard) -> None:
        """Shard state was rebuilt outside the pool (e.g. recovery)."""

    def warm_up(self, shards) -> None:
        """Pre-start backing workers (threads: already warm)."""

    # ----------------------------------------------------------- lifecycle

    def close(self, timeout: float = 5.0) -> list[tuple[int, str]]:
        """Stop the dispatch threads; surface anything that won't die.

        Returns ``(shard index, thread/worker name)`` for every worker
        still alive after its join timeout — the caller (the cluster)
        turns each into a ``"leak"`` :class:`SupervisorEvent` instead of
        silently abandoning a live thread.
        """
        for jobs in self._queues:
            jobs.put(None)
        leaked: list[tuple[int, str]] = []
        for index, thread in enumerate(self._threads):
            thread.join(timeout=timeout)
            if thread.is_alive():
                leaked.append((index, thread.name))
        leaked.extend(self._close_workers(timeout, {i for i, __ in leaked}))
        self.leaked.extend(leaked)
        return leaked

    def _close_workers(
        self, timeout: float, leaked_threads: set[int]
    ) -> list[tuple[int, str]]:
        """Subclass hook: shut down out-of-process workers."""
        return []


# ---------------------------------------------------------- thread plane


class ThreadEvaluationPool(EvaluationPool):
    """Phase-2 offload on worker threads (overlap, GIL-serialised)."""

    def submit_shard(self, shard) -> None:
        self.submit(shard.index, shard._evaluate_offloaded)


# --------------------------------------------------------- process plane


class _WorkerDied(Exception):
    """The evaluator worker process is gone (pipe closed mid-conversation)."""


class _WorkerHandle:
    """Parent-side face of one evaluator worker process."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.dead = False
        self.reason = ""
        #: Cumulative ``time.process_time()`` of the worker, as of its
        #: last evaluate reply — the true multi-core spend of this shard.
        self.cpu_seconds = 0.0
        #: One-strike breaker: a worker death trips it permanently, which
        #: is what makes the in-thread fallback deterministic (no
        #: half-open probe ever routes a later window back to a respawned
        #: worker mid-stream).
        self.breaker = CircuitBreaker(failure_threshold=1, cooldown=float("inf"))


class ProcessEvaluationPool(EvaluationPool):
    """Phase-2 evaluation in one worker process per shard (multi-core).

    The dispatch thread owns the whole pipe conversation — encode,
    send, receive, decode, apply — so shard state is still touched by
    one thread only, and ``drain()`` means what it always meant.
    """

    def __init__(self, shard_count: int, *, start_method: str = "spawn") -> None:
        ctx = multiprocessing.get_context(start_method)
        self._handles: list[_WorkerHandle] = []
        for index in range(shard_count):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_evaluator_worker_main,
                args=(child_conn,),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._handles.append(_WorkerHandle(process, parent_conn))
        #: ``(shard index, reason)`` per worker death observed.
        self.worker_deaths: list[tuple[int, str]] = []
        #: Windows re-evaluated in-thread after their worker died.
        self.windows_recovered = 0
        super().__init__(shard_count)

    @property
    def per_worker_cpu(self) -> list[float]:
        """Per-shard worker-process CPU seconds (parallel spend)."""
        return [handle.cpu_seconds for handle in self._handles]

    # ------------------------------------------------------------ dispatch

    def submit_shard(self, shard) -> None:
        # The batch is fixed *now*: captures taken by this phase 1 ride
        # this job, whatever lands in the engine afterwards rides the next.
        captures = shard.engine.take_pending_captures()
        self.submit(shard.index, lambda: self._evaluate_batch(shard, captures))

    def entry_registered(self, shard, entry) -> None:
        spec = entry.export_stream_spec()
        self.submit(
            shard.index,
            lambda: self._control(shard, {"op": "register", "stream": spec}),
        )

    def entry_unregistered(self, shard, label: str) -> None:
        self.submit(
            shard.index,
            lambda: self._control(shard, {"op": "unregister", "label": label}),
        )

    def resync_shard(self, shard) -> None:
        specs = [entry.export_stream_spec() for entry in shard.engine.entries]
        self.submit(
            shard.index,
            lambda: self._control(shard, {"op": "sync", "streams": specs}),
        )

    def warm_up(self, shards) -> None:
        # One ping per worker, through the dispatch threads: the parent
        # never blocks, but every worker has finished interpreter spawn
        # and imports by the time its first window arrives (otherwise the
        # first checkpoint pays several hundred ms of start-up latency).
        for shard in shards:
            self.submit(
                shard.index,
                lambda shard=shard: self._control(shard, {"op": "ping"}),
            )

    # ---------------------------------------------------------------- wire

    def _request(self, handle: _WorkerHandle, payload: str) -> dict:
        try:
            handle.conn.send_bytes(payload.encode("utf-8"))
            return json.loads(handle.conn.recv_bytes())
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise _WorkerDied(f"{type(exc).__name__}: {exc}") from exc

    def _control(self, shard, message: dict) -> None:
        handle = self._handles[shard.index]
        if handle.dead:
            return
        try:
            self._request(handle, json.dumps(message, separators=(",", ":")))
        except _WorkerDied as exc:
            self._record_death(shard, str(exc))

    def _record_death(self, shard, reason: str) -> None:
        handle = self._handles[shard.index]
        if handle.dead:
            return
        handle.dead = True
        handle.reason = reason
        now = shard.kernel.now()
        handle.breaker.record_failure(now, f"evaluator worker died: {reason}")
        self.worker_deaths.append((shard.index, reason))
        shard.supervisor.events.append(
            SupervisorEvent(
                now,
                "worker-death",
                f"shard-worker-{shard.index} lost ({reason}); "
                "falling back to in-thread evaluation",
            )
        )

    # ------------------------------------------------------------ evaluate

    def _evaluate_batch(self, shard, captures: list[CheckpointCapture]) -> None:
        engine = shard.engine
        started = perf_counter()
        try:
            handle = self._handles[shard.index]
            if captures and not handle.dead:
                payload = _encode_evaluate(captures)
                try:
                    reply = self._request(handle, payload)
                except _WorkerDied as exc:
                    self._record_death(shard, str(exc))
                else:
                    if reply.get("ok"):
                        self._apply_batch(shard, captures, reply)
                        captures = []
                    else:
                        self._record_death(
                            shard, f"protocol error: {reply.get('error')!r}"
                        )
            if captures:
                # Either the worker is (now) dead or the batch never got a
                # reply: evaluate in-thread from the parent's checkers,
                # which hold exactly the state of the last applied batch.
                engine._pending_captures[:0] = captures
                engine.evaluate_phase()
                if handle.dead:
                    self.windows_recovered += len(captures)
        finally:
            engine.evaluate_latency.observe(perf_counter() - started)
        engine.checkpoints_run += 1
        shard.finish_durable_checkpoint()

    def _apply_batch(
        self, shard, captures: list[CheckpointCapture], reply: dict
    ) -> None:
        """Fold one completed worker reply into the parent engine.

        Each window goes through :meth:`DetectionEngine.record_evaluation`,
        the bookkeeping in-thread evaluation uses; then the parent
        re-adopts the shadow checkers' state so it stays a warm standby
        for the in-thread fallback.
        """
        engine = shard.engine
        handle = self._handles[shard.index]
        handle.cpu_seconds = float(reply.get("cpu_seconds", handle.cpu_seconds))
        last_by_label: dict[str, CheckpointCapture] = {}
        for capture, window in zip(captures, reply.get("windows", ())):
            last_by_label[capture.entry.label] = capture
            engine.record_evaluation(
                capture,
                [report_from_dict(raw) for raw in window.get("reports", ())],
                float(window.get("elapsed", 0.0)),
                error=window.get("error"),
            )
        for label, record in reply.get("state", {}).items():
            entry = engine._by_label.get(label)
            if entry is None:
                continue  # unregistered while the batch was in flight
            last = last_by_label.get(label)
            # The worker's Algorithm-1 lists were left matching the last
            # window's ``current``; handing the parent's own object back
            # as the basis re-links the identity carry chain, because the
            # sink reuses that exact object as the next cut's ``previous``.
            basis = None if last is None else last.segment.current
            entry.import_checker_state(record, basis=basis)

    # ----------------------------------------------------------- lifecycle

    def _close_workers(
        self, timeout: float, leaked_threads: set[int]
    ) -> list[tuple[int, str]]:
        leaked: list[tuple[int, str]] = []
        for index, handle in enumerate(self._handles):
            if not handle.dead and index not in leaked_threads:
                # The dispatch thread is gone, so the pipe is ours now.
                try:
                    handle.conn.send_bytes(b'{"op":"stop"}')
                except (BrokenPipeError, ConnectionError, OSError):
                    pass
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                leaked.append((index, handle.process.name))
            handle.conn.close()
        return leaked


# ------------------------------------------------------------ wire encode


def _encode_evaluate(captures: list[CheckpointCapture]) -> str:
    """The evaluate request, hand-composed around the fused segment codec.

    This runs under the GIL in the dispatch thread — it *is* the process
    plane's serial fraction, so the event list (the bulk of every
    payload) goes through :func:`~repro.history.serialize.segment_to_json`
    rather than a dict build + ``json.dumps``.
    """
    windows = []
    for capture in captures:
        label = json.dumps(capture.entry.label)
        request_list = json.dumps(
            request_list_to_wire(capture.request_list), separators=(",", ":")
        )
        snapshot = (
            "null"
            if capture.snapshot is capture.segment.current
            else json.dumps(state_to_dict(capture.snapshot), separators=(",", ":"))
        )
        windows.append(
            f'{{"label":{label},"segment":{segment_to_json(capture.segment)},'
            f'"request_list":{request_list},"snapshot":{snapshot},'
            f'"taken_at":{capture.taken_at!r}}}'
        )
    return f'{{"op":"evaluate","windows":[{",".join(windows)}]}}'


# ------------------------------------------------------------- worker side


class _ShadowStream:
    """One monitor's evaluation state, rebuilt inside the worker.

    The same shadow trick as the detection service: the declaration
    travels as rendered text and is re-parsed here; the checkers are
    plain state machines over wire-decoded windows — no kernel, no
    monitor object, no pickled anything.  In realtime-order mode there is
    deliberately **no** Algorithm-3 instance: the parent's live tap owns
    that state, and phase 2 only sweeps the frozen Request-List carried
    by each capture.
    """

    def __init__(self, spec: dict) -> None:
        from repro.detection.algorithm1 import IncrementalConcurrencyChecker
        from repro.detection.algorithm2 import ResourceStateChecker
        from repro.detection.algorithm3 import CallingOrderChecker
        from repro.monitor.declaration import MonitorDeclaration

        self.label = spec["label"]
        self.monitor_name = spec["monitor_name"]
        self.declaration = MonitorDeclaration.parse(spec["declaration"])
        raw = spec["config"]
        self.config = DetectorConfig(
            tmax=raw["tmax"],
            tio=raw["tio"],
            tlimit=raw["tlimit"],
            realtime_orders=raw["realtime_orders"],
            incremental_checking=raw["incremental_checking"],
        )
        self.algorithm1 = None
        if self.config.incremental_checking:
            self.algorithm1 = IncrementalConcurrencyChecker(self.declaration)
        self.algorithm2 = None
        if self.declaration.mtype.needs_resource_checking:
            checker = ResourceStateChecker(self.declaration)
            if checker.applicable:
                self.algorithm2 = checker
        self.order_checking = bool(
            self.declaration.mtype.needs_order_checking
            or self.declaration.call_order
        )
        self.algorithm3 = None
        if self.order_checking and not self.config.realtime_orders:
            self.algorithm3 = CallingOrderChecker(self.declaration)
        state = spec.get("state") or {}
        raw = state.get("algorithm1")
        if raw is not None and self.algorithm1 is not None:
            self.algorithm1.restore_state(raw)
        raw = state.get("algorithm2")
        if raw is not None and self.algorithm2 is not None:
            self.algorithm2.restore_state(raw)
        raw = state.get("algorithm3")
        if raw is not None and self.algorithm3 is not None:
            self.algorithm3.restore_state(raw)
        #: The last evaluated window's ``current`` state — kept so the
        #: next window's structurally-equal ``previous`` can be swapped
        #: for this very object, restoring the identity-based Algorithm-1
        #: carry across the wire.
        self._last_current = None

    def evaluate(self, window: dict) -> list:
        segment = segment_from_dict(window["segment"])
        if (
            self._last_current is not None
            and segment.previous == self._last_current
        ):
            segment = type(segment)(
                previous=self._last_current,
                events=segment.events,
                current=segment.current,
                dropped=segment.dropped,
            )
        raw_snapshot = window.get("snapshot")
        snapshot = (
            segment.current
            if raw_snapshot is None
            else state_from_dict(raw_snapshot)
        )
        found = evaluate_capture(
            self.declaration,
            self.config,
            monitor_name=self.monitor_name,
            algorithm1=self.algorithm1,
            algorithm2=self.algorithm2,
            algorithm3=self.algorithm3,
            order_checking=self.order_checking,
            snapshot=snapshot,
            segment=segment,
            request_list=request_list_from_wire(window.get("request_list")),
        )
        self._last_current = segment.current
        return found

    def state_dict(self) -> dict:
        return {
            "algorithm1": (
                None if self.algorithm1 is None else self.algorithm1.state_dict()
            ),
            "algorithm2": (
                None if self.algorithm2 is None else self.algorithm2.state_dict()
            ),
            "algorithm3": (
                None if self.algorithm3 is None else self.algorithm3.state_dict()
            ),
        }


def _send(conn, record: dict) -> None:
    conn.send_bytes(json.dumps(record, separators=(",", ":")).encode("utf-8"))


def _evaluator_worker_main(conn) -> None:
    """Entry point of one evaluator worker process (spawn-safe)."""
    streams: dict[str, _ShadowStream] = {}
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            message = json.loads(raw)
        except ValueError as exc:
            _send(conn, {"ok": False, "error": f"bad frame: {exc}"})
            continue
        op = message.get("op")
        if op == "stop":
            _send(conn, {"ok": True})
            return
        if op == "ping":
            # Warm-up handshake: forces the interpreter spawn + imports
            # before the first checkpoint, so evaluate latency never
            # includes worker start-up.
            _send(conn, {"ok": True})
            continue
        if op == "register":
            try:
                stream = _ShadowStream(message["stream"])
            except Exception as exc:  # noqa: BLE001 — reported, not fatal
                _send(
                    conn,
                    {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                )
                continue
            streams[stream.label] = stream
            _send(conn, {"ok": True})
        elif op == "unregister":
            streams.pop(message.get("label"), None)
            _send(conn, {"ok": True})
        elif op == "sync":
            try:
                rebuilt = {}
                for spec in message.get("streams", ()):
                    stream = _ShadowStream(spec)
                    rebuilt[stream.label] = stream
            except Exception as exc:  # noqa: BLE001 — reported, not fatal
                _send(
                    conn,
                    {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                )
                continue
            streams = rebuilt
            _send(conn, {"ok": True})
        elif op == "evaluate":
            windows = []
            touched: dict[str, _ShadowStream] = {}
            for window in message.get("windows", ()):
                label = window.get("label")
                stream = streams.get(label)
                if stream is None:
                    windows.append(
                        {"label": label, "error": f"unknown stream {label!r}"}
                    )
                    continue
                started = perf_counter()
                try:
                    reports = stream.evaluate(window)
                except Exception as exc:  # noqa: BLE001 — breaker food
                    windows.append(
                        {
                            "label": label,
                            "error": f"{type(exc).__name__}: {exc}",
                            "elapsed": perf_counter() - started,
                        }
                    )
                    touched[label] = stream
                    continue
                windows.append(
                    {
                        "label": label,
                        "reports": [report_to_dict(r) for r in reports],
                        "elapsed": perf_counter() - started,
                    }
                )
                touched[label] = stream
            _send(
                conn,
                {
                    "ok": True,
                    "windows": windows,
                    "state": {
                        label: stream.state_dict()
                        for label, stream in touched.items()
                    },
                    "cpu_seconds": time.process_time(),
                },
            )
        else:
            _send(conn, {"ok": False, "error": f"unknown op {op!r}"})
