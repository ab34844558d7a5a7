"""DetectionServer + DetectionClient: ingest, exactly-once, quarantine."""

import json

import pytest

from repro.detection.config import DetectorConfig
from repro.detection.reports import Confidence, FaultReport
from repro.detection.rules import STRule
from repro.errors import RecoveryError
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.syscalls import Delay
from repro.service.client import DetectionClient, client_process
from repro.service.framing import FrameDecoder, encode_frame
from repro.service.protocol import PROTOCOL_VERSION, hello_frame
from repro.service.server import (
    DetectionServer,
    ServiceConfig,
    ServiceJournal,
    service_report_key,
)
from repro.service.transport import SimNetwork, network_process
from tests.history.test_serialize import STATE_SLOTS
from tests.service.workload import attach_workload, make_kernel

# --------------------------------------------------------------- fixtures


def make_report(confidence=Confidence.CONFIRMED, *, seq=3, message="m"):
    return FaultReport(
        rule=STRule.ONE_INSIDE,
        message=message,
        monitor="buffer",
        detected_at=5.0,
        pids=(1, 2),
        event_seq=seq,
        window_start=0.0,
        confidence=confidence,
    )


_CORPUS = {}


def corpus(seed=0):
    """Deterministic (hello, window frames) for one buffer stream.

    Built by running a real client whose connector never succeeds: every
    captured window stays in the replay buffer, frames and declaration
    exactly as a live client would ship them.
    """
    if seed not in _CORPUS:
        from repro.apps.bounded_buffer import BoundedBuffer

        kernel = make_kernel(seed)
        client = DetectionClient(
            kernel, lambda: None, name="direct", interval=1.0,
            replay_limit=1_000, seed=seed,
        )
        buffer = BoundedBuffer(kernel, capacity=3)
        client.attach(buffer, label="buffer")

        def producer():
            for item in range(12):
                yield Delay(0.11)
                yield from buffer.send(item)

        def consumer():
            for __ in range(12):
                yield Delay(0.12)
                yield from buffer.receive()

        kernel.spawn(producer(), "producer")
        kernel.spawn(consumer(), "consumer")
        kernel.spawn(
            client_process(client, rounds=6, drain_rounds=0), "client"
        )
        kernel.run(until=20.0)
        kernel.raise_failures()
        hello = hello_frame(
            client.name,
            client.token,
            [stream.spec() for stream in client.streams.values()],
            {label: -1 for label in client.streams},
        )
        windows = [dict(w) for w in client.streams["buffer"].pending]
        assert len(windows) >= 5
        _CORPUS[seed] = (hello, windows)
    hello, windows = _CORPUS[seed]
    return dict(hello), [dict(w) for w in windows]


def make_server(**kwargs):
    kwargs.setdefault("service", ServiceConfig(window_credits=4))
    return DetectionServer(make_kernel(0), **kwargs)


def decode_all(raw):
    return FrameDecoder().feed(raw)


def handshake(server, conn_id=1, hello=None, resume=None):
    if hello is None:
        hello, __ = corpus()
    if resume is not None:
        hello["resume"] = resume
    server.connect(conn_id)
    reply = server.feed(conn_id, encode_frame(hello))
    (welcome,) = decode_all(reply)
    return welcome


# ---------------------------------------------------------------- journal


#: A service-journal watermark line, its ``seq`` left to fill in.
WATERMARK = '{"kind": "watermark", "token": "tok", "stream": "buffer", "seq": %s}'


class TestServiceJournal:
    def test_admit_dedups_identical_reports(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j.jsonl")
        assert journal.admit(make_report())
        assert not journal.admit(make_report())
        assert journal.deduplicated == 1

    def test_dedup_key_is_confidence_blind(self, tmp_path):
        # A replayed window re-evaluated after a restart is stamped
        # DEGRADED; it must still collapse onto the original derivation.
        journal = ServiceJournal(tmp_path / "j.jsonl")
        assert journal.admit(make_report(Confidence.CONFIRMED))
        assert not journal.admit(make_report(Confidence.DEGRADED))
        assert len(journal.reports) == 1
        assert journal.reports[0].confidence is Confidence.CONFIRMED

    def test_dedup_key_ignores_message_text(self):
        confirmed = make_report(message="one")
        other = make_report(message="two")
        assert service_report_key(confirmed) == service_report_key(other)

    def test_reload_restores_reports_and_watermarks(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j.jsonl")
        journal.admit(make_report())
        journal.advance("tok", "buffer", 7)
        journal.advance("tok", "buffer", 4)  # stale: must not regress
        journal.close()
        reopened = ServiceJournal(tmp_path / "j.jsonl")
        assert len(reopened.reports) == 1
        assert reopened.watermarks[("tok", "buffer")] == 7
        assert not reopened.admit(make_report(Confidence.DEGRADED))

    def test_each_record_reaches_the_file_at_its_newline(self, tmp_path):
        # The file is line-buffered: a second open, with no flush() or
        # close() on the first, reads the report and the watermark.
        journal = ServiceJournal(tmp_path / "j.jsonl")
        journal.admit(make_report())
        journal.advance("tok", "buffer", 3)
        reader = ServiceJournal(tmp_path / "j.jsonl")
        assert reader.reports == journal.reports
        assert reader.watermarks == {("tok", "buffer"): 3}
        journal.close()
        reader.close()

    def test_torn_tail_truncated_on_reload(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j.jsonl")
        journal.admit(make_report())
        journal.close()
        with open(tmp_path / "j.jsonl", "a", encoding="utf-8") as handle:
            handle.write("187\n")  # dangling frame-length prefix
        reopened = ServiceJournal(tmp_path / "j.jsonl")
        assert reopened.torn_tails_truncated == 1
        assert len(reopened.reports) == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            "not json at all",
            "[1, 2]",
            pytest.param('{"kind": "nonsense"}', id="unknown-kind"),
            pytest.param('{"kind": "report"}', id="report-without-fields"),
            # Coerced with int(), "seq": true loaded as watermark 1, so
            # after recover() a replaying client's window 1 was skipped.
            pytest.param(WATERMARK % "true", id="watermark-seq-true"),
            pytest.param(WATERMARK % "2.7", id="watermark-seq-float"),
            pytest.param(WATERMARK % '"3"', id="watermark-seq-string"),
            pytest.param(WATERMARK % '"x"', id="watermark-seq-not-a-number"),
            pytest.param(WATERMARK % "-1", id="watermark-seq-negative"),
            pytest.param(
                '{"kind": "watermark", "token": "tok", "stream": "buffer"}',
                id="watermark-without-seq",
            ),
            pytest.param(
                '{"kind": "watermark", "token": "tok", "seq": 3}',
                id="watermark-without-stream",
            ),
            pytest.param(
                '{"kind": "watermark", "token": ["tok"], "stream": "buffer", '
                '"seq": 3}',
                id="watermark-token-array",
            ),
        ],
    )
    def test_corrupt_middle_line_raises(self, tmp_path, corrupt):
        # Only the tail can be torn; a bad line before it is corruption,
        # and the error names the file and the line.
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal(path)
        journal.admit(make_report())
        journal.advance("tok", "buffer", 7)
        journal.close()
        first, second = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text(first + corrupt + "\n" + second, encoding="utf-8")
        with pytest.raises(RecoveryError, match="service.jsonl line 2"):
            ServiceJournal(path)
        with pytest.raises(RecoveryError, match="service.jsonl line 2"):
            DetectionServer(make_kernel(0), durable_dir=tmp_path)


_MISUSE_CORPUS = {}


def misuse_corpus(seed=1):
    """Like :func:`corpus`, but the workload includes the allocator
    misuser, so the shipped windows carry a real ST-8b fault."""
    if seed not in _MISUSE_CORPUS:
        kernel = make_kernel(seed)
        client = DetectionClient(
            kernel, lambda: None, name="misused", interval=2.0,
            replay_limit=1_000, seed=seed,
        )
        attach_workload(kernel, client, operations=12, misuse=True)
        kernel.spawn(
            client_process(client, rounds=6, drain_rounds=0), "client"
        )
        kernel.run(until=20.0)
        kernel.raise_failures()
        hello = hello_frame(
            client.name,
            client.token,
            [stream.spec() for stream in client.streams.values()],
            {label: -1 for label in client.streams},
        )
        windows = [
            dict(w)
            for stream in client.streams.values()
            for w in stream.pending
        ]
        _MISUSE_CORPUS[seed] = (hello, windows)
    hello, windows = _MISUSE_CORPUS[seed]
    return dict(hello), [dict(w) for w in windows]


# -------------------------------------------------------------- handshake


class TestHandshake:
    def test_welcome_carries_fresh_watermarks_and_credits(self):
        server = make_server()
        welcome = handshake(server)
        assert welcome["type"] == "welcome"
        assert welcome["watermarks"] == {"buffer": -1}
        assert welcome["credits"] == 4
        assert welcome["resumed"] is False

    @pytest.mark.parametrize("offset", [-1, 1], ids=["older", "newer"])
    def test_version_mismatch_quarantines(self, offset):
        # An older client ships records the server no longer decodes
        # (version 2 keyed states, version 1 keyed events as well): it is
        # refused at hello, before any window.
        server = make_server()
        hello, __ = corpus()
        version = PROTOCOL_VERSION + offset
        hello["version"] = version
        server.connect(1)
        (error,) = decode_all(server.feed(1, encode_frame(hello)))
        assert error["type"] == "error"
        assert f"server {PROTOCOL_VERSION}" in error["reason"]
        assert f"client {version}" in error["reason"]
        assert server.connection_quarantined(1)
        assert not server._sessions
        assert not server.engine.monitors

    def test_hello_without_streams_quarantines(self):
        server = make_server()
        hello, __ = corpus()
        hello["streams"] = []
        server.connect(1)
        (error,) = decode_all(server.feed(1, encode_frame(hello)))
        assert error["type"] == "error"

    def test_token_takeover_cuts_the_stale_connection(self):
        # Same session token on a new connection = the client noticed a
        # silent death before the server did; newest handshake wins.
        server = make_server()
        handshake(server, conn_id=1)
        server.connect(2)
        hello, __ = corpus()
        (welcome,) = decode_all(server.feed(2, encode_frame(hello)))
        assert welcome["resumed"] is True
        assert not server.connection_alive(1)
        assert server.connection_alive(2)
        assert server.stats()["sessions"] == 1

    @pytest.mark.parametrize(
        "mark", [True, "3", 2.7, -5], ids=["true", "string", "float", "-5"]
    )
    def test_mistyped_resume_watermark_quarantines(self, mark):
        # Coerced, ``true`` resumed at 1 and ``2.7`` at 2: every window up
        # to it would have been skipped as a duplicate, never checked.
        server = make_server()
        hello, __ = corpus()
        hello["resume"] = {"buffer": mark}
        server.connect(1)
        (error,) = decode_all(server.feed(1, encode_frame(hello)))
        assert error["type"] == "error"
        assert "malformed resume watermark" in error["reason"]
        assert server.connection_quarantined(1)
        assert server.stats()["streams"] == 0
        assert not server.engine.monitors

    def test_resume_watermark_skips_already_acked_windows(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server, resume={"buffer": 1})
        for window in windows[:3]:  # seq 0,1 duplicates; seq 2 fresh
            server.feed(1, encode_frame(window))
        assert server.windows_duplicate == 2
        assert server.windows_accepted == 1


# ------------------------------------------------------------------ ingest

#: Slot of each field in a positional wire event.
EVENT_SLOTS = ("seq", "kind", "pid", "pname", "time", "flag", "cond")


def event_with(**fields):
    """A malformer: a wire event with ``fields`` replaced."""

    def malform(event):
        record = list(event)
        for name, value in fields.items():
            record[EVENT_SLOTS.index(name)] = value
        return record

    return malform


def six_slots(event):
    return list(event)[:6]


def eight_slots(event):
    return [*event, None]


def keyed_event(event):
    """The same event as protocol version 1 shipped it: a keyed object."""
    seq, kind, pid, pname, time, flag, cond = event
    record = {
        "kind": "event", "event": kind, "seq": seq, "pid": pid,
        "pname": pname, "time": time, "flag": flag,
    }
    if cond is not None:
        record["cond"] = cond
    return record


def state_with(row, **fields):
    """A copy of state ``row`` with ``fields`` replaced."""
    row = list(row)
    for name, value in fields.items():
        row[STATE_SLOTS.index(name)] = value
    return row


def keyed_state(row):
    """The same state as protocol version 2 shipped it: a keyed object."""
    return {"kind": "state", **dict(zip(STATE_SLOTS, row))}


#: Stand in for two JSON numbers that :func:`frame_of` splices in as
#: literals: ``1e999``, which ``json.dumps`` cannot write and
#: ``json.loads`` reads as infinity, and a 400-digit integer, which
#: ``json.loads`` reads as an ``int`` too large for a float.
OVERFLOW = "<1e999>"
HUGE_INT = "<1e400 as an integer>"

NAN, INF = float("nan"), float("inf")


def frame_of(payload):
    """:func:`encode_frame`, with each :data:`OVERFLOW` replaced by the
    literal ``1e999`` and each :data:`HUGE_INT` by ``1`` and 400 zeros."""
    body = json.dumps(payload, separators=(",", ":"))
    body = body.replace(json.dumps(OVERFLOW), "1e999")
    body = body.replace(json.dumps(HUGE_INT), "1" + "0" * 400)
    data = body.encode() + b"\n"
    return b"%d\n%s" % (len(data), data)


class TestIngest:
    def test_windows_evaluate_and_ack_watermark_advances(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server)
        for window in windows:
            server.feed(1, encode_frame(window))
            server.poll()
        acks = decode_all(server.poll().get(1, b""))
        stats = server.stats()
        assert stats["windows_accepted"] == len(windows)
        assert stats["evaluations_run"] == len(windows)
        assert stats["lossy_windows"] == 0
        assert stats["degraded_windows"] == 0
        final_ack = (acks or [None])[-1]
        if final_ack is None:  # ack consumed by an earlier poll
            server._connections[1].ack_due = True
            (final_ack,) = decode_all(server.poll()[1])
        assert final_ack["watermarks"] == {"buffer": len(windows) - 1}

    def test_replayed_duplicate_is_skipped_and_reacked(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server)
        server.feed(1, encode_frame(windows[0]))
        server.poll()
        server.feed(1, encode_frame(windows[0]))  # replay: ack was lost
        assert server.windows_duplicate == 1
        (ack,) = decode_all(server.poll()[1])
        assert ack["type"] == "ack"
        assert ack["watermarks"] == {"buffer": 0}

    def test_sequence_gap_forces_degraded_evaluation(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server)
        server.feed(1, encode_frame(windows[0]))
        server.poll()
        server.feed(1, encode_frame(windows[3]))  # seq 1,2 never arrive
        server.poll()
        stats = server.stats()
        assert stats["gaps_detected"] == 1
        assert stats["lossy_windows"] == 1
        assert stats["degraded_windows"] == 1

    def test_client_reported_loss_forces_degraded_evaluation(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server)
        window = dict(windows[0])
        window["lost_events"] = 5
        server.feed(1, encode_frame(window))
        server.poll()
        assert server.stats()["degraded_windows"] == 1

    def test_backpressure_at_credit_quota(self):
        server = make_server(service=ServiceConfig(window_credits=2))
        hello, windows = corpus()
        handshake(server)
        raw = b"".join(encode_frame(w) for w in windows[:2])
        replies = decode_all(server.feed(1, raw))  # no poll in between
        assert any(f["type"] == "backpressure" for f in replies)
        assert server.stats()["backpressure_sent"] == 1
        assert server.connection_alive(1)  # throttled, not poisoned

    def test_quota_abuse_quarantines_only_that_connection(self):
        server = make_server(service=ServiceConfig(window_credits=2))
        hello, windows = corpus()
        handshake(server, conn_id=1)
        server.connect(2)
        decode_all(server.feed(2, encode_frame(hello)))  # same token: takeover
        raw = b"".join(encode_frame(w) for w in windows)  # 2*quota and beyond
        replies = decode_all(server.feed(2, raw))
        assert replies[-1]["type"] == "error"
        assert server.connection_quarantined(2)
        assert len(server.quarantines) == 1

    def test_malformed_bytes_quarantine_not_the_fleet(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server, conn_id=1)
        (error,) = decode_all(server.feed(1, b"GARBAGE not a frame\n"))
        assert error["type"] == "error"
        assert server.connection_quarantined(1)
        # A second connection (same session, post-takeover) still ingests.
        server.connect(2)
        decode_all(server.feed(2, encode_frame(hello)))
        server.feed(2, encode_frame(windows[0]))
        assert server.windows_accepted == 1

    @pytest.mark.parametrize(
        "where, bad",
        [
            ("event", None),
            ("event", 5),
            ("event", [1, 2, 3]),
            ("previous", 5),
            ("current", 5),
            ("cond_queues", [1, 2]),
            pytest.param("event", keyed_event, id="event-keyed-object"),
            pytest.param("event", six_slots, id="event-six-elements"),
            pytest.param("event", eight_slots, id="event-eight-elements"),
            pytest.param(
                "event", event_with(kind="Nonsense"), id="event-unknown-kind"
            ),
            pytest.param("event", event_with(flag=2), id="flag-2"),
            pytest.param(
                "event",
                event_with(kind="Wait", flag=0, cond=None),
                id="wait-without-cond",
            ),
            pytest.param("event", event_with(pid="x"), id="pid-string"),
            pytest.param("event", event_with(pid=None), id="pid-null"),
            pytest.param("event", event_with(time="late"), id="time-string"),
            pytest.param("event", event_with(time=NAN), id="time-nan"),
            pytest.param("event", event_with(time=INF), id="time-infinity"),
            pytest.param(
                "event", event_with(time=-INF), id="time-minus-infinity"
            ),
            pytest.param("event", event_with(time=OVERFLOW), id="time-1e999"),
            pytest.param(
                "event", event_with(time=HUGE_INT), id="time-400-digit-int"
            ),
            pytest.param("event", event_with(seq=True), id="seq-true"),
            pytest.param("event", "Enter!!", id="event-seven-characters"),
            pytest.param("running", "abc", id="queue-entry-string"),
            pytest.param("time", "late", id="state-time-string"),
            pytest.param("time", NAN, id="state-time-nan"),
            pytest.param("time", INF, id="state-time-infinity"),
            pytest.param("time", -INF, id="state-time-minus-infinity"),
            pytest.param("time", OVERFLOW, id="state-time-1e999"),
            pytest.param("time", HUGE_INT, id="state-time-400-digit-int"),
            pytest.param("running", [3, "Send", NAN], id="since-nan"),
            pytest.param("running", [3, "Send", INF], id="since-infinity"),
            pytest.param("running", [3, "Send", OVERFLOW], id="since-1e999"),
            pytest.param(
                "running", [3, "Send", HUGE_INT], id="since-400-digit-int"
            ),
            pytest.param("resource_count", "x", id="resource-count-string"),
            pytest.param("dropped", -3, id="dropped-negative"),
            pytest.param("dropped", True, id="dropped-true"),
            pytest.param("previous", keyed_state, id="state-keyed-object"),
        ],
    )
    def test_malformed_segment_quarantines_not_the_fleet(self, where, bad):
        # Well-framed JSON whose segment holds something other than a
        # well-typed record where one belongs: the decoder must answer
        # with a protocol error for this connection, evaluate nothing,
        # and not raise an exception that stops the server.
        server = make_server()
        hello, windows = corpus()
        handshake(server, conn_id=1)
        segment = dict(windows[0]["segment"])
        if callable(bad):
            record = segment["events"][0] if where == "event" else segment[where]
            bad = bad(record)
        if where == "event":
            segment["events"] = [bad, *segment["events"][1:]]
        elif where == "running":
            previous = segment["previous"]
            segment["previous"] = state_with(previous, running=[bad])
        elif where in ("cond_queues", "time", "resource_count"):
            segment["current"] = state_with(segment["current"], **{where: bad})
        else:
            segment[where] = bad
        window = dict(windows[0], segment=segment)
        (error,) = decode_all(server.feed(1, frame_of(window)))
        assert error["type"] == "error"
        assert "malformed window segment" in error["reason"]
        assert server.connection_quarantined(1)
        assert 1 not in server.poll()
        assert server.windows_accepted == 0
        assert server.delivered == []
        server.connect(2)
        decode_all(server.feed(2, encode_frame(hello)))
        server.feed(2, encode_frame(windows[0]))
        assert server.windows_accepted == 1

    @pytest.mark.parametrize(
        "field, bad",
        [
            pytest.param("seq", True, id="seq-true"),
            pytest.param("seq", "0", id="seq-string"),
            pytest.param("seq", 0.9, id="seq-float"),
            pytest.param("taken_at", "nan", id="taken-at-string"),
            pytest.param("taken_at", float("nan"), id="taken-at-nan"),
            pytest.param("taken_at", float("inf"), id="taken-at-infinity"),
            pytest.param("taken_at", OVERFLOW, id="taken-at-1e999"),
            pytest.param("taken_at", HUGE_INT, id="taken-at-400-digit-int"),
            pytest.param("taken_at", True, id="taken-at-true"),
            pytest.param("lost_events", "2", id="lost-events-string"),
            pytest.param("lost_events", 2.5, id="lost-events-float"),
            pytest.param("lost_windows", True, id="lost-windows-true"),
        ],
    )
    def test_mistyped_window_scalar_quarantines(self, field, bad):
        # Coerced, ``"seq": true`` was accepted as seq 1 and acked with
        # watermark 1, so the client's real window 1 would be skipped as
        # a duplicate and never checked.
        server = make_server()
        hello, windows = corpus()
        handshake(server, conn_id=1)
        window = dict(windows[0], **{field: bad})
        (error,) = decode_all(server.feed(1, frame_of(window)))
        assert error["type"] == "error"
        assert field in error["reason"]
        assert server.connection_quarantined(1)
        assert 1 not in server.poll()
        assert server.windows_accepted == 0
        assert server.delivered == []
        server.connect(2)
        decode_all(server.feed(2, encode_frame(hello)))
        server.feed(2, encode_frame(windows[0]))
        assert server.windows_accepted == 1

    def test_window_for_unknown_stream_quarantines(self):
        server = make_server()
        hello, windows = corpus()
        handshake(server)
        window = dict(windows[0])
        window["stream"] = "who"
        (error,) = decode_all(server.feed(1, encode_frame(window)))
        assert error["type"] == "error"

    def test_window_before_hello_quarantines(self):
        server = make_server()
        __, windows = corpus()
        server.connect(1)
        (error,) = decode_all(server.feed(1, encode_frame(windows[0])))
        assert error["type"] == "error"

    def test_oversized_window_quarantines(self):
        server = make_server(
            service=ServiceConfig(window_credits=4, max_events_per_window=1)
        )
        hello, windows = corpus()
        handshake(server)
        big = next(w for w in windows if len(w["segment"]["events"]) > 1)
        (error,) = decode_all(server.feed(1, encode_frame(big)))
        assert error["type"] == "error"

    def test_ping_answers_pong(self):
        server = make_server()
        handshake(server)
        (pong,) = decode_all(
            server.feed(1, encode_frame({"type": "ping", "sent_at": 9.5}))
        )
        assert pong == {"type": "pong", "sent_at": 9.5}


# ------------------------------------------------------- stream overrides


def override_hello(**overrides):
    """Corpus hello with per-stream overrides on a private copy."""
    hello, __ = corpus()
    hello["streams"] = [dict(s) for s in hello["streams"]]
    hello["streams"][0].update(overrides)
    return hello


class TestStreamOverrides:
    def test_numeric_override_applies_to_the_shadow_entry(self):
        server = make_server()
        welcome = handshake(server, hello=override_hello(tmax=7.5))
        assert welcome["type"] == "welcome"
        session = next(iter(server._sessions.values()))
        assert session.streams["buffer"].entry.config.tmax == 7.5

    def test_out_of_range_override_quarantines_not_crashes(self):
        server = make_server()
        server.connect(1)
        raw = encode_frame(override_hello(tmax=-1))
        (error,) = decode_all(server.feed(1, raw))  # must not raise
        assert error["type"] == "error"
        assert "tmax" in error["reason"]
        assert server.connection_quarantined(1)

    @pytest.mark.parametrize("bad", ["x", True, None, [3]])
    def test_non_numeric_override_quarantines_not_crashes(self, bad):
        server = make_server()
        server.connect(1)
        raw = encode_frame(override_hello(tlimit=bad))
        (error,) = decode_all(server.feed(1, raw))  # must not raise
        assert error["type"] == "error"
        assert server.connection_quarantined(1)
        # The poisoned hello never reached the fleet: a clean client works.
        assert handshake(server, conn_id=2)["type"] == "welcome"


# ------------------------------------------------ shadow monitor checking


def feed_and_poll(server, windows):
    for window in windows:
        server.feed(1, encode_frame(window))
        server.poll()


def sabotaged_server(failures):
    """A server whose breaker opens on one failure and half-opens 1.5 s
    later, with the direct:buffer shadow monitor's first ``failures``
    evaluations raising; returns the server, hello, windows and entry."""
    server = make_server(
        config=DetectorConfig(
            interval=1.0, breaker_failure_threshold=1, breaker_cooldown=1.5
        )
    )
    hello, windows = corpus()
    handshake(server)
    entry = server.engine.entry_for("direct:buffer")
    evaluate = entry.evaluate
    faults = {"evaluate": failures}

    def sabotaged(capture):
        if faults["evaluate"]:
            faults["evaluate"] -= 1
            raise RuntimeError("sabotaged shadow evaluator")
        return evaluate(capture)

    entry.evaluate = sabotaged
    return server, hello, windows, entry


class TestShadowMonitorChecking:
    def test_quarantined_monitor_sits_out_its_windows(self):
        server, hello, windows, entry = sabotaged_server(1)
        feed_and_poll(server, windows[:2])
        # Window 1 fails and opens the breaker; window 2 (14 events)
        # arrives inside the cooldown: acked, not evaluated.
        assert len(windows[1]["segment"]["events"]) == 14
        assert entry.quarantined
        assert entry.checkpoints_skipped == 1
        assert entry.checkpoints_run == 0
        assert server.journal.watermarks[(hello["token"], "buffer")] == 1
        # Window 3 owes window 2's events: evaluated DEGRADED, and its
        # success re-closes the half-open breaker.
        feed_and_poll(server, windows[2:3])
        stats = server.stats()
        assert stats["lossy_windows"] == 1
        assert stats["degraded_windows"] == 1
        assert entry.breaker.times_reclosed == 1
        assert not entry.quarantined
        feed_and_poll(server, windows[3:])
        assert server.journal.watermarks[(hello["token"], "buffer")] == 5
        assert entry.checkpoints_run == len(windows) - 2
        assert server.stats()["degraded_windows"] == 1
        assert server.delivered == []

    def test_half_open_monitor_is_probed_with_one_window(self):
        server, hello, windows, entry = sabotaged_server(2)
        feed_and_poll(server, windows[:1])
        assert entry.quarantined
        # One burst between two polls: window 2 is inside the cooldown,
        # window 3 is the half-open probe, and windows 4 and 5 sit out
        # behind it instead of being checked on a monitor whose probe
        # fails and re-opens the breaker.
        server.feed(1, b"".join(encode_frame(w) for w in windows[1:5]))
        server.poll()
        assert entry.quarantined
        assert entry.checkpoints_run == 0
        assert entry.checkpoints_skipped == 3
        assert server.journal.watermarks[(hello["token"], "buffer")] == 4
        # Window 6 comes after the cooldown: a clean probe re-closes.
        feed_and_poll(server, windows[5:6])
        assert entry.breaker.times_reclosed == 1
        assert not entry.quarantined
        assert entry.checkpoints_run == 1
        assert server.journal.watermarks[(hello["token"], "buffer")] == 5
        assert server.delivered == []

    @pytest.mark.parametrize("make_corpus", [corpus, misuse_corpus])
    def test_remote_windows_carry_checking_lists(self, make_corpus):
        hello, windows = make_corpus()
        servers = [
            make_server(
                config=DetectorConfig(incremental_checking=incremental),
                service=ServiceConfig(window_credits=50),
            )
            for incremental in (True, False)
        ]
        for server in servers:
            handshake(server, hello=dict(hello))
            feed_and_poll(server, windows)
        carried, oracle = servers
        # Every window but each stream's first starts on a wire-decoded
        # state equal to the last verified one, so its lists carry.
        assert carried.engine.evaluations_run == len(windows)
        assert carried.engine.incremental_hits == (
            len(windows) - len(hello["streams"])
        )
        assert carried.delivered == oracle.delivered


# ------------------------------------------------------- evaluation retry


class TestEvaluationRetry:
    def test_journal_failure_retries_without_new_windows(self):
        # A round that dies *after* evaluate_phase drained the captures
        # (journal write fails) must still be retried by the next poll —
        # a backpressured client sends nothing new to trigger it.
        server = make_server(service=ServiceConfig(window_credits=50))
        hello, windows = misuse_corpus()
        handshake(server, hello=hello)
        server.feed(1, b"".join(encode_frame(w) for w in windows))
        assert server._connections[1].in_flight == len(windows)

        state = {"fail": True}
        original = server.journal.admit

        def flaky(report):
            if state["fail"]:
                state["fail"] = False
                raise OSError("disk full")
            return original(report)

        server.journal.admit = flaky
        assert server.poll() == {}  # round fails mid-journal: no acks
        assert not server.engine._pending_captures  # drain already happened
        assert server._pending_meta  # un-acked windows still owed a retry

        acks = server.poll()  # no new window arrived: retry must still run
        assert 1 in acks
        (ack,) = decode_all(acks[1])
        assert ack["type"] == "ack"
        labels = {w["stream"] for w in windows}
        assert ack["watermarks"] == {
            label: max(w["seq"] for w in windows if w["stream"] == label)
            for label in labels
        }
        assert server._connections[1].in_flight == 0
        assert not server._pending_meta
        # Reports evaluated in the failed round were not lost on retry...
        assert "ST-8b" in {report.rule_id for report in server.delivered}
        # ...and the recovery did not double-deliver anything.
        keys = [service_report_key(r) for r in server.delivered]
        assert len(keys) == len(set(keys))

    def test_idle_polls_feed_the_stall_watchdog(self):
        server = make_server(config=DetectorConfig(stall_timeout=5.0))
        handshake(server)
        for __ in range(4):
            server.kernel.clock.advance_by(3.0)
            server.poll()
        # 12 idle virtual seconds > stall_timeout, but idle is healthy.
        assert server.supervisor.stalls_detected == 0


# ---------------------------------------------------------- crash recovery


class TestCrashRecovery:
    def test_restart_resumes_watermarks_and_dedups_reports(self, tmp_path):
        hello, windows = corpus()
        first = make_server(durable_dir=tmp_path)
        handshake(first)
        for window in windows[:3]:
            first.feed(1, encode_frame(window))
            first.poll()
        delivered = [service_report_key(r) for r in first.delivered]
        first.close()

        second = make_server(durable_dir=tmp_path)
        recovery = second.recover()
        assert recovery["streams"] == 1
        welcome = handshake(second, resume={"buffer": -1})
        # The journal, not the client, is authoritative after a restart.
        assert welcome["watermarks"] == {"buffer": 2}
        assert welcome["resumed"] is True
        for window in windows:  # full replay: 0..2 duplicates, rest fresh
            second.feed(1, encode_frame(window))
            second.poll()
        assert second.windows_duplicate == 3
        assert second.windows_accepted == len(windows) - 3
        # First post-restart window ran against a cold checker: degraded.
        assert second.stats()["resync_windows"] == 1
        assert second.stats()["degraded_windows"] >= 1
        keys = [service_report_key(r) for r in second.journal.reports]
        assert len(keys) == len(set(keys))
        assert set(delivered) <= set(keys)

    def test_resumed_flag_is_per_session_after_recovery(self, tmp_path):
        hello, windows = corpus()
        first = make_server(durable_dir=tmp_path)
        handshake(first)
        first.feed(1, encode_frame(windows[0]))
        first.poll()
        first.close()

        second = make_server(durable_dir=tmp_path)
        second.recover()
        fresh = dict(hello)
        fresh["token"] = "never-seen-before"
        fresh["resume"] = {}
        # A brand-new session is not a resume, no matter what other
        # sessions' watermarks the restarted server recovered.
        assert handshake(second, hello=fresh)["resumed"] is False
        # The session the watermarks belong to does resume.
        assert handshake(second, conn_id=2)["resumed"] is True


# --------------------------------------------------------- replay eviction


class TestReplayEviction:
    def test_eviction_folds_loss_into_first_unsent_window(self):
        # A frame already shipped on the live connection was encoded at
        # send time: mutating it is invisible to the server.  Shed-window
        # loss must ride the first *unsent* survivor instead.
        kernel = make_kernel(0)
        client = DetectionClient(
            kernel, lambda: None, name="evict", interval=1.0,
            replay_limit=4, seed=0,
        )
        from repro.apps.bounded_buffer import BoundedBuffer

        client.attach(BoundedBuffer(kernel, capacity=3), label="buffer")
        for __ in range(4):
            client.capture()
        stream = client.streams["buffer"]
        assert len(stream.pending) == 4
        stream.sent = 2  # first two frames are on the wire, unacked

        client.capture()  # overflow: the oldest (sent) window is shed
        assert len(stream.pending) == 4
        assert stream.sent == 1  # shed frame left the sent prefix
        assert stream.windows_evicted == 1
        # The surviving sent frame is untouched; the first unsent frame
        # carries the loss and will reach the server on the next pump.
        assert stream.pending[0]["lost_windows"] == 0
        assert stream.pending[1]["lost_windows"] == 1
        assert all(w["lost_windows"] == 0 for w in stream.pending[2:])

    def test_eviction_with_nothing_sent_folds_into_the_oldest(self):
        kernel = make_kernel(0)
        client = DetectionClient(
            kernel, lambda: None, name="evict", interval=1.0,
            replay_limit=2, seed=0,
        )
        from repro.apps.bounded_buffer import BoundedBuffer

        client.attach(BoundedBuffer(kernel, capacity=3), label="buffer")
        for __ in range(4):
            client.capture()
        stream = client.streams["buffer"]
        assert len(stream.pending) == 2
        assert stream.windows_evicted == 2
        assert stream.pending[0]["lost_windows"] == 2
        assert stream.pending[1]["lost_windows"] == 0


# ---------------------------------------------------- end-to-end (SimNetwork)


class TestEndToEndSim:
    def test_live_client_ships_detects_and_drains(self):
        kernel = make_kernel(3)
        server = DetectionServer(kernel)
        net = SimNetwork(server)
        client = DetectionClient(
            kernel, net.connect, name="c0", interval=5.0, seed=3
        )
        attach_workload(kernel, client, operations=30, misuse=True)
        kernel.spawn(client_process(client, rounds=12), "client")
        kernel.spawn(network_process(net, interval=0.5), "net")
        kernel.run(until=200.0)
        kernel.raise_failures()
        stats = client.stats()
        assert stats["errors"] == []
        assert stats["windows_acked"] == stats["windows_captured"] > 0
        assert stats["pending_windows"] == 0
        rules = {report.rule_id for report in server.delivered}
        assert "ST-8b" in rules  # the misuser's release-without-request
        assert server.stats()["lossy_windows"] == 0
        assert all(
            report.confidence is Confidence.CONFIRMED
            for report in server.delivered
        )

    def test_connection_cut_recovers_without_loss(self):
        kernel = make_kernel(4)
        server = DetectionServer(kernel)
        net = SimNetwork(server)
        client = DetectionClient(
            kernel, net.connect, name="c0", interval=5.0,
            backoff_base=0.5, backoff_max=4.0, seed=4,
        )
        attach_workload(kernel, client, operations=30, misuse=True)

        def saboteur():
            for __ in range(3):
                yield Delay(17.0)
                net.cut_all()

        kernel.spawn(client_process(client, rounds=12), "client")
        kernel.spawn(network_process(net, interval=0.5), "net")
        kernel.spawn(saboteur(), "saboteur")
        kernel.run(until=300.0)
        kernel.raise_failures()
        stats = client.stats()
        assert stats["errors"] == []
        assert stats["connects"] >= 4  # initial + one per cut
        assert stats["windows_acked"] == stats["windows_captured"] > 0
        # Buffered replay covered every cut: nothing lossy, nothing lost.
        assert server.stats()["lossy_windows"] == 0
        keys = [service_report_key(r) for r in server.delivered]
        assert len(keys) == len(set(keys))
