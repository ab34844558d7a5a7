"""Wire protocol: window codecs round-trip, frame discriminators."""

import json

import pytest

from repro.history.events import enter_event
from repro.history.sink import Segment
from repro.history.states import QueueEntry, SchedulingState
from repro.service.framing import FrameDecoder, encode_frame
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ack_frame,
    backpressure_frame,
    bye_frame,
    error_frame,
    frame_type,
    hello_frame,
    ping_frame,
    pong_frame,
    segment_from_wire,
    segment_to_wire,
    welcome_frame,
    window_frame,
)


def state(t):
    return SchedulingState(
        time=t,
        entry_queue=(),
        cond_queues={"NotFull": (QueueEntry(2, "consumer", t),)},
        running=(QueueEntry(1, "producer", t),),
    )


def segment(dropped=0):
    events = tuple(
        enter_event(seq, 1, "Send", float(seq), flag=1) for seq in range(3)
    )
    return Segment(
        previous=state(0.0), events=events, current=state(5.0), dropped=dropped
    )


class TestSegmentCodec:
    def test_roundtrip_preserves_everything(self):
        original = segment(dropped=2)
        rebuilt = segment_from_wire(segment_to_wire(original))
        assert rebuilt == original
        assert rebuilt.dropped == 2
        assert not rebuilt.complete

    def test_wire_form_is_json_compatible(self):
        wire = segment_to_wire(segment())
        assert json.loads(json.dumps(wire)) == wire

    def test_roundtrip_survives_framing(self):
        original = segment()
        frame = window_frame("buffer", 0, 5.0, original)
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        assert segment_from_wire(decoded["segment"]) == original

    def test_malformed_segment_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            segment_from_wire({"events": []})

    @pytest.mark.parametrize("dropped", [-1, True, "2", 1.5, None])
    def test_dropped_must_be_a_count(self, dropped):
        # A negative count would cancel the server's own loss accounting.
        wire = segment_to_wire(segment())
        wire["dropped"] = dropped
        with pytest.raises(ProtocolError):
            segment_from_wire(wire)

    def test_missing_dropped_defaults_to_zero(self):
        wire = segment_to_wire(segment())
        del wire["dropped"]
        assert segment_from_wire(wire).complete


class TestFrameShapes:
    def test_hello_carries_version_and_resume(self):
        frame = hello_frame(
            "c1", "c1-0", [{"label": "buffer", "declaration": "..."}],
            {"buffer": 4},
        )
        assert frame["version"] == PROTOCOL_VERSION
        assert frame["resume"] == {"buffer": 4}
        assert frame_type(frame, expect="hello") == "hello"

    def test_window_carries_loss_accounting(self):
        frame = window_frame(
            "buffer", 7, 5.0, segment(), lost_windows=2, lost_events=9
        )
        assert (frame["lost_windows"], frame["lost_events"]) == (2, 9)
        assert frame["seq"] == 7

    def test_every_frame_has_a_type(self):
        frames = [
            welcome_frame({"buffer": -1}, 16, resumed=False),
            ack_frame({"buffer": 0}, 16),
            backpressure_frame("quota", in_flight=17),
            ping_frame(1.0),
            pong_frame(1.0),
            error_frame("boom"),
            bye_frame(),
        ]
        kinds = [frame_type(frame) for frame in frames]
        assert kinds == [
            "welcome", "ack", "backpressure", "ping", "pong", "error", "bye"
        ]

    def test_frame_type_rejects_missing_or_wrong_type(self):
        with pytest.raises(ProtocolError):
            frame_type({"no": "type"})
        with pytest.raises(ProtocolError):
            frame_type({"type": 3})
        with pytest.raises(ProtocolError):
            frame_type(bye_frame(), expect="hello")
