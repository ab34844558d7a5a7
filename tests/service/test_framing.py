"""Framing grammar: encode/decode under arbitrary splits, torn tails."""

import json

import pytest

from repro.errors import ServiceError
from repro.service.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    encode_frame,
    good_jsonl_prefix,
)


def frames_of(*payloads):
    return b"".join(encode_frame(p) for p in payloads)


class TestEncodeFrame:
    def test_shape_is_length_newline_body_newline(self):
        raw = encode_frame({"type": "ping", "sent_at": 1.5})
        header, body = raw.split(b"\n", 1)
        assert int(header) == len(body)
        assert body.endswith(b"\n")
        assert json.loads(body) == {"type": "ping", "sent_at": 1.5}

    def test_body_is_compact_json(self):
        raw = encode_frame({"a": 1, "b": [2, 3]})
        assert b" " not in raw.split(b"\n", 1)[1]

    def test_frame_stream_is_also_a_line_stream(self):
        raw = frames_of({"a": 1}, {"b": 2})
        lines = raw.decode("utf-8").splitlines()
        assert len(lines) == 4
        assert lines[0].isdigit() and lines[2].isdigit()
        assert json.loads(lines[1]) == {"a": 1}
        assert json.loads(lines[3]) == {"b": 2}


class TestFrameDecoder:
    def test_roundtrip_single_feed(self):
        payloads = [{"type": "ping", "sent_at": t} for t in range(5)]
        decoder = FrameDecoder()
        assert decoder.feed(frames_of(*payloads)) == payloads
        assert decoder.frames_decoded == 5
        assert decoder.pending_bytes == 0

    def test_roundtrip_byte_at_a_time(self):
        payloads = [{"seq": n, "data": "x" * n} for n in range(4)]
        raw = frames_of(*payloads)
        decoder = FrameDecoder()
        out = []
        for index in range(len(raw)):
            out.extend(decoder.feed(raw[index : index + 1]))
        assert out == payloads

    def test_incomplete_frame_waits_in_buffer(self):
        raw = encode_frame({"type": "bye"})
        decoder = FrameDecoder()
        assert decoder.feed(raw[:-3]) == []
        assert decoder.pending_bytes > 0
        assert decoder.feed(raw[-3:]) == [{"type": "bye"}]

    def test_split_inside_length_header(self):
        raw = encode_frame({"k": "v" * 20})
        decoder = FrameDecoder()
        assert decoder.feed(raw[:1]) == []
        assert decoder.feed(raw[1:]) == [{"k": "v" * 20}]

    def test_non_digit_header_is_a_frame_error(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"nope\n{}\n")

    def test_non_digit_partial_header_detected_early(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"GET /")

    def test_unterminated_header_overflow_is_a_frame_error(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"9" * 30)

    def test_oversized_announcement_is_a_frame_error(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(FrameError):
            decoder.feed(b"65\n")

    def test_zero_length_announcement_is_a_frame_error(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"0\n")

    def test_undecodable_body_is_a_frame_error(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"4\n{,}\n")

    def test_non_object_body_is_a_frame_error(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"3\n42\n")

    def test_frame_error_is_a_service_error(self):
        assert issubclass(FrameError, ServiceError)

    def test_default_ceiling_matches_module_constant(self):
        assert FrameDecoder().max_frame_bytes == MAX_FRAME_BYTES

    def test_tiny_ceiling_rejected(self):
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=1)


class TestGoodJsonlPrefix:
    GOOD = b'{"kind":"event","seq":0}\n{"kind":"event","seq":1}\n'

    def test_clean_stream_is_fully_good(self):
        assert good_jsonl_prefix(self.GOOD) == len(self.GOOD)

    def test_empty_stream(self):
        assert good_jsonl_prefix(b"") == 0

    def test_partial_final_line_stripped(self):
        raw = self.GOOD + b'{"kind":"ev'
        assert good_jsonl_prefix(raw) == len(self.GOOD)

    def test_trailing_blank_lines_stripped(self):
        raw = self.GOOD + b"\n\n"
        assert good_jsonl_prefix(raw) == len(self.GOOD)

    def test_dangling_length_prefix_stripped(self):
        # The truncated-length-prefix crash signature: a frame's header
        # line made it to disk but its body never did.
        raw = self.GOOD + b"187\n"
        assert good_jsonl_prefix(raw) == len(self.GOOD)

    def test_length_prefix_then_partial_body_stripped(self):
        raw = self.GOOD + b'42\n{"kind":'
        assert good_jsonl_prefix(raw) == len(self.GOOD)

    def test_one_junk_line_stripped(self):
        raw = self.GOOD + b'{"kind": torn\n'
        assert good_jsonl_prefix(raw) == len(self.GOOD)

    def test_non_object_json_line_stripped(self):
        # A JSON scalar is no record; an array is (a WAL line's row).
        raw = self.GOOD + b'"half a record"\n'
        assert good_jsonl_prefix(raw) == len(self.GOOD)

    def test_array_line_is_a_record(self):
        raw = self.GOOD + b'[0,"Enter",1,"Op",0.5,1,null]\n'
        assert good_jsonl_prefix(raw) == len(raw)
        assert good_jsonl_prefix(raw + b'[1,"Ent') == len(raw)

    def test_two_junk_lines_left_for_replay_to_raise_on(self):
        # Two distinct junk lines cannot come from one torn write; the
        # scan refuses to hide them so replay surfaces the corruption.
        raw = self.GOOD + b"junk one\njunk two\n"
        assert good_jsonl_prefix(raw) == len(raw) - len(b"junk two\n")

    def test_all_torn_stream_is_empty_prefix(self):
        assert good_jsonl_prefix(b"187\n") == 0
        assert good_jsonl_prefix(b'{"partial') == 0
