"""Length-prefixed JSONL framing shared by the socket protocol and the WAL.

One frame on the wire is::

    <decimal byte count>\\n
    <that many bytes of compact JSON, ending in \\n>

The body's trailing newline is counted in the length, so a frame stream
is *also* a well-formed line stream — every frame contributes a bare
integer line followed by a JSON-object line.  That makes the torn-tail
story identical on both sides of the wire: whether a writer died
mid-append to a WAL segment or a connection died mid-frame, the durable
prefix ends at the last complete line that parses as a JSON **array or
object** (a WAL line is an event row, a journal line or a frame body an
object), and everything after it — a partial line, a dangling length
prefix whose body never arrived, a half-encoded scalar — is torn tail.
:func:`good_jsonl_prefix` computes that prefix; the write-ahead log and
both report journals truncate to it on reopen (the journals through
:func:`load_jsonl_journal`), and :class:`FrameDecoder` enforces the same
grammar incrementally on a live byte stream.

This module is deliberately stdlib-only (no imports from the history or
detection layers) so the WAL can share it without an import cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional

from repro.errors import RecoveryError, ServiceError

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "FrameDecoder",
    "good_jsonl_prefix",
    "load_jsonl_journal",
]

#: Default upper bound on one frame's body, header included in spirit:
#: a peer announcing more than this is malformed, not ambitious.
MAX_FRAME_BYTES = 8 << 20

#: A length header longer than this many digits is garbage, not a number
#: (10**20 bytes in one frame is no one's event window).
_MAX_HEADER_DIGITS = 20


class FrameError(ServiceError):
    """The byte stream violated the framing grammar (poisoned peer)."""


def encode_frame(payload: dict) -> bytes:
    """Encode one JSON-compatible dict as a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
    return b"%d\n%s" % (len(body), body)


class FrameDecoder:
    """Incremental decoder for a stream of length-prefixed JSON frames.

    Feed it whatever the transport produced — any split of bytes — and it
    returns every complete frame decoded so far.  A grammar violation
    (non-digit header, oversized announcement, body that is not a JSON
    object) raises :class:`FrameError`; the caller quarantines the
    connection.  Bytes of an incomplete trailing frame simply wait in the
    buffer for the next ``feed``.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 2:
            raise ValueError(
                f"max_frame_bytes must be >= 2, got {max_frame_bytes}"
            )
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        #: Announced body length currently awaited (None = reading header).
        self._needed: Optional[int] = None
        self.frames_decoded = 0
        self.bytes_fed = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Consume ``data``; return every frame it completed, in order."""
        self.bytes_fed += len(data)
        self._buffer += data
        frames: list[dict] = []
        while True:
            if self._needed is None:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    if len(self._buffer) > _MAX_HEADER_DIGITS:
                        raise FrameError(
                            "unterminated frame header: "
                            f"{bytes(self._buffer[:32])!r}"
                        )
                    if self._buffer and not self._buffer.isdigit():
                        raise FrameError(
                            f"non-numeric frame header: "
                            f"{bytes(self._buffer[:32])!r}"
                        )
                    return frames
                header = bytes(self._buffer[:newline])
                if not header.isdigit():
                    raise FrameError(f"non-numeric frame header: {header!r}")
                needed = int(header)
                if not 2 <= needed <= self.max_frame_bytes:
                    raise FrameError(
                        f"frame length {needed} outside "
                        f"[2, {self.max_frame_bytes}]"
                    )
                del self._buffer[: newline + 1]
                self._needed = needed
            if len(self._buffer) < self._needed:
                return frames
            body = bytes(self._buffer[: self._needed])
            del self._buffer[: self._needed]
            self._needed = None
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise FrameError(f"undecodable frame body: {exc}") from exc
            if not isinstance(payload, dict):
                raise FrameError(
                    f"frame body must be a JSON object, got "
                    f"{type(payload).__name__}"
                )
            self.frames_decoded += 1
            frames.append(payload)


def good_jsonl_prefix(raw: bytes) -> int:
    """Byte length of the durable prefix of a JSONL byte stream.

    The prefix ends at the last complete, newline-terminated line whose
    content parses as a JSON *array or object* — the only record shapes
    the WAL (event rows), the report journals and the wire protocol
    (objects) ever write.  Scanning from the tail, the following are
    recognised as torn and excluded:

    * a final line without its newline (died mid-body — or mid-header),
    * trailing blank lines,
    * complete all-digit lines (a length prefix whose body never made it
      to disk — the truncated-length-prefix crash signature),
    * at most **one** complete line that is junk in any other way (not
      JSON, or a JSON scalar): a single torn write can corrupt
      at most one such line, so anything deeper is real corruption and is
      deliberately left in place for replay to raise on.
    """
    good = len(raw)
    if raw and not raw.endswith(b"\n"):
        # Partial final line: torn mid-body or mid-length-header.
        good = raw.rfind(b"\n") + 1
    stripped_junk = False
    while good > 0:
        start = raw.rfind(b"\n", 0, good - 1) + 1
        line = raw[start:good].strip()
        if not line:
            good = start  # trailing blank line: harmless filler
            continue
        if line.isdigit():
            # A dangling frame-length prefix; never a valid record.
            good = start
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            if stripped_junk:
                break  # two junk lines deep: corruption, not a torn tail
            stripped_junk = True
            good = start
            continue
        if isinstance(record, (dict, list)):
            break
        if stripped_junk:
            break
        stripped_junk = True
        good = start
    return good


def load_jsonl_journal(path: Path, apply: Callable[[dict], None]) -> bool:
    """Reopen an append-only JSONL journal: cut its torn tail, replay the rest.

    Truncates the file in place to its :func:`good_jsonl_prefix`, passes
    each remaining record to ``apply`` in file order, and returns whether
    a torn tail was cut.  A line before the tail that is not a JSON
    object (a complete array line included, which the prefix counts as a
    record), or that ``apply`` rejects with
    :class:`~repro.errors.RecoveryError`, is corruption, not a torn
    write: the :class:`~repro.errors.RecoveryError` raised names the file
    and the 1-based line.
    """
    raw = path.read_bytes()
    good = good_jsonl_prefix(raw)
    if good < len(raw):
        with open(path, "r+b") as handle:
            handle.truncate(good)
    for number, line in enumerate(raw[:good].splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise RecoveryError(
                f"{path.name} line {number}: corrupt journal: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise RecoveryError(
                f"{path.name} line {number}: corrupt journal: "
                f"{type(record).__name__} record, not an object"
            )
        try:
            apply(record)
        except RecoveryError as exc:
            raise RecoveryError(f"{path.name} line {number}: {exc}") from exc
    return good < len(raw)
