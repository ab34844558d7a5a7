"""The detection-service wire protocol: frame shapes and window codecs.

Every message is one length-prefixed JSON object frame (see
:mod:`repro.service.framing`) with a ``"type"`` discriminator:

========== ======== ===============================================
type       sender   meaning
========== ======== ===============================================
hello      client   handshake: name, resume token, stream catalogue
                    (rendered declarations + rule overrides) and the
                    client's last-acked watermark per stream
welcome    server   handshake reply: authoritative per-stream
                    watermarks and the initial window credits
window     client   one checkpoint window of one stream: sequence
                    number, the cut segment (each state and each event
                    a positional row), and carried loss accounting
                    for windows shed client-side
ack        server   durably-processed watermarks + replenished credits
backpressure server the connection is over its ingest quota; stop
                    sending windows until an ack restores credits
ping/pong  both     heartbeat (silent-death detection)
error      server   protocol violation; the connection is quarantined
bye        client   orderly goodbye
========== ======== ===============================================

Windows use the history serialisation codecs
(:mod:`repro.history.serialize`): a :class:`~repro.history.sink.Segment`
travels as its previous/current states plus the event list, with the
``dropped`` count — the same triple the in-process checker consumes, so
the server-side shadow evaluation is input-identical to local checking.
Each state and each event is the row that snapshots and trace files
hold too (and WAL lines, for events): a state ``[time, entry_queue,
cond_queues, running, urgent, resource_count]``, an event ``[seq, kind,
pid, pname, time, flag, cond]`` (``kind`` as its
:class:`~repro.history.events.EventKind` value, ``cond`` null when
absent).  The server decodes the rows with
type checks at this trust boundary; any other shape, including the keyed
event objects of version 1 and the keyed states of version 2, is a
:class:`ProtocolError` that quarantines the sending connection.  Version
3 ships states as rows, so a client of an earlier version is refused at
hello.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HistoryError, ServiceError
from repro.history.serialize import segment_from_dict, segment_to_dict
from repro.history.sink import Segment

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "segment_to_wire",
    "segment_from_wire",
    "hello_frame",
    "welcome_frame",
    "window_frame",
    "ack_frame",
    "backpressure_frame",
    "ping_frame",
    "pong_frame",
    "error_frame",
    "bye_frame",
    "frame_type",
]

#: Version 3 ships window states and events as rows.  A client of
#: another version is refused at hello, so no server ever has to guess
#: which shape a window carries.
PROTOCOL_VERSION = 3

#: Per-stream rule overrides a hello may carry (applied server-side on
#: top of the daemon's base DetectorConfig).
STREAM_OVERRIDES = ("tmax", "tio", "tlimit")


class ProtocolError(ServiceError):
    """A structurally valid frame violated the protocol state machine."""


# ----------------------------------------------------------------- windows


def segment_to_wire(segment: Segment) -> dict:
    """One cut checkpoint window as a JSON-compatible dict, states and
    events as rows.

    The codec itself lives in :mod:`repro.history.serialize`; this
    wrapper pins the service's wire shape to it.
    """
    return segment_to_dict(segment)


def segment_from_wire(raw: dict) -> Segment:
    """Rebuild a :class:`~repro.history.sink.Segment` from wire form; a
    malformed segment or event is a :class:`ProtocolError`."""
    try:
        return segment_from_dict(raw)
    except HistoryError as exc:
        raise ProtocolError(f"malformed window segment: {exc}") from exc


# ------------------------------------------------------------------ frames


def hello_frame(
    name: str,
    token: str,
    streams: list[dict],
    resume: dict[str, int],
) -> dict:
    """Client handshake.

    ``streams`` entries carry ``label``, the rendered monitor
    ``declaration`` (parsed server-side into a shadow monitor) and any
    :data:`STREAM_OVERRIDES`; ``resume`` maps stream label to the highest
    window sequence the client has seen acked (−1 = nothing yet).
    """
    return {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "name": name,
        "token": token,
        "streams": streams,
        "resume": resume,
    }


def welcome_frame(
    watermarks: dict[str, int], credits: int, *, resumed: bool
) -> dict:
    return {
        "type": "welcome",
        "version": PROTOCOL_VERSION,
        "watermarks": watermarks,
        "credits": credits,
        "resumed": resumed,
    }


def window_frame(
    stream: str,
    seq: int,
    taken_at: float,
    segment: Segment,
    *,
    lost_windows: int = 0,
    lost_events: int = 0,
) -> dict:
    """One checkpoint window.  ``lost_*`` carries client-side shedding:
    windows evicted from the replay buffer before they could be shipped,
    folded into this (surviving) window's loss accounting."""
    return {
        "type": "window",
        "stream": stream,
        "seq": seq,
        "taken_at": taken_at,
        "segment": segment_to_wire(segment),
        "lost_windows": lost_windows,
        "lost_events": lost_events,
    }


def ack_frame(watermarks: dict[str, int], credits: int) -> dict:
    return {"type": "ack", "watermarks": watermarks, "credits": credits}


def backpressure_frame(reason: str, *, in_flight: int) -> dict:
    return {"type": "backpressure", "reason": reason, "in_flight": in_flight}


def ping_frame(sent_at: float) -> dict:
    return {"type": "ping", "sent_at": sent_at}


def pong_frame(sent_at: float) -> dict:
    return {"type": "pong", "sent_at": sent_at}


def error_frame(reason: str) -> dict:
    return {"type": "error", "reason": reason}


def bye_frame() -> dict:
    return {"type": "bye"}


def frame_type(frame: dict, *, expect: Optional[str] = None) -> str:
    """The frame's ``type`` field; raises :class:`ProtocolError` when it
    is absent, not a string, or (with ``expect``) not the expected one."""
    kind = frame.get("type")
    if not isinstance(kind, str):
        raise ProtocolError(f"frame without a type: {frame!r}")
    if expect is not None and kind != expect:
        raise ProtocolError(f"expected {expect!r} frame, got {kind!r}")
    return kind
