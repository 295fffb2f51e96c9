"""The ``repro-serve/1`` wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests carry
``{"schema": "repro-serve/1", "verb": ...}`` plus verb-specific fields;
responses add ``"ok"`` and, on failure, a machine-readable ``"error"``
code (``queue_full`` failures also carry ``retry_after`` seconds, the
HTTP-429 analogue).

:func:`validate_envelope` schema-checks a response the same way
:func:`repro.obs.validate_payload` checks a telemetry dump and
:func:`repro.harness.service.validate_manifest` checks a run manifest:
the client runs it on every reply, the server asserts it on every
response it writes, and the tests feed both good and corrupted
envelopes through it.
"""
from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from .. import faults

#: wire schema tag, bumped when the framing or envelope layout changes
SCHEMA = "repro-serve/1"

# Failpoints on the daemon-side framing (the async entry points only;
# the blocking client-side helpers stay clean).  ``disconnect`` raises a
# ConnectionResetError subclass, so an injected drop flows through the
# server's ordinary connection-teardown path.
faults.declare("serve.frame.read", "disconnect", "delay")
faults.declare("serve.frame.write", "disconnect", "delay")

#: default TCP port of ``python -m repro serve``
DEFAULT_PORT = 7453

#: hard per-frame size bound (a submit reply is a rendered table, KBs)
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: every verb a request may name (``error`` is reserved for replies to
#: requests too malformed to echo a verb back)
VERBS = ("submit", "status", "health", "stats", "drain", "experiments",
         "error")

#: machine-readable error codes a reply may carry
ERROR_CODES = (
    "bad_request",
    "unknown_verb",
    "unknown_experiment",
    "draining",
    "queue_full",
    "job_failed",
    "internal_error",
)


class ProtocolError(ValueError):
    """A malformed frame or envelope."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one message to its on-wire bytes."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds "
                            f"MAX_FRAME ({MAX_FRAME})")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame body is not an object: {payload!r:.60}")
    return payload


def _check_length(length: int) -> None:
    if length > MAX_FRAME:
        raise ProtocolError(f"incoming frame of {length} bytes exceeds "
                            f"MAX_FRAME ({MAX_FRAME})")


async def read_frame(reader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; None on clean EOF."""
    import asyncio

    faults.failpoint("serve.frame.read")
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_body(body)


async def write_frame(writer, payload: Dict[str, Any]) -> None:
    faults.failpoint("serve.frame.write")
    writer.write(encode_frame(payload))
    await writer.drain()


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking read of one frame from a socket; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def request(verb: str, **fields: Any) -> Dict[str, Any]:
    return {"schema": SCHEMA, "verb": verb, **fields}


def response(verb: str, **fields: Any) -> Dict[str, Any]:
    return {"schema": SCHEMA, "verb": verb, "ok": True, **fields}


def error_reply(verb: str, error: str, **fields: Any) -> Dict[str, Any]:
    return {"schema": SCHEMA, "verb": verb, "ok": False, "error": error,
            **fields}


def validate_envelope(payload: Any) -> None:
    """Schema-check one response envelope; raises :class:`ProtocolError`.

    Checks the schema tag, a known verb, a boolean ``ok``, an error
    code on failure replies, and that a ``retry_after`` backpressure
    hint (when present) is a non-negative number.
    """
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ProtocolError(f"not a {SCHEMA} envelope: {payload!r:.80}")
    verb = payload.get("verb")
    if verb not in VERBS:
        raise ProtocolError(f"unknown verb {verb!r} in envelope")
    ok = payload.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError(f"envelope 'ok' is not a bool: {ok!r}")
    if not ok:
        error = payload.get("error")
        if not isinstance(error, str) or not error:
            raise ProtocolError(
                f"failure envelope lacks an error code: {payload!r:.80}")
        if error not in ERROR_CODES:
            raise ProtocolError(f"unknown error code {error!r}")
    retry_after = payload.get("retry_after")
    if retry_after is not None:
        if (not isinstance(retry_after, (int, float))
                or isinstance(retry_after, bool) or retry_after < 0):
            raise ProtocolError(
                f"retry_after is not a non-negative number: {retry_after!r}")
