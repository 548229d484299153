"""The worker wire protocol: length-prefixed frames + content digests.

A worker process and its client share no memory, so the work the planner
keys by *identity* (programs and multiset tuples — the
:func:`repro.service.planner.group_key` convention) crosses the wire
named by *content*.  This module defines both halves:

* **framing** — every message is ``!IBI`` header (payload length, message
  type, CRC32 of the payload) followed by the payload bytes.  The worker
  pool ships frames over ``multiprocessing`` pipes (``send_bytes``/
  ``recv_bytes``).  Anything malformed — a truncated header, a CRC
  mismatch, an unknown message type — raises
  :class:`~repro.errors.WireProtocolError`, which is deliberately *not*
  retryable: a channel that corrupts data must be killed, not retried
  into a silently wrong number.
* **content digests** — :func:`content_digest` (sha256 over one pickle
  of the object, memoized with that pickle in the digested program's or
  program set's own ``memo``, so both die with their object; pickles carry
  no memo, so the digest does not depend on what was memoized) and
  :func:`call_digest` (one digest per group's compiled work + the
  observable's own key).  The client names each ``INSTALL`` artifact
  ``(kind, program, program_sets, observable)`` by its call digest and
  ships the work as the pickles it digested (:func:`encode_install`), so
  each work object is pickled once; the worker files the decoded artifact
  under that name (:func:`decode_install`).  Each ``EXECUTE`` references
  the digest and ships only the group's ``[(state, binding)]`` rows.  Only
  the client computes digests.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import traceback
import zlib

from repro.errors import RemoteExecutionError, SemanticsError, WireProtocolError

__all__ = [
    "WIRE_VERSION",
    "HELLO",
    "PING",
    "PONG",
    "INSTALL",
    "EXECUTE",
    "RESULT",
    "ERROR",
    "SHUTDOWN",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "dumps",
    "loads",
    "encode_error",
    "decode_error",
    "content_digest",
    "call_digest",
    "encode_install",
    "decode_install",
]

#: Protocol version, exchanged in the HELLO handshake.
WIRE_VERSION = 1

#: Message types.  HELLO flows worker→client once per process; PING/PONG
#: are the liveness heartbeat; INSTALL ships one content-addressed work
#: artifact; EXECUTE/RESULT/ERROR carry one batched group call and its
#: outcome; SHUTDOWN asks the worker to exit cleanly.
HELLO = 1
PING = 2
PONG = 3
INSTALL = 4
EXECUTE = 5
RESULT = 6
ERROR = 7
SHUTDOWN = 8

_MESSAGE_TYPES = frozenset(
    (HELLO, PING, PONG, INSTALL, EXECUTE, RESULT, ERROR, SHUTDOWN)
)

#: ``!IBI``: payload length, message type, CRC32 of the payload.
_HEADER = struct.Struct("!IBI")

#: Refuse absurd frames before allocating for them (a corrupted length
#: field must not become a multi-gigabyte read).
MAX_FRAME_BYTES = 1 << 30

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


# -- framing -----------------------------------------------------------------


def encode_frame(message_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: header (length, type, CRC32) + payload bytes."""
    if message_type not in _MESSAGE_TYPES:
        raise SemanticsError(f"unknown wire message type {message_type!r}")
    if len(payload) > MAX_FRAME_BYTES:
        raise SemanticsError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte wire limit"
        )
    return _HEADER.pack(len(payload), message_type, zlib.crc32(payload)) + payload


def decode_frame(data: bytes) -> "tuple[int, bytes]":
    """Validate and split one frame into ``(message_type, payload)``.

    Every malformation — short header, truncated or oversized payload,
    unknown type, CRC mismatch — raises
    :class:`~repro.errors.WireProtocolError`.
    """
    if len(data) < _HEADER.size:
        raise WireProtocolError(
            f"short frame: {len(data)} bytes is smaller than the "
            f"{_HEADER.size}-byte header"
        )
    length, message_type, crc = _HEADER.unpack_from(data)
    payload = data[_HEADER.size :]
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame claims a {length}-byte payload, over the "
            f"{MAX_FRAME_BYTES}-byte wire limit"
        )
    if len(payload) != length:
        raise WireProtocolError(
            f"frame length mismatch: header says {length} payload bytes, "
            f"got {len(payload)}"
        )
    if message_type not in _MESSAGE_TYPES:
        raise WireProtocolError(f"unknown wire message type {message_type}")
    if zlib.crc32(payload) != crc:
        raise WireProtocolError("frame CRC mismatch: the payload is corrupted")
    return message_type, payload


def send_frame(connection, message_type: int, payload: bytes = b"") -> None:
    """Encode and ship one frame over a ``multiprocessing`` connection."""
    connection.send_bytes(encode_frame(message_type, payload))


def recv_frame(connection) -> "tuple[int, bytes]":
    """Receive and validate one frame; blocks until a frame arrives.

    Raises ``EOFError`` when the peer is gone (the caller maps that onto
    :class:`~repro.errors.WorkerCrashError`) and
    :class:`~repro.errors.WireProtocolError` on malformed bytes.
    """
    return decode_frame(connection.recv_bytes())


def dumps(obj) -> bytes:
    """Canonical payload serialization (highest pickle protocol)."""
    return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


def loads(data: bytes):
    """Deserialize a payload; undecodable bytes are a protocol violation."""
    try:
        return pickle.loads(data)
    except Exception as error:
        raise WireProtocolError(f"undecodable frame payload: {error}") from error


# -- error transport ---------------------------------------------------------


def encode_error(error: BaseException) -> bytes:
    """Serialize a worker-side failure for the ERROR frame.

    The original exception travels verbatim when it pickles (so the
    client re-raises exactly what the backend raised, retry
    classification included); otherwise a
    :class:`~repro.errors.RemoteExecutionError` summary travels instead,
    mirroring the original's ``retryable`` flag.
    """
    try:
        payload = dumps(("exception", error))
        pickle.loads(payload)  # round-trip check: unpicklable state fails here
        return payload
    except Exception:
        return dumps(
            (
                "summary",
                type(error).__name__,
                str(error),
                bool(getattr(error, "retryable", False)),
                "".join(
                    traceback.format_exception(type(error), error, error.__traceback__)
                ),
            )
        )


def decode_error(data: bytes) -> BaseException:
    """Reconstruct a worker-side failure from an ERROR frame payload."""
    decoded = loads(data)
    if decoded[0] == "exception":
        return decoded[1]
    _, type_name, message, retryable, remote_traceback = decoded
    return RemoteExecutionError(
        f"worker-side {type_name}: {message}",
        retryable=retryable,
        remote_traceback=remote_traceback,
    )


# -- content digests ---------------------------------------------------------

def content_digest(obj) -> str:
    """The sha256 hex digest of one pickle of a program or program set.

    Pickle writes an object once per identity, so the bytes depend on which
    equal objects share one: equal work built the same way digests alike,
    and a decoded copy may not.  The AST interns variable names, so how a
    build made its names does not matter.  Only the client digests, to name
    the artifacts it installs; nothing decodes work and digests it again.

    Memoized in the object's own ``memo`` beside the pickle it hashed, so
    the planner's id-keyed groups pay one serialization per distinct work
    object, not one per drain, and :func:`encode_install` ships those bytes
    instead of pickling the work again.
    """
    digest = obj.memo.get("digest")
    if digest is None:
        payload = obj.memo.setdefault("pickle", dumps(obj))
        digest = obj.memo.setdefault("digest", hashlib.sha256(payload).hexdigest())
    return digest


def call_digest(kind: str, program, program_sets, observable) -> str:
    """One digest per group's compiled work + observable — the wire-side
    mirror of :func:`repro.service.planner.group_key`, by content."""
    if kind == "value":
        work = ("value", content_digest(program))
    else:
        work = (
            "derivative",
            tuple(content_digest(program_set) for program_set in program_sets or ()),
        )
    return hashlib.sha256(dumps((work, observable.key))).hexdigest()


def _content_pickle(obj) -> bytes:
    """The pickle :func:`content_digest` hashed, digesting ``obj`` if need be."""
    content_digest(obj)
    return obj.memo["pickle"]


def encode_install(digest: str, kind: str, program, program_sets, observable) -> bytes:
    """The INSTALL payload of one group's work, named by its call digest.

    The work travels as the pickles :func:`content_digest` hashed, so the
    client pickles each work object once however often it installs it.
    """
    if kind == "value":
        pickled = _content_pickle(program)
    else:
        pickled = tuple(_content_pickle(program_set) for program_set in program_sets or ())
    return dumps((digest, kind, pickled, observable))


def decode_install(payload: bytes):
    """``(digest, kind, program, program_sets, observable)`` of an INSTALL."""
    digest, kind, pickled, observable = loads(payload)
    if kind == "value":
        return digest, kind, loads(pickled), None, observable
    return digest, kind, None, tuple(loads(item) for item in pickled), observable
