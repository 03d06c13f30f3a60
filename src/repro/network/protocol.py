"""The LoadGen-over-network wire protocol.

A versioned, length-prefixed binary framing plus a small self-describing
payload codec.  The real MLPerf Network division draws the SUT boundary
at a wire: the LoadGen and the inference server sit on opposite ends of
a connection, and everything the wire adds - serialization, kernel
queues, propagation - counts against the QoS bound.  This module is that
wire's contract.

Framing::

    +-------+---------+------+-----------------+----------------+
    | magic | version | type | payload length  |    payload     |
    |  2 B  |   1 B   | 1 B  |  4 B big-endian | length bytes   |
    +-------+---------+------+-----------------+----------------+

Eight frame types cover the conversation: ``HELLO`` (version/name
exchange, first frame on every connection), ``LOAD`` (untimed sample
preload, the Fig. 3 steps 1-4 analogue), ``ISSUE`` (one query),
``COMPLETE`` (responses plus server-side timestamps), ``FAIL`` (a
query-scoped recorded failure), ``DRAIN`` (graceful end-of-session),
``STATS`` (server counters; also the reply to ``LOAD``/``DRAIN``), and
``CHUNK`` (one streamed piece of an answer; zero or more precede the
query's ``COMPLETE``).

The payload codec is a tagged, nested encoding of the JSON scalar
types plus ``bytes`` and C-contiguous numpy arrays (dtype + shape +
raw data), so inference inputs and outputs cross the wire without a
text round-trip.  It is one pass in each direction: serialization is
charged to the SUT's latency, so the harness keeps its own share small.

Two error contracts, and nothing else escapes either side:

* **Out:** every encode path raises ``TypeError`` for what the wire
  cannot carry - a foreign type, an integer outside int64, a string
  that is not Unicode, nesting past :data:`MAX_DEPTH`, a frame over
  :data:`MAX_FRAME_BYTES`.  A sender catches exactly that and fails the
  one query (a FAIL frame) instead of losing its thread.
* **In:** every decode path raises :class:`ProtocolError` on malformed
  input - bad magic, unknown version or frame type, truncated or
  oversized frames, garbage payload bytes, an impossible ndarray, a
  well-framed message with fields of the wrong type.  Peers treat a
  ``ProtocolError`` as a poisoned connection: there is no way to
  resynchronise a byte stream with a corrupt length prefix, so the
  connection is closed and the in-flight queries on it surface through
  the existing failed-query machinery (never as hangs).
"""

from __future__ import annotations

import enum
import socket
import struct
import sys
import threading
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Tuple

from ..core.query import (Query, QuerySample, QuerySampleResponse, StreamChunk,
                          new_chunk, new_response)

MAGIC = b"MI"
VERSION = 1

#: Upper bound on one frame's payload.  A length prefix beyond this is
#: treated as stream corruption rather than an instruction to buffer
#: gigabytes (an offline query of 24,576 float32 ImageNet-sized samples
#: still fits comfortably).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">2sBBI")

#: The two fields of a ``[sample id, data]`` wire entry, read in C.
_FIRST, _SECOND = itemgetter(0), itemgetter(1)


class ProtocolError(Exception):
    """The byte stream violated the wire contract."""


class FrameType(enum.IntEnum):
    """The eight conversation frame types."""

    HELLO = 1
    LOAD = 2
    ISSUE = 3
    COMPLETE = 4
    FAIL = 5
    DRAIN = 6
    STATS = 7
    #: One streamed chunk of an answer; zero or more CHUNK frames
    #: precede a query's COMPLETE (or FAIL) frame.
    CHUNK = 8


# -- payload codec -------------------------------------------------------------
#
# One-byte tag, then a fixed or length-prefixed body.  Containers nest,
# at most MAX_DEPTH deep:
#
#   Z T F   None / True / False          (tag only)
#   I       int64, big-endian            D   float64, big-endian
#   S       u32 length + utf-8           B   u32 length + raw bytes
#   N       u16 length + dtype.str, u16 ndim, ndim x u32 dims, C-order data
#   L       u32 count + that many values
#   M       u32 count + that many (S key, value) pairs
#
# Both directions are a single pass.  Encoding appends to one bytearray
# per frame through a table keyed by the value's exact class; decoding
# walks the frame buffer in place by index and ``unpack_from``.

#: Containers may nest this deep, in either direction.  The decoder is
#: recursive, so an unbounded peer could otherwise spend its stack.
MAX_DEPTH = 64

_TAG_I64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")
_TAG_U32 = struct.Struct(">cI")
_TAG_U16 = struct.Struct(">cH")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


def _unencodable(what: str) -> TypeError:
    return TypeError(f"{what} is not wire-encodable")


# An encoder appends ``value`` to ``buf``; ``depth`` counts the
# containers around it.  Every refusal is a TypeError - senders catch
# exactly that to fail one query instead of losing the connection.

def _enc_none(buf: bytearray, value: Any, depth: int) -> None:
    buf += b"Z"


def _enc_bool(buf: bytearray, value: Any, depth: int) -> None:
    buf += b"T" if value else b"F"


def _enc_int(buf: bytearray, value: Any, depth: int) -> None:
    try:
        buf += _TAG_I64.pack(b"I", value)
    except (struct.error, OverflowError):
        raise _unencodable(f"integer {value} (outside int64)") from None


def _enc_float(buf: bytearray, value: Any, depth: int) -> None:
    buf += _TAG_F64.pack(b"D", value)


def _enc_count(buf: bytearray, tag: bytes, count: int) -> None:
    """``tag`` and the u32 length or item count that follows it."""
    try:
        buf += _TAG_U32.pack(tag, count)
    except struct.error:
        raise _unencodable(f"value of {count} bytes or items") from None


def _enc_str(buf: bytearray, value: Any, depth: int) -> None:
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _unencodable(f"string ({exc})") from None
    _enc_count(buf, b"S", len(raw))
    buf += raw


def _enc_bytes(buf: bytearray, value: Any, depth: int) -> None:
    _enc_count(buf, b"B", len(value))
    buf += value


def _enc_ndarray(buf: bytearray, value: Any, depth: int) -> None:
    if value.dtype.hasobject:
        raise _unencodable("object-dtype ndarray")
    dtype = value.dtype.str.encode("ascii")
    try:
        buf += _TAG_U16.pack(b"N", len(dtype))
        buf += dtype
        buf += _U16.pack(value.ndim)
        for dim in value.shape:
            buf += _U32.pack(dim)
    except struct.error:
        raise _unencodable(f"ndarray of shape {value.shape}") from None
    buf += value.tobytes()  # C order, whatever the array's layout


def _enc_list(buf: bytearray, value: Any, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise _unencodable(f"payload nested deeper than {MAX_DEPTH}")
    _enc_count(buf, b"L", len(value))
    depth += 1
    for item in value:
        _ENCODERS[item.__class__](buf, item, depth)


def _enc_dict(buf: bytearray, value: Any, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise _unencodable(f"payload nested deeper than {MAX_DEPTH}")
    _enc_count(buf, b"M", len(value))
    depth += 1
    for key, item in value.items():
        if key.__class__ is not str and not isinstance(key, str):
            raise TypeError(f"payload dict keys must be str, got {key!r}")
        _enc_str(buf, key, depth)
        _ENCODERS[item.__class__](buf, item, depth)


class _Encoders(dict):
    """Exact class -> encoder.  A class met for the first time (an
    ``IntEnum``, a numpy scalar, a tuple, ``bytearray``) resolves once
    through the base-class order below and is remembered.  numpy's
    classes join the order only once numpy is loaded: no numpy value
    exists before, and a process that never sends one never imports
    numpy."""

    def __missing__(self, cls: type):
        np = sys.modules.get("numpy")
        order = _ENCODER_ORDER if np is None else _ENCODER_ORDER + (
            (np.integer, _enc_int), (np.floating, _enc_float),
            (np.ndarray, _enc_ndarray))
        for bases, encoder in order:
            if issubclass(cls, bases):
                self[cls] = encoder
                return encoder
        raise _unencodable(f"value of type {cls.__name__}")


#: First match wins; ``bool`` must precede ``int``.
_ENCODER_ORDER = (
    (type(None), _enc_none),
    (bool, _enc_bool),
    (int, _enc_int),
    (float, _enc_float),
    (str, _enc_str),
    ((bytes, bytearray), _enc_bytes),
    ((list, tuple), _enc_list),
    (dict, _enc_dict),
)
_ENCODERS = _Encoders()


def encode_value(value: Any) -> bytes:
    """Encode one payload value.  Raises ``TypeError``, and nothing
    else, on anything the wire cannot carry: a foreign type, an integer
    outside int64, a string that is not valid Unicode, nesting deeper
    than :data:`MAX_DEPTH`."""
    buf = bytearray()
    _ENCODERS[value.__class__](buf, value, 0)
    return bytes(buf)


def _truncated(pos: int, limit: int, want: int) -> ProtocolError:
    return ProtocolError(
        f"payload truncated: wanted {want} bytes at offset {pos}, "
        f"only {max(limit - pos, 0)} remain")


# A decoder reads the body of one value from ``data[pos:limit]`` (its
# tag already consumed) and returns ``(value, position after it)``.
# Every refusal is a ProtocolError; nothing is sliced off the buffer
# except the bytes a str / bytes / ndarray value keeps.  (The length
# prefix is read in place in both _dec_str and _dec_bytes: a shared
# helper would cost a call per mapping key.)

def _dec_int(data, pos: int, limit: int, depth: int):
    if pos + 8 > limit:
        raise _truncated(pos, limit, 8)
    return _I64.unpack_from(data, pos)[0], pos + 8


def _dec_float(data, pos: int, limit: int, depth: int):
    if pos + 8 > limit:
        raise _truncated(pos, limit, 8)
    return _F64.unpack_from(data, pos)[0], pos + 8


def _dec_str(data, pos: int, limit: int, depth: int):
    start = pos + 4
    if start > limit:
        raise _truncated(pos, limit, 4)
    end = start + _U32.unpack_from(data, pos)[0]
    if end > limit:
        raise _truncated(start, limit, end - start)
    try:
        return str(data[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            f"invalid utf-8 in string payload: {exc}") from None


def _dec_bytes(data, pos: int, limit: int, depth: int):
    start = pos + 4
    if start > limit:
        raise _truncated(pos, limit, 4)
    end = start + _U32.unpack_from(data, pos)[0]
    if end > limit:
        raise _truncated(start, limit, end - start)
    return bytes(data[start:end]), end


def _dec_ndarray(data, pos: int, limit: int, depth: int):
    import numpy as np

    if pos + 2 > limit:
        raise _truncated(pos, limit, 2)
    start = pos + 2
    pos = start + _U16.unpack_from(data, pos)[0]
    if pos + 2 > limit:
        raise _truncated(start, limit, pos + 2 - start)
    try:
        dtype = np.dtype(str(data[start:pos], "ascii"))
    except Exception as exc:  # TypeError, ValueError, SyntaxError ...
        raise ProtocolError(f"invalid ndarray dtype: {exc}") from None
    if dtype.hasobject or dtype.itemsize == 0:
        raise ProtocolError(f"ndarray dtype {dtype.str} is not wire-decodable")
    ndim = _U16.unpack_from(data, pos)[0]
    pos += 2
    if pos + 4 * ndim > limit:
        raise _truncated(pos, limit, 4 * ndim)
    shape = []
    count = 1  # a Python int: no product of u32 dims can wrap it
    for _ in range(ndim):
        dim = _U32.unpack_from(data, pos)[0]
        shape.append(dim)
        count *= dim
        pos += 4
    end = pos + count * dtype.itemsize
    if end > limit:
        raise _truncated(pos, limit, end - pos)
    try:
        return np.frombuffer(data, dtype=dtype, count=count,
                             offset=pos).reshape(shape).copy(), end
    except ValueError as exc:  # e.g. zero-size with unrepresentable dims
        raise ProtocolError(f"invalid ndarray shape {shape}: {exc}") from None


def _dec_count(data, pos: int, limit: int, depth: int) -> int:
    """The u32 count that opens a container's body."""
    if depth >= MAX_DEPTH:
        raise ProtocolError(f"payload nested deeper than {MAX_DEPTH}")
    if pos + 4 > limit:
        raise _truncated(pos, limit, 4)
    return _U32.unpack_from(data, pos)[0]


def _dec_list(data, pos: int, limit: int, depth: int):
    count = _dec_count(data, pos, limit, depth)
    pos += 4
    depth += 1
    out = []
    for _ in range(count):
        if pos >= limit:
            raise _truncated(pos, limit, 1)
        value, pos = _DECODERS[data[pos]](data, pos + 1, limit, depth)
        out.append(value)
    return out, pos


def _dec_dict(data, pos: int, limit: int, depth: int):
    count = _dec_count(data, pos, limit, depth)
    pos += 4
    depth += 1
    out: Dict[str, Any] = {}
    for _ in range(count):
        if pos >= limit:
            raise _truncated(pos, limit, 1)
        if data[pos] != 0x53:  # "S"
            raise ProtocolError(
                f"payload dict key at offset {pos} is not a string")
        key, pos = _dec_str(data, pos + 1, limit, depth)
        if pos >= limit:
            raise _truncated(pos, limit, 1)
        out[key], pos = _DECODERS[data[pos]](data, pos + 1, limit, depth)
    return out, pos


def _dec_unknown(data, pos: int, limit: int, depth: int):
    raise ProtocolError(
        f"unknown payload tag {bytes(data[pos - 1:pos])!r} at offset {pos - 1}")


#: Tag byte -> decoder, for every byte value.
_DECODERS = [_dec_unknown] * 256
for _tag, _decoder in (
    ("Z", lambda data, pos, limit, depth: (None, pos)),
    ("T", lambda data, pos, limit, depth: (True, pos)),
    ("F", lambda data, pos, limit, depth: (False, pos)),
    ("I", _dec_int), ("D", _dec_float), ("S", _dec_str), ("B", _dec_bytes),
    ("N", _dec_ndarray), ("L", _dec_list), ("M", _dec_dict),
):
    _DECODERS[ord(_tag)] = _decoder


def _decode(data, pos: int, limit: int) -> Any:
    """The one value ``data[pos:limit]`` holds, to the last byte."""
    if pos >= limit:
        raise _truncated(pos, limit, 1)
    value, end = _DECODERS[data[pos]](data, pos + 1, limit, 0)
    if end != limit:
        raise ProtocolError(
            f"payload has {limit - end} trailing bytes "
            "(wrong payload size for its content)"
        )
    return value


def decode_value(data: bytes) -> Any:
    """Decode one payload buffer, requiring every byte to be consumed.
    Raises :class:`ProtocolError`, and nothing else, on malformed input."""
    return _decode(data, 0, len(data))


# -- framing -------------------------------------------------------------------

#: Room for the header at the front of a frame under construction.
_NO_HEADER = bytes(_HEADER.size)
_FRAME_TYPES = {int(ftype): ftype for ftype in FrameType}


def _sealed(buf: bytearray, ftype: FrameType) -> bytes:
    """Write the header over the room left for it; the finished frame."""
    length = len(buf) - _HEADER.size
    if length > MAX_FRAME_BYTES:
        raise _unencodable(
            f"frame payload of {length} bytes (over the "
            f"{MAX_FRAME_BYTES}-byte frame cap)")
    _HEADER.pack_into(buf, 0, MAGIC, VERSION, ftype, length)
    return bytes(buf)


def encode_frame(ftype: FrameType, payload: Any) -> bytes:
    """Serialize one frame (header + encoded payload)."""
    buf = bytearray(_NO_HEADER)
    _ENCODERS[payload.__class__](buf, payload, 0)
    return _sealed(buf, ftype)


class FrameReader:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    Feed it whatever ``recv`` returns; it yields ``(FrameType, payload)``
    pairs as frames complete and raises :class:`ProtocolError` the
    moment the stream is provably corrupt.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[FrameType, Any]]:
        """Absorb ``data``; return every frame it completed."""
        buffer = self._buffer
        buffer += data
        frames: List[Tuple[FrameType, Any]] = []
        available = len(buffer)
        start = 0
        while available - start >= _HEADER.size:
            magic, version, type_byte, length = _HEADER.unpack_from(
                buffer, start)
            if magic != MAGIC:
                raise ProtocolError(f"bad frame magic {bytes(magic)!r}")
            if version != VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {version} "
                    f"(speaking {VERSION})"
                )
            try:
                ftype = _FRAME_TYPES[type_byte]
            except KeyError:
                raise ProtocolError(
                    f"unknown frame type {type_byte}") from None
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            body = start + _HEADER.size
            if available < body + length:
                break
            # Decoded where it lies: no per-frame copy of the payload.
            frames.append((ftype, _decode(buffer, body, body + length)))
            start = body + length
        if start:
            del buffer[:start]
        return frames


# -- message helpers -----------------------------------------------------------
#
# Thin builders/parsers over dict payloads, so client and server agree on
# field names in exactly one place.  Parsers validate shape and raise
# ProtocolError - a well-framed message with the wrong fields is as
# malformed as a truncated one.
#
# The three per-query builders (ISSUE, COMPLETE, CHUNK) write the same
# mapping straight into the frame: the field names are encoded once, at
# import, and only the values go through the encoder table.


def _require(payload: Any, *fields: str) -> Dict[str, Any]:
    if payload.__class__ is not dict:
        raise ProtocolError(
            f"expected a mapping payload, got {type(payload).__name__}"
        )
    for name in fields:
        if name not in payload:
            raise ProtocolError(f"payload is missing required field {name!r}")
    return payload


def _malformed(what: str, exc: Exception) -> ProtocolError:
    return ProtocolError(f"malformed {what} payload: {exc}")


def _opening(fields: int, first: str) -> bytes:
    """Room for the header, then a ``fields``-entry mapping up to and
    including its first key."""
    return _NO_HEADER + _TAG_U32.pack(b"M", fields) + encode_value(first)


_PAIR = _TAG_U32.pack(b"L", 2)
_ISSUE_OPENING = _opening(2, "query_id")
_COMPLETE_OPENING = _opening(4, "query_id")
_CHUNK_OPENING = _opening(5, "query_id")
_KEY_SAMPLES = encode_value("samples")
_KEY_RESPONSES = encode_value("responses")
_KEY_SERVER_RECV = encode_value("server_recv")
_KEY_SERVER_SEND = encode_value("server_send")
_KEY_SEQ = encode_value("seq")
_KEY_TOKENS = encode_value("tokens")
#: "last" with its value, then the "data" key.
_LAST_TRUE_THEN_DATA = encode_value("last") + b"T" + encode_value("data")
_LAST_FALSE_THEN_DATA = encode_value("last") + b"F" + encode_value("data")


def hello_frame(name: str, role: str) -> bytes:
    return encode_frame(
        FrameType.HELLO, {"name": name, "role": role, "version": VERSION}
    )


def parse_hello(payload: Any) -> Dict[str, Any]:
    msg = _require(payload, "name", "role", "version")
    if msg["version"] != VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {msg['version']}, not {VERSION}"
        )
    return msg


def load_frame(indices) -> bytes:
    return encode_frame(FrameType.LOAD, {"indices": [int(i) for i in indices]})


def parse_load(payload: Any) -> List[int]:
    msg = _require(payload, "indices")
    if msg["indices"].__class__ is not list:
        raise ProtocolError("LOAD indices must be a list")
    try:
        return [int(i) for i in msg["indices"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise _malformed("LOAD", exc) from None


#: A one-sample ISSUE frame whose ids are exactly ``int``, whole: the
#: header and the mapping up to the query id, the query id, the rest up
#: to the sample id, the sample id, the index's tag, the index.  Its
#: pieces are the general encoder's, so both write the same bytes.
_ISSUE_ONE_MIDDLE = _KEY_SAMPLES + _TAG_U32.pack(b"L", 1) + _PAIR + b"I"
_ISSUE_ONE = struct.Struct(
    f">{len(_ISSUE_OPENING) + 1}sq{len(_ISSUE_ONE_MIDDLE)}sqcq")
_ISSUE_ONE_PAYLOAD = _ISSUE_ONE.size - _HEADER.size
_ISSUE_ONE_HEAD = (
    _HEADER.pack(MAGIC, VERSION, FrameType.ISSUE, _ISSUE_ONE_PAYLOAD)
    + _ISSUE_OPENING[_HEADER.size:] + b"I")


def issue_frame(query: Query) -> bytes:
    """``{"query_id": id, "samples": [[sample id, index], ...]}``

    A one-sample query whose three ids are exactly ``int`` is one
    ``pack``; every other query, and an id outside int64, goes through
    the general encoder, which writes the same bytes or refuses."""
    samples = query.samples
    if len(samples) == 1:
        query_id = query.id
        (sample_id, index), = samples
        if (query_id.__class__ is int and sample_id.__class__ is int
                and index.__class__ is int
                and _ISSUE_ONE_PAYLOAD <= MAX_FRAME_BYTES):
            try:
                return _ISSUE_ONE.pack(_ISSUE_ONE_HEAD, query_id,
                                       _ISSUE_ONE_MIDDLE, sample_id, b"I",
                                       index)
            except struct.error:
                pass
    encoders = _ENCODERS
    buf = bytearray(_ISSUE_OPENING)
    value = query.id
    encoders[value.__class__](buf, value, 1)
    buf += _KEY_SAMPLES
    samples = query.samples
    _enc_count(buf, b"L", len(samples))
    for sample in samples:
        buf += _PAIR
        value = sample.id
        encoders[value.__class__](buf, value, 3)
        value = sample.index
        encoders[value.__class__](buf, value, 3)
    return _sealed(buf, FrameType.ISSUE)


def parse_issue(payload: Any) -> Tuple[int, List[QuerySample]]:
    msg = _require(payload, "query_id", "samples")
    raw = msg["samples"]
    if raw.__class__ is not list or not raw:
        raise ProtocolError("ISSUE must carry a non-empty sample list")
    samples = []
    try:
        for entry in raw:
            if entry.__class__ is not list or len(entry) != 2:
                raise ProtocolError(f"malformed ISSUE sample entry {entry!r}")
            samples.append(QuerySample(id=int(entry[0]), index=int(entry[1])))
        return int(msg["query_id"]), samples
    except (TypeError, ValueError, OverflowError) as exc:
        raise _malformed("ISSUE", exc) from None


def complete_frame(
    query_id: int,
    responses: List[QuerySampleResponse],
    server_recv: float,
    server_send: float,
) -> bytes:
    """``{"query_id": id, "responses": [[sample id, data], ...],
    "server_recv": t, "server_send": t}``"""
    encoders = _ENCODERS
    buf = bytearray(_COMPLETE_OPENING)
    encoders[query_id.__class__](buf, query_id, 1)
    buf += _KEY_RESPONSES
    _enc_count(buf, b"L", len(responses))
    for response in responses:
        buf += _PAIR
        value = response.sample_id
        encoders[value.__class__](buf, value, 3)
        value = response.data
        encoders[value.__class__](buf, value, 3)
    buf += _KEY_SERVER_RECV
    encoders[server_recv.__class__](buf, server_recv, 1)
    buf += _KEY_SERVER_SEND
    encoders[server_send.__class__](buf, server_send, 1)
    return _sealed(buf, FrameType.COMPLETE)


def parse_complete(payload: Any) -> Tuple[int, List[QuerySampleResponse], float, float]:
    msg = _require(payload, "query_id", "responses", "server_recv", "server_send")
    raw = msg["responses"]
    if raw.__class__ is not list:
        raise ProtocolError("COMPLETE responses must be a list")
    for entry in raw:
        if entry.__class__ is not list or len(entry) != 2:
            raise ProtocolError(f"malformed COMPLETE response entry {entry!r}")
    try:
        return (
            int(msg["query_id"]),
            list(map(new_response, zip(map(int, map(_FIRST, raw)),
                                       map(_SECOND, raw)))),
            float(msg["server_recv"]),
            float(msg["server_send"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise _malformed("COMPLETE", exc) from None


def chunk_frame(
    query_id: int,
    seq: int,
    token_count: int,
    last: bool,
    data: Any = None,
) -> bytes:
    """``{"query_id": id, "seq": n, "tokens": n, "last": bool,
    "data": payload}``"""
    encoders = _ENCODERS
    buf = bytearray(_CHUNK_OPENING)
    encoders[query_id.__class__](buf, query_id, 1)
    buf += _KEY_SEQ
    encoders[seq.__class__](buf, seq, 1)
    buf += _KEY_TOKENS
    encoders[token_count.__class__](buf, token_count, 1)
    buf += _LAST_TRUE_THEN_DATA if last else _LAST_FALSE_THEN_DATA
    encoders[data.__class__](buf, data, 1)
    return _sealed(buf, FrameType.CHUNK)


def parse_chunk(payload: Any) -> StreamChunk:
    msg = _require(payload, "query_id", "seq", "tokens", "last")
    try:
        query_id = int(msg["query_id"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise _malformed("CHUNK", exc) from None
    # Taken as sent, never coerced: ``chunk_frame`` writes real ints and
    # a real bool, and ``int(1.9)`` or ``bool("false")`` would misnumber
    # or close a stream.
    seq, tokens, last = msg["seq"], msg["tokens"], msg["last"]
    if seq.__class__ is not int or tokens.__class__ is not int:
        raise ProtocolError(
            f"CHUNK seq and tokens must be ints, got {seq!r} and {tokens!r}")
    if last.__class__ is not bool:
        raise ProtocolError(f"CHUNK last must be a bool, got {last!r}")
    if seq < 0:
        raise ProtocolError(f"CHUNK seq must be >= 0, got {seq}")
    if tokens < 0:
        raise ProtocolError(f"CHUNK tokens must be >= 0, got {tokens}")
    return new_chunk((query_id, seq, tokens, last, msg.get("data")))


def fail_frame(query_id: int, reason: str) -> bytes:
    return encode_frame(
        FrameType.FAIL, {"query_id": query_id, "reason": str(reason)}
    )


def parse_fail(payload: Any) -> Tuple[int, str]:
    msg = _require(payload, "query_id", "reason")
    try:
        return int(msg["query_id"]), str(msg["reason"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise _malformed("FAIL", exc) from None


def drain_frame() -> bytes:
    return encode_frame(FrameType.DRAIN, {})


def stats_frame(stats: Dict[str, Any]) -> bytes:
    return encode_frame(FrameType.STATS, stats)


class Peer:
    """One end of a TCP connection: whole frames out under a send lock,
    dead from the first failed send on.  Each subclass numbers its
    instances from its own ``_ids`` counter."""

    _ids: Iterator[int]

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.id = next(self._ids)
        self.alive = True
        self._send_lock = threading.Lock()

    def send(self, frame: bytes) -> bool:
        """Write one frame; returns False (and dies) on a broken pipe."""
        with self._send_lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                self.alive = False
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
