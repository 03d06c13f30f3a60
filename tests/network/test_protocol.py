"""Wire protocol: codec round trips, incremental framing, strictness.

The second half is the codec's contract, pinned ahead of its rewrite:
the recursive encoder the protocol shipped with is kept here verbatim as
the oracle every generated payload is compared against, one frame of
each type is held as literal bytes, and truncated or header-mutated
frames may only ever complete, wait, or raise ``ProtocolError``.
"""

import enum
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.network import protocol
from repro.network.protocol import (
    MAGIC,
    VERSION,
    FrameReader,
    FrameType,
    ProtocolError,
    decode_value,
    encode_frame,
    encode_value,
)


def roundtrip(value):
    return decode_value(encode_value(value))


class TestPayloadCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2**40, 0.0, -2.5, "", "héllo",
        b"", b"\x00\xff", [], [1, 2, 3], {}, {"a": 1, "b": [None, "x"]},
        {"nested": {"deep": [{"k": b"v"}]}},
    ])
    def test_scalars_and_containers(self, value):
        assert roundtrip(value) == value

    def test_tuple_decodes_as_list(self):
        assert roundtrip((1, 2)) == [1, 2]

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<i4", "<u1", "<i8"])
    def test_ndarray_dtypes(self, dtype):
        array = np.arange(24, dtype=np.dtype(dtype)).reshape(2, 3, 4)
        back = roundtrip(array)
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert np.array_equal(back, array)

    def test_zero_dim_ndarray(self):
        array = np.array(3.5, dtype=np.float32)
        back = roundtrip(array)
        assert back.shape == ()
        assert back == pytest.approx(3.5)

    def test_object_dtype_rejected_on_encode(self):
        with pytest.raises(TypeError):
            encode_value(np.array([object()]))

    def test_foreign_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(set([1]))

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(TypeError):
            encode_value({1: "x"})

    def test_unknown_tag_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_value(b"Q")

    def test_truncated_payload_is_protocol_error(self):
        blob = encode_value("hello world")
        with pytest.raises(ProtocolError):
            decode_value(blob[:-3])

    def test_trailing_bytes_are_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_value(encode_value(7) + b"\x00")

    def test_invalid_utf8_is_protocol_error(self):
        blob = b"S" + (4).to_bytes(4, "big") + b"\xff\xfe\xfd\xfc"
        with pytest.raises(ProtocolError):
            decode_value(blob)


class TestFraming:
    def test_frame_roundtrip(self):
        frame = encode_frame(FrameType.STATS, {"completed": 12})
        reader = FrameReader()
        frames = reader.feed(frame)
        assert frames == [(FrameType.STATS, {"completed": 12})]
        assert len(reader._buffer) == 0

    def test_byte_at_a_time_reassembly(self):
        frame = encode_frame(FrameType.FAIL, {"query_id": 9, "reason": "x"})
        reader = FrameReader()
        collected = []
        for i in range(len(frame)):
            collected.extend(reader.feed(frame[i:i + 1]))
        assert len(collected) == 1
        assert collected[0][0] is FrameType.FAIL

    def test_multiple_frames_in_one_chunk(self):
        chunk = protocol.drain_frame() + protocol.stats_frame({"a": 1})
        frames = FrameReader().feed(chunk)
        assert [f[0] for f in frames] == [FrameType.DRAIN, FrameType.STATS]

    def test_bad_magic(self):
        frame = bytearray(encode_frame(FrameType.DRAIN, {}))
        frame[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            FrameReader().feed(bytes(frame))

    def test_wrong_version(self):
        frame = bytearray(encode_frame(FrameType.DRAIN, {}))
        frame[2] = VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            FrameReader().feed(bytes(frame))

    def test_unknown_frame_type(self):
        frame = bytearray(encode_frame(FrameType.DRAIN, {}))
        frame[3] = 200
        with pytest.raises(ProtocolError, match="frame type"):
            FrameReader().feed(bytes(frame))

    def test_oversized_length_prefix(self):
        header = protocol._HEADER.pack(
            MAGIC, VERSION, int(FrameType.DRAIN),
            protocol.MAX_FRAME_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="cap"):
            FrameReader().feed(header)

    def test_wrong_payload_size_for_content(self):
        # A frame whose declared length exceeds its content's need: the
        # trailing bytes prove the payload size is wrong.
        body = encode_value({"query_id": 1}) + b"\x00\x00"
        frame = protocol._HEADER.pack(
            MAGIC, VERSION, int(FrameType.DRAIN), len(body)
        ) + body
        with pytest.raises(ProtocolError, match="trailing"):
            FrameReader().feed(frame)


class TestMessages:
    def test_hello_roundtrip(self):
        (ftype, payload), = FrameReader().feed(
            protocol.hello_frame("client-1", "loadgen"))
        assert ftype is FrameType.HELLO
        msg = protocol.parse_hello(payload)
        assert msg["name"] == "client-1"
        assert msg["role"] == "loadgen"

    def test_hello_version_mismatch(self):
        with pytest.raises(ProtocolError, match="version"):
            protocol.parse_hello({"name": "x", "role": "r", "version": 99})

    def test_issue_roundtrip(self):
        query = Query(id=7, samples=(
            QuerySample(id=1, index=10), QuerySample(id=2, index=11)))
        (_, payload), = FrameReader().feed(protocol.issue_frame(query))
        query_id, samples = protocol.parse_issue(payload)
        assert query_id == 7
        assert samples == [QuerySample(1, 10), QuerySample(2, 11)]

    def test_issue_empty_samples_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_issue({"query_id": 1, "samples": []})

    def test_complete_roundtrip_with_ndarray_payload(self):
        responses = [
            QuerySampleResponse(1, np.ones((2, 2), dtype=np.float32)),
            QuerySampleResponse(2, None),
        ]
        frame = protocol.complete_frame(
            5, responses, server_recv=1.5, server_send=2.25)
        (_, payload), = FrameReader().feed(frame)
        qid, back, recv, send = protocol.parse_complete(payload)
        assert (qid, recv, send) == (5, 1.5, 2.25)
        assert back[0].sample_id == 1
        assert np.array_equal(back[0].data, np.ones((2, 2), dtype=np.float32))
        assert back[1].data is None

    def test_fail_roundtrip(self):
        (_, payload), = FrameReader().feed(protocol.fail_frame(3, "nope"))
        assert protocol.parse_fail(payload) == (3, "nope")

    def test_missing_field_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="missing"):
            protocol.parse_fail({"query_id": 3})

    def test_non_mapping_payload_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="mapping"):
            protocol.parse_issue([1, 2, 3])

    def test_load_roundtrip(self):
        (_, payload), = FrameReader().feed(protocol.load_frame([3, 1, 4]))
        assert protocol.parse_load(payload) == [3, 1, 4]


# -- the codec contract ----------------------------------------------------------
#
# ``oracle_encode`` is the recursive encoder of protocol version 1 as it
# shipped, copied verbatim (only the struct names are local).  Whatever
# encodes payloads in ``src/`` must produce these bytes.

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


def oracle_encode(value):
    if value is None:
        return b"Z"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, (int, np.integer)):
        return b"I" + _I64.pack(int(value))
    if isinstance(value, (float, np.floating)):
        return b"D" + _F64.pack(float(value))
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + _U32.pack(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return b"B" + _U32.pack(len(value)) + bytes(value)
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise TypeError("object-dtype ndarrays are not wire-encodable")
        # (ascontiguousarray would promote 0-d arrays to 1-d)
        data = (value if value.flags["C_CONTIGUOUS"]
                else np.ascontiguousarray(value))
        dtype = data.dtype.str.encode("ascii")
        out = [b"N", _U16.pack(len(dtype)), dtype, _U16.pack(data.ndim)]
        for dim in data.shape:
            out.append(_U32.pack(dim))
        out.append(data.tobytes())
        return b"".join(out)
    if isinstance(value, (list, tuple)):
        out = [b"L", _U32.pack(len(value))]
        out.extend(oracle_encode(item) for item in value)
        return b"".join(out)
    if isinstance(value, dict):
        out = [b"M", _U32.pack(len(value))]
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"payload dict keys must be str, got {key!r}")
            out.append(oracle_encode(key))
            out.append(oracle_encode(item))
        return b"".join(out)
    raise TypeError(f"value of type {type(value).__name__} is not wire-encodable")


def oracle_frame(ftype, payload):
    body = oracle_encode(payload)
    return protocol._HEADER.pack(MAGIC, VERSION, int(ftype), len(body)) + body


class Colour(enum.IntEnum):
    RED = 1
    DEEP = -(2 ** 40)


INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
ARRAY_DTYPES = ["<f4", "<f8", ">f4", "<i2", ">i4", "<i8", "<u1", "<u8",
                "?", "<c8", "S3", "<U2"]


def _strided(array):
    """The same elements behind a non-contiguous view, where one exists."""
    if array.ndim >= 2:
        return array.T
    if array.ndim == 1:
        return np.repeat(array, 2)[::2]
    return array


ARRAYS = st.sampled_from(ARRAY_DTYPES).flatmap(lambda dtype: hnp.arrays(
    dtype=np.dtype(dtype),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
SCALARS = st.one_of(
    st.none(), st.booleans(), INT64, st.floats(), st.text(max_size=12),
    st.binary(max_size=12), st.binary(max_size=6).map(bytearray),
    st.sampled_from(list(FrameType) + list(Colour)),
    st.integers(-128, 127).map(np.int8), st.integers(0, 2 ** 16 - 1).map(np.uint16),
    st.integers(-(2 ** 31), 2 ** 31 - 1).map(np.int32), INT64.map(np.int64),
    st.integers(0, 2 ** 63 - 1).map(np.uint64),
    st.floats(width=16).map(np.float16), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    ARRAYS, ARRAYS.map(_strided),
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def same(decoded, sent) -> bool:
    """``decoded`` is what ``sent`` should come back as: tuples as lists,
    enums and numpy scalars as plain numbers, arrays element for element
    (NaNs included, hence the byte comparison)."""
    if isinstance(sent, np.ndarray):
        return (isinstance(decoded, np.ndarray)
                and decoded.dtype == sent.dtype
                and decoded.shape == sent.shape
                and decoded.tobytes() == np.ascontiguousarray(sent).tobytes()
                and decoded.flags["WRITEABLE"])
    if isinstance(sent, (list, tuple)):
        return (type(decoded) is list and len(decoded) == len(sent)
                and all(same(d, s) for d, s in zip(decoded, sent)))
    if isinstance(sent, dict):
        return (type(decoded) is dict and list(decoded) == list(sent)
                and all(same(decoded[k], sent[k]) for k in sent))
    if isinstance(sent, bool) or sent is None:
        return decoded is sent
    if isinstance(sent, (int, np.integer)):
        return type(decoded) is int and decoded == int(sent)
    if isinstance(sent, (float, np.floating)):
        return (type(decoded) is float
                and _F64.pack(decoded) == _F64.pack(float(sent)))
    if isinstance(sent, (bytes, bytearray)):
        return type(decoded) is bytes and decoded == bytes(sent)
    return type(decoded) is str and decoded == sent


class TestCodecContract:
    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_encoder_matches_the_recursive_oracle(self, value):
        assert encode_value(value) == oracle_encode(value)

    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_decode_inverts_encode(self, value):
        assert same(decode_value(encode_value(value)), value)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(FrameType)), PAYLOADS)
    def test_frame_is_header_plus_oracle_payload(self, ftype, value):
        assert encode_frame(ftype, value) == oracle_frame(ftype, value)


IDS = st.one_of(st.integers(0, 2 ** 63 - 1),
                st.integers(0, 2 ** 31 - 1).map(np.int32))


class TestMessageHelpersMatchTheirDictForm:
    """The per-query builders send exactly the mapping they document."""

    @settings(max_examples=100, deadline=None)
    @given(IDS, st.lists(st.tuples(IDS, IDS), min_size=1, max_size=5))
    def test_issue(self, query_id, pairs):
        query = Query(id=query_id, samples=tuple(
            QuerySample(id=i, index=x) for i, x in pairs))
        assert protocol.issue_frame(query) == oracle_frame(FrameType.ISSUE, {
            "query_id": query_id,
            "samples": [[i, x] for i, x in pairs]})

    @settings(max_examples=100, deadline=None)
    @given(IDS, st.lists(st.tuples(IDS, PAYLOADS), max_size=4),
           st.floats(), st.one_of(st.floats(), st.integers(0, 10)))
    def test_complete(self, query_id, answers, recv, send):
        frame = protocol.complete_frame(
            query_id, [QuerySampleResponse(i, d) for i, d in answers],
            server_recv=recv, server_send=send)
        assert frame == oracle_frame(FrameType.COMPLETE, {
            "query_id": query_id,
            "responses": [[i, d] for i, d in answers],
            "server_recv": recv, "server_send": send})

    @settings(max_examples=100, deadline=None)
    @given(IDS, IDS, IDS, st.one_of(st.booleans(), st.integers(0, 2)),
           PAYLOADS)
    def test_chunk(self, query_id, seq, tokens, last, data):
        frame = protocol.chunk_frame(query_id, seq, tokens, last, data)
        assert frame == oracle_frame(FrameType.CHUNK, {
            "query_id": query_id, "seq": seq, "tokens": tokens,
            "last": bool(last), "data": data})


#: Each end of int64 and the values beside zero.
INT64_EDGES = (0, 1, -1, 2 ** 63 - 1, -(2 ** 63))
#: Ids the wire carries that are not exactly ``int``.
NOT_EXACTLY_INT = (np.int64(5), np.int32(-3), np.uint64(2 ** 63 - 1),
                   np.int8(7), True, False, Colour.RED, Colour.DEEP)
#: Ids the wire cannot carry.
UNCARRIABLE = (2 ** 63, -(2 ** 63) - 1, 2 ** 64, np.uint64(2 ** 63),
               np.bool_(True), 1 + 2j, object())
ID_FIELDS = ("query_id", "sample_id", "index")


def one_sample(query_id=11, sample_id=12, index=13):
    return Query(id=query_id,
                 samples=(QuerySample(id=sample_id, index=index),))


class TestOneSampleIssueFrames:
    """The ISSUE frame of a one-sample query - every SingleStream and
    Server query - is the per-query frame of the tcp path.  Whatever
    builds it writes the oracle's bytes for every id the wire carries,
    keeps the bytes of ids that are not exactly ``int``, and refuses the
    rest with the codec's ``TypeError``."""

    def test_frame_bytes(self):
        assert protocol.issue_frame(one_sample(7, 1, 10)) == (
            b"MI\x01\x03\x00\x00\x00CM\x00\x00\x00\x02"
            b"S\x00\x00\x00\x08query_idI\x00\x00\x00\x00\x00\x00\x00\x07"
            b"S\x00\x00\x00\x07samplesL\x00\x00\x00\x01"
            b"L\x00\x00\x00\x02I\x00\x00\x00\x00\x00\x00\x00\x01"
            b"I\x00\x00\x00\x00\x00\x00\x00\n")

    @pytest.mark.parametrize("index", INT64_EDGES)
    @pytest.mark.parametrize("sample_id", INT64_EDGES)
    @pytest.mark.parametrize("query_id", INT64_EDGES)
    def test_int64_edges_match_the_oracle(self, query_id, sample_id, index):
        assert protocol.issue_frame(
            one_sample(query_id, sample_id, index)) == oracle_frame(
                FrameType.ISSUE, {"query_id": query_id,
                                  "samples": [[sample_id, index]]})

    @pytest.mark.parametrize("value", NOT_EXACTLY_INT, ids=repr)
    @pytest.mark.parametrize("field", ID_FIELDS)
    def test_ids_not_exactly_int_keep_their_bytes(self, field, value):
        ids = dict(query_id=11, sample_id=12, index=13)
        ids[field] = value
        assert protocol.issue_frame(one_sample(**ids)) == oracle_frame(
            FrameType.ISSUE, {"query_id": ids["query_id"],
                              "samples": [[ids["sample_id"], ids["index"]]]})

    def test_bool_and_numpy_ids_keep_their_literal_bytes(self):
        assert protocol.issue_frame(
            one_sample(True, np.int64(2), False)) == (
            b"MI\x01\x03\x00\x00\x003M\x00\x00\x00\x02"
            b"S\x00\x00\x00\x08query_idT"
            b"S\x00\x00\x00\x07samplesL\x00\x00\x00\x01"
            b"L\x00\x00\x00\x02I\x00\x00\x00\x00\x00\x00\x00\x02F")

    @pytest.mark.parametrize("value", UNCARRIABLE, ids=repr)
    @pytest.mark.parametrize("field", ID_FIELDS)
    def test_what_the_wire_cannot_carry_is_a_type_error(self, field, value):
        ids = dict(query_id=11, sample_id=12, index=13)
        ids[field] = value
        with pytest.raises(TypeError, match="wire-encodable"):
            protocol.issue_frame(one_sample(**ids))

    def test_the_frame_cap_is_read_when_the_frame_is_built(
            self, monkeypatch):
        query = one_sample()
        frame = protocol.issue_frame(query)
        assert len(frame) == 75
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 67)
        assert protocol.issue_frame(query) == frame
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 66)
        with pytest.raises(TypeError, match="frame cap"):
            protocol.issue_frame(query)
        # The general encoder's frame of this query has 51 payload bytes.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 50)
        with pytest.raises(TypeError, match="frame cap"):
            protocol.issue_frame(one_sample(True, np.int64(2), False))

    def test_a_several_sample_query_is_one_frame_with_every_sample(self):
        query = Query(id=3, samples=tuple(
            QuerySample(id=i, index=2 ** 63 - 1 - i) for i in range(4)))
        assert protocol.issue_frame(query) == oracle_frame(
            FrameType.ISSUE, {"query_id": 3, "samples": [
                [i, 2 ** 63 - 1 - i] for i in range(4)]})


def fed(data, step):
    """Feed ``data`` to a fresh reader ``step`` bytes at a time; returns
    (frames completed, whether the stream was found corrupt).  Anything
    but ``ProtocolError`` propagates and fails the test."""
    reader, frames = FrameReader(), []
    try:
        for start in range(0, len(data), step):
            frames.extend(reader.feed(data[start:start + step]))
    except ProtocolError:
        return frames, True
    return frames, False


def fed_both_ways(data):
    """In one piece and byte at a time; the two must agree on whether
    the stream is corrupt, and on the frames of a clean one."""
    whole, whole_corrupt = fed(data, max(1, len(data)))
    single, single_corrupt = fed(data, 1)
    assert whole_corrupt == single_corrupt
    if not whole_corrupt:
        assert len(whole) == len(single)
    return single, whole_corrupt


FRAMES = st.builds(encode_frame, st.sampled_from(list(FrameType)), PAYLOADS)


class TestReaderContract:
    @settings(max_examples=60, deadline=None)
    @given(FRAMES, st.data())
    def test_a_cut_stream_waits_and_never_raises(self, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1))
        for step in (cut or 1, 1):
            reader = FrameReader()
            for start in range(0, cut, step):
                assert reader.feed(frame[start:start + step]) == []
            assert len(reader._buffer) == cut
            (ftype, _), = reader.feed(frame[cut:])
            assert ftype == frame[3] and len(reader._buffer) == 0

    @settings(max_examples=60, deadline=None)
    @given(FRAMES, st.data())
    def test_a_cut_payload_is_a_protocol_error(self, frame, data):
        # The codec is self-delimiting: no proper prefix of a value is a
        # value, so a payload cut anywhere (header resealed) is corrupt.
        body = frame[8:]
        cut = data.draw(st.integers(0, len(body) - 1))
        resealed = protocol._HEADER.pack(
            MAGIC, VERSION, frame[3], cut) + body[:cut]
        frames, corrupt = fed_both_ways(resealed + frame)
        assert corrupt and frames == []

    @settings(max_examples=100, deadline=None)
    @given(FRAMES, st.integers(0, 7), st.integers(0, 255))
    def test_a_mutated_header_completes_waits_or_is_a_protocol_error(
            self, frame, offset, byte):
        mutated = bytearray(frame)
        mutated[offset] = byte
        frames, corrupt = fed_both_ways(bytes(mutated) + frame)
        if bytes(mutated) == frame:
            assert not corrupt and len(frames) == 2
        elif offset < 3:  # magic or version
            assert corrupt and frames == []


    @settings(max_examples=300, deadline=None)
    @given(FRAMES, st.data())
    def test_any_byte_mutation_completes_waits_or_is_a_protocol_error(
            self, frame, data):
        mutated = bytearray(frame)
        for _ in range(data.draw(st.integers(1, 4))):
            mutated[data.draw(st.integers(0, len(frame) - 1))] = data.draw(
                st.integers(0, 255))
        fed_both_ways(bytes(mutated) + frame)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_any_bytes_decode_or_are_a_protocol_error(self, blob):
        try:
            decode_value(blob)
        except ProtocolError:
            pass


def ndarray_blob(dtype: bytes, dims, data=b""):
    return (b"N" + _U16.pack(len(dtype)) + dtype + _U16.pack(len(dims))
            + b"".join(_U32.pack(d) for d in dims) + data)


class TestTheTwoErrorContracts:
    """``TypeError`` out of the encoder, ``ProtocolError`` out of the
    decoder, nothing else: senders catch the first to fail one query,
    reader threads catch the second to poison one connection."""

    @pytest.mark.parametrize("value", [
        2 ** 63, -(2 ** 63) - 1, 2 ** 70, np.uint64(2 ** 64 - 1),
        "lone \ud800 surrogate", {"k\udfff": 1}, [1, [2, [2 ** 64]]],
        {"a": {"b": "\ud800"}}, np.bool_(True), 1 + 2j, {1, 2},
        memoryview(b"x"), np.array(["a", None], dtype=object),
    ], ids=repr)
    def test_unencodable_values_are_type_errors(self, value):
        with pytest.raises(TypeError, match="wire-encodable"):
            encode_value(value)
        with pytest.raises(TypeError, match="wire-encodable"):
            encode_frame(FrameType.STATS, {"value": value})
        with pytest.raises(TypeError, match="wire-encodable"):
            protocol.complete_frame(1, [QuerySampleResponse(1, value)], 0.0, 0.0)
        with pytest.raises(TypeError, match="wire-encodable"):
            protocol.chunk_frame(1, 0, 1, True, value)

    def test_unencodable_ids_are_type_errors(self):
        query = Query(id=2 ** 63, samples=(QuerySample(id=1, index=2),))
        with pytest.raises(TypeError, match="wire-encodable"):
            protocol.issue_frame(query)
        query = Query(id=1, samples=(QuerySample(id=1, index="x\ud800"),))
        with pytest.raises(TypeError, match="wire-encodable"):
            protocol.issue_frame(query)

    def test_a_frame_over_the_cap_is_a_type_error(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        assert len(encode_frame(FrameType.STATS, {"blob": b"x" * 45})) == 72
        for build in (
            lambda: encode_frame(FrameType.STATS, {"blob": b"x" * 46}),
            lambda: protocol.complete_frame(
                1, [QuerySampleResponse(1, b"x" * 64)], 0.0, 0.0),
            # A one-sample ISSUE frame is 75 bytes, 67 of them payload.
            lambda: protocol.issue_frame(
                Query(id=1, samples=(QuerySample(id=1, index=2),))),
        ):
            with pytest.raises(TypeError, match="frame cap"):
                build()

    def test_int64_bounds_still_encode(self):
        for value in (2 ** 63 - 1, -(2 ** 63), np.uint64(2 ** 63 - 1)):
            assert roundtrip(value) == int(value)

    def test_nesting_is_capped_in_both_directions(self):
        def nested(depth, leaf=7):
            value = leaf
            for _ in range(depth):
                value = [value]
            return value

        deepest = nested(protocol.MAX_DEPTH)
        assert roundtrip(deepest) == deepest
        assert encode_value(deepest) == oracle_encode(deepest)
        with pytest.raises(TypeError, match="nested deeper"):
            encode_value(nested(protocol.MAX_DEPTH + 1))
        with pytest.raises(TypeError, match="nested deeper"):
            encode_value(nested(5000))
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_value(oracle_encode(nested(protocol.MAX_DEPTH + 1)))
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_value(b"L\x00\x00\x00\x01" * 5000 + b"Z")
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_value(b"M\x00\x00\x00\x01S\x00\x00\x00\x01k" * 5000 + b"Z")

    def test_what_a_message_builder_accepts_its_peer_can_decode(self):
        # The builders nest user data three containers down.
        def nested(depth):
            value = None
            for _ in range(depth):
                value = [value]
            return value

        fits = nested(protocol.MAX_DEPTH - 3)
        frame = protocol.complete_frame(
            1, [QuerySampleResponse(1, fits)], 0.0, 0.0)
        (_, payload), = FrameReader().feed(frame)
        assert protocol.parse_complete(payload)[1][0].data == fits
        with pytest.raises(TypeError, match="nested deeper"):
            protocol.complete_frame(
                1, [QuerySampleResponse(1, [fits])], 0.0, 0.0)

    @pytest.mark.parametrize("blob", [
        ndarray_blob(b"V0", [3]),
        ndarray_blob(b"<U0", [2, 2]),
        ndarray_blob(b"|O", [1], b"\x00" * 8),
        ndarray_blob(b"garbage", [1], b"\x00" * 8),
        ndarray_blob(b"f4,(", [1], b"\x00" * 8),
        ndarray_blob(b"\xff\xfe", [1], b"\x00" * 8),
        ndarray_blob(b"{'names':['a'],'formats':['O']}", [1], b"\x00" * 8),
        ndarray_blob(b"(" * 3000 + b"f4", [1], b"\x00" * 4),
        # 2**16 * 2**16 * 2**32 wraps int64 to 0: "no data needed".
        ndarray_blob(b"<f4", [2 ** 16, 2 ** 16, 2 ** 32 - 1, 2]),
        ndarray_blob(b"<f4", [2 ** 32 - 1] * 4),
        ndarray_blob(b"<f4", [0, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1]),
        ndarray_blob(b"<f4", [1] * 100, b"\x00" * 4),
        ndarray_blob(b"<f4", [3], b"\x00" * 11),
        b"N\x00\x03<f4\xff\xff",
        b"N\xff\xff<f4",
        b"N",
    ], ids=lambda blob: repr(blob[:24]))
    def test_malformed_ndarrays_are_protocol_errors(self, blob):
        with pytest.raises(ProtocolError):
            decode_value(blob)
        frame = protocol._HEADER.pack(
            MAGIC, VERSION, int(FrameType.COMPLETE), len(blob)) + blob
        assert fed_both_ways(frame) == ([], True)

    def test_zero_size_arrays_still_cross(self):
        for shape in [(0,), (2, 0, 3), (0, 0)]:
            array = np.zeros(shape, dtype="<f8")
            assert same(roundtrip(array), array)
        assert same(decode_value(ndarray_blob(b"f4", [2], b"\x00" * 8)),
                    np.zeros(2, dtype="<f4"))  # a non-canonical spelling

    @pytest.mark.parametrize("parse,payload", [
        (protocol.parse_complete, {"query_id": None, "responses": [],
                                   "server_recv": 0.0, "server_send": 0.0}),
        (protocol.parse_complete, {"query_id": float("nan"), "responses": [],
                                   "server_recv": 0.0, "server_send": 0.0}),
        (protocol.parse_complete, {"query_id": 1, "responses": [],
                                   "server_recv": "soon", "server_send": 0.0}),
        (protocol.parse_complete, {"query_id": 1, "responses": [[None, 1]],
                                   "server_recv": 0.0, "server_send": 0.0}),
        (protocol.parse_complete, {"query_id": 1, "responses": ["ab"],
                                   "server_recv": 0.0, "server_send": 0.0}),
        (protocol.parse_issue, {"query_id": "x", "samples": [[1, 2]]}),
        (protocol.parse_issue, {"query_id": 1, "samples": [[1, float("inf")]]}),
        (protocol.parse_issue, {"query_id": 1, "samples": [[1, b"2"], 3]}),
        (protocol.parse_chunk, {"query_id": 1, "seq": None, "tokens": 1,
                                "last": True}),
        (protocol.parse_chunk, {"query_id": [], "seq": 0, "tokens": 1,
                                "last": True}),
        (protocol.parse_fail, {"query_id": {}, "reason": "x"}),
        (protocol.parse_load, {"indices": [1, "two"]}),
        (protocol.parse_load, {"indices": [float("nan")]}),
    ], ids=lambda arg: getattr(arg, "__name__", None))
    def test_well_framed_messages_with_wrong_field_types(self, parse, payload):
        # Decodable as a payload, so the frame arrives - and its parser,
        # which runs on the same reader thread, must refuse it the same way.
        assert decode_value(encode_value(payload)) is not None
        with pytest.raises(ProtocolError):
            parse(payload)


class TestChunkFieldsAreTakenAsSent:
    """A CHUNK's ``seq`` and ``tokens`` are ints and ``last`` a bool on
    the wire, or the frame is malformed: coercing them would let
    ``"false"`` close a stream and ``1.9`` renumber one."""

    @staticmethod
    def sent(**fields):
        payload = {"query_id": 4, "seq": 1, "tokens": 2, "last": False,
                   "data": None}
        payload.update(fields)
        (ftype, decoded), = FrameReader().feed(
            encode_frame(FrameType.CHUNK, payload))
        assert ftype is FrameType.CHUNK
        return decoded

    @pytest.mark.parametrize("fields", [
        {"last": "false"}, {"last": "true"}, {"last": ""}, {"last": 1},
        {"last": 0}, {"last": None}, {"last": 1.0},
        {"seq": 1.9}, {"seq": 1.0}, {"seq": True}, {"seq": False},
        {"seq": "1"}, {"seq": b"1"},
        {"tokens": 2.5}, {"tokens": 2.0}, {"tokens": True},
        {"tokens": "2"},
    ], ids=repr)
    def test_a_field_of_the_wrong_type_is_malformed(self, fields):
        with pytest.raises(ProtocolError, match="CHUNK"):
            protocol.parse_chunk(self.sent(**fields))

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("seq,tokens", [(0, 1), (7, 0), (2 ** 40, 3)])
    def test_what_chunk_frame_writes_parses_back_exactly(
            self, seq, tokens, last):
        (_, payload), = FrameReader().feed(
            protocol.chunk_frame(9, seq, tokens, last, b"t"))
        chunk = protocol.parse_chunk(payload)
        assert (chunk.query_id, chunk.seq, chunk.token_count, chunk.data) \
            == (9, seq, tokens, b"t")
        assert chunk.last is last
        assert type(chunk.seq) is int and type(chunk.token_count) is int


#: One frame of each type, as protocol version 1 has always sent it.
GOLDEN_FRAMES = {
    FrameType.HELLO: (
        lambda: protocol.hello_frame("loadgen-1", "loadgen"),
        b"MI\x01\x01\x00\x00\x00FM\x00\x00\x00\x03"
        b"S\x00\x00\x00\x04nameS\x00\x00\x00\tloadgen-1"
        b"S\x00\x00\x00\x04roleS\x00\x00\x00\x07loadgen"
        b"S\x00\x00\x00\x07versionI\x00\x00\x00\x00\x00\x00\x00\x01"),
    FrameType.LOAD: (
        lambda: protocol.load_frame([3, 1, 4]),
        b"MI\x01\x02\x00\x00\x001M\x00\x00\x00\x01"
        b"S\x00\x00\x00\x07indicesL\x00\x00\x00\x03"
        b"I\x00\x00\x00\x00\x00\x00\x00\x03I\x00\x00\x00\x00\x00\x00\x00\x01"
        b"I\x00\x00\x00\x00\x00\x00\x00\x04"),
    FrameType.ISSUE: (
        lambda: protocol.issue_frame(Query(id=7, samples=(
            QuerySample(id=1, index=10), QuerySample(id=2, index=11)))),
        b"MI\x01\x03\x00\x00\x00ZM\x00\x00\x00\x02"
        b"S\x00\x00\x00\x08query_idI\x00\x00\x00\x00\x00\x00\x00\x07"
        b"S\x00\x00\x00\x07samplesL\x00\x00\x00\x02"
        b"L\x00\x00\x00\x02I\x00\x00\x00\x00\x00\x00\x00\x01"
        b"I\x00\x00\x00\x00\x00\x00\x00\n"
        b"L\x00\x00\x00\x02I\x00\x00\x00\x00\x00\x00\x00\x02"
        b"I\x00\x00\x00\x00\x00\x00\x00\x0b"),
    FrameType.COMPLETE: (
        lambda: protocol.complete_frame(
            5, [QuerySampleResponse(1, np.arange(3, dtype="<f4")),
                QuerySampleResponse(2, None)],
            server_recv=1.5, server_send=2.25),
        b"MI\x01\x04\x00\x00\x00\x95M\x00\x00\x00\x04"
        b"S\x00\x00\x00\x08query_idI\x00\x00\x00\x00\x00\x00\x00\x05"
        b"S\x00\x00\x00\tresponsesL\x00\x00\x00\x02"
        b"L\x00\x00\x00\x02I\x00\x00\x00\x00\x00\x00\x00\x01"
        b"N\x00\x03<f4\x00\x01\x00\x00\x00\x03"
        b"\x00\x00\x00\x00\x00\x00\x80?\x00\x00\x00@"
        b"L\x00\x00\x00\x02I\x00\x00\x00\x00\x00\x00\x00\x02Z"
        b"S\x00\x00\x00\x0bserver_recvD?\xf8\x00\x00\x00\x00\x00\x00"
        b"S\x00\x00\x00\x0bserver_sendD@\x02\x00\x00\x00\x00\x00\x00"),
    FrameType.FAIL: (
        lambda: protocol.fail_frame(3, "nope"),
        b"MI\x01\x05\x00\x00\x00/M\x00\x00\x00\x02"
        b"S\x00\x00\x00\x08query_idI\x00\x00\x00\x00\x00\x00\x00\x03"
        b"S\x00\x00\x00\x06reasonS\x00\x00\x00\x04nope"),
    FrameType.DRAIN: (
        protocol.drain_frame,
        b"MI\x01\x06\x00\x00\x00\x05M\x00\x00\x00\x00"),
    FrameType.STATS: (
        lambda: protocol.stats_frame({"completed": 12, "drained": True}),
        b"MI\x01\x07\x00\x00\x00)M\x00\x00\x00\x02"
        b"S\x00\x00\x00\tcompletedI\x00\x00\x00\x00\x00\x00\x00\x0c"
        b"S\x00\x00\x00\x07drainedT"),
    FrameType.CHUNK: (
        lambda: protocol.chunk_frame(9, 2, 5, True, b"tok"),
        b"MI\x01\x08\x00\x00\x00[M\x00\x00\x00\x05"
        b"S\x00\x00\x00\x08query_idI\x00\x00\x00\x00\x00\x00\x00\t"
        b"S\x00\x00\x00\x03seqI\x00\x00\x00\x00\x00\x00\x00\x02"
        b"S\x00\x00\x00\x06tokensI\x00\x00\x00\x00\x00\x00\x00\x05"
        b"S\x00\x00\x00\x04lastTS\x00\x00\x00\x04dataB\x00\x00\x00\x03tok"),
}


class TestGoldenFrames:
    def test_version_is_still_one(self):
        assert (MAGIC, VERSION) == (b"MI", 1)
        assert sorted(GOLDEN_FRAMES) == sorted(FrameType)

    @pytest.mark.parametrize("ftype", list(FrameType), ids=lambda t: t.name)
    def test_frame_bytes(self, ftype):
        build, golden = GOLDEN_FRAMES[ftype]
        frame = build()
        assert frame == golden
        (got, payload), = FrameReader().feed(frame)
        assert got is ftype and isinstance(payload, dict)
