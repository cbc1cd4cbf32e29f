"""Payee-list codec: golden vectors, strict canonical decoding, round-trips."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batchpay.codec import MAX_ID, decode_pay_data, encode_pay_data, pay_data_extent
from batchpay.errors import CodecError


def test_golden_small_list():
    # count=3, first=5, then deltas 2 and 3, one varint byte each
    assert encode_pay_data([5, 7, 10]).hex() == "03000000050000000203"


def test_golden_with_repeat():
    # repeats encode as zero deltas
    assert encode_pay_data([5, 5, 7]).hex() == "030000000500000000" + "02"


def test_empty_list():
    assert encode_pay_data([]) == b"\x00\x00\x00\x00"
    assert decode_pay_data(b"\x00\x00\x00\x00") == []


def test_single_id():
    blob = encode_pay_data([123456])
    assert len(blob) == 8
    assert decode_pay_data(blob) == [123456]


def test_thousand_consecutive_ids_take_1007_bytes():
    ids = list(range(4000, 5000))
    blob = encode_pay_data(ids)
    assert len(blob) == 1007
    assert decode_pay_data(blob) == ids


def test_large_deltas_round_trip():
    ids = [0, 127, 128, 16383, 16384, 2_097_151, 2_097_152, MAX_ID]
    assert decode_pay_data(encode_pay_data(ids)) == ids


def test_max_id_boundary():
    assert decode_pay_data(encode_pay_data([MAX_ID])) == [MAX_ID]
    with pytest.raises(CodecError):
        encode_pay_data([MAX_ID + 1])
    with pytest.raises(CodecError):
        encode_pay_data([-1])


def test_encode_rejects_decreasing():
    with pytest.raises(CodecError):
        encode_pay_data([7, 5])


def test_decode_rejects_truncation():
    blob = encode_pay_data([5, 7, 10])
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode_pay_data(blob[:cut])


def test_decode_rejects_trailing_garbage():
    blob = encode_pay_data([5, 7, 10])
    with pytest.raises(CodecError):
        decode_pay_data(blob + b"\x00")


def test_decode_rejects_padded_varint():
    # delta 2 written as two bytes (0x82 0x00) instead of the canonical 0x02
    blob = bytes.fromhex("02000000") + bytes.fromhex("05000000") + b"\x82\x00"
    with pytest.raises(CodecError):
        decode_pay_data(blob)


def test_decode_rejects_oversized_varint():
    # six continuation bytes exceed the widest encoding a 32-bit delta needs
    blob = bytes.fromhex("02000000") + bytes.fromhex("05000000") + b"\x80" * 5 + b"\x01"
    with pytest.raises(CodecError):
        decode_pay_data(blob)


def test_decode_rejects_id_overflow():
    # delta pushes the running id past the 32-bit ceiling
    header = bytes.fromhex("02000000") + MAX_ID.to_bytes(4, "little")
    with pytest.raises(CodecError):
        decode_pay_data(header + b"\x01")


def test_decode_rejects_count_mismatch():
    # header claims 3 entries but only 2 are present
    blob = bytes.fromhex("03000000") + bytes.fromhex("05000000") + b"\x02"
    with pytest.raises(CodecError):
        decode_pay_data(blob)


sorted_ids = st.lists(st.integers(0, MAX_ID), max_size=300).map(sorted)


@given(sorted_ids)
@settings(max_examples=200)
def test_round_trip(ids):
    assert decode_pay_data(encode_pay_data(ids)) == ids


@given(st.binary(max_size=64))
@settings(max_examples=200)
def test_decode_total(blob):
    # arbitrary bytes either decode to a list that re-encodes to the same
    # blob, or raise CodecError; nothing else
    try:
        ids = decode_pay_data(blob)
    except CodecError:
        return
    assert encode_pay_data(ids) == blob


# -- against a reference decoder ---------------------------------------------


def _header(count: int, first: int) -> bytes:
    return count.to_bytes(4, "little") + first.to_bytes(4, "little")


def reference_decode(blob: bytes, max_id: int) -> list[int]:
    """The wire format read one varint at a time, kept apart from the codec."""
    if len(blob) < 4:
        raise CodecError("short header")
    count = int.from_bytes(blob[:4], "little")
    if count == 0:
        if len(blob) != 4:
            raise CodecError("empty list with trailing bytes")
        return []
    if len(blob) < 8:
        raise CodecError("short header")
    ids = [int.from_bytes(blob[4:8], "little")]
    pos = 8
    while len(ids) < count:
        delta = 0
        for shift in range(0, 35, 7):
            if pos == len(blob):
                raise CodecError("truncated")
            byte = blob[pos]
            pos += 1
            delta |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
        else:
            raise CodecError("varint longer than 5 bytes")
        if byte == 0 and shift:
            raise CodecError("zero padding byte")
        ids.append(ids[-1] + delta)
    if pos != len(blob) or ids[-1] > max_id:
        raise CodecError("trailing bytes or id past bound")
    return ids


@st.composite
def near_canonical_blobs(draw):
    """Blobs whose body length is often exactly count - 1, as the fast path needs."""
    body = draw(st.binary(max_size=40) | st.lists(st.integers(0, 0x7F), max_size=40).map(bytes))
    near = st.integers(-2, 2).map(lambda d: max(0, len(body) + 1 + d))
    count = draw(st.integers(0, 2**32 - 1) | near)
    first = draw(st.integers(0, MAX_ID) | st.integers(MAX_ID - 300, MAX_ID))
    blob = count.to_bytes(4, "little") + first.to_bytes(4, "little") + body
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@given(
    near_canonical_blobs() | st.binary(max_size=48),
    st.just(MAX_ID) | st.integers(0, MAX_ID) | st.integers(0, 300),
)
@example(bytes(4), MAX_ID)
@example(bytes(8), MAX_ID)
@example(_header(2, MAX_ID) + b"\x01", MAX_ID)
@settings(max_examples=500, deadline=None)
def test_decode_matches_reference(blob, max_id):
    try:
        expected = reference_decode(blob, max_id)
    except CodecError:
        with pytest.raises(CodecError):
            decode_pay_data(blob, max_id)
    else:
        assert decode_pay_data(blob, max_id) == expected


def test_one_byte_delta_edge():
    assert encode_pay_data([0, 127]) == _header(2, 0) + b"\x7f"
    assert encode_pay_data([0, 128]) == _header(2, 0) + b"\x80\x01"
    assert decode_pay_data(_header(2, 0) + b"\x7f") == [0, 127]
    assert decode_pay_data(_header(2, 0) + b"\x80\x01") == [0, 128]


def test_continuation_byte_in_a_count_minus_one_body_is_truncation():
    with pytest.raises(CodecError, match="^truncated inside varint$"):
        decode_pay_data(_header(3, 5) + b"\x01\x81")


def test_one_byte_deltas_past_the_bound_name_the_first_overflowing_id():
    message = f"delta overflow: id {MAX_ID + 1} exceeds bound {MAX_ID}"
    with pytest.raises(CodecError, match=f"^{re.escape(message)}$"):
        decode_pay_data(_header(3, MAX_ID) + b"\x01\x01")
    with pytest.raises(CodecError, match="^delta overflow: id 12 exceeds bound 10$"):
        decode_pay_data(_header(4, 5) + b"\x07\x00\x05", max_id=10)


def test_count_zero_and_one():
    assert decode_pay_data(_header(0, 0)[:4]) == []
    with pytest.raises(CodecError, match="^trailing bytes after empty list$"):
        decode_pay_data(_header(0, 0))
    assert decode_pay_data(_header(1, 9)) == [9]
    with pytest.raises(CodecError, match="^trailing bytes after last delta$"):
        decode_pay_data(_header(1, 9) + b"\x00")


def test_bytearray_input():
    for data in (encode_pay_data(list(range(10, 20))), encode_pay_data([10, 300])):
        assert decode_pay_data(bytearray(data)) == decode_pay_data(data)


def test_encode_error_messages():
    with pytest.raises(CodecError, match="^payee ids must be non-decreasing$"):
        encode_pay_data([3, 4, 2])
    with pytest.raises(CodecError, match=f"^id {MAX_ID + 1} outside 32-bit range$"):
        encode_pay_data([MAX_ID - 1, MAX_ID, MAX_ID + 1])


# -- pay_data_extent against decode_pay_data ----------------------------------


@st.composite
def valid_pay_data(draw):
    """An encoded list of one-byte gaps and repeats, some with wide gaps mixed in."""
    gap = st.integers(0, 0x7F)
    if draw(st.booleans()):
        gap = gap | st.integers(0x80, 2**21) | st.just(0)
    first = draw(st.integers(0, 2000) | st.integers(MAX_ID - 2000, MAX_ID))
    ids = [first]
    for step in draw(st.lists(gap, max_size=60)):
        if ids[-1] + step > MAX_ID:
            break
        ids.append(ids[-1] + step)
    return encode_pay_data(ids)


@st.composite
def tampered_pay_data(draw):
    """A valid blob truncated, extended or with its count or first id bumped."""
    blob = bytearray(draw(valid_pay_data()))
    how = draw(st.sampled_from(["truncate", "extend", "count", "first"]))
    if how == "truncate":
        del blob[draw(st.integers(0, len(blob))):]
    elif how == "extend":
        blob += draw(st.binary(min_size=1, max_size=4))
    elif len(blob) >= 8:
        at = 0 if how == "count" else 4
        value = int.from_bytes(blob[at:at + 4], "little") + draw(st.integers(-3, 3))
        blob[at:at + 4] = (value % 2**32).to_bytes(4, "little")
    return bytes(blob)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:        # compared by class and message
        return type(exc), str(exc)


def _decoded_extent(data):
    ids = decode_pay_data(data)
    return len(ids), (ids[-1] if ids else None)


@given(
    valid_pay_data() | tampered_pay_data() | near_canonical_blobs(),
    st.sampled_from([bytes, bytearray, memoryview]),
)
@example(bytes(4), bytes)
@example(_header(0, 0), bytes)
@example(_header(2, 5) + b"\x01\x01", bytes)
@example(_header(3, MAX_ID) + b"\x01\x01", bytes)
@example(_header(3, 5) + b"\x01\x81", bytearray)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_extent_matches_decode(blob, kind):
    data = kind(blob)
    expected = _outcome(lambda: _decoded_extent(data))
    assert _outcome(lambda: pay_data_extent(data)) == expected


@pytest.mark.parametrize("gaps", [0, 1, 514, 515, 516, 1030, 9999])
@pytest.mark.parametrize("fill", ["max", "random"])
def test_extent_sum_is_exact_across_chunk_edges(gaps, fill):
    # The fast path sums the gap bytes in chunks; all-0x7F bodies are the
    # largest sums a chunk can take, and a chunk edge falls every 515 bytes.
    rng = random.Random(gaps)
    body = bytes([0x7F] * gaps if fill == "max" else [rng.randrange(0x80) for _ in range(gaps)])
    first = rng.randrange(1000)
    for kind in (bytes, bytearray):
        blob = kind(_header(gaps + 1, first) + body)
        ids = decode_pay_data(blob)
        assert ids[-1] == first + sum(body)
        assert pay_data_extent(blob) == (len(ids), ids[-1]) == (gaps + 1, first + sum(body))
