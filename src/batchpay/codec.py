"""Compact payee-list codec: delta compression plus unsigned LEB128 varints.

Wire layout (all integers little-endian):

    [count: u32] [first id: u32] [varint delta]*

The id list must be non-decreasing; each delta is ``id[i] - id[i-1]``.
A delta of zero repeats the previous id, which the payment layer reads as
"this payee receives another multiple of the per-destination amount".
Varints carry 7 data bits per byte with the high bit as continuation.
Only canonical encodings are accepted on decode: a multi-byte varint whose
last byte is zero is padding and gets rejected, as does any byte left over
after the advertised count has been consumed.

A list of n consecutive ids therefore costs 8 + (n - 1) bytes, one byte
per additional payee.

Both directions take a fast path when every gap fits in one byte (0..127):
the body is then the gaps themselves, and decoding is a running sum over
it. The wire format and its acceptance rules are the same on both paths:
any input the fast path cannot settle, including every malformed one, goes
through the general loop and meets its checks and error messages.

``pay_data_extent`` gives what the engine checks a batch by, its payee
count and last id, without building the list: on the one-byte-gap layout
the last id is the first id plus the sum of the body bytes, which it takes
in C with ``zlib.adler32`` over chunks too short for the sum to wrap. Every
other input goes to ``decode_pay_data``, so both accept and reject the same
blobs with the same errors.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate
from operator import sub

from .errors import CodecError

# Ids are 32-bit; deltas can never legitimately need more than 5 varint bytes.
MAX_ID = 2**32 - 1
_HEADER = struct.Struct("<II")
# Adler-32 started from 0 keeps the running byte sum mod 65,521 in its low
# 16 bits. 515 bytes of at most 0x7F sum to at most 65,405, below the
# modulus, so on an ASCII chunk that low half is the exact sum.
_ASCII_SUM_CHUNK = 515


def encode_pay_data(ids: list[int]) -> bytes:
    """Encode a non-decreasing list of account ids to wire bytes."""
    if len(ids) > 0xFFFFFFFF:
        raise CodecError("payee count exceeds u32")
    if not ids:
        return (0).to_bytes(4, "little")
    prev = ids[0]
    if prev < 0 or prev > MAX_ID:
        raise CodecError(f"id {prev} outside 32-bit range")
    header = _HEADER.pack(len(ids), prev)
    try:
        body = bytes(map(sub, ids[1:], ids))
    except (TypeError, ValueError):     # a gap below 0 or above 255, or a non-int
        body = None
    if body is not None and body.isascii() and ids[-1] <= MAX_ID:
        return header + body
    out = bytearray(header)
    append = out.append
    for cur in ids[1:]:
        if cur < prev:
            raise CodecError("payee ids must be non-decreasing")
        if cur > MAX_ID:
            raise CodecError(f"id {cur} outside 32-bit range")
        delta = cur - prev
        prev = cur
        while delta > 0x7F:
            append(0x80 | (delta & 0x7F))
            delta >>= 7
        append(delta)
    return bytes(out)


def decode_pay_data(data: bytes) -> list[int]:
    """Decode wire bytes back to the id list, rejecting malformed input.

    An id past ``MAX_ID`` is a delta overflow.
    """
    if len(data) < 4:
        raise CodecError("truncated: count header missing")
    count = int.from_bytes(data[0:4], "little")
    if count == 0:
        if len(data) != 4:
            raise CodecError("trailing bytes after empty list")
        return []
    if len(data) < 8:
        raise CodecError("truncated: first id missing")
    first = int.from_bytes(data[4:8], "little")
    body = data[8:]
    if len(body) == count - 1 and isinstance(body, (bytes, bytearray)) and body.isascii():
        # No byte has the continuation bit, so each delta is one canonical byte.
        ids = list(accumulate(body, initial=first))
        if ids[-1] <= MAX_ID:
            return ids
        # Past the bound: the loop below names the first id that overflows.
    ids = [first]
    pos = 8
    end = len(data)
    cur = first
    for _ in range(count - 1):
        delta = 0
        shift = 0
        start = pos
        while True:
            if pos >= end:
                raise CodecError("truncated inside varint")
            byte = data[pos]
            pos += 1
            delta |= (byte & 0x7F) << shift
            shift += 7
            if byte & 0x80 == 0:
                # Canonical form: the final byte of a multi-byte varint
                # must contribute bits, otherwise it is zero padding.
                if byte == 0 and pos - start > 1:
                    raise CodecError("non-canonical varint (zero padding byte)")
                break
            if shift > 35:
                raise CodecError("varint longer than 5 bytes")
        cur += delta
        if cur > MAX_ID:
            raise CodecError(f"delta overflow: id {cur} exceeds bound {MAX_ID}")
        ids.append(cur)
    if pos != end:
        raise CodecError("trailing bytes after last delta")
    return ids


def pay_data_extent(data: bytes) -> tuple[int, int | None]:
    """``(len(ids), ids[-1])`` of ``decode_pay_data(data)``, unexpanded.

    The last id of an empty list is None. Malformed input raises exactly
    what ``decode_pay_data`` raises.
    """
    if len(data) >= 8 and isinstance(data, (bytes, bytearray)):
        count, first = _HEADER.unpack_from(data)
        body = data[8:]
        if count >= 1 and len(body) == count - 1 and body.isascii():
            last = first + sum([
                zlib.adler32(body[at:at + _ASCII_SUM_CHUNK], 0) & 0xFFFF
                for at in range(0, len(body), _ASCII_SUM_CHUNK)
            ])
            if last <= MAX_ID:
                return count, last
    ids = decode_pay_data(data)
    return len(ids), (ids[-1] if ids else None)
