"""Tiny byte-packing helpers shared by the wire formats.

Integers are little-endian throughout. Strings are utf-8 with a u16 length
prefix. A Reader raises CodecError on truncation so every format built on
top inherits strict bounds checking.
"""

from __future__ import annotations

import struct

from .errors import CodecError

U16_MAX = 2**16 - 1
U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1

_U16, _U32, _U64 = struct.Struct("<H"), struct.Struct("<I"), struct.Struct("<Q")


def u16(value: int) -> bytes:
    return value.to_bytes(2, "little")


def u32(value: int) -> bytes:
    return value.to_bytes(4, "little")


def u64(value: int) -> bytes:
    return value.to_bytes(8, "little")


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > U16_MAX:
        raise CodecError("string too long for u16 length prefix")
    return u16(len(raw)) + raw


def pack_bytes(blob: bytes) -> bytes:
    if len(blob) > U32_MAX:
        raise CodecError("blob too long for u32 length prefix")
    return u32(len(blob)) + blob


class Reader:
    """Sequential reader over bytes or a memoryview, with hard bounds checks.

    Over a memoryview, ``take`` returns views and nothing is copied until a
    field is turned into bytes or str.
    """

    def __init__(self, data: bytes | memoryview, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes | memoryview:
        if self.pos + n > len(self.data):
            raise CodecError("truncated record")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        """Read one precompiled struct at the current position."""
        pos = self.pos
        if pos + fmt.size > len(self.data):
            raise CodecError("truncated record")
        self.pos = pos + fmt.size
        return fmt.unpack_from(self.data, pos)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def flag(self) -> bool:
        """An optional field's presence byte: 0x00 or 0x01, nothing else."""
        flag = self.u8()
        if flag > 1:
            raise CodecError(f"optional-field flag 0x{flag:02x} is not 0x00 or 0x01")
        return flag == 1

    def str_(self) -> str:
        try:
            return str(self.take(self.u16()), "utf-8")
        except UnicodeDecodeError:
            raise CodecError("string is not valid utf-8") from None

    def bytes_(self) -> bytes:
        return bytes(self.take(self.u32()))

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_end(self) -> None:
        if not self.done():
            raise CodecError("trailing bytes in record")
