"""Byte layouts: the kind table, and the packers and readers built on it.

Every byte image in the package (chain-log records, the state image, the
params and externals blobs, Merkle proofs) is a sequence of fields, each
of a kind in ``KINDS``: little-endian integers, u16-length-prefixed utf-8
strings, u32-length-prefixed blobs, and ``k?``, a flag byte 0x00 (absent)
or 0x01 (a ``k`` follows). A class declares its layout as ``WIRE``, the
kind of each dataclass field in field order with ``pay_index`` skipped. A
Reader raises CodecError on truncation, so every format inherits strict
bounds checking.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from itertools import groupby
from typing import Callable, NamedTuple

from .errors import CodecError

U16_MAX = 2**16 - 1
U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1

_U16, _U32, _U64 = struct.Struct("<H"), struct.Struct("<I"), struct.Struct("<Q")
_PAIR = struct.Struct("<QQ")
u16, u32, u64 = _U16.pack, _U32.pack, _U64.pack


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


# -- the kind table ------------------------------------------------------------


class Kind(NamedTuple):
    read: Callable[[Reader], object]
    pack: Callable[[object], bytes]
    prefix: int = 0             # length-prefix bytes ahead of the payload
    code: str | None = None     # struct code of an integer kind


def _pack_b32(value: bytes) -> bytes:
    if len(value) != 32:
        raise CodecError(f"expected a 32-byte value, got {len(value)} bytes")
    return value


def _pack_pairs(pairs) -> bytes:
    return u32(len(pairs)) + b"".join(_PAIR.pack(idx, amount) for idx, amount in pairs)


def _optional(kind: Kind) -> Kind:
    read, pack = kind.read, kind.pack
    return Kind(
        lambda r: read(r) if r.flag() else None,
        lambda v: b"\x00" if v is None else b"\x01" + pack(v),
    )


# ``b32`` is a raw 32-byte value, ``b32s`` a u16 count of them, ``pair`` two
# u64s (a pay index and an amount), ``pairs`` a u32 count of pairs; ``k?`` is
# derived for every ``k``.
KINDS: dict[str, Kind] = {
    "u8": Kind(Reader.u8, struct.Struct("<B").pack, code="B"),
    "u16": Kind(Reader.u16, u16, code="H"),
    "u32": Kind(Reader.u32, u32, code="I"),
    "u64": Kind(Reader.u64, u64, code="Q"),
    "b32": Kind(lambda r: bytes(r.take(32)), _pack_b32),
    "b32s": Kind(lambda r: tuple(bytes(r.take(32)) for _ in range(r.u16())),
                 lambda v: u16(len(v)) + b"".join(map(_pack_b32, v)), 2),
    "str": Kind(Reader.str_, pack_str, 2),
    "bytes": Kind(Reader.bytes_, pack_bytes, 4),
    "pair": Kind(lambda r: r.unpack(_PAIR), lambda v: _PAIR.pack(*v)),
    "pairs": Kind(lambda r: tuple(_PAIR.iter_unpack(r.take(_PAIR.size * r.u32()))), _pack_pairs, 4),
}
KINDS.update({f"{name}?": _optional(kind) for name, kind in KINDS.items()})


# -- layouts ---------------------------------------------------------------------


def layout(cls, prefix: str = "o.") -> list[tuple[str, str]]:
    """``(prefix + field name, kind)`` per field of a class declaring ``WIRE``."""
    names = [f.name for f in fields(cls) if f.name != "pay_index"]
    if len(names) != len(cls.WIRE):
        raise TypeError(f"{cls.__name__}.WIRE does not match its fields")
    return [(prefix + name, kind) for name, kind in zip(names, cls.WIRE)]


def packer(items) -> Callable[[object], bytes]:
    """Compile ``(expression over o, kind)`` items into ``pack(o) -> bytes``.

    Each run of integer kinds is one struct call; every other field calls
    its kind's packer.
    """
    scope: dict[str, object] = {}
    parts: list[str] = []
    for integers, run in groupby(items, key=lambda item: KINDS[item[1]].code is not None):
        run = list(run)
        if integers:
            fmt = struct.Struct("<" + "".join(KINDS[kind].code for _, kind in run))
            calls = [(fmt.pack, ", ".join(expr for expr, _ in run))]
        else:
            calls = [(KINDS[kind].pack, expr) for expr, kind in run]
        for fn, args in calls:
            scope[f"_{len(scope)}"] = fn
            parts.append(f"_{len(scope) - 1}({args})")
    exec(f"def pack(o):\n    return {' + '.join(parts)}\n", scope)
    return scope["pack"]


def pack_rows(pack: Callable[[object], bytes], rows) -> bytes:
    """A u32 row count, then each row packed."""
    return u32(len(rows)) + b"".join(map(pack, rows))


def unpack(kinds, data: bytes, rows: bool = False) -> list:
    """The fields of ``kinds`` (with ``rows``, a u32 count of rows of them),
    which must fill ``data`` exactly."""
    r = Reader(data)
    reads = [KINDS[kind].read for kind in kinds]
    values = [[read(r) for read in reads] for _ in range(r.u32() if rows else 1)]
    r.expect_end()
    return values if rows else values[0]
