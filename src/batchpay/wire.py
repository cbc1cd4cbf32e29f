"""Byte layouts: the kind table, and the packers and readers compiled from it.

Every byte image in the package (chain-log records, the state image, the
params and externals blobs, Merkle proofs) is a sequence of fields, each
of a kind in ``KINDS``: little-endian integers, u16-length-prefixed utf-8
strings, u32-length-prefixed blobs, and ``k?``, a flag byte 0x00 (absent)
or 0x01 (a ``k`` follows). A dataclass declares its layout on its fields:
a field annotated with a kind alias (``U32``, ``OptStr``, ...), or with
``Annotated[type, kind]``, is laid out in field order, and a field whose
annotation carries no kind is left off.
Both directions are compiled from a layout once: ``packer`` builds one
expression, ``reader`` straight-line code that bounds every read by the
end of its input, so every format inherits strict bounds checking and
the same CodecError messages.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from functools import cache
from itertools import groupby
from textwrap import indent
from typing import Annotated, Callable, NamedTuple, get_type_hints

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


# -- read snippets ---------------------------------------------------------------
#
# A kind's read snippet is source that reads one value into ``{v}`` from the
# bytes ``data`` at ``pos``, leaves ``pos`` just past it and reads nothing
# at or past ``end``. It sees the names in ``_SCOPE`` and may use the locals
# ``f``, ``p`` and ``q``.

_SCOPE = {
    "_E": CodecError, "_PAIRS": _PAIR.iter_unpack,
    **{f"_{codes}": struct.Struct("<" + codes).unpack_from for codes in ("B", "H", "I", "Q", "QQ")},
}
_TRUNCATED = 'raise _E("truncated record")'


def _fixed(codes: str, targets: str = "{v},") -> str:
    """Read one struct of integer ``codes`` into ``targets``."""
    size = struct.calcsize("<" + codes)
    return f"q = pos + {size}\nif q > end: {_TRUNCATED}\n{targets} = _{codes}(data, pos)\npos = q"


def _counted(count: str, unit: int, value: str) -> str:
    """Read a ``count`` integer n, then run ``value`` over ``data[p:q]``, n * ``unit`` bytes."""
    size, scale = struct.calcsize("<" + count), "" if unit == 1 else f"{unit} * "
    return (f"p = pos + {size}\nif p > end: {_TRUNCATED}\nq = p + {scale}_{count}(data, pos)[0]\n"
            f"if q > end: {_TRUNCATED}\n{value}\npos = q")


# -- the kind table ------------------------------------------------------------


class Kind(NamedTuple):
    read: str                   # read snippet, see above
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
    pack = kind.pack
    return Kind(
        f"if pos >= end: {_TRUNCATED}\nf = data[pos]\npos += 1\n"
        'if f > 1: raise _E(f"optional-field flag 0x{f:02x} is not 0x00 or 0x01")\n'
        "{v} = None\nif f:\n" + indent(kind.read, "    "),
        lambda v: b"\x00" if v is None else b"\x01" + pack(v),
    )


# ``b32`` is a raw 32-byte value, ``b32s`` a u16 count of them, ``pair`` two
# u64s (a pay index and an amount), ``pairs`` a u32 count of pairs; ``k?`` is
# derived for every ``k``.
KINDS: dict[str, Kind] = {
    "u8": Kind(_fixed("B"), struct.Struct("<B").pack, code="B"),
    "u16": Kind(_fixed("H"), u16, code="H"),
    "u32": Kind(_fixed("I"), u32, code="I"),
    "u64": Kind(_fixed("Q"), u64, code="Q"),
    "b32": Kind(f"q = pos + 32\nif q > end: {_TRUNCATED}\n{{v}} = data[pos:q]\npos = q", _pack_b32),
    "b32s": Kind(_counted("H", 32, "{v} = tuple(data[i:i + 32] for i in range(p, q, 32))"),
                 lambda v: u16(len(v)) + b"".join(map(_pack_b32, v)), 2),
    "str": Kind(_counted("H", 1, 'try: {v} = str(data[p:q], "utf-8")\n'
                         'except UnicodeDecodeError: raise _E("string is not valid utf-8") from None'),
                pack_str, 2),
    "bytes": Kind(_counted("I", 1, "{v} = data[p:q]"), pack_bytes, 4),
    "pair": Kind(_fixed("QQ", "{v}"), lambda v: _PAIR.pack(*v)),
    "pairs": Kind(_counted("I", 16, "{v} = tuple(_PAIRS(data[p:q]))"), _pack_pairs, 4),
}
KINDS.update({f"{name}?": _optional(kind) for name, kind in KINDS.items()})

# A field's kind, declared in its annotation beside its Python type.
U8 = Annotated[int, "u8"]
U16 = Annotated[int, "u16"]
U32 = Annotated[int, "u32"]
U64 = Annotated[int, "u64"]
B32 = Annotated[bytes, "b32"]
B32s = Annotated[tuple[bytes, ...], "b32s"]
Str = Annotated[str, "str"]
Bytes = Annotated[bytes, "bytes"]
Pairs = Annotated[tuple[tuple[int, int], ...], "pairs"]
OptU32 = Annotated[int | None, "u32?"]
OptStr = Annotated[str | None, "str?"]
OptB32 = Annotated[bytes | None, "b32?"]
OptPair = Annotated[tuple[int, int] | None, "pair?"]
OptPairs = Annotated[tuple[tuple[int, int], ...] | None, "pairs?"]


# -- layouts ---------------------------------------------------------------------


def layout(cls, prefix: str = "o.") -> list[tuple[str, str]]:
    """``(prefix + field name, kind)`` per field of a dataclass whose annotation carries a kind."""
    hints = get_type_hints(cls, include_extras=True)
    annotated = ((f.name, getattr(hints[f.name], "__metadata__", ())) for f in fields(cls))
    return [(prefix + name, meta[0]) for name, meta in annotated if meta]


@cache
def kinds(cls) -> tuple[str, ...]:
    """The kinds of ``cls``'s layout, in field order."""
    return tuple(kind for _, kind in layout(cls, ""))


def packer(items, params: str = "o") -> Callable[..., bytes]:
    """Compile ``(expression over params, kind)`` items into ``pack(params) -> bytes``.

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
    exec(f"def pack({params}):\n    return {' + '.join(parts)}\n", scope)
    return scope["pack"]


def values_packer(kinds) -> Callable[..., bytes]:
    """Compile ``kinds`` into ``pack(*values) -> bytes``, one positional value per kind."""
    names = [f"v{i}" for i in range(len(kinds))]
    return packer(zip(names, kinds), ", ".join(names))


def pack_rows(pack: Callable[..., bytes], rows, *columns) -> bytes:
    """A u32 count of ``rows``, then each row packed: ``pack(row)``, or with
    ``columns``, ``pack(row, its cell of each column)``."""
    return u32(len(rows)) + b"".join(map(pack, rows, *columns))


@cache
def reader(kinds: tuple[str, ...], result: str = "", check: str = "", rows: bool = False, **names):
    """Compile ``kinds`` into ``read(data, pos, end)`` over bytes.

    ``read`` binds one value per kind to ``_0``, ``_1``, ... (each run of
    integer kinds is one struct read), raises CodecError unless the last
    value ends exactly at ``end``, runs the statement ``check`` and returns
    ``result``, an expression over the values and ``names`` (by default the
    list of values). With ``rows``, a u32 count of rows comes first and
    ``read`` returns the list of rows.
    """
    scope = {**_SCOPE, **names}
    lines = []
    items = [(f"_{i}", kind) for i, kind in enumerate(kinds)]
    for integers, run in groupby(items, key=lambda item: KINDS[item[1]].code is not None):
        run = list(run)
        if integers:
            codes = "".join(KINDS[kind].code for _, kind in run)
            scope[f"_{codes}"] = struct.Struct("<" + codes).unpack_from
            lines.append(_fixed(codes, ", ".join(value for value, _ in run) + ","))
        else:
            lines += [KINDS[kind].read.replace("{v}", value) for value, kind in run]
    body, result = "\n".join(lines), result or f"[{', '.join(value for value, _ in items)}]"
    if rows:
        loop = f"_rows = []\nfor _ in range(_n):\n{indent(body, '    ')}\n    _rows.append({result})"
        body, result = f"{_fixed('I', '_n,')}\n{loop}", "_rows"
    body += f'\nif pos != end: raise _E("trailing bytes in record")\n{check}\nreturn {result}'
    exec(f"def read(data, pos, end):\n{indent(body, '    ')}\n", scope)
    return scope["read"]


def unpack(kinds, data: bytes, rows: bool = False) -> list:
    """The fields of ``kinds`` (with ``rows``, a u32 count of rows of them),
    which must fill ``data`` exactly."""
    data = bytes(data)
    return reader(tuple(kinds), rows=rows)(data, 0, len(data))
