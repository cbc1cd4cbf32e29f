"""Public chain log: the append-only record stream a protocol run emits.

Every applied operation appends one typed record. The log is the public
face of a run: balance oracles reconstruct account state from it alone,
the replay tool re-executes it against a fresh state, and the gas model
prices each record's scaling payload. Rejected operations never log.

Each record class declares its wire format once, and one generic codec
is compiled from those declarations when the module loads:

* ``TAG``: the record's type byte;
* ``WIRE``: the kind of each field (see ``_KINDS``), in dataclass order
  with the subject (``pay_index``) skipped;
* ``OP``: the gas-model operation kind the record is priced as, or None;
* ``SCALING``: the field whose wire bytes, less any length prefix, are
  the record's gas payload, or None.

Record wire format: tag (u8), subject (u64, the payment index for
payment-scoped records and zero otherwise), then the WIRE fields in order.
Integers little-endian; strings u16-length-prefixed utf-8; blobs
u32-length-prefixed; an optional field is a flag byte, 0x00 (absent) or
0x01 (value follows), and any other flag is rejected. A log file is the
magic header followed by u32-length-prefixed records.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import CodecError
from .wire import Reader, pack_bytes, pack_str, u16, u32, u64

FILE_MAGIC = b"BPLOG\x01"

# Wire sentinel for "open a new account" in deposit records; the in-memory
# API uses the NEW_ACCOUNT object, the wire uses the one u32 value that can
# never be a real id (the table is capped below it).
NEW_ACCOUNT_WIRE = 2**32 - 1


@dataclass(frozen=True)
class Record:
    """Base record; concrete types declare TAG, WIRE, OP and SCALING."""

    TAG = 0
    WIRE = ()
    OP = None
    SCALING = None

    @property
    def subject(self) -> int:
        return getattr(self, "pay_index", 0)

    def encode(self) -> bytes:
        return self._codec.encode(self)


@dataclass(frozen=True)
class Instantiated(Record):
    TAG = 0x01
    WIRE = ("bytes", "bytes")
    params_blob: bytes           # canonical params serialization
    externals_blob: bytes        # canonical initial adapter snapshot


@dataclass(frozen=True)
class Registered(Record):
    TAG = 0x02
    WIRE = ("u32", "str")
    OP = "register"
    account_id: int
    address: str


@dataclass(frozen=True)
class BulkRegistered(Record):
    TAG = 0x03
    WIRE = ("u32", "u32", "u32", "b32")
    OP = "bulk_register"
    bulk_id: int
    first_id: int
    count: int
    root: bytes


@dataclass(frozen=True)
class Claimed(Record):
    TAG = 0x04
    WIRE = ("u32", "u32", "str", "bytes")
    OP = "claim"
    SCALING = "proof_blob"
    bulk_id: int
    account_id: int
    address: str
    proof_blob: bytes


@dataclass(frozen=True)
class Deposited(Record):
    TAG = 0x05
    WIRE = ("u32", "u32", "u64", "str")
    OP = "deposit"
    account_ref: int             # NEW_ACCOUNT_WIRE when the deposit opened the account
    account_id: int              # the id actually credited
    amount: int
    from_address: str


@dataclass(frozen=True)
class Withdrawn(Record):
    TAG = 0x06
    WIRE = ("u32", "u64", "str", "str")
    OP = "withdraw"
    account_id: int
    amount: int
    to_address: str
    sender: str


@dataclass(frozen=True)
class Advanced(Record):
    TAG = 0x07
    WIRE = ("u64",)
    blocks: int


@dataclass(frozen=True)
class PaymentRegistered(Record):
    TAG = 0x08
    WIRE = ("u32", "u64", "u64", "b32?", "str", "bytes")
    OP = "register_payment"
    SCALING = "pay_data"
    pay_index: int
    from_id: int
    per_destination: int
    unlocker_fee: int
    locking_key_hash: bytes | None
    sender: str
    pay_data: bytes              # exact codec wire bytes


@dataclass(frozen=True)
class Unlocked(Record):
    TAG = 0x09
    WIRE = ("u32", "bytes")
    OP = "unlock"
    SCALING = "key"
    pay_index: int
    unlocker_id: int
    key: bytes


@dataclass(frozen=True)
class Refunded(Record):
    TAG = 0x0A
    OP = "refund"
    pay_index: int


@dataclass(frozen=True)
class CollectOpened(Record):
    TAG = 0x0B
    WIRE = ("u32", "u16", "u32", "u64", "u64", "u64", "str?", "b32")
    OP = "collect"
    delegate_id: int
    slot_id: int
    recipient_id: int
    last_payment_index: int
    amount: int
    fee: int
    destination_address: str | None
    authorization: bytes


@dataclass(frozen=True)
class Challenged(Record):
    TAG = 0x0C
    WIRE = ("u32", "u16", "u32")
    OP = "challenge"
    delegate_id: int
    slot_id: int
    challenger_id: int


@dataclass(frozen=True)
class ListResponded(Record):
    TAG = 0x0D
    WIRE = ("u32", "u16", "pairs")
    OP = "respond"
    SCALING = "pairs"
    delegate_id: int
    slot_id: int
    pairs: tuple[tuple[int, int], ...]   # (pay index, claimed amount)


@dataclass(frozen=True)
class PaymentSelected(Record):
    TAG = 0x0E
    WIRE = ("u32", "u16", "u64")
    OP = "select"
    delegate_id: int
    slot_id: int
    pay_index: int
    amount: int


@dataclass(frozen=True)
class InclusionProved(Record):
    TAG = 0x0F
    WIRE = ("u32", "u16", "bytes")
    OP = "prove"
    SCALING = "pay_data"
    delegate_id: int
    slot_id: int
    pay_data: bytes


@dataclass(frozen=True)
class ChallengeSucceeded(Record):
    TAG = 0x10
    WIRE = ("u32", "u16")
    OP = "challenge_success"
    delegate_id: int
    slot_id: int


@dataclass(frozen=True)
class ChallengeFailed(Record):
    TAG = 0x11
    WIRE = ("u32", "u16")
    OP = "challenge_failed"
    delegate_id: int
    slot_id: int


@dataclass(frozen=True)
class SlotFreed(Record):
    TAG = 0x12
    WIRE = ("u32", "u16")
    OP = "free_slot"
    delegate_id: int
    slot_id: int


@dataclass(frozen=True)
class FinalDigest(Record):
    """File trailer written by the run tools; never part of live state."""

    TAG = 0x7F
    WIRE = ("b32",)
    digest: bytes


RECORD_TYPES: dict[int, type[Record]] = {
    cls.TAG: cls
    for cls in (
        Instantiated, Registered, BulkRegistered, Claimed, Deposited, Withdrawn,
        Advanced, PaymentRegistered, Unlocked, Refunded, CollectOpened, Challenged,
        ListResponded, PaymentSelected, InclusionProved, ChallengeSucceeded,
        ChallengeFailed, SlotFreed, FinalDigest,
    )
}

# -- the codec compiled from the declarations ---------------------------------

# Integer kinds. A record's leading integers share one struct with its tag and
# subject; 32-byte values stay out of it, as ``32s`` would pad or cut a
# wrong-length value.
_INT_CODES = {"u16": "H", "u32": "I", "u64": "Q"}
_PAIR = struct.Struct("<QQ")


def _pack_b32(value: bytes) -> bytes:
    if len(value) != 32:
        raise CodecError(f"expected a 32-byte value, got {len(value)} bytes")
    return value


def _read_b32(r: Reader) -> bytes:
    return bytes(r.take(32))


def _read_pairs(r: Reader) -> tuple[tuple[int, int], ...]:
    return tuple(_PAIR.iter_unpack(r.take(_PAIR.size * r.u32())))


def _pack_pairs(pairs) -> bytes:
    return u32(len(pairs)) + b"".join(_PAIR.pack(idx, amount) for idx, amount in pairs)


def _optional(read, pack):
    """A flag byte, then the value when the flag is 0x01."""
    return (
        lambda r: read(r) if r.flag() else None,
        lambda v: b"\x00" if v is None else b"\x01" + pack(v),
        0,
    )


# kind -> (read, pack, length-prefix size). ``b32`` is a raw 32-byte value,
# ``pairs`` a u32 count of (u64, u64) pairs, and ``?`` marks an optional field.
_KINDS = {
    "u16": (Reader.u16, u16, 0),
    "u32": (Reader.u32, u32, 0),
    "u64": (Reader.u64, u64, 0),
    "b32": (_read_b32, _pack_b32, 0),
    "str": (Reader.str_, pack_str, 2),
    "bytes": (Reader.bytes_, pack_bytes, 4),
    "pairs": (_read_pairs, _pack_pairs, 4),
    "str?": _optional(Reader.str_, pack_str),
    "b32?": _optional(_read_b32, _pack_b32),
}


class _Codec:
    """Encoder, decoder and gas payload compiled from one record's WIRE."""

    def __init__(self, cls: type[Record]):
        names = [f.name for f in fields(cls)]
        self.cls = cls
        self.subject_at = names.index("pay_index") if "pay_index" in names else None
        if self.subject_at is not None:
            del names[self.subject_at]
        if len(names) != len(cls.WIRE):
            raise TypeError(f"{cls.__name__}.WIRE does not match its fields")
        lead = 0
        while lead < len(cls.WIRE) and cls.WIRE[lead] in _INT_CODES:
            lead += 1
        # tag, subject and the leading integers in one struct
        self.head = struct.Struct("<BQ" + "".join(_INT_CODES[k] for k in cls.WIRE[:lead]))
        self.split = 2 + lead
        self.values = attrgetter("TAG", "subject", *names)
        self.tail = tuple(_KINDS[k] for k in cls.WIRE[lead:])
        if cls.SCALING is None:
            self.scaling = lambda rec: b""
        else:
            _, pack, prefix = _KINDS[cls.WIRE[names.index(cls.SCALING)]]
            get = attrgetter(cls.SCALING)
            self.scaling = lambda rec: pack(get(rec))[prefix:]

    def encode(self, rec: Record) -> bytes:
        vals = self.values(rec)
        out = self.head.pack(*vals[: self.split])
        for (_, pack, _), value in zip(self.tail, vals[self.split:]):
            out += pack(value)
        return out

    def decode(self, r: Reader) -> Record:
        head = r.unpack(self.head)
        args = [*head[2:], *[read(r) for read, _, _ in self.tail]]
        r.expect_end()
        if self.subject_at is not None:
            args.insert(self.subject_at, head[1])
        elif head[1]:
            raise CodecError("subject field does not match record body")
        return self.cls(*args)


for _cls in RECORD_TYPES.values():
    _cls._codec = _Codec(_cls)


def decode_record(data: bytes | memoryview) -> Record:
    """Decode one record from bytes or a memoryview over them."""
    if not data:
        raise CodecError("truncated record")
    cls = RECORD_TYPES.get(data[0])
    if cls is None:
        raise CodecError(f"unknown record tag 0x{data[0]:02x}")
    return cls._codec.decode(Reader(data))


def scaling_payload(record: Record) -> bytes:
    """The part of a record that grows with input size, for gas pricing.

    Fixed-size arguments are absorbed into the per-operation fixed gas
    constants, so only genuinely size-dependent payloads count here.
    """
    return record._codec.scaling(record)


class ChainLog:
    """Append-only record list plus a derived pay-data index."""

    def __init__(self) -> None:
        self.records: list[Record] = []
        self._pay_data: dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: Record) -> None:
        self.records.append(record)
        if isinstance(record, PaymentRegistered):
            self._pay_data[record.pay_index] = record.pay_data

    def pay_data(self, pay_index: int) -> bytes:
        """Published payee bytes for a payment (data availability view)."""
        return self._pay_data[pay_index]

    def dump(self) -> bytes:
        out = io.BytesIO()
        out.write(FILE_MAGIC)
        for rec in self.records:
            blob = rec.encode()
            out.write(u32(len(blob)) + blob)
        return out.getvalue()

    @classmethod
    def load(cls, data: bytes) -> "ChainLog":
        if data[: len(FILE_MAGIC)] != FILE_MAGIC:
            raise CodecError("bad log file magic")
        log = cls()
        r = Reader(memoryview(data)[len(FILE_MAGIC):])
        while not r.done():
            log.append(decode_record(r.take(r.u32())))
        return log
