"""Public chain log: the append-only record stream a protocol run emits.

Every applied operation appends one typed record. The log is the public
face of a run: balance oracles reconstruct account state from it alone,
the replay tool re-executes it against a fresh state, and the gas model
prices each record's scaling payload. Rejected operations never log.

Each record class declares its wire format once, and one generic codec
is compiled from those declarations when the module loads:

* ``TAG``: the record's type byte;
* ``WIRE``: the kind of each field (see ``wire.KINDS``), in dataclass
  order with the subject (``pay_index``) skipped;
* ``OP``: the gas-model operation kind the record is priced as, or None;
* ``SCALING``: the field whose wire bytes, less any length prefix, are
  the record's gas payload, or None.

Records are frozen, slotted dataclasses. Replay builds two of every
record (decoded, then re-emitted by the engine), so each class gets an
``__init__`` compiled from its field list that stores every field through
its slot's descriptor instead of the frozen ``object.__setattr__`` path;
assignment after construction still raises ``FrozenInstanceError``.

Record wire format: tag (u8), subject (u64, the payment index for
payment-scoped records and zero otherwise), then the WIRE fields in order,
each laid out as ``wire.py`` lays out its kind. A log file is the magic
header followed by u32-length-prefixed records.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import CodecError
from .wire import KINDS, layout, packer, reader, u32

FILE_MAGIC = b"BPLOG\x01"

# "Open a new account" in deposit records and in the API (state.NEW_ACCOUNT):
# the one u32 value that can never be a real id (the table is capped below it).
NEW_ACCOUNT_WIRE = 2**32 - 1


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Instantiated(Record):
    TAG = 0x01
    WIRE = ("bytes", "bytes")
    params_blob: bytes           # canonical params serialization
    externals_blob: bytes        # canonical initial adapter snapshot


@dataclass(frozen=True, slots=True)
class Registered(Record):
    TAG = 0x02
    WIRE = ("u32", "str")
    OP = "register"
    account_id: int
    address: str


@dataclass(frozen=True, slots=True)
class BulkRegistered(Record):
    TAG = 0x03
    WIRE = ("u32", "u32", "u32", "b32")
    OP = "bulk_register"
    bulk_id: int
    first_id: int
    count: int
    root: bytes


@dataclass(frozen=True, slots=True)
class Claimed(Record):
    TAG = 0x04
    WIRE = ("u32", "u32", "str", "bytes")
    OP = "claim"
    SCALING = "proof_blob"
    bulk_id: int
    account_id: int
    address: str
    proof_blob: bytes


@dataclass(frozen=True, slots=True)
class Deposited(Record):
    TAG = 0x05
    WIRE = ("u32", "u32", "u64", "str")
    OP = "deposit"
    account_ref: int             # NEW_ACCOUNT_WIRE when the deposit opened the account
    account_id: int              # the id actually credited
    amount: int
    from_address: str


@dataclass(frozen=True, slots=True)
class Withdrawn(Record):
    TAG = 0x06
    WIRE = ("u32", "u64", "str", "str")
    OP = "withdraw"
    account_id: int
    amount: int
    to_address: str
    sender: str


@dataclass(frozen=True, slots=True)
class Advanced(Record):
    TAG = 0x07
    WIRE = ("u64",)
    blocks: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Unlocked(Record):
    TAG = 0x09
    WIRE = ("u32", "bytes")
    OP = "unlock"
    SCALING = "key"
    pay_index: int
    unlocker_id: int
    key: bytes


@dataclass(frozen=True, slots=True)
class Refunded(Record):
    TAG = 0x0A
    OP = "refund"
    pay_index: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Challenged(Record):
    TAG = 0x0C
    WIRE = ("u32", "u16", "u32")
    OP = "challenge"
    delegate_id: int
    slot_id: int
    challenger_id: int


@dataclass(frozen=True, slots=True)
class ListResponded(Record):
    TAG = 0x0D
    WIRE = ("u32", "u16", "pairs")
    OP = "respond"
    SCALING = "pairs"
    delegate_id: int
    slot_id: int
    pairs: tuple[tuple[int, int], ...]   # (pay index, claimed amount)


@dataclass(frozen=True, slots=True)
class PaymentSelected(Record):
    TAG = 0x0E
    WIRE = ("u32", "u16", "u64")
    OP = "select"
    delegate_id: int
    slot_id: int
    pay_index: int
    amount: int


@dataclass(frozen=True, slots=True)
class InclusionProved(Record):
    TAG = 0x0F
    WIRE = ("u32", "u16", "bytes")
    OP = "prove"
    SCALING = "pay_data"
    delegate_id: int
    slot_id: int
    pay_data: bytes


@dataclass(frozen=True, slots=True)
class ChallengeSucceeded(Record):
    TAG = 0x10
    WIRE = ("u32", "u16")
    OP = "challenge_success"
    delegate_id: int
    slot_id: int


@dataclass(frozen=True, slots=True)
class ChallengeFailed(Record):
    TAG = 0x11
    WIRE = ("u32", "u16")
    OP = "challenge_failed"
    delegate_id: int
    slot_id: int


@dataclass(frozen=True, slots=True)
class SlotFreed(Record):
    TAG = 0x12
    WIRE = ("u32", "u16")
    OP = "free_slot"
    delegate_id: int
    slot_id: int


@dataclass(frozen=True, slots=True)
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

_LENGTH = struct.Struct("<I")     # a log file's per-record length prefix


class _Codec:
    """Encoder, decoder and gas payload compiled from one record's WIRE."""

    def __init__(self, cls: type[Record]):
        names = [f.name for f in fields(cls)]
        self.cls = cls
        subject = "o.pay_index" if "pay_index" in names else "0"
        self.pack = packer([(str(cls.TAG), "u8"), (subject, "u64"), *layout(cls)])
        # the reader binds the tag to _0, the subject to _1 and the WIRE
        # fields to _2, ...; the subject is the pay_index field or must be zero
        args = [f"_{i}" for i in range(2, len(cls.WIRE) + 2)]
        check = 'if _1: raise _E("subject field does not match record body")'
        if "pay_index" in names:
            args.insert(names.index("pay_index"), "_1")
            check = ""
        self.decode = reader(("u8", "u64", *cls.WIRE), f"_cls({', '.join(args)})", check, _cls=cls)
        if cls.SCALING is None:
            self.scaling = lambda rec: b""
        else:
            kind = KINDS[dict(layout(cls, ""))[cls.SCALING]]
            pack, prefix, get = kind.pack, kind.prefix, attrgetter(cls.SCALING)
            self.scaling = lambda rec: pack(get(rec))[prefix:]

    def encode(self, rec: Record) -> bytes:
        try:
            return self.pack(rec)
        except struct.error as exc:
            raise CodecError(f"{self.cls.__name__}: field not encodable: {exc}") from None


def _slot_init(cls: type[Record]):
    """An ``__init__`` that sets each field through its slot's ``__set__``.

    The frozen dataclass ``__init__`` routes every field through
    ``object.__setattr__``; the member descriptor stores it directly. The
    class keeps its frozen ``__setattr__``, so later assignment still raises.
    """
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _unknown_tag(data: bytes, pos: int, end: int) -> Record:
    raise CodecError(f"unknown record tag 0x{data[pos]:02x}")


# the decoder of every tag byte, called as decoder(data, start, end)
_DECODERS = [_unknown_tag] * 256
for _cls in RECORD_TYPES.values():
    _cls._codec = _Codec(_cls)
    _cls.__init__ = _slot_init(_cls)
    _DECODERS[_cls.TAG] = _cls._codec.decode


def decode_record(data: bytes | memoryview) -> Record:
    """Decode one record from bytes or a memoryview over them."""
    data = bytes(data)
    if not data:
        raise CodecError("truncated record")
    return _DECODERS[data[0]](data, 0, len(data))


def scaling_payload(record: Record) -> bytes:
    """The part of a record that grows with input size, for gas pricing.

    Fixed-size arguments are absorbed into the per-operation fixed gas
    constants, so only genuinely size-dependent payloads count here.
    """
    return record._codec.scaling(record)


class ChainLog:
    """Append-only record list."""

    def __init__(self) -> None:
        self.records: list[Record] = []

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: Record) -> None:
        self.records.append(record)

    def dump(self) -> bytes:
        out = io.BytesIO()
        out.write(FILE_MAGIC)
        for rec in self.records:
            blob = rec.encode()
            out.write(u32(len(blob)) + blob)
        return out.getvalue()

    @classmethod
    def load(cls, data: bytes) -> "ChainLog":
        data = bytes(data)
        if data[: len(FILE_MAGIC)] != FILE_MAGIC:
            raise CodecError("bad log file magic")
        log = cls()
        append = log.records.append
        end = len(data)
        pos = len(FILE_MAGIC)
        while pos < end:
            if pos + 4 > end:
                raise CodecError("truncated record")
            start = pos + 4
            pos = start + _LENGTH.unpack_from(data, pos)[0]
            if not start < pos <= end:
                raise CodecError("truncated record")
            append(_DECODERS[data[start]](data, start, pos))
        return log
