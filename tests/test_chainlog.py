"""Chain log records: codec round-trips, file format, scaling payloads."""

from __future__ import annotations

import dataclasses
import struct
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.chainlog import (
    FILE_MAGIC,
    NEW_ACCOUNT_WIRE,
    RECORD_TYPES,
    Advanced,
    BulkRegistered,
    ChainLog,
    ChallengeFailed,
    Challenged,
    ChallengeSucceeded,
    Claimed,
    CollectOpened,
    Deposited,
    FinalDigest,
    InclusionProved,
    Instantiated,
    ListResponded,
    PaymentRegistered,
    PaymentSelected,
    Refunded,
    Registered,
    SlotFreed,
    Unlocked,
    Withdrawn,
    decode_record,
    scaling_payload,
)
from batchpay.codec import encode_pay_data
from batchpay.errors import CodecError
from batchpay.merkle import MerkleProof
from batchpay.sim.config import load_scenario_config
from batchpay.sim.scenario import run_scenario_full
from batchpay.state import Params, TokenAdapter
from batchpay.wire import KINDS, layout, packer, reader, unpack

ROOT = Path(__file__).resolve().parent.parent

SAMPLE_RECORDS = [
    Instantiated(b"p" * 64, b"x" * 12),
    Registered(3, "alice"),
    BulkRegistered(0, 4, 10, b"\xab" * 32),
    Claimed(0, 7, "seller-3", b"\x01\x02\x03"),
    Deposited(NEW_ACCOUNT_WIRE, 5, 1234, "funder"),
    Deposited(5, 5, 99, "funder"),
    Withdrawn(5, 70, "out-addr", "funder"),
    Advanced(17),
    PaymentRegistered(1, 2, 9, 0, None, "buyer", encode_pay_data([1, 4, 4])),
    PaymentRegistered(2, 2, 5, 3, b"\xcd" * 32, "buyer", encode_pay_data([7])),
    Unlocked(2, 6, b"the-key"),
    Refunded(2),
    CollectOpened(8, 40000, 3, 12, 500, 20, None, b"\x11" * 32),
    CollectOpened(8, 2, 3, 12, 500, 20, "payout-3", b"\x22" * 32),
    Challenged(8, 2, 9),
    ListResponded(8, 2, ((3, 100), (7, 400))),
    ListResponded(8, 2, ()),
    PaymentSelected(8, 2, 7, 400),
    InclusionProved(8, 2, encode_pay_data([3, 3])),
    ChallengeSucceeded(8, 2),
    ChallengeFailed(8, 2),
    SlotFreed(8, 40000),
    FinalDigest(b"\x7f" * 32),
]


_PAIR = struct.Struct("<QQ")


class Reader:
    """Sequential reader with hard bounds checks, one call per field.

    The interpreted walk that ``wire.reader``'s compiled code replaced, kept
    as the reference the compiled decoders are compared against.
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
        return fmt.unpack(self.take(fmt.size))

    def int_(self, code: str) -> int:
        return self.unpack(struct.Struct("<" + code))[0]

    def flag(self) -> bool:
        flag = self.int_("B")
        if flag > 1:
            raise CodecError(f"optional-field flag 0x{flag:02x} is not 0x00 or 0x01")
        return flag == 1

    def str_(self) -> str:
        try:
            return str(self.take(self.int_("H")), "utf-8")
        except UnicodeDecodeError:
            raise CodecError("string is not valid utf-8") from None

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_end(self) -> None:
        if not self.done():
            raise CodecError("trailing bytes in record")


_READS = {
    "u8": lambda r: r.int_("B"),
    "u16": lambda r: r.int_("H"),
    "u32": lambda r: r.int_("I"),
    "u64": lambda r: r.int_("Q"),
    "b32": lambda r: bytes(r.take(32)),
    "b32s": lambda r: tuple(bytes(r.take(32)) for _ in range(r.int_("H"))),
    "str": Reader.str_,
    "bytes": lambda r: bytes(r.take(r.int_("I"))),
    "pair": lambda r: r.unpack(_PAIR),
    "pairs": lambda r: tuple(_PAIR.iter_unpack(r.take(_PAIR.size * r.int_("I")))),
}


def _optional(read):
    return lambda r: read(r) if r.flag() else None


_READS.update({f"{kind}?": _optional(read) for kind, read in _READS.items()})


def _unpack_by_reader(kinds, data: bytes, rows: bool = False) -> list:
    """``wire.unpack`` as a walk of ``Reader`` calls."""
    r = Reader(data)
    values = [[_READS[kind](r) for kind in kinds] for _ in range(r.int_("I") if rows else 1)]
    r.expect_end()
    return values if rows else values[0]


def _decode_by_reader(data: bytes | memoryview):
    """``decode_record`` as a walk of ``Reader`` calls."""
    r = Reader(data)
    tag = r.int_("B")
    if tag not in RECORD_TYPES:
        raise CodecError(f"unknown record tag 0x{tag:02x}")
    cls = RECORD_TYPES[tag]
    subject = r.int_("Q")
    args = [_READS[kind](r) for kind in cls.WIRE]
    r.expect_end()
    names = [f.name for f in dataclasses.fields(cls)]
    if "pay_index" in names:
        args.insert(names.index("pay_index"), subject)
    elif subject:
        raise CodecError("subject field does not match record body")
    return cls(*args)


def test_every_record_type_has_a_sample():
    covered = {type(r) for r in SAMPLE_RECORDS}
    assert covered == set(RECORD_TYPES.values())


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=lambda r: type(r).__name__)
def test_record_round_trip(record):
    assert decode_record(record.encode()) == record


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_slotted_and_frozen(record):
    cls = type(record)
    names = [f.name for f in dataclasses.fields(cls)]
    assert not hasattr(record, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    values = {name: getattr(record, name) for name in names}
    again = cls(**values)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    assert dataclasses.replace(record) == record
    changed = dataclasses.replace(record, **{names[0]: None})
    assert getattr(changed, names[0]) is None
    assert changed != record and getattr(record, names[0]) == values[names[0]]
    with pytest.raises(TypeError):
        cls(*values.values(), None)


def test_records_of_different_types_never_compare_equal():
    assert ChallengeSucceeded(1, 2) != SlotFreed(1, 2)
    assert ChallengeFailed(1, 2) != ChallengeSucceeded(1, 2)
    assert len({ChallengeSucceeded(1, 2), SlotFreed(1, 2), SlotFreed(1, 2)}) == 2


def test_payment_records_carry_their_index_as_subject():
    assert PaymentRegistered(9, 2, 1, 0, None, "b", encode_pay_data([1])).subject == 9
    assert Unlocked(9, 6, b"k").subject == 9
    assert Refunded(9).subject == 9
    assert Registered(3, "alice").subject == 0


def test_decode_rejects_unknown_tag():
    blob = SAMPLE_RECORDS[1].encode()
    with pytest.raises(CodecError):
        decode_record(b"\x70" + blob[1:])


def test_decode_rejects_truncation():
    blob = ListResponded(8, 2, ((3, 100),)).encode()
    for cut in range(1, len(blob)):
        with pytest.raises(CodecError):
            decode_record(blob[:cut])


def test_decode_rejects_trailing_bytes():
    blob = Advanced(3).encode()
    with pytest.raises(CodecError):
        decode_record(blob + b"\x00")


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=lambda r: type(r).__name__)
def test_decode_error_messages(record):
    blob = record.encode()
    for cut in range(len(blob)):
        with pytest.raises(CodecError, match="^truncated record$"):
            decode_record(blob[:cut])
    for extra in (b"\x00", b"\x01\x02\x03"):
        with pytest.raises(CodecError, match="^trailing bytes in record$"):
            decode_record(memoryview(blob + extra))


@pytest.mark.parametrize(
    "record, flag_at",
    [
        # tag, subject, from_id, per_destination, unlocker_fee, then the lock flag
        (PaymentRegistered(2, 2, 5, 3, b"\xcd" * 32, "buyer", encode_pay_data([7])), 29),
        (PaymentRegistered(1, 2, 9, 0, None, "buyer", encode_pay_data([1])), 29),
        # tag, subject, delegate, slot, recipient, end, amount, fee, then the destination flag
        (CollectOpened(8, 2, 3, 12, 500, 20, "payout-3", b"\x22" * 32), 43),
        (CollectOpened(8, 2, 3, 12, 500, 20, None, b"\x22" * 32), 43),
    ],
    ids=["lock-present", "lock-absent", "destination-present", "destination-absent"],
)
def test_decode_rejects_noncanonical_optional_flag(record, flag_at):
    blob = bytearray(record.encode())
    assert blob[flag_at] in (0, 1)
    for flag in (0x02, 0x80 | blob[flag_at], 0xFF):
        blob[flag_at] = flag
        with pytest.raises(CodecError, match="flag"):
            decode_record(bytes(blob))


def test_decode_rejects_invalid_utf8_as_codec_error():
    blob = bytearray(Registered(3, "ab").encode())
    blob[-1] = 0xFF
    with pytest.raises(CodecError, match="utf-8"):
        decode_record(bytes(blob))
    with pytest.raises(CodecError, match="utf-8"):
        unpack(("str",), b"\x02\x00a\xff")


def test_encode_rejects_wrong_length_fixed_field():
    with pytest.raises(CodecError):
        BulkRegistered(0, 4, 10, b"\xab" * 31).encode()
    with pytest.raises(CodecError):
        CollectOpened(8, 2, 3, 12, 500, 20, None, b"\x22" * 33).encode()


def test_encode_rejects_a_string_past_its_u16_length_prefix():
    assert Registered(3, "x" * 0xFFFF).encode()
    with pytest.raises(CodecError, match="string too long for u16 length prefix"):
        Registered(3, "x" * 0x10000).encode()


def test_layout_refuses_a_wire_declaration_that_misses_a_field():
    @dataclasses.dataclass
    class Short:
        WIRE = ("u32",)
        account_id: int
        address: str

    with pytest.raises(TypeError, match="Short.WIRE does not match its fields"):
        layout(Short)


@pytest.mark.parametrize(
    "record",
    [
        Registered(2**32, "a"),                 # a head integer past its u32
        Advanced(2**64),                        # a head u64
        Refunded(-1),                           # a negative subject
        Withdrawn(-5, 70, "out", "funder"),     # a negative head integer
        ListResponded(8, 2, ((3, 2**64),)),     # a pairs entry past its u64
        ListResponded(8, 2, ((-1, 400),)),      # a negative pairs entry
        Registered("3", "a"),                   # a non-integer head field
        ListResponded(8, 2, ((3, "400"),)),     # a non-integer pairs entry
    ],
    ids=["head-u32", "head-u64", "subject-negative", "head-negative",
         "pairs-u64", "pairs-negative", "head-not-int", "pairs-not-int"],
)
def test_encode_rejects_unencodable_field_as_codec_error(record):
    with pytest.raises(CodecError, match="field not encodable"):
        record.encode()


def test_file_dump_load_round_trip():
    log = ChainLog()
    for record in SAMPLE_RECORDS:
        log.append(record)
    blob = log.dump()
    assert blob.startswith(FILE_MAGIC)
    again = ChainLog.load(blob)
    assert again.records == log.records


def test_load_rejects_bad_magic():
    log = ChainLog()
    log.append(Advanced(1))
    blob = log.dump()
    with pytest.raises(CodecError):
        ChainLog.load(b"NOTMAGIC" + blob[len(FILE_MAGIC):])


def test_load_rejects_truncated_tail():
    log = ChainLog()
    log.append(Registered(0, "alice"))
    log.append(Registered(1, "bob"))
    blob = log.dump()
    with pytest.raises(CodecError):
        ChainLog.load(blob[:-3])


def _load_by_reader(data: bytes) -> list:
    """``ChainLog.load`` as a walk of ``Reader`` calls."""
    if data[: len(FILE_MAGIC)] != FILE_MAGIC:
        raise CodecError("bad log file magic")
    r = Reader(memoryview(data)[len(FILE_MAGIC):])
    records = []
    while not r.done():
        records.append(_decode_by_reader(r.take(r.int_("I"))))
    return records


def _outcome(load, data):
    try:
        return load(data)
    except CodecError as exc:
        return str(exc)


def test_load_errors_match_the_reader_walk():
    log = ChainLog()
    for record in SAMPLE_RECORDS:
        log.append(record)
    blob = log.dump()
    advanced = Advanced(2).encode()
    tails = [
        b"\x00", b"\x00\x00\x00", b"\x00\x00\x00\x00", b"\x05\x00\x00\x00",
        len(advanced).to_bytes(4, "little") + advanced[:-1],
        (len(advanced) - 1).to_bytes(4, "little") + advanced,
        (len(advanced) + 1).to_bytes(4, "little") + advanced + b"\x00",
        b"\x01\x00\x00\x00\x70",
        b"\xff\xff\xff\xff" + advanced,
    ]
    cases = [blob[:cut] for cut in range(len(blob) + 1)] + [blob + tail for tail in tails]
    for data in cases:
        assert _outcome(lambda d: ChainLog.load(d).records, data) == _outcome(_load_by_reader, data)


def test_load_error_messages():
    log = ChainLog()
    log.append(Registered(0, "alice"))
    blob = log.dump()
    body_at = len(FILE_MAGIC) + 4
    for data, message in [
        (blob[: len(FILE_MAGIC) + 2], "truncated record"),      # length prefix cut
        (blob[:-1], "truncated record"),                        # body cut
        (blob[:body_at], "truncated record"),                   # empty body
        (blob + b"\x07", "truncated record"),                   # trailing bytes
        (blob + b"\x01\x00\x00\x00\x70", "unknown record tag 0x70"),
        (b"BPLOG\x02" + blob[len(FILE_MAGIC):], "bad log file magic"),
    ]:
        with pytest.raises(CodecError) as caught:
            ChainLog.load(data)
        assert str(caught.value) == message


def test_scaling_payload_reflects_variable_parts():
    small = PaymentRegistered(1, 0, 2, 0, None, "b", encode_pay_data([1]))
    large = PaymentRegistered(2, 0, 2, 0, None, "b", encode_pay_data(list(range(500))))
    assert scaling_payload(small) == small.pay_data
    assert scaling_payload(large) == large.pay_data
    assert scaling_payload(Advanced(5)) == b""
    assert scaling_payload(ChallengeSucceeded(1, 2)) == b""
    pairs = ((3, 100), (7, 400))
    assert len(scaling_payload(ListResponded(1, 2, pairs))) == 16 * len(pairs)
    proof = InclusionProved(1, 2, encode_pay_data([3, 3]))
    assert scaling_payload(proof) == proof.pay_data


def test_decode_rejects_a_subject_on_a_record_without_one():
    for record in SAMPLE_RECORDS:
        if "pay_index" in (f.name for f in dataclasses.fields(record)):
            continue
        blob = bytearray(record.encode())
        blob[1 + 7] = 0x01          # the subject's top byte
        with pytest.raises(CodecError, match="^subject field does not match record body$"):
            decode_record(bytes(blob))


# One value of every base kind; a ``k?`` is tried absent and present.
KIND_SAMPLES = {
    "u8": 0xAB, "u16": 0xABCD, "u32": 2**32 - 1, "u64": 2**64 - 1,
    "b32": b"\x5a" * 32, "b32s": (b"\x01" * 32, b"\x02" * 32), "str": "héllo",
    "bytes": b"\x00\x01\x02", "pair": (3, 2**64 - 1), "pairs": ((3, 100), (7, 400)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_round_trips_through_its_compiled_reader(kind):
    assert set(KINDS) == set(KIND_SAMPLES) | {f"{base}?" for base in KIND_SAMPLES}
    base = kind.removesuffix("?")
    values = [None, KIND_SAMPLES[base]] if kind.endswith("?") else [KIND_SAMPLES[base]]
    pack, read = packer([("o", kind)]), reader((kind,))
    for value in values:
        blob = pack(value)
        assert read(blob, 0, len(blob)) == [value]
        # reads stop at ``end``, not at the end of the buffer
        padded = b"\xee" + blob + b"\x01" * 40
        assert read(padded, 1, 1 + len(blob)) == [value]
        for cut in range(len(blob)):
            for data, start in ((blob[:cut], 0), (padded, 1)):
                with pytest.raises(CodecError, match="^truncated record$"):
                    read(data, start, start + cut)


@lru_cache(maxsize=1)
def _adversarial_log() -> bytes:
    config = load_scenario_config(str(ROOT / "configs" / "adversarial.cfg"))
    config.seed = 42
    _, run = run_scenario_full(config)
    return run.log.dump()


@lru_cache(maxsize=1)
def _compiled_and_reference() -> list:
    """(bytes, compiled decode, reference walk) for every decoded format."""
    blob = _adversarial_log()
    log = ChainLog.load(blob)
    head = log.records[0]
    proof = next(rec.proof_blob for rec in log.records if isinstance(rec, Claimed))
    cases = [(rec.encode(), decode_record, _decode_by_reader) for rec in SAMPLE_RECORDS]
    cases += [
        (blob, lambda d: ChainLog.load(d).records, _load_by_reader),
        (proof, lambda d: unpack(MerkleProof.WIRE, d), lambda d: _unpack_by_reader(MerkleProof.WIRE, d)),
        (head.params_blob, lambda d: unpack(Params.WIRE, d), lambda d: _unpack_by_reader(Params.WIRE, d)),
    ]
    for rows in (head.externals_blob, TokenAdapter({"a": 1, "bé": 2}).snapshot_bytes()):
        cases.append((
            rows,
            lambda d: unpack(TokenAdapter.WIRE, d, rows=True),
            lambda d: _unpack_by_reader(TokenAdapter.WIRE, d, rows=True),
        ))
    return cases


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    st.integers(min_value=0),
    st.one_of(st.none(), st.integers(min_value=0)),
    st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=3),
    st.binary(max_size=6),
)
def test_compiled_decoders_match_the_reader_walk(which, cut, flips, tail):
    cases = _compiled_and_reference()
    blob, compiled, reference = cases[which % len(cases)]
    data = bytearray(blob)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    data = bytes(data[: None if cut is None else cut % (len(data) + 1)]) + tail
    assert _outcome(compiled, data) == _outcome(reference, data)
