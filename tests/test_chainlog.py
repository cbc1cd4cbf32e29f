"""Chain log records: codec round-trips, file format, scaling payloads."""

from __future__ import annotations

import dataclasses

import pytest

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
from batchpay.wire import Reader, layout

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
        Reader(b"\x02\x00a\xff").str_()


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
    """``ChainLog.load`` as a walk of ``Reader`` calls, the loop it replaced."""
    if data[: len(FILE_MAGIC)] != FILE_MAGIC:
        raise CodecError("bad log file magic")
    r = Reader(memoryview(data)[len(FILE_MAGIC):])
    records = []
    while not r.done():
        records.append(decode_record(r.take(r.u32())))
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
