"""Chain log records: codec round-trips, file format, scaling payloads."""

from __future__ import annotations

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
from batchpay.wire import Reader

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


def test_pay_data_index_tracks_registrations():
    log = ChainLog()
    first = encode_pay_data([1, 2])
    second = encode_pay_data([9])
    log.append(PaymentRegistered(1, 0, 2, 0, None, "b", first))
    log.append(PaymentRegistered(2, 0, 3, 0, None, "b", second))
    assert log.pay_data(1) == first
    assert log.pay_data(2) == second
    with pytest.raises(KeyError):
        log.pay_data(3)


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
