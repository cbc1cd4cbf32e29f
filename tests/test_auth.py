"""Collect authorizations: the one-shot MAC equals the streaming HMAC."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from batchpay.auth import MAC_SIZE, collect_auth_message, sign_collect, verify_collect
from batchpay.wire import U16_MAX, U32_MAX, U64_MAX, pack_str, u16, u32, u64

INSTANCE = bytes(range(32))


@pytest.mark.parametrize(
    "address, message",
    [
        ("payee-0", b""),
        ("", b"BPCOLLECT\x01"),
        ("seller-é", bytes(range(256)) * 3),
        ("payee-7", collect_auth_message(INSTANCE, 1, 2, 3, 4, 5, 6, None)),
        ("payee-7", collect_auth_message(INSTANCE, 1, 40000, 3, 2**64 - 1, 5, 0, "payout-3")),
        ("k" * 100, collect_auth_message(INSTANCE, 9, 0, 9, 1, 1, 1, "über-dest")),
    ],
)
def test_sign_collect_is_hmac_sha256_keyed_by_the_address(address, message):
    expected = hmac.new(address.encode("utf-8"), message, hashlib.sha256).digest()
    mac = sign_collect(address, message)
    assert mac == expected
    assert len(mac) == MAC_SIZE
    assert verify_collect(address, message, mac)
    assert not verify_collect(address + "x", message, mac)


def _reference_message(instance_id, delegate_id, slot_id, recipient_id, last, amount, fee, dest):
    """The message bytes joined field by field."""
    tail = b"\x01" + pack_str(dest) if dest is not None else b"\x00"
    return (
        b"BPCOLLECT\x01" + instance_id + u32(delegate_id) + u16(slot_id) + u32(recipient_id)
        + u64(last) + u64(amount) + u64(fee) + tail
    )


def _edges(limit):
    return st.sampled_from((0, 1, limit - 1, limit)) | st.integers(0, limit)


@given(
    st.binary(min_size=32, max_size=32),
    _edges(U32_MAX), _edges(U16_MAX), _edges(U32_MAX),
    _edges(U64_MAX), _edges(U64_MAX), _edges(U64_MAX),
    st.none() | st.text(max_size=20),
)
@example(INSTANCE, 0, 0, 0, 0, 0, 0, "")
@example(INSTANCE, U32_MAX, U16_MAX, U32_MAX, U64_MAX, U64_MAX, U64_MAX, None)
def test_collect_auth_message_matches_the_field_by_field_bytes(
    instance, delegate_id, slot_id, recipient_id, last, amount, fee, dest
):
    fields = (instance, delegate_id, slot_id, recipient_id, last, amount, fee, dest)
    assert collect_auth_message(*fields) == _reference_message(*fields)
