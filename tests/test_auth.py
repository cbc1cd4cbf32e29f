"""Collect authorizations: the one-shot MAC equals the streaming HMAC."""

from __future__ import annotations

import hashlib
import hmac

import pytest

from batchpay.auth import MAC_SIZE, collect_auth_message, sign_collect, verify_collect

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
