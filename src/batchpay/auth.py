"""Collect authorizations: simulation-grade keyed MACs.

A collect must carry the recipient's sign-off over the exact call
parameters. Here the address string doubles as the MAC key (HMAC-SHA256),
which gives deterministic, parameter-binding authorizations that any bit
flip invalidates. This is explicitly not production cryptography: anyone
who knows an address could forge for it, which is fine inside a simulator
where forging is a test fixture, not an attack surface.

The signed message binds the protocol instance and every collect
parameter in call order, so an authorization can never be replayed against
another instance, slot, range, or amount.
"""

from __future__ import annotations

import hmac

from .wire import packer

MAC_SIZE = 32

_MESSAGE_TAG = b"BPCOLLECT\x01"
# The instance id, then every collect parameter in call order.
_MESSAGE_KINDS = ("b32", "u32", "u16", "u32", "u64", "u64", "u64", "str?")
_pack_message = packer([(f"o[{i}]", kind) for i, kind in enumerate(_MESSAGE_KINDS)])


def collect_auth_message(
    instance_id: bytes,
    delegate_id: int,
    slot_id: int,
    recipient_id: int,
    last_payment_index: int,
    amount: int,
    fee: int,
    destination_address: str | None,
) -> bytes:
    return _MESSAGE_TAG + _pack_message(
        (instance_id, delegate_id, slot_id, recipient_id, last_payment_index, amount, fee,
         destination_address)
    )


def sign_collect(address: str, message: bytes) -> bytes:
    return hmac.digest(address.encode("utf-8"), message, "sha256")


def verify_collect(address: str, message: bytes, mac: bytes) -> bool:
    return hmac.compare_digest(sign_collect(address, message), mac)
