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
from functools import lru_cache
from hashlib import sha256

from .chainlog import CollectOpened
from .wire import layout, packer

MAC_SIZE = 32

_MESSAGE_TAG = b"BPCOLLECT\x01"
# The instance id, then every collect parameter: CollectOpened's fields less its authorization.
_MESSAGE_KINDS = ("b32", *(kind for name, kind in layout(CollectOpened, "")
                           if name != "authorization"))
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


_BLOCK = 64                                  # SHA-256's block size, in bytes
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@lru_cache(maxsize=4096)
def _key_schedule(address: str):
    """The inner and outer SHA-256 states of HMAC keyed by ``address`` (RFC 2104).

    A key longer than a block is hashed first. Bounded at 4,096 addresses,
    above the accounts of any committed config and the 1,000 recipients a
    canonical replay verifies, so a run signs and verifies each address
    from one schedule; at the bound the cache holds about 1.5 MB.
    """
    key = address.encode("utf-8")
    if len(key) > _BLOCK:
        key = sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return sha256(key.translate(_IPAD)), sha256(key.translate(_OPAD))


def sign_collect(address: str, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` keyed by the address's UTF-8 bytes."""
    inner, outer = _key_schedule(address)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def verify_collect(address: str, message: bytes, mac: bytes) -> bool:
    return hmac.compare_digest(sign_collect(address, message), mac)
