"""Payment registration, the optional lock stage, refunds.

A registered payment escrows per_destination * payee_count (plus the
unlocker fee when locked) out of the buyer's balance into the escrow pool
and publishes the encoded payee bytes on the chain log. Only the 32-byte
digest of those bytes is kept in the payment record, mirroring a contract
that stores calldata commitments rather than calldata.

Locked payments follow a hash-lock handshake: the buyer binds an unlocker
id and key hash; revealing the key on-chain before the unlock window ends
commits the payment and pays the unlocker fee immediately. A locked
payment whose window lapsed can only be refunded. Because a payment can
enter a collect range only after its window has elapsed, the status seen
by a collect is final: committed payments stay committed, and stuck locked
payments can only move to refunded, with zero entitlement either way.
A locked payment sits in ``state.open_locks`` from registration until its
unlock or refund, so the unlock window bounds that index.
"""

from __future__ import annotations

import hashlib

from .chainlog import PaymentRegistered, Refunded, Unlocked
from .codec import pay_data_extent
from .errors import IllegalMove, InvalidParameter, Unauthorized
from .state import Payment, PaymentStatus, ProtocolState, ensure_u64
from .wire import u32


def locking_key_hash(unlocker_id: int, key: bytes) -> bytes:
    """Digest binding an unlocker id to a secret key."""
    return hashlib.sha256(u32(unlocker_id) + key).digest()


def register_payment(
    state: ProtocolState,
    from_id: int,
    per_destination: int,
    pay_data: bytes,
    sender: str,
    locking_key_hash: bytes | None = None,
    unlocker_fee: int = 0,
) -> int:
    """Escrow and record a batch payment; returns its payment index."""
    buyer = state.claimed_account(from_id)
    if buyer.address != sender:
        raise Unauthorized(f"{sender!r} does not own account {from_id}")
    ensure_u64(per_destination, "per-destination amount")
    if per_destination < 1:
        raise InvalidParameter("per-destination amount must be positive")
    ensure_u64(unlocker_fee, "unlocker fee")
    if locking_key_hash is None:
        if unlocker_fee != 0:
            raise InvalidParameter("unlocker fee requires a locking key hash")
    elif len(locking_key_hash) != 32:
        raise InvalidParameter("locking key hash must be 32 bytes")
    count, last = pay_data_extent(pay_data)
    if not count:
        raise InvalidParameter("empty payee list")
    if count > state.params.max_payments_per_batch:
        raise InvalidParameter(
            f"{count} payees exceeds batch limit {state.params.max_payments_per_batch}"
        )
    if last >= len(state.accounts):
        raise InvalidParameter(
            f"payee id {last} >= allocated account count {len(state.accounts)}"
        )
    total_escrow = ensure_u64(
        per_destination * count + unlocker_fee, "payment escrow"
    )
    state.transfer([(from_id, -total_escrow)], pool=total_escrow)
    payment = Payment(
        pay_index=state.latest_pay_index + 1,
        from_id=from_id,
        per_destination=per_destination,
        payee_count=count,
        pay_data_digest=hashlib.sha256(pay_data).digest(),
        total_escrow=total_escrow,
        unlocker_fee=unlocker_fee,
        status=PaymentStatus.LOCKED if locking_key_hash is not None else PaymentStatus.COMMITTED,
        locking_key_hash=bytes(locking_key_hash) if locking_key_hash is not None else None,
        registered_at_block=state.current_block,
        collectable_from_block=state.current_block + state.params.unlock_period,
    )
    state.payments.append(payment)
    if payment.status == PaymentStatus.LOCKED:
        state.open_locks[payment.pay_index] = payment
    state.log.append(
        PaymentRegistered(
            payment.pay_index,
            from_id,
            per_destination,
            unlocker_fee,
            payment.locking_key_hash,
            sender,
            bytes(pay_data),
        )
    )
    return payment.pay_index


def unlockable(payment: Payment, now: int) -> bool:
    """Whether its key may be revealed at block ``now``: locked, inside its window."""
    return payment.status == PaymentStatus.LOCKED and now < payment.collectable_from_block


def refundable(payment: Payment, now: int) -> bool:
    """Whether it may be refunded at block ``now``: locked, its window lapsed."""
    return payment.status == PaymentStatus.LOCKED and now >= payment.collectable_from_block


def unlock(state: ProtocolState, pay_index: int, unlocker_id: int, key: bytes) -> None:
    """Reveal the key for a locked payment; pays the unlocker fee at once."""
    payment = state.payment(pay_index)
    if not unlockable(payment, state.current_block):
        raise IllegalMove(
            f"payment {pay_index} ({payment.status.name}, window to block "
            f"{payment.collectable_from_block}) cannot be unlocked at block {state.current_block}"
        )
    state.claimed_account(unlocker_id)
    if locking_key_hash(unlocker_id, key) != payment.locking_key_hash:
        raise Unauthorized("key does not match the locking key hash")
    fee = payment.unlocker_fee
    state.transfer([(unlocker_id, fee)], pool=-fee, what="unlocker fee")
    payment.status = PaymentStatus.COMMITTED
    del state.open_locks[pay_index]
    state.log.append(Unlocked(pay_index, unlocker_id, bytes(key)))


def refund_locked_payment(state: ProtocolState, pay_index: int) -> None:
    """Return a timed-out locked payment's whole escrow to the buyer; anyone may call."""
    payment = state.payment(pay_index)
    if not refundable(payment, state.current_block):
        raise IllegalMove(
            f"payment {pay_index} ({payment.status.name}, refundable from block "
            f"{payment.collectable_from_block}) cannot be refunded at block {state.current_block}"
        )
    escrow = payment.total_escrow
    state.transfer([(payment.from_id, escrow)], pool=-escrow, what="refund")
    payment.status = PaymentStatus.REFUNDED
    del state.open_locks[pay_index]
    state.log.append(Refunded(pay_index))
