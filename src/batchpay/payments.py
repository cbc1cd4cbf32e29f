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

The lock's rules are one table, ``MOVES``, read by ``legal``, ``_check``
and ``_apply`` as the collect game's are. A locked payment sits in
``state.open_locks``, the one record of which payments are locked, until
a move takes it out of LOCKED.
"""

from __future__ import annotations

import hashlib

from .chainlog import PaymentRegistered, Record, Refunded, Unlocked
from .codec import pay_data_extent
from .collect import AT_OR_AFTER, BEFORE
from .errors import IllegalMove, InvalidParameter, Unauthorized
from .state import Payment, PaymentStatus, ProtocolState, ensure_bytes, ensure_u64
from .wire import u32

# (move, status it is made in) -> (the values of ``block < collectable_from_block``
# it is legal for, the status it leads to). A move is named as the ``OP`` of the
# record it logs; a pair not listed here is never legal.
MOVES: dict[tuple[str, PaymentStatus], tuple[frozenset[bool], PaymentStatus]] = {
    ("unlock", PaymentStatus.LOCKED): (BEFORE, PaymentStatus.COMMITTED),
    ("refund", PaymentStatus.LOCKED): (AT_OR_AFTER, PaymentStatus.REFUNDED),
}
# Every legal (move, status, block < collectable_from_block), for one lookup.
_LEGAL = frozenset((*key, before) for key, (when, _) in MOVES.items() for before in when)


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
    else:
        locking_key_hash = ensure_bytes(locking_key_hash, "locking key hash")
        if len(locking_key_hash) != 32:
            raise InvalidParameter("locking key hash must be 32 bytes")
    pay_data = ensure_bytes(pay_data, "pay data")
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
        locking_key_hash=locking_key_hash,
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
            pay_data,
        )
    )
    return payment.pay_index


def legal(move: str, payment: Payment, now: int) -> bool:
    """Whether the lock lets ``move`` be made on ``payment`` at block ``now``."""
    return (move, payment.status, now < payment.collectable_from_block) in _LEGAL


def _check(state: ProtocolState, move: type[Record], pay_index: int) -> Payment:
    """The payment ``move.OP`` is made on; IllegalMove if its lock does not allow it now."""
    payment = state.payment(pay_index)
    if not legal(move.OP, payment, state.current_block):
        raise IllegalMove(
            f"{move.OP} is not legal on payment {pay_index} in {payment.status.name} at block "
            f"{state.current_block} (unlock window to block {payment.collectable_from_block})"
        )
    return payment


def _apply(state: ProtocolState, payment: Payment, record: Record) -> None:
    """Move the payment as MOVES says for ``record.OP``, out of ``open_locks``; log it."""
    payment.status = MOVES[record.OP, payment.status][1]
    del state.open_locks[payment.pay_index]
    state.log.append(record)


def unlock(state: ProtocolState, pay_index: int, unlocker_id: int, key: bytes) -> None:
    """Reveal the key for a locked payment; pays the unlocker fee at once."""
    payment = _check(state, Unlocked, pay_index)
    state.claimed_account(unlocker_id)
    key = ensure_bytes(key, "unlock key")
    if locking_key_hash(unlocker_id, key) != payment.locking_key_hash:
        raise Unauthorized("key does not match the locking key hash")
    fee = payment.unlocker_fee
    state.transfer([(unlocker_id, fee)], pool=-fee, what="unlocker fee")
    _apply(state, payment, Unlocked(pay_index, unlocker_id, key))


def refund_locked_payment(state: ProtocolState, pay_index: int) -> None:
    """Return a timed-out locked payment's whole escrow to the buyer; anyone may call."""
    payment = _check(state, Refunded, pay_index)
    escrow = payment.total_escrow
    state.transfer([(payment.from_id, escrow)], pool=-escrow, what="refund")
    _apply(state, payment, Refunded(pay_index))
