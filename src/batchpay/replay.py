"""Re-execute a chain log against a fresh state.

The log is a complete transaction transcript: the leading record carries
the instantiation parameters and the initial external balance snapshot, so
replaying it deterministically rebuilds the exact protocol state. A
FinalDigest trailer, when present, is compared against the rebuilt state's
digest.
"""

from __future__ import annotations

import struct

from . import collect as game
from . import payments, registration
from .chainlog import (
    Advanced,
    BulkRegistered,
    ChainLog,
    Challenged,
    ChallengeFailed,
    ChallengeSucceeded,
    Claimed,
    CollectOpened,
    Deposited,
    FinalDigest,
    InclusionProved,
    Instantiated,
    ListResponded,
    NEW_ACCOUNT_WIRE,
    PaymentRegistered,
    PaymentSelected,
    Record,
    Refunded,
    Registered,
    SlotFreed,
    Unlocked,
    Withdrawn,
)
from .errors import CodecError, InvariantViolation
from .merkle import MerkleProof
from .state import NEW_ACCOUNT, Params, ProtocolState, TokenAdapter
from .wire import Reader

_PARAMS = struct.Struct("<8Q")


def _params_from_blob(blob: bytes) -> Params:
    """Inverse of ``Params.canonical_bytes``: every field as a u64, in order."""
    r = Reader(blob)
    params = Params(*r.unpack(_PARAMS))
    r.expect_end()
    return params


def _adapter_from_blob(blob: bytes) -> TokenAdapter:
    r = Reader(blob)
    balances = {}
    for _ in range(r.u32()):
        addr = r.str_()
        balances[addr] = r.u64()
    r.expect_end()
    return TokenAdapter(balances)


# Handlers reach the engine through module attributes, so a function
# patched on its module (as the benchmark tracer does) is the one called.
_HANDLERS = {
    Registered: lambda state, rec: registration.register(state, rec.address),
    BulkRegistered: lambda state, rec: registration.bulk_register(state, rec.count, rec.root),
    Claimed: lambda state, rec: registration.claim_bulk_registration_id(
        state, rec.bulk_id, rec.account_id, rec.address, MerkleProof.from_bytes(rec.proof_blob),
    ),
    Deposited: lambda state, rec: state.deposit(
        NEW_ACCOUNT if rec.account_ref == NEW_ACCOUNT_WIRE else rec.account_ref, rec.amount, rec.from_address,
    ),
    Withdrawn: lambda state, rec: state.withdraw(rec.account_id, rec.amount, rec.to_address, rec.sender),
    Advanced: lambda state, rec: state.advance_block(rec.blocks),
    PaymentRegistered: lambda state, rec: payments.register_payment(
        state, rec.from_id, rec.per_destination, rec.pay_data, rec.sender,
        rec.locking_key_hash, rec.unlocker_fee,
    ),
    Unlocked: lambda state, rec: payments.unlock(state, rec.pay_index, rec.unlocker_id, rec.key),
    Refunded: lambda state, rec: payments.refund_locked_payment(state, rec.pay_index),
    CollectOpened: lambda state, rec: game.collect(
        state, rec.delegate_id, rec.slot_id, rec.recipient_id, rec.last_payment_index,
        rec.amount, rec.fee, rec.authorization, rec.destination_address,
    ),
    Challenged: lambda state, rec: game.challenge(state, rec.delegate_id, rec.slot_id, rec.challenger_id),
    ListResponded: lambda state, rec: game.respond_with_payment_list(
        state, rec.delegate_id, rec.slot_id, rec.pairs,
    ),
    PaymentSelected: lambda state, rec: game.select_payment(
        state, rec.delegate_id, rec.slot_id, rec.pay_index, rec.amount,
    ),
    InclusionProved: lambda state, rec: game.prove_payment_inclusion(
        state, rec.delegate_id, rec.slot_id, rec.pay_data,
    ),
    ChallengeSucceeded: lambda state, rec: game.challenge_success(state, rec.delegate_id, rec.slot_id),
    ChallengeFailed: lambda state, rec: game.challenge_failed(state, rec.delegate_id, rec.slot_id),
    SlotFreed: lambda state, rec: game.free_slot(state, rec.delegate_id, rec.slot_id),
}


def apply_record(state: ProtocolState, rec: Record) -> None:
    """Apply one logged operation to the state."""
    handler = _HANDLERS.get(type(rec))
    if handler is None:
        raise CodecError(f"record {type(rec).__name__} is not replayable")
    handler(state, rec)


def replay(log: ChainLog) -> tuple[ProtocolState, bytes | None]:
    """Rebuild state from a log; returns (state, trailer digest if present).

    Only the last record may be a FinalDigest trailer; a misplaced trailer
    or a second Instantiated is not replayable. Each op must append exactly
    the record it was replayed from, so the fields the engine derives (ids,
    indices) are checked too, not only the op's inputs.
    """
    records = log.records
    if not records or not isinstance(records[0], Instantiated):
        raise CodecError("log must start with an instantiation record")
    head, ops, expected = records[0], records[1:], None
    if ops and isinstance(ops[-1], FinalDigest):
        ops, expected = ops[:-1], ops[-1].digest
    state = ProtocolState(_params_from_blob(head.params_blob), _adapter_from_blob(head.externals_blob))
    emitted = state.log.records
    if emitted != [head]:
        raise CodecError("record 0 (Instantiated) differs from what its op emits")
    for index, rec in enumerate(ops, start=1):
        apply_record(state, rec)
        if len(emitted) != index + 1 or emitted[index] != rec:
            raise CodecError(f"record {index} ({type(rec).__name__}) differs from what its op emits")
    return state, expected


def verify_log(log: ChainLog) -> bytes:
    """Replay and check the trailer digest; returns the rebuilt digest.

    A log without a trailer cannot be verified and is rejected; otherwise
    stripping the trailer would turn any transcript into a passing one.
    """
    state, expected = replay(log)
    state.check_invariants()
    digest = state.digest()
    if expected is None:
        raise InvariantViolation("replay-digest", "log has no final digest trailer")
    if digest != expected:
        raise InvariantViolation(
            "replay-digest",
            f"rebuilt {digest.hex()} != recorded {expected.hex()}",
        )
    return digest
