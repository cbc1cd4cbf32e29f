"""Re-execute a chain log against a fresh state.

The log is a complete transaction transcript: the leading record carries
the instantiation parameters and the initial external balance snapshot, so
replaying it deterministically rebuilds the exact protocol state. A
FinalDigest trailer, when present, is compared against the rebuilt state's
digest.
"""

from __future__ import annotations

from dataclasses import fields
from inspect import getmodule, signature

from . import collect, payments, registration
from .chainlog import (
    Advanced, BulkRegistered, ChainLog, Challenged, ChallengeFailed, ChallengeSucceeded, Claimed,
    CollectOpened, Deposited, FinalDigest, InclusionProved, Instantiated, ListResponded,
    PaymentRegistered, PaymentSelected, Record, Refunded, Registered, SlotFreed, Unlocked, Withdrawn,
)
from .errors import CodecError, InvariantViolation, ProtocolError
from .merkle import MerkleProof
from .state import Params, ProtocolState, TokenAdapter
from .wire import kinds, unpack

# The engine op each record is replayed through. Each parameter after
# ``state`` (``self`` for a ProtocolState method) reads the record's field
# of the same name, or else is the one conversion in _CONVERTED.
_OPS = {
    Registered: registration.register,
    BulkRegistered: registration.bulk_register,
    Claimed: registration.claim_bulk_registration_id,
    Deposited: ProtocolState.deposit,
    Withdrawn: ProtocolState.withdraw,
    Advanced: ProtocolState.advance_block,
    PaymentRegistered: payments.register_payment,
    Unlocked: payments.unlock,
    Refunded: payments.refund_locked_payment,
    CollectOpened: collect.collect,
    Challenged: collect.challenge,
    ListResponded: collect.respond_with_payment_list,
    PaymentSelected: collect.select_payment,
    InclusionProved: collect.prove_payment_inclusion,
    ChallengeSucceeded: collect.challenge_success,
    ChallengeFailed: collect.challenge_failed,
    SlotFreed: collect.free_slot,
}
_CONVERTED = {"proof": "MerkleProof.from_bytes(rec.proof_blob)"}


def _handler(cls: type[Record], op):
    """Compile ``handler(state, rec)``, which calls ``op`` with ``rec``'s fields.

    The handler finds ``op`` on its module (on the state, for a method) at
    each call, so a function patched there after import, as the benchmark
    tracer does, is the one called.
    """
    first, *names = signature(op).parameters
    have, args = {f.name for f in fields(cls)}, []
    for name in names:
        if name not in have and name not in _CONVERTED:
            raise TypeError(f"{op.__qualname__} parameter {name!r} is no field of {cls.__name__}")
        args.append(f"rec.{name}" if name in have else _CONVERTED[name])
    call = f"state.{op.__name__}(" if first == "self" else f"_module.{op.__name__}(state, "
    scope = {"_module": getmodule(op), "MerkleProof": MerkleProof}
    return eval(f"lambda state, rec: {call}{', '.join(args)})", scope)


_HANDLERS = {cls: _handler(cls, op) for cls, op in _OPS.items()}


def apply_record(state: ProtocolState, rec: Record) -> None:
    """Apply one logged operation to the state."""
    handler = _HANDLERS.get(type(rec))
    if handler is None:
        raise CodecError(f"{type(rec).__name__} is not replayable")
    handler(state, rec)


def replay(log: ChainLog) -> tuple[ProtocolState, bytes | None]:
    """Rebuild state from a log; returns (state, trailer digest if present).

    Only the last record may be a FinalDigest trailer; a misplaced trailer
    or a second Instantiated is not replayable. Each op must append exactly
    the record it was replayed from, so the fields the engine derives (ids,
    indices) are checked too, not only the op's inputs. A record that fails
    raises its error's class with the message prefixed by the record's
    index and type.
    """
    records = log.records
    if not records or not isinstance(records[0], Instantiated):
        raise CodecError("log must start with an instantiation record")
    head, ops, expected = records[0], records[1:], None
    if ops and isinstance(ops[-1], FinalDigest):
        ops, expected = ops[:-1], ops[-1].digest
    state = ProtocolState(
        Params(*unpack(kinds(Params), head.params_blob)),
        TokenAdapter(dict(unpack(TokenAdapter.WIRE, head.externals_blob, rows=True))),
    )
    emitted = state.log.records
    if emitted != [head]:
        raise CodecError("record 0 (Instantiated): differs from what its op emits")
    try:
        for index, rec in enumerate(ops, start=1):
            apply_record(state, rec)
            if len(emitted) != index + 1 or emitted[index] != rec:
                raise CodecError("differs from what its op emits")
    except ProtocolError as exc:
        raise type(exc)(f"record {index} ({type(rec).__name__}): {exc}") from None
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
