"""Log replay: state reconstruction, trailer checking, tamper detection."""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from inspect import signature
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay import collect as game
from batchpay import payments, registration
from batchpay import replay as replay_module
from batchpay.chainlog import (
    NEW_ACCOUNT_WIRE,
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
    PaymentRegistered,
    PaymentSelected,
    Refunded,
    Registered,
    SlotFreed,
    Unlocked,
    Withdrawn,
)
from batchpay.codec import encode_pay_data
from batchpay.collect import (
    challenge,
    challenge_failed,
    challenge_success,
    collect,
    free_slot,
    prove_payment_inclusion,
    respond_with_payment_list,
    select_payment,
)
from batchpay.errors import CodecError, InsufficientFunds, InvariantViolation, ProtocolError
from batchpay.merkle import MerkleProof
from batchpay.payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from batchpay.registration import register
from batchpay.replay import replay, verify_log
from batchpay.sim.config import load_scenario_config
from batchpay.sim.scenario import run_scenario_full
from batchpay.state import ProtocolState, TokenAdapter
from batchpay.wire import pack_rows, packer
from tests.conftest import World, small_params


def eventful_world() -> World:
    """Drive one of everything through a world so the log covers all records."""
    world = World()
    unlocker = register(world.state, "unlocker")

    plain = world.pay([world.seller, world.seller], per_destination=4)
    locked = register_payment(
        world.state, world.buyer, 6, encode_pay_data([world.seller]), "buyer",
        locking_key_hash=locking_key_hash(unlocker, b"key!"), unlocker_fee=2,
    )
    doomed = register_payment(
        world.state, world.buyer, 1, encode_pay_data([world.seller]), "buyer",
        locking_key_hash=locking_key_hash(unlocker, b"lost"), unlocker_fee=1,
    )
    unlock(world.state, locked, unlocker, b"key!")
    world.mature()
    refund_locked_payment(world.state, doomed)

    # an honest collect that survives a challenge end to end
    world.open_collect(3, end=plain, amount=8, fee=1)
    challenge(world.state, world.delegate, 3, world.monitor)
    respond_with_payment_list(world.state, world.delegate, 3, [(plain, 8)])
    select_payment(world.state, world.delegate, 3, plain, 8)
    prove_payment_inclusion(
        world.state, world.delegate, 3, world.pay_data[plain]
    )
    challenge_failed(world.state, world.delegate, 3)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 3)

    # an overstated instant collect that the monitor takes down
    world.open_collect(40001, end=locked, amount=9)
    challenge(world.state, world.delegate, 40001, world.monitor)
    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 40001)

    world.state.withdraw(world.monitor, 25, "monitor-payout", sender="monitor")
    return world


def test_replay_reproduces_state_digest():
    world = eventful_world()
    want = world.state.digest()
    log = ChainLog.load(world.state.log.dump())
    rebuilt, trailer = replay(log)
    assert trailer is None
    assert rebuilt.digest() == want
    rebuilt.check_invariants()


def test_verify_log_accepts_matching_trailer():
    world = eventful_world()
    world.state.log.append(FinalDigest(world.state.digest()))
    log = ChainLog.load(world.state.log.dump())
    assert verify_log(log) == world.state.digest()


def test_verify_log_rejects_wrong_trailer():
    world = eventful_world()
    world.state.log.append(FinalDigest(b"\x00" * 32))
    log = ChainLog.load(world.state.log.dump())
    with pytest.raises(InvariantViolation):
        verify_log(log)


def test_verify_log_requires_trailer():
    world = eventful_world()
    log = ChainLog.load(world.state.log.dump())
    with pytest.raises(InvariantViolation):
        verify_log(log)


def test_tampered_amount_changes_digest():
    world = eventful_world()
    want = world.state.digest()
    log = ChainLog.load(world.state.log.dump())
    for i, record in enumerate(log.records):
        if isinstance(record, CollectOpened):
            log.records[i] = CollectOpened(
                record.delegate_id,
                record.slot_id,
                record.recipient_id,
                record.last_payment_index,
                record.amount + 1,
                record.fee,
                record.destination_address,
                record.authorization,
            )
            break
    # the forged amount breaks the recipient's authorization signature
    with pytest.raises(Exception):
        replay(log)
    del want


def test_tampered_clock_diverges_digest():
    world = eventful_world()
    want = world.state.digest()
    log = ChainLog.load(world.state.log.dump())
    for i, record in enumerate(log.records):
        if isinstance(record, Advanced):
            log.records[i] = Advanced(record.blocks + 1)
            break
    rebuilt, _ = replay(log)
    assert rebuilt.digest() != want


def test_replay_requires_leading_instantiation():
    log = ChainLog()
    log.append(Registered(0, "alice"))
    with pytest.raises(CodecError):
        replay(log)


def test_replay_rejects_record_after_trailer():
    world = eventful_world()
    world.state.log.append(FinalDigest(world.state.digest()))
    world.state.log.append(Advanced(1))
    log = ChainLog.load(world.state.log.dump())
    with pytest.raises(CodecError):
        replay(log)


def test_replay_rejects_second_instantiation():
    world = eventful_world()
    params_blob = world.params.canonical_bytes()
    world.state.log.append(Instantiated(params_blob, b""))
    log = ChainLog.load(world.state.log.dump())
    with pytest.raises(CodecError):
        replay(log)


def test_adversarial_run_replays_with_its_bulk_claims():
    # adversarial.cfg bulk-registers its sellers, so its log claims ids.
    config = load_scenario_config(str(Path(__file__).resolve().parent.parent / "configs" / "adversarial.cfg"))
    _, run = run_scenario_full(config)
    run.log.append(FinalDigest(run.state.digest()))
    log = ChainLog.load(run.log.dump())
    assert sum(isinstance(rec, Claimed) for rec in log.records) == config.sellers
    assert verify_log(log) == run.state.digest()


@lru_cache(maxsize=1)
def golden_honest_log() -> bytes:
    """honest.cfg at seed 42 (the pinned golden run) with its digest trailer."""
    config = load_scenario_config(str(Path(__file__).resolve().parent.parent / "configs" / "honest.cfg"))
    config.seed = 42
    _, run = run_scenario_full(config)
    run.log.append(FinalDigest(run.state.digest()))
    return run.log.dump()


@pytest.mark.parametrize(
    "kind, field", [(Registered, "account_id"), (PaymentRegistered, "pay_index")]
)
def test_verify_log_rejects_flipped_engine_derived_field(kind, field):
    # The engine derives these fields, so the op replays the same with the
    # flipped value; only comparing the emitted record catches the change.
    log = ChainLog.load(golden_honest_log())
    index = next(i for i, rec in enumerate(log.records) if isinstance(rec, kind))
    rec = log.records[index]
    log.records[index] = dataclasses.replace(rec, **{field: getattr(rec, field) ^ 0x40})
    tampered = ChainLog.load(log.dump())
    with pytest.raises(CodecError, match=f"^record {index} \\({kind.__name__}\\)"):
        verify_log(tampered)


def test_replay_names_the_record_whose_op_the_engine_refuses():
    # the op raises its own error class; replay prefixes where it happened
    log = ChainLog.load(golden_honest_log())
    index, rec = next((i, rec) for i, rec in enumerate(log.records) if isinstance(rec, Deposited))
    log.records[index] = dataclasses.replace(rec, amount=2**63)
    with pytest.raises(InsufficientFunds, match=f"^record {index} \\(Deposited\\): address 'buyer-0' holds"):
        replay(log)
    log = ChainLog.load(golden_honest_log())
    log.records.insert(1, log.records[-1])
    with pytest.raises(CodecError, match="^record 1 \\(FinalDigest\\): FinalDigest is not replayable$"):
        replay(log)


@pytest.mark.parametrize("rows", [
    [("b", 2), ("a", 1)],                    # out of address order
    [("a", 1), ("a", 1), ("b", 2)],          # one address twice
], ids=["unsorted", "repeated"])
def test_replay_refuses_an_externals_snapshot_its_op_would_not_write(rows):
    # Both blobs decode to the adapter {a: 1, b: 2}, which writes its rows once, sorted.
    state = ProtocolState(small_params(), TokenAdapter({"a": 1, "b": 2}))
    head = state.log.records[0]
    state.log.records[0] = Instantiated(
        head.params_blob, pack_rows(packer([("o[0]", "str"), ("o[1]", "u64")]), rows)
    )
    with pytest.raises(CodecError, match="^record 0 \\(Instantiated\\): differs from what its op emits$"):
        replay(ChainLog.load(state.log.dump()))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(st.integers(min_value=0), min_size=1, max_size=4))
def test_bit_flipped_log_never_verifies_while_different(bits):
    blob = golden_honest_log()
    tampered = bytearray(blob)
    for bit in bits:
        bit %= len(blob) * 8
        tampered[bit // 8] ^= 1 << (bit % 8)
    try:
        verify_log(ChainLog.load(bytes(tampered)))
    except (ProtocolError, InvariantViolation):
        return
    assert tampered == blob


# -- each record reaches its op with its own fields ----------------------------------

# Every replayable record and the op it must reach, named here apart from
# replay's table; built directly, since no simulated log holds an
# InclusionProved or a ChallengeFailed.
PROOF = MerkleProof(6, (b"\x01" * 32, b"\x02" * 32))
RECORD_OPS = [
    (Registered(3, "alice"), registration, "register"),
    (BulkRegistered(0, 4, 10, b"\xab" * 32), registration, "bulk_register"),
    (Claimed(0, 7, "seller-3", PROOF.to_bytes()), registration, "claim_bulk_registration_id"),
    (Deposited(NEW_ACCOUNT_WIRE, 5, 1234, "funder"), ProtocolState, "deposit"),
    (Withdrawn(5, 70, "out-addr", "funder"), ProtocolState, "withdraw"),
    (Advanced(17), ProtocolState, "advance_block"),
    (PaymentRegistered(2, 2, 5, 3, b"\xcd" * 32, "buyer", encode_pay_data([7])), payments,
     "register_payment"),
    (Unlocked(2, 6, b"the-key"), payments, "unlock"),
    (Refunded(2), payments, "refund_locked_payment"),
    (CollectOpened(8, 2, 3, 12, 500, 20, "payout-3", b"\x22" * 32), game, "collect"),
    (Challenged(8, 2, 9), game, "challenge"),
    (ListResponded(8, 2, ((3, 100), (7, 400))), game, "respond_with_payment_list"),
    (PaymentSelected(8, 2, 7, 400), game, "select_payment"),
    (InclusionProved(8, 2, encode_pay_data([3, 3])), game, "prove_payment_inclusion"),
    (ChallengeSucceeded(8, 2), game, "challenge_success"),
    (ChallengeFailed(8, 2), game, "challenge_failed"),
    (SlotFreed(8, 2), game, "free_slot"),
]


def test_each_record_calls_its_op_with_its_fields(monkeypatch):
    # The ops are patched after import, as the benchmark tracer patches
    # them, and replay must still call the patched function.
    assert {type(rec) for rec, _, _ in RECORD_OPS} == set(replay_module._HANDLERS)
    state = ProtocolState.__new__(ProtocolState)     # every op is a recorder here
    for rec, owner, name in RECORD_OPS:
        op, calls = getattr(owner, name), []
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append((args, kwargs)))
        replay_module.apply_record(state, rec)
        [(args, kwargs)] = calls
        passed = signature(op).bind(*args, **kwargs).arguments
        values = {field.name: getattr(rec, field.name) for field in dataclasses.fields(rec)}
        if isinstance(rec, Claimed):
            values["proof"] = PROOF
        first, *params = signature(op).parameters
        assert passed == {first: state, **{param: values[param] for param in params}}, name


def test_handler_refuses_a_parameter_that_names_no_field():
    def misnamed(state, delegate_id, slot):
        pass

    with pytest.raises(TypeError, match=r"misnamed parameter 'slot' is no field of SlotFreed$"):
        replay_module._handler(SlotFreed, misnamed)
