"""Log replay: state reconstruction, trailer checking, tamper detection."""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.chainlog import (
    Advanced,
    ChainLog,
    Claimed,
    CollectOpened,
    Deposited,
    FinalDigest,
    Instantiated,
    PaymentRegistered,
    Registered,
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
from batchpay.payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from batchpay.registration import register
from batchpay.replay import replay, verify_log
from batchpay.sim.config import load_scenario_config
from batchpay.sim.scenario import run_scenario_full
from tests.conftest import World


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
