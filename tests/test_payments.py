"""Batch payments: escrow math, locking, unlock/refund windows, entitlement."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.chainlog import Refunded, Unlocked
from batchpay.codec import encode_pay_data
from batchpay.errors import (
    CodecError,
    IllegalMove,
    InsufficientFunds,
    InvalidParameter,
    InvariantViolation,
    Unauthorized,
)
from batchpay.payments import (
    locking_key_hash,
    refund_locked_payment,
    register_payment,
    unlock,
)
from batchpay.registration import register
from batchpay.sim import SimRun
from batchpay.sim.config import load_scenario_config
from batchpay.state import PaymentStatus
from tests.conftest import World, payment_occurrences, small_params

ADVERSARIAL_CFG = __file__.rsplit("/", 2)[0] + "/configs/adversarial.cfg"


def test_register_payment_escrows_full_amount(world):
    sellers = [world.seller, register(world.state, "s2"), register(world.state, "s3")]
    before = world.balance(world.buyer)
    idx = world.pay(sellers, per_destination=7)
    assert idx == 1
    payment = world.state.payment(idx)
    assert payment.total_escrow == 21
    assert payment.status == PaymentStatus.COMMITTED
    assert payment.collectable_from_block == world.state.current_block + world.params.unlock_period
    assert world.balance(world.buyer) == before - 21
    assert world.state.escrow_pool == 21


def test_register_payment_with_repeats_counts_multiplicity(world):
    idx = world.pay([world.seller, world.seller, world.seller], per_destination=4)
    assert world.state.payment(idx).total_escrow == 12
    assert payment_occurrences(world.pay_data[idx], world.seller) == 3


def test_register_payment_rejects_bad_inputs(world):
    data = encode_pay_data([world.seller])
    with pytest.raises(InvalidParameter):
        register_payment(world.state, world.buyer, 0, data, "buyer")
    with pytest.raises(Unauthorized):
        register_payment(world.state, world.buyer, 1, data, "mallory")
    with pytest.raises(InvalidParameter):
        register_payment(world.state, world.buyer, 1, encode_pay_data([999]), "buyer")
    with pytest.raises(CodecError):
        register_payment(world.state, world.buyer, 1, b"", "buyer")


def test_register_payment_respects_batch_limit():
    world = World(small_params(max_payments_per_batch=3))
    sellers = [register(world.state, f"s{i}") for i in range(4)]
    world.pay(sellers[:3])
    with pytest.raises(InvalidParameter):
        world.pay(sellers)


def test_register_payment_rejections_keep_their_errors_and_write_nothing():
    world = World(small_params(max_payments_per_batch=3))
    sellers = [register(world.state, f"s{i}") for i in range(4)]
    accounts = len(world.state.addresses)
    header = (3).to_bytes(4, "little") + sellers[0].to_bytes(4, "little")
    cases = [
        (encode_pay_data([]), InvalidParameter, "empty payee list"),
        (encode_pay_data(sellers), InvalidParameter, "4 payees exceeds batch limit 3"),
        (encode_pay_data([sellers[0], accounts]), InvalidParameter,
         f"payee id {accounts} >= allocated account count {accounts}"),
        (encode_pay_data([sellers[0], sellers[0] + 200]), InvalidParameter,
         f"payee id {sellers[0] + 200} >= allocated account count {accounts}"),
        (b"", CodecError, "truncated: count header missing"),
        (header + b"\x01\x81", CodecError, "truncated inside varint"),
        (header + b"\x01\x01\x01", CodecError, "trailing bytes after last delta"),
        (header + b"\x01", CodecError, "truncated inside varint"),
        (encode_pay_data([7]) + b"\x00", CodecError, "trailing bytes after last delta"),
    ]
    for pay_data, error, message in cases:
        before = (world.state.digest(), len(world.state.log))
        with pytest.raises(error) as excinfo:
            register_payment(world.state, world.buyer, 1, pay_data, "buyer")
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message
        assert (world.state.digest(), len(world.state.log)) == before


def test_register_payment_needs_funds(world):
    poor = register(world.state, "poor")
    with pytest.raises(InsufficientFunds):
        register_payment(world.state, poor, 1, encode_pay_data([world.seller]), "poor")


def test_register_payment_to_unclaimed_bulk_id_is_allowed(world):
    # paying a reserved id is legitimate; the owner claims later and collects
    from batchpay.merkle import merkle_root
    from batchpay.registration import bulk_register

    addresses = ["late-1", "late-2"]
    bulk_id = bulk_register(world.state, 2, merkle_root(addresses))
    first = world.state.bulks[bulk_id].first_id
    idx = world.pay([first], per_destination=9)
    world.mature()
    assert world.entitlement(first, 0, idx) == 9


def test_empty_payee_list_rejected(world):
    with pytest.raises(InvalidParameter):
        world.pay([], per_destination=1)


def test_unlocker_fee_requires_lock(world):
    data = encode_pay_data([world.seller])
    with pytest.raises(InvalidParameter):
        register_payment(world.state, world.buyer, 1, data, "buyer", unlocker_fee=1)


def locked_payment(world, per_destination=10, fee=3):
    unlocker = register(world.state, "unlocker")
    key = b"secret-key-bytes"
    idx = world.pay(
        [world.seller],
        per_destination=per_destination,
        locking_key_hash=locking_key_hash(unlocker, key),
        unlocker_fee=fee,
    )
    return idx, unlocker, key


def test_unlock_in_window_credits_fee(world):
    idx, unlocker, key = locked_payment(world)
    payment = world.state.payment(idx)
    assert payment.status == PaymentStatus.LOCKED
    assert payment.total_escrow == 13  # 10 to the payee plus fee 3
    unlock(world.state, idx, unlocker, key)
    assert payment.status == PaymentStatus.COMMITTED
    assert world.balance(unlocker) == 3
    assert world.state.escrow_pool == 10
    world.state.check_invariants()


def test_unlock_rejects_wrong_key_or_unlocker(world):
    idx, unlocker, key = locked_payment(world)
    with pytest.raises(Unauthorized):
        unlock(world.state, idx, unlocker, b"wrong-key")
    # the hash commits to the unlocker id, so the right key from the wrong
    # account is just as dead
    intruder = register(world.state, "intruder")
    with pytest.raises(Unauthorized):
        unlock(world.state, idx, intruder, key)
    unlock(world.state, idx, unlocker, key)


def test_unlock_window_edges(world):
    # the unlock window is blocks [registration, collectable_from); the
    # boundary block itself belongs to the refund side
    idx, unlocker, key = locked_payment(world)
    world.advance(world.params.unlock_period - 1)
    unlock(world.state, idx, unlocker, key)

    idx2, unlocker2, key2 = locked_payment(world)
    world.advance(world.params.unlock_period)
    with pytest.raises(IllegalMove):
        unlock(world.state, idx2, unlocker2, key2)


def test_unlock_twice_rejected(world):
    idx, unlocker, key = locked_payment(world)
    unlock(world.state, idx, unlocker, key)
    with pytest.raises(IllegalMove):
        unlock(world.state, idx, unlocker, key)


def test_refund_after_timeout_makes_buyer_whole(world):
    before = world.balance(world.buyer)
    idx, unlocker, key = locked_payment(world)
    assert world.balance(world.buyer) == before - 13
    with pytest.raises(IllegalMove):
        refund_locked_payment(world.state, idx)  # window still open
    world.advance(world.params.unlock_period)
    refund_locked_payment(world.state, idx)
    assert world.balance(world.buyer) == before
    assert world.state.payment(idx).status == PaymentStatus.REFUNDED
    assert world.state.escrow_pool == 0
    world.state.check_invariants()


def test_refund_rejects_unlocked_or_plain_payments(world):
    idx, unlocker, key = locked_payment(world)
    unlock(world.state, idx, unlocker, key)
    world.advance(world.params.unlock_period)
    with pytest.raises(IllegalMove):
        refund_locked_payment(world.state, idx)

    plain = world.pay([world.seller])
    world.advance(world.params.unlock_period)
    with pytest.raises(IllegalMove):
        refund_locked_payment(world.state, plain)


def test_refund_twice_rejected(world):
    idx, _, _ = locked_payment(world)
    world.advance(world.params.unlock_period)
    refund_locked_payment(world.state, idx)
    with pytest.raises(IllegalMove):
        refund_locked_payment(world.state, idx)


# -- the lock's rules ----------------------------------------------------------

COMMITTED, LOCKED, REFUNDED = PaymentStatus.COMMITTED, PaymentStatus.LOCKED, PaymentStatus.REFUNDED
BEFORE, AT = "one block before collectable_from_block", "at collectable_from_block"

# (move, status) -> (when it is legal, the status it leads to). Any other
# pair, or any other time, is refused.
LOCK_RULES = {
    ("unlock", LOCKED): ({BEFORE}, COMMITTED),
    ("refund", LOCKED): ({AT}, REFUNDED),
}

# Each move with arguments that are valid once the lock allows it.
LOCK_MOVES = {
    "unlock": lambda state, idx, unlocker, key: unlock(state, idx, unlocker, key),
    "refund": lambda state, idx, unlocker, key: refund_locked_payment(state, idx),
}


def _payment_in(status, when):
    """A world whose one locked payment was taken to ``status``, at block ``when``."""
    world = World()
    idx, unlocker, key = locked_payment(world)
    if status == COMMITTED:
        unlock(world.state, idx, unlocker, key)
    if status == REFUNDED:
        world.advance(world.params.unlock_period)
        refund_locked_payment(world.state, idx)
        if when == BEFORE:
            # A refund is legal only from the window's end, so no refunded
            # payment is seen before it: wind the clock back to ask anyway.
            world.state.current_block -= 1
    else:
        blocks = world.params.unlock_period
        world.advance(blocks - 1 if when == BEFORE else blocks)
    return world, idx, unlocker, key


def test_every_payment_move_is_legal_exactly_where_the_rules_say():
    for (move, make), status, when in itertools.product(
        LOCK_MOVES.items(), (COMMITTED, LOCKED, REFUNDED), (BEFORE, AT)
    ):
        case = f"{move} on {status.name}, {when}"
        world, idx, unlocker, key = _payment_in(status, when)
        state, payment = world.state, world.state.payment(idx)
        assert payment.status == status, case
        assert payment.collectable_from_block - state.current_block == (when == BEFORE), case
        rule = LOCK_RULES.get((move, status))
        before = state.digest(), len(state.log), dict(state.open_locks)
        try:
            make(state, idx, unlocker, key)
        except IllegalMove:
            assert rule is None or when not in rule[0], case
            assert (state.digest(), len(state.log), state.open_locks) == before, case
            continue
        assert rule is not None and when in rule[0], case
        assert payment.status == rule[1], case
        assert len(state.log) == before[1] + 1 and idx not in state.open_locks, case
        assert state.log.records[-1].OP == move, case
        state.check_invariants()


# -- the open-lock index ------------------------------------------------------


def _scanned_locks(state) -> dict:
    return {p.pay_index: p for p in state.payments if p.status == PaymentStatus.LOCKED}


def test_open_locks_track_every_block_of_an_adversarial_run():
    # The run locks, unlocks, withholds keys and refunds. After every block
    # the index is exactly the LOCKED payments, and it holds no more than
    # were locked in the last unlock window: the bound that keeps the
    # per-block check independent of history.
    run = SimRun(load_scenario_config(ADVERSARIAL_CFG))
    state = run.state
    period = state.params.unlock_period
    step = run.run_block
    sizes = []

    def checked_block():
        step()
        assert state.open_locks == _scanned_locks(state), run.state.current_block
        # the block just played is current_block - 1; its window reaches back
        recent = sum(
            p.locking_key_hash is not None
            and p.registered_at_block >= state.current_block - period
            for p in state.payments
        )
        assert len(state.open_locks) <= recent, run.state.current_block
        sizes.append(len(state.open_locks))

    run.run_block = checked_block
    run.run()
    locked = sum(p.locking_key_hash is not None for p in state.payments)
    assert locked > 2 * max(sizes) > 0 and sizes[-1] == 0
    assert {Unlocked, Refunded} <= {type(rec) for rec in run.log.records}
    # A LOCKED payment the index misses is left to the end-of-run scan.
    state.payments[0].status = PaymentStatus.LOCKED
    state.check_invariants()
    with pytest.raises(InvariantViolation, match="open-locks"):
        run._verify_end()


def test_refused_unlock_or_refund_leaves_the_open_locks_alone(world):
    state = world.state
    idx, unlocker, key = locked_payment(world)
    plain = world.pay([world.seller])
    before = dict(state.open_locks)
    assert list(before) == [idx]

    def refused(error, move, *args):
        with pytest.raises(error):
            move(state, *args)
        assert state.open_locks == before

    refused(Unauthorized, unlock, idx, unlocker, b"wrong-key")
    refused(IllegalMove, refund_locked_payment, idx)        # window still open
    refused(IllegalMove, unlock, plain, unlocker, key)      # never locked
    pool, state.escrow_pool = state.escrow_pool, 0          # a pool short of the fee
    refused(IllegalMove, unlock, idx, unlocker, key)
    state.escrow_pool = pool
    world.advance(world.params.unlock_period)
    refused(IllegalMove, unlock, idx, unlocker, key)        # window closed
    refused(IllegalMove, refund_locked_payment, plain)
    state.escrow_pool = 0                                   # a pool short of the refund
    refused(IllegalMove, refund_locked_payment, idx)
    state.escrow_pool = pool
    refund_locked_payment(state, idx)
    before = {}
    refused(IllegalMove, refund_locked_payment, idx)        # already refunded


# -- entitlement -----------------------------------------------------------


def test_entitlement_sums_committed_occurrences(world):
    other = register(world.state, "other")
    world.pay([world.seller, other], per_destination=5)          # index 1
    world.pay([world.seller, world.seller], per_destination=2)   # index 2
    world.pay([other], per_destination=9)                        # index 3
    assert world.entitlement(world.seller, 0, 3) == 9
    assert world.entitlement(other, 0, 3) == 14
    # half-open (start, end]: start=1 skips the first payment
    assert world.entitlement(world.seller, 1, 3) == 4
    assert world.entitlement(world.seller, 2, 3) == 0
    assert world.entitlement(world.seller, 3, 3) == 0


def test_entitlement_excludes_locked_and_refunded(world):
    idx, unlocker, key = locked_payment(world, per_destination=10)
    assert world.entitlement(world.seller, 0, idx) == 0
    unlock(world.state, idx, unlocker, key)
    assert world.entitlement(world.seller, 0, idx) == 10

    idx2, _, _ = locked_payment(world, per_destination=7)
    world.advance(world.params.unlock_period)
    refund_locked_payment(world.state, idx2)
    assert world.entitlement(world.seller, 0, idx2) == 10


def test_occurrences_of_absent_account_is_zero(world):
    other = register(world.state, "other")
    idx = world.pay([world.seller], per_destination=5)
    assert payment_occurrences(world.pay_data[idx], other) == 0


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=6),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_entitlement_matches_direct_sum(occurrence_counts, per_destination):
    world = World()
    others = [register(world.state, f"w{i}") for i in range(2)]
    for count in occurrence_counts:
        payees = [world.seller] * count + others
        world.pay(sorted(payees), per_destination=per_destination)
    end = world.state.latest_pay_index
    expected = per_destination * sum(occurrence_counts)
    assert world.entitlement(world.seller, 0, end) == expected
    world.state.check_invariants()
