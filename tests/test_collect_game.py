"""Collect slots and the challenge game: windows, stakes, settlements."""

from __future__ import annotations

import itertools
import re

import pytest

from batchpay.codec import encode_pay_data
from batchpay.collect import (
    challenge,
    challenge_failed,
    challenge_success,
    collect,
    free_slot,
    legal,
    prove_payment_inclusion,
    respond_with_payment_list,
    select_payment,
)
from batchpay.errors import (
    AmountOutOfRange,
    BadProof,
    BadSignature,
    IllegalMove,
    InsufficientFunds,
    InvalidParameter,
    InvariantViolation,
)
from batchpay.registration import register
from batchpay.state import NEW_ACCOUNT, GameState
from batchpay.wire import U64_MAX
from tests.conftest import World, small_params

STAKE = small_params().collect_stake
CH_STAKE = small_params().challenge_stake


def slot_of(world, slot_id, delegate=None):
    return world.state.slots[(world.delegate if delegate is None else delegate, slot_id)]


# -- opening ----------------------------------------------------------------


def test_settle_unchallenged_collect(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    delegate_before = world.balance(world.delegate)
    world.open_collect(7, end=1, amount=10, fee=2)
    assert world.balance(world.delegate) == delegate_before - STAKE
    slot = slot_of(world, 7)
    assert slot.game_state == GameState.WAITING_CHALLENGE
    assert (slot.start_pay_index, slot.end_pay_index) == (0, 1)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 7)
    assert world.balance(world.seller) == 8
    assert world.balance(world.delegate) == delegate_before + 2
    assert world.state.escrow_pool == 0
    assert world.state.accounts[world.seller].last_collected_pay_index == 1
    assert (world.delegate, 7) not in world.state.slots
    world.state.check_invariants()


def test_settlement_window_is_exclusive(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=5)
    world.advance(world.params.challenge_period - 1)
    with pytest.raises(IllegalMove):
        free_slot(world.state, world.delegate, 1)
    world.advance(1)
    free_slot(world.state, world.delegate, 1)


def test_challenge_window_is_exclusive(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=5)
    world.advance(world.params.challenge_period)
    with pytest.raises(IllegalMove):
        challenge(world.state, world.delegate, 1, world.monitor)

    free_slot(world.state, world.delegate, 1)
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(2, end=2, amount=5)
    world.advance(world.params.challenge_period - 1)
    challenge(world.state, world.delegate, 2, world.monitor)


def test_collect_validations(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    # slot id range is checked before the signature, so a dummy MAC suffices
    with pytest.raises(InvalidParameter):
        collect(world.state, world.delegate, 65536, world.seller, 1, 5, 0, b"\x00" * 32)
    with pytest.raises(InvalidParameter):
        world.open_collect(1, end=1, amount=5, fee=6)
    with pytest.raises(IllegalMove):
        world.open_collect(1, end=0, amount=5)  # not past the prefix
    with pytest.raises(IllegalMove):
        world.open_collect(1, end=2, amount=5)  # beyond matured payments
    world.open_collect(1, end=1, amount=5)
    with pytest.raises(IllegalMove):
        world.open_collect(1, end=1, amount=5)  # slot occupied


def test_unmatured_payment_not_collectable(world):
    world.pay([world.seller], per_destination=5)
    with pytest.raises(IllegalMove):
        world.open_collect(1, end=1, amount=5)
    world.advance(world.params.unlock_period - 1)
    with pytest.raises(IllegalMove):
        world.open_collect(1, end=1, amount=5)
    world.advance(1)
    world.open_collect(1, end=1, amount=5)


def test_one_pending_normal_collect_per_recipient(world):
    world.pay([world.seller], per_destination=4)
    world.pay([world.seller], per_destination=4)
    world.mature()
    world.open_collect(1, end=1, amount=4)
    with pytest.raises(IllegalMove):
        world.open_collect(2, end=2, amount=4)
    # a second delegate is blocked just the same; the range overlap does not
    # care who opened the pending slot
    world.state.adapter.mint("delegate-2", 1000)
    other = world.state.deposit(NEW_ACCOUNT, 1000, "delegate-2")
    with pytest.raises(IllegalMove):
        world.open_collect(2, end=2, amount=4, delegate=other)


def test_collect_auth_must_match_fields(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    auth = world.authorize(world.delegate, 1, world.seller, 1, 5, 0, None)
    with pytest.raises(BadSignature):
        collect(world.state, world.delegate, 1, world.seller, 1, 4, 0, auth)
    with pytest.raises(BadSignature):
        collect(world.state, world.delegate, 1, world.seller, 1, 5, 0, auth[:-1])
    with pytest.raises(BadSignature):
        collect(
            world.state, world.delegate, 1, world.seller, 1, 5, 0, auth,
            destination_address="elsewhere",
        )
    collect(world.state, world.delegate, 1, world.seller, 1, 5, 0, auth)


def test_collect_needs_delegate_stake(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    poor = register(world.state, "poor-delegate")
    auth = world.authorize(poor, 1, world.seller, 1, 5, 0, None)
    with pytest.raises(InsufficientFunds):
        collect(world.state, poor, 1, world.seller, 1, 5, 0, auth)


def test_instant_collect_to_its_own_delegate_costs_only_the_stake(world):
    # The delegate is debited stake plus advance and credited the advance in
    # one transfer; the two legs are summed, not each set from the opening balance.
    world.pay([world.delegate], per_destination=500)
    world.mature()
    before = world.balance(world.delegate)
    world.open_collect(40000, end=1, amount=500, recipient=world.delegate)
    assert world.balance(world.delegate) == before - world.params.collect_stake
    world.state.check_invariants()


# -- the verification game ---------------------------------------------------


def open_and_challenge(world, amount, end=None, slot_id=1, fee=0):
    end = world.state.latest_pay_index if end is None else end
    world.open_collect(slot_id, end=end, amount=amount, fee=fee)
    challenge(world.state, world.delegate, slot_id, world.monitor)
    return slot_of(world, slot_id)


def test_honest_delegate_survives_challenge(world):
    payees = sorted([world.seller, world.seller])
    world.pay(payees, per_destination=3)  # seller due 6
    world.mature()
    monitor_before = world.balance(world.monitor)
    delegate_before = world.balance(world.delegate)
    slot = open_and_challenge(world, amount=6)
    assert slot.game_state == GameState.CHALLENGE_STARTED
    assert slot.held_funds == STAKE + CH_STAKE
    world.state.check_invariants()

    respond_with_payment_list(world.state, world.delegate, 1, [(1, 6)])
    assert slot.game_state == GameState.WAITING_PAYMENT_SELECTION
    world.state.check_invariants()

    select_payment(world.state, world.delegate, 1, 1, 6)
    assert slot.game_state == GameState.WAITING_PROOF
    world.state.check_invariants()

    prove_payment_inclusion(world.state, world.delegate, 1, encode_pay_data(payees))
    assert slot.game_state == GameState.PROOF_ACCEPTED

    challenge_failed(world.state, world.delegate, 1)
    assert slot.game_state == GameState.WAITING_CHALLENGE
    assert slot.deadline_block == world.state.current_block + world.params.challenge_period
    assert slot.challenger_id is None
    assert slot.challenge_list is None
    assert slot.challenged_entry is None
    assert slot.held_funds == STAKE
    assert world.balance(world.monitor) == monitor_before - CH_STAKE
    world.state.check_invariants()

    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 1)
    assert world.balance(world.seller) == 6
    assert world.balance(world.delegate) == delegate_before + CH_STAKE
    world.state.check_invariants()


def test_overstating_delegate_loses_on_bad_proof(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    monitor_before = world.balance(world.monitor)
    slot = open_and_challenge(world, amount=9)  # inflated by 4

    respond_with_payment_list(world.state, world.delegate, 1, [(1, 9)])
    select_payment(world.state, world.delegate, 1, 1, 9)
    with pytest.raises(BadProof):
        prove_payment_inclusion(world.state, world.delegate, 1, encode_pay_data([world.seller]))
    assert slot.game_state == GameState.WAITING_PROOF

    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 1)
    assert (world.delegate, 1) not in world.state.slots
    assert world.balance(world.monitor) == monitor_before + STAKE
    # the prefix never moved, so the entitlement is still collectable
    assert world.state.accounts[world.seller].last_collected_pay_index == 0
    world.state.check_invariants()

    world.open_collect(2, end=1, amount=5)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 2)
    assert world.balance(world.seller) == 5


def test_delegate_timeout_on_response(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    slot = open_and_challenge(world, amount=5)
    world.advance(world.params.response_period - 1)
    with pytest.raises(IllegalMove):
        challenge_success(world.state, world.delegate, 1)
    world.advance(1)
    challenge_success(world.state, world.delegate, 1)
    assert (world.delegate, 1) not in world.state.slots
    del slot
    world.state.check_invariants()


def test_challenger_timeout_on_selection(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    slot = open_and_challenge(world, amount=5)
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 5)])
    with pytest.raises(IllegalMove):
        challenge_failed(world.state, world.delegate, 1)
    world.advance(world.params.response_period)
    with pytest.raises(IllegalMove):
        select_payment(world.state, world.delegate, 1, 1, 5)
    challenge_failed(world.state, world.delegate, 1)
    assert slot.game_state == GameState.WAITING_CHALLENGE
    # the fresh window accepts a new challenge
    challenge(world.state, world.delegate, 1, world.monitor)
    assert slot.game_state == GameState.CHALLENGE_STARTED
    world.state.check_invariants()


def test_rejected_response_can_be_retried(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    slot = open_and_challenge(world, amount=5)
    with pytest.raises(InvalidParameter):
        respond_with_payment_list(world.state, world.delegate, 1, [(1, 4)])
    assert slot.game_state == GameState.CHALLENGE_STARTED
    with pytest.raises(InvalidParameter):
        respond_with_payment_list(world.state, world.delegate, 1, [(1, 2), (1, 3)])
    with pytest.raises(InvalidParameter):
        respond_with_payment_list(world.state, world.delegate, 1, [(2, 5)])
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 5)])
    assert slot.game_state == GameState.WAITING_PAYMENT_SELECTION


def test_a_response_read_once_is_kept_whole(world):
    # A list given as an iterator is read once: the entries checked are the
    # entries the slot keeps and the log carries.
    world.pay([world.seller], per_destination=5)
    world.mature()
    slot = open_and_challenge(world, amount=5)
    respond_with_payment_list(world.state, world.delegate, 1, iter([(1, 5)]))
    assert slot.challenge_list == ((1, 5),)
    assert world.state.log.records[-1].pairs == ((1, 5),)


def test_failed_proof_can_be_retried(world):
    payees = [world.seller]
    world.pay(payees, per_destination=5)
    world.mature()
    open_and_challenge(world, amount=5)
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 5)])
    select_payment(world.state, world.delegate, 1, 1, 5)
    with pytest.raises(BadProof):
        prove_payment_inclusion(world.state, world.delegate, 1, b"not the payee bytes")
    prove_payment_inclusion(world.state, world.delegate, 1, encode_pay_data(payees))
    assert slot_of(world, 1).game_state == GameState.PROOF_ACCEPTED


def test_select_requires_listed_pair(world):
    world.pay([world.seller, world.seller], per_destination=3)
    world.mature()
    open_and_challenge(world, amount=6)
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 6)])
    with pytest.raises(InvalidParameter):
        select_payment(world.state, world.delegate, 1, 1, 5)
    with pytest.raises(InvalidParameter):
        select_payment(world.state, world.delegate, 1, 2, 6)
    select_payment(world.state, world.delegate, 1, 1, 6)


def test_self_challenge_rejected(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=5)
    with pytest.raises(IllegalMove):
        challenge(world.state, world.delegate, 1, world.delegate)


def test_zero_amount_claim_defended_with_empty_list(world):
    # a claim over a range owing the recipient nothing: the response is the
    # empty list, the challenger has nothing to select, and times out
    other = register(world.state, "other")
    world.pay([other], per_destination=5)
    world.mature()
    slot = open_and_challenge(world, amount=0)
    respond_with_payment_list(world.state, world.delegate, 1, [])
    assert slot.challenge_list == ()
    world.advance(world.params.response_period)
    challenge_failed(world.state, world.delegate, 1)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 1)
    assert world.balance(world.seller) == 0
    assert world.state.accounts[world.seller].last_collected_pay_index == 1
    world.state.check_invariants()


def test_proof_of_locked_payment_fails(world):
    from batchpay.payments import locking_key_hash, register_payment

    unlocker = register(world.state, "unlocker")
    payees = [world.seller]
    register_payment(
        world.state, world.buyer, 5, encode_pay_data(payees), "buyer",
        locking_key_hash=locking_key_hash(unlocker, b"k"), unlocker_fee=1,
    )
    world.mature()
    # delegate claims the locked amount anyway; the proof cannot land
    open_and_challenge(world, amount=5)
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 5)])
    select_payment(world.state, world.delegate, 1, 1, 5)
    with pytest.raises(BadProof):
        prove_payment_inclusion(world.state, world.delegate, 1, encode_pay_data(payees))


# -- instant slots ------------------------------------------------------------


def test_instant_boundary_slot_id(world):
    world.pay([world.seller], per_destination=5)
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(32768, end=1, amount=5)
    assert not slot_of(world, 32768).instant
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 32768)
    world.open_collect(32769, end=2, amount=5)
    assert slot_of(world, 32769).instant


def test_pending_normal_collect_blocks_instant_too(world):
    # an instant collect would advance the prefix under the pending slot's
    # still-unsettled range, so it is refused as well
    world.pay([world.seller], per_destination=5)
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=5)
    with pytest.raises(IllegalMove):
        world.open_collect(40000, end=2, amount=5)


def test_instant_collect_pays_at_open_and_reimburses(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    delegate_before = world.balance(world.delegate)
    world.open_collect(40000, end=1, amount=10, fee=2)
    assert world.balance(world.seller) == 8
    assert world.balance(world.delegate) == delegate_before - STAKE - 8
    assert world.state.accounts[world.seller].last_collected_pay_index == 1
    world.state.check_invariants()

    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 40000)
    assert world.balance(world.delegate) == delegate_before + 2
    assert world.state.escrow_pool == 0
    world.state.check_invariants()


def test_instant_does_not_block_normal_slot(world):
    world.pay([world.seller], per_destination=4)
    world.pay([world.seller], per_destination=4)
    world.mature()
    world.open_collect(40000, end=1, amount=4)
    world.open_collect(5, end=2, amount=4)
    assert len(world.state.slots) == 2


def test_lost_instant_collect_keeps_prefix_advanced(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    delegate_before = world.balance(world.delegate)
    monitor_before = world.balance(world.monitor)
    world.open_collect(40000, end=1, amount=14)  # inflated by 4, fronted 14
    challenge(world.state, world.delegate, 40000, world.monitor)
    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 40000)
    # the recipient keeps the advance, the delegate ate stake plus advance,
    # and the range is spent: the escrow stays pooled
    assert world.balance(world.seller) == 14
    assert world.balance(world.delegate) == delegate_before - STAKE - 14
    assert world.balance(world.monitor) == monitor_before + STAKE
    assert world.state.accounts[world.seller].last_collected_pay_index == 1
    assert world.state.escrow_pool == 10
    with pytest.raises(IllegalMove):
        world.open_collect(2, end=1, amount=10)
    world.state.check_invariants()


# -- destination routing -------------------------------------------------------


def test_settlement_routes_to_destination_address(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(1, end=1, amount=10, fee=3, destination="payout-box")
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 1)
    assert world.balance(world.seller) == 0
    assert world.state.adapter.balance_of("payout-box") == 7
    world.state.check_invariants()


def test_instant_advance_routes_to_destination_address(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(40000, end=1, amount=10, fee=3, destination="payout-box")
    assert world.state.adapter.balance_of("payout-box") == 7
    assert world.balance(world.seller) == 0
    world.state.check_invariants()


def _assert_rejected_untouched(world, move):
    before = (world.state.digest(), len(world.state.log), world.state.adapter.reserve)
    with pytest.raises(AmountOutOfRange):
        move()
    assert (world.state.digest(), len(world.state.log), world.state.adapter.reserve) == before
    world.state.check_invariants()


def test_instant_collect_overflowing_destination_changes_nothing(world):
    world.pay([world.seller], per_destination=100)
    world.mature()
    world.state.adapter.mint("full-box", U64_MAX - 10)
    _assert_rejected_untouched(
        world, lambda: world.open_collect(40000, end=1, amount=100, destination="full-box")
    )
    assert world.balance(world.delegate) == 100_000


def test_settlement_overflowing_destination_changes_nothing(world):
    world.pay([world.seller], per_destination=100)
    world.mature()
    world.open_collect(1, end=1, amount=100, destination="full-box")
    world.state.adapter.mint("full-box", U64_MAX - 10)
    world.advance(world.params.challenge_period)
    pool = world.state.escrow_pool
    _assert_rejected_untouched(world, lambda: free_slot(world.state, world.delegate, 1))
    assert world.state.escrow_pool == pool
    assert (world.delegate, 1) in world.state.slots


@pytest.mark.parametrize("slot_id", [1, 40000], ids=["normal", "instant"])
@pytest.mark.parametrize("surplus", [-1, 0, 1], ids=["pool-short", "pool-exact", "pool-over"])
def test_coverable_is_false_exactly_when_free_slot_refuses(world, slot_id, surplus):
    # Delegates skip a settlement that state.covers() refuses instead of
    # calling free_slot, so the two must agree at the boundary. The claim is
    # sized around the 10-token pool: the pool holds amount + surplus.
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(slot_id, end=1, amount=world.state.escrow_pool - surplus)
    world.advance(world.params.challenge_period)
    state = world.state
    slot = slot_of(world, slot_id)
    assert legal("free_slot", slot, state.current_block)
    assert state.escrow_pool == slot.amount + surplus
    covered = state.covers(slot.amount)
    assert covered == (surplus >= 0)
    before = state.digest(), len(state.log)
    if covered:
        free_slot(state, world.delegate, slot_id)
        assert (world.delegate, slot_id) not in state.slots
    else:
        with pytest.raises(IllegalMove, match="escrow pool cannot cover the settlement"):
            free_slot(state, world.delegate, slot_id)
        assert (state.digest(), len(state.log)) == before
    state.check_invariants()


# -- the pending-collect index -------------------------------------------------


def test_pending_index_follows_the_normal_slot(world):
    world.pay([world.seller], per_destination=10)
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(40000, end=1, amount=10)
    world.open_collect(3, end=2, amount=10)
    assert world.state.pending_collects == {world.seller: (world.delegate, 3)}
    message = f"already has a pending collect (slot ({world.delegate}, 3))"
    with pytest.raises(IllegalMove, match=re.escape(message)):
        world.open_collect(4, end=2, amount=10)
    # losing the instant slot leaves the normal one indexed
    challenge(world.state, world.delegate, 40000, world.monitor)
    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 40000)
    assert world.state.pending_collects == {world.seller: (world.delegate, 3)}
    world.state.check_invariants()
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 3)
    assert world.state.pending_collects == {}
    world.state.check_invariants()


def test_lost_normal_slot_leaves_the_index(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(3, end=1, amount=30)
    challenge(world.state, world.delegate, 3, world.monitor)
    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 3)
    assert world.state.pending_collects == {}
    world.state.check_invariants()
    world.open_collect(4, end=1, amount=10)


def test_check_invariants_verifies_the_pending_index(world):
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(3, end=1, amount=10)
    pending = world.state.pending_collects
    for tampered in (
        {},                                         # slot not indexed
        {world.seller: (world.delegate, 4)},        # indexed under another key
        {world.seller: (world.delegate, 3), world.buyer: (world.delegate, 3)},  # extra entry
    ):
        world.state.pending_collects = tampered
        with pytest.raises(InvariantViolation) as caught:
            world.state.check_invariants()
        assert caught.value.invariant == "pending-collects"
    world.state.pending_collects = pending
    world.state.check_invariants()


# -- the move rules, spelled out ----------------------------------------------

WC, CS, WPS, WP, PA = (
    GameState.WAITING_CHALLENGE,
    GameState.CHALLENGE_STARTED,
    GameState.WAITING_PAYMENT_SELECTION,
    GameState.WAITING_PROOF,
    GameState.PROOF_ACCEPTED,
)
BEFORE, AT = "one block before the deadline", "at the deadline"

# (move, state) -> (when it is legal, the state it leads to or None when the
# slot empties, the period that sets the new deadline). Any other pair, or
# any other time, is refused.
GAME_RULES = {
    ("challenge", WC): ({BEFORE}, CS, "response_period"),
    ("free_slot", WC): ({AT}, None, None),
    ("respond", CS): ({BEFORE}, WPS, "response_period"),
    ("challenge_success", CS): ({AT}, None, None),
    ("select", WPS): ({BEFORE}, WP, "response_period"),
    ("challenge_failed", WPS): ({AT}, WC, "challenge_period"),
    ("prove", WP): ({BEFORE}, PA, "response_period"),
    ("challenge_success", WP): ({AT}, None, None),
    ("challenge_failed", PA): ({BEFORE, AT}, WC, "challenge_period"),
}

# Each move on slot 3 with arguments that are valid once the game allows it:
# the slot claims the 10 that payment 1 owes the seller.
GAME_MOVES = {
    "challenge": lambda w: challenge(w.state, w.delegate, 3, w.monitor),
    "free_slot": lambda w: free_slot(w.state, w.delegate, 3),
    "respond": lambda w: respond_with_payment_list(w.state, w.delegate, 3, [(1, 10)]),
    "challenge_success": lambda w: challenge_success(w.state, w.delegate, 3),
    "select": lambda w: select_payment(w.state, w.delegate, 3, 1, 10),
    "challenge_failed": lambda w: challenge_failed(w.state, w.delegate, 3),
    "prove": lambda w: prove_payment_inclusion(w.state, w.delegate, 3, w.pay_data[1]),
}

# The moves that take a fresh slot into each state, in order.
PATH = ((CS, "challenge"), (WPS, "respond"), (WP, "select"), (PA, "prove"))


def _slot_in(game_state, when):
    world = World()
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(3, end=1, amount=10)
    for reached, move in PATH:
        if slot_of(world, 3).game_state == game_state:
            break
        GAME_MOVES[move](world)
        assert slot_of(world, 3).game_state == reached
    blocks = slot_of(world, 3).deadline_block - world.state.current_block
    world.advance(blocks - 1 if when == BEFORE else blocks)
    return world


def test_every_game_move_is_legal_exactly_where_the_rules_say():
    for (move, make), game_state, when in itertools.product(
        GAME_MOVES.items(), (WC, CS, WPS, WP, PA), (BEFORE, AT)
    ):
        case = f"{move} in {game_state.name}, {when}"
        world = _slot_in(game_state, when)
        state, slot = world.state, slot_of(world, 3)
        rule = GAME_RULES.get((move, game_state))
        before = state.digest(), len(state.log)
        try:
            make(world)
        except IllegalMove:
            assert rule is None or when not in rule[0], case
            assert (state.digest(), len(state.log)) == before, case
            continue
        assert rule is not None and when in rule[0], case
        _, leads_to, period = rule
        assert len(state.log) == before[1] + 1 and state.log.records[-1].OP == move, case
        if leads_to is None:
            assert (world.delegate, 3) not in state.slots, case
        else:
            assert slot.game_state == leads_to, case
            assert slot.deadline_block == state.current_block + getattr(world.params, period), case
        state.check_invariants()


def test_moves_on_missing_slot_rejected(world):
    for move in (
        lambda: free_slot(world.state, world.delegate, 9),
        lambda: challenge(world.state, world.delegate, 9, world.monitor),
        lambda: respond_with_payment_list(world.state, world.delegate, 9, [(1, 1)]),
        lambda: select_payment(world.state, world.delegate, 9, 1, 1),
        lambda: prove_payment_inclusion(world.state, world.delegate, 9, b""),
        lambda: challenge_success(world.state, world.delegate, 9),
        lambda: challenge_failed(world.state, world.delegate, 9),
    ):
        with pytest.raises(IllegalMove):
            move()
