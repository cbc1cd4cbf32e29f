"""Core state machine: accounts, deposits, clock, digests, invariants."""

from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.errors import (
    AmountOutOfRange,
    InsufficientFunds,
    InvalidParameter,
    InvariantViolation,
    TableFull,
    Unauthorized,
    UnknownAccount,
)
from batchpay.collect import challenge, respond_with_payment_list, select_payment
from batchpay.registration import register
from batchpay.state import (
    MAX_ACCOUNT_ID_SPACE,
    NEW_ACCOUNT,
    U64_MAX,
    GameState,
    Params,
    PaymentStatus,
    ProtocolState,
    TokenAdapter,
    ensure_u64,
    instantiate,
)
from tests.conftest import World, small_params


def fresh(params=None, funding=()):
    adapter = TokenAdapter()
    for address, amount in funding:
        adapter.mint(address, amount)
    return instantiate(params or small_params(), adapter)


# -- parameters ------------------------------------------------------------


def test_default_params_valid():
    Params().validate()


def test_param_bounds_rejected():
    bad = [
        dict(max_account_count=0),
        dict(max_account_count=MAX_ACCOUNT_ID_SPACE + 1),
        dict(unlock_period=0),
        dict(challenge_period=0),
        dict(response_period=0),
        dict(collect_stake=0),
        dict(challenge_stake=0),
        dict(max_payments_per_batch=0),
        dict(instant_slot_threshold=-1),
        dict(instant_slot_threshold=65536),
    ]
    for overrides in bad:
        with pytest.raises(InvalidParameter):
            instantiate(Params(**overrides))


def test_instance_id_is_deterministic():
    # identical params and identical initial externals pin the instance id;
    # any difference in either diverges it
    assert fresh().instance_id == fresh().instance_id
    funded = fresh(funding=[("a", 1)])
    assert funded.instance_id != fresh().instance_id
    other_params = fresh(params=small_params(unlock_period=6))
    assert other_params.instance_id != fresh().instance_id


# -- token adapter ---------------------------------------------------------


def test_adapter_mint_and_total():
    adapter = TokenAdapter()
    adapter.mint("a", 10)
    adapter.mint("a", 5)
    adapter.mint("b", 7)
    assert adapter.balance_of("a") == 15
    assert adapter.total() == 22


def test_adapter_deposit_checks_funds():
    adapter = TokenAdapter()
    adapter.mint("a", 10)
    adapter.deposit("a", 10)
    assert adapter.balance_of("a") == 0
    assert adapter.reserve == 10
    with pytest.raises(InsufficientFunds):
        adapter.deposit("a", 1)


def test_adapter_withdraw_guards_reserve():
    adapter = TokenAdapter()
    adapter.mint("a", 10)
    adapter.deposit("a", 4)
    adapter.withdraw("b", 3)
    assert adapter.balance_of("b") == 3
    assert adapter.total() == 10
    with pytest.raises(InvariantViolation):
        adapter.withdraw("b", 2)


def test_adapter_rejects_bad_amounts():
    adapter = TokenAdapter()
    with pytest.raises(AmountOutOfRange):
        adapter.mint("a", -1)
    with pytest.raises(AmountOutOfRange):
        adapter.mint("a", U64_MAX + 1)


# -- deposits and withdrawals ----------------------------------------------


def test_deposit_new_account_assigns_sequential_ids():
    state = fresh(funding=[("a", 100), ("b", 100)])
    first = state.deposit(NEW_ACCOUNT, 30, "a")
    second = state.deposit(NEW_ACCOUNT, 40, "b")
    assert (first, second) == (0, 1)
    assert state.accounts[first].balance == 30
    assert state.accounts[first].address == "a"
    assert state.adapter.reserve == 70
    assert state.adapter.balance_of("a") == 70


def test_deposit_existing_account_any_sender():
    state = fresh(funding=[("a", 100), ("b", 100)])
    acct = state.deposit(NEW_ACCOUNT, 10, "a")
    # anyone can top up an existing account
    state.deposit(acct, 25, "b")
    assert state.accounts[acct].balance == 35


def test_deposit_zero_or_negative_rejected():
    state = fresh(funding=[("a", 100)])
    with pytest.raises(InvalidParameter):
        state.deposit(NEW_ACCOUNT, 0, "a")
    with pytest.raises(AmountOutOfRange):
        state.deposit(NEW_ACCOUNT, -5, "a")


def test_deposit_reserve_overflow_leaves_state_untouched():
    state = fresh(funding=[("w0", U64_MAX - 10), ("w1", 100)])
    state.deposit(NEW_ACCOUNT, U64_MAX - 10, "w0")
    digest, logged = state.digest(), len(state.log)
    with pytest.raises(AmountOutOfRange):
        state.deposit(NEW_ACCOUNT, 100, "w1")
    assert state.adapter.balance_of("w1") == 100
    assert (state.digest(), len(state.log)) == (digest, logged)


def test_deposit_unknown_account_rejected():
    state = fresh(funding=[("a", 100)])
    with pytest.raises(UnknownAccount):
        state.deposit(99, 10, "a")


def test_deposit_needs_sender_funds():
    state = fresh(funding=[("a", 5)])
    with pytest.raises(InsufficientFunds):
        state.deposit(NEW_ACCOUNT, 10, "a")


def test_withdraw_only_owner():
    state = fresh(funding=[("a", 100)])
    acct = state.deposit(NEW_ACCOUNT, 60, "a")
    with pytest.raises(Unauthorized):
        state.withdraw(acct, 10, "elsewhere", sender="mallory")
    state.withdraw(acct, 10, "elsewhere", sender="a")
    assert state.accounts[acct].balance == 50
    assert state.adapter.balance_of("elsewhere") == 10
    with pytest.raises(InsufficientFunds):
        state.withdraw(acct, 51, "elsewhere", sender="a")


def test_account_table_capacity():
    state = fresh(params=small_params(max_account_count=2), funding=[("a", 100)])
    state.deposit(NEW_ACCOUNT, 1, "a")
    state.deposit(NEW_ACCOUNT, 1, "a")
    with pytest.raises(TableFull):
        state.deposit(NEW_ACCOUNT, 1, "a")


# -- clock -----------------------------------------------------------------


def test_clock_advances_monotonically():
    state = fresh()
    start = state.current_block
    state.advance_block(1)
    state.advance_block(5)
    assert state.current_block == start + 6
    with pytest.raises(InvalidParameter):
        state.advance_block(0)
    with pytest.raises(InvalidParameter):
        state.advance_block(-3)


# -- digests and invariants ------------------------------------------------


def test_digest_deterministic_and_sensitive():
    a = fresh(funding=[("a", 100)])
    b = fresh(funding=[("a", 100)])
    # different instance ids already diverge the digest; compare self-stability
    assert a.digest() == a.digest()
    before = a.digest()
    a.advance_block(1)
    assert a.digest() != before
    before = a.digest()
    a.deposit(NEW_ACCOUNT, 10, "a")
    assert a.digest() != before
    assert b.digest() != a.digest()


def test_check_invariants_passes_on_fresh_state():
    state = fresh(funding=[("a", 100)])
    state.deposit(NEW_ACCOUNT, 40, "a")
    state.check_invariants()


def test_conservation_detects_tampering():
    state = fresh(funding=[("a", 100)])
    acct = state.deposit(NEW_ACCOUNT, 40, "a")
    state.accounts[acct].balance += 1
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_escrow_pool_tampering_detected():
    state = fresh(funding=[("a", 100)])
    state.deposit(NEW_ACCOUNT, 40, "a")
    state.escrow_pool += 1
    with pytest.raises(InvariantViolation):
        state.check_invariants()


# -- helpers ---------------------------------------------------------------


def test_ensure_u64_bounds():
    ensure_u64(0, "x")
    ensure_u64(U64_MAX, "x")
    with pytest.raises(AmountOutOfRange):
        ensure_u64(-1, "x")
    with pytest.raises(AmountOutOfRange):
        ensure_u64(U64_MAX + 1, "x")


@given(st.lists(st.integers(1, 50), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_deposit_withdraw_conserves_supply(amounts):
    adapter = TokenAdapter()
    adapter.mint("a", sum(amounts))
    state = instantiate(small_params(), adapter)
    total = adapter.total()
    acct = state.deposit(NEW_ACCOUNT, amounts[0], "a")
    for amount in amounts[1:]:
        state.deposit(acct, amount, "a")
    half = sum(amounts) // 2
    if half:
        state.withdraw(acct, half, "out", sender="a")
    state.check_invariants()
    assert adapter.total() == total


# -- check_invariants against a plain reference ----------------------------


def _reference_check(state) -> None:
    """check_invariants as a plain loop over accounts, slots and payments."""
    balances = 0
    for acct in state.accounts:
        if acct.balance < 0 or acct.balance > U64_MAX:
            raise InvariantViolation("balance-range", f"account {acct.account_id}")
        if acct.last_collected_pay_index > len(state.payments):
            raise InvariantViolation(
                "collected-prefix", f"account {acct.account_id} past log end"
            )
        balances += acct.balance
    if state.escrow_pool < 0:
        raise InvariantViolation("conservation", "escrow pool negative")
    held = 0
    pending = 0
    for (did, sid), slot in state.slots.items():
        if (did, sid) != (slot.delegate_id, slot.slot_id):
            raise InvariantViolation("slot-key", f"slot {(did, sid)} mislabeled")
        if slot.game_state == GameState.EMPTY:
            raise InvariantViolation("slot-state", "empty slot present in map")
        expected = state.params.collect_stake + (
            state.params.challenge_stake if slot.challenger_id is not None else 0
        )
        if slot.held_funds != expected:
            raise InvariantViolation(
                "slot-held-funds",
                f"slot {(did, sid)} holds {slot.held_funds}, expected {expected}",
            )
        has_challenger = slot.challenger_id is not None
        if has_challenger != (slot.game_state >= GameState.CHALLENGE_STARTED):
            raise InvariantViolation("slot-challenger", f"slot {(did, sid)}")
        if (slot.challenge_list is not None) != (
            slot.game_state >= GameState.WAITING_PAYMENT_SELECTION
        ):
            raise InvariantViolation("slot-challenge-list", f"slot {(did, sid)}")
        if (slot.challenged_entry is not None) != (slot.game_state >= GameState.WAITING_PROOF):
            raise InvariantViolation("slot-challenged-entry", f"slot {(did, sid)}")
        if not slot.instant:
            pending += 1
            if state.pending_collects.get(slot.recipient_id) != (did, sid):
                raise InvariantViolation("pending-collects", f"slot {(did, sid)} not indexed")
        held += slot.held_funds
    if len(state.pending_collects) != pending:
        raise InvariantViolation(
            "pending-collects",
            f"{len(state.pending_collects)} indexed, {pending} non-instant slots",
        )
    for p in state.payments:
        if p.status == PaymentStatus.LOCKED and p.locking_key_hash is None:
            raise InvariantViolation("payment-lock", f"payment {p.pay_index}")
    if state.adapter.reserve != balances + state.escrow_pool + held:
        raise InvariantViolation(
            "conservation",
            f"reserve {state.adapter.reserve} != balances {balances} "
            f"+ pool {state.escrow_pool} + held {held}",
        )


def _game_world() -> World:
    """Slots in four game states, an instant slot, and a locked payment."""
    world = World()
    sellers = [world.seller] + [register(world.state, f"s{i}") for i in range(4)]
    for seller in sellers:
        world.pay([seller], per_destination=10)
    world.pay([world.seller], per_destination=3, unlocker_fee=1, locking_key_hash=b"\x07" * 32)
    world.mature()
    for slot_id, seller in enumerate(sellers[:4]):
        world.open_collect(slot_id, end=4, amount=10, recipient=seller)
    world.open_collect(40000, end=5, amount=10, recipient=sellers[4])
    state, d = world.state, world.delegate
    for slot_id in (1, 2, 3):
        challenge(state, d, slot_id, world.monitor)
    for slot_id in (2, 3):
        respond_with_payment_list(state, d, slot_id, [(slot_id + 1, 10)])
    select_payment(state, d, 3, 4, 10)
    return world


def _tamperings(world: World) -> list:
    d = world.delegate
    return [
        lambda s: setattr(s.accounts[1], "balance", -1),
        lambda s: setattr(s.accounts[2], "balance", U64_MAX + 1),
        lambda s: setattr(s.accounts[3], "last_collected_pay_index", len(s.payments) + 1),
        lambda s: setattr(s.accounts[0], "balance", s.accounts[0].balance + 1),
        lambda s: setattr(s, "escrow_pool", -1),
        lambda s: setattr(s.slots[(d, 1)], "slot_id", 9),
        lambda s: setattr(s.slots[(d, 0)], "game_state", GameState.EMPTY),
        lambda s: setattr(s.slots[(d, 2)], "held_funds", 1),
        lambda s: setattr(s.slots[(d, 1)], "game_state", GameState.WAITING_CHALLENGE),
        lambda s: setattr(s.slots[(d, 2)], "challenge_list", None),
        lambda s: setattr(s.slots[(d, 3)], "challenged_entry", None),
        lambda s: s.pending_collects.pop(world.seller),
        lambda s: s.pending_collects.__setitem__(world.buyer, (d, 0)),
        lambda s: setattr(s.payments[-1], "locking_key_hash", None),
        lambda s: setattr(s.adapter, "reserve", s.adapter.reserve - 1),
    ]


def _failure(check, state):
    try:
        check(state)
    except InvariantViolation as exc:
        return exc.invariant, str(exc)
    return None


def test_check_invariants_fails_like_the_reference_loop():
    # Same checks, same messages, and the first failure found is the same
    # one, for every single tampering and every pair of them.
    world = _game_world()
    world.state.check_invariants()
    tamperings = _tamperings(world)
    cases = [(t,) for t in tamperings] + list(itertools.combinations(tamperings, 2))
    found = set()
    for case in cases:
        state = copy.deepcopy(world.state)
        for tamper in case:
            tamper(state)
        expected = _failure(_reference_check, state)
        assert expected is not None
        assert _failure(ProtocolState.check_invariants, state) == expected
        found.add(expected[0])
    assert len(found) == 11, found
