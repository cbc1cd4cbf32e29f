"""Core state machine: accounts, deposits, clock, digests, invariants."""

from __future__ import annotations

import copy
import dataclasses
import gc
import importlib.util
import itertools
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.chainlog import (
    NEW_ACCOUNT_WIRE,
    ChainLog,
    ChallengeFailed,
    Challenged,
    ChallengeSucceeded,
    CollectOpened,
    Deposited,
    InclusionProved,
    ListResponded,
    PaymentSelected,
    SlotFreed,
)
from batchpay.errors import (
    AmountOutOfRange,
    BadProof,
    BadSignature,
    IllegalMove,
    InsufficientFunds,
    InvalidParameter,
    InvariantViolation,
    ProtocolError,
    TableFull,
    Unauthorized,
    UnknownAccount,
)
from batchpay.codec import encode_pay_data
from batchpay.collect import (
    challenge,
    challenge_success,
    collect,
    free_slot,
    prove_payment_inclusion,
    respond_with_payment_list,
    select_payment,
)
from batchpay.merkle import MerkleProof, merkle_prove, merkle_root
from batchpay.payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from batchpay.registration import bulk_register, claim_bulk_registration_id, register
from batchpay.replay import replay
from batchpay.sim.config import load_scenario_config
from batchpay.sim.oracle import LogView
from batchpay.sim.scenario import SimRun
from batchpay.state import (
    MAX_ACCOUNT_ID_SPACE,
    NEW_ACCOUNT,
    U64_MAX,
    CollectSlot,
    GameState,
    Params,
    PaymentStatus,
    ProtocolState,
    TokenAdapter,
    ensure_u64,
    instantiate,
)
from tests.conftest import World, small_params
from tests.test_acceptance import FuzzDriver

REPO = Path(__file__).resolve().parent.parent
ADVERSARIAL_CFG = REPO / "configs" / "adversarial.cfg"


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
    assert state.balances[first] == 30
    assert state.addresses[first] == "a"
    assert state.adapter.reserve == 70
    assert state.adapter.balance_of("a") == 70
    # the API's NEW_ACCOUNT is the wire sentinel, logged as it was passed
    assert NEW_ACCOUNT == NEW_ACCOUNT_WIRE
    assert state.log.records[-2:] == [
        Deposited(NEW_ACCOUNT_WIRE, 0, 30, "a"), Deposited(NEW_ACCOUNT_WIRE, 1, 40, "b"),
    ]


def test_deposit_existing_account_any_sender():
    state = fresh(funding=[("a", 100), ("b", 100)])
    acct = state.deposit(NEW_ACCOUNT, 10, "a")
    # anyone can top up an existing account
    state.deposit(acct, 25, "b")
    assert state.balances[acct] == 35


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
    # only the integer NEW_ACCOUNT opens an account; a look-alike is no id
    for ref in (True, float(NEW_ACCOUNT), str(NEW_ACCOUNT)):
        with pytest.raises(UnknownAccount, match=re.escape(f"account id must be an integer, got {ref!r}")):
            state.deposit(ref, 10, "a")
    assert state.addresses == [] and len(state.log) == 1


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
    assert state.balances[acct] == 50
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


def test_advance_past_u64_leaves_state_and_log_untouched():
    state = fresh()
    state.advance_block(U64_MAX)
    before = state.digest(), len(state.log)
    with pytest.raises(AmountOutOfRange):
        state.advance_block(1)
    assert (state.digest(), len(state.log)) == before
    assert state.current_block == U64_MAX


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
    state.balances[acct] += 1
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_escrow_pool_tampering_detected():
    state = fresh(funding=[("a", 100)])
    state.deposit(NEW_ACCOUNT, 40, "a")
    state.escrow_pool += 1
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_adapter_tracks_what_it_minted():
    adapter = TokenAdapter({"a": 10})
    adapter.mint("b", 7)
    adapter.deposit("a", 4)
    adapter.withdraw("b", 3)
    assert adapter.minted == 17
    assert adapter.total() == 17


def test_tampered_external_balance_breaks_supply():
    state = fresh(funding=[("a", 100), ("b", 5)])
    state.deposit(NEW_ACCOUNT, 40, "a")
    state.adapter.external["b"] += 1
    with pytest.raises(InvariantViolation) as caught:
        state.check_invariants()
    assert caught.value.invariant == "supply"


def test_tampered_reserve_breaks_supply():
    # The ledger is tampered with too, so reserve conservation still holds
    # and only the minted total can tell that a token appeared.
    state = fresh(funding=[("a", 100)])
    acct = state.deposit(NEW_ACCOUNT, 40, "a")
    state.adapter.reserve += 1
    state.balances[acct] += 1
    with pytest.raises(InvariantViolation) as caught:
        state.check_invariants()
    assert caught.value.invariant == "supply"


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
    """check_invariants as a plain loop over accounts, slots and open locks."""
    balances = 0
    for account_id, (balance, prefix) in enumerate(zip(state.balances, state.collected)):
        if balance < 0 or balance > U64_MAX:
            raise InvariantViolation("balance-range", f"account {account_id}")
        if prefix > len(state.payments):
            raise InvariantViolation("collected-prefix", f"account {account_id} past log end")
        balances += balance
    if state.escrow_pool < 0:
        raise InvariantViolation("conservation", "escrow pool negative")
    held = 0
    pending = 0
    for (did, sid), slot in state.slots.items():
        if (did, sid) != (slot.delegate_id, slot.slot_id):
            raise InvariantViolation("slot-key", f"slot {(did, sid)} mislabeled")
        if slot.game_state == GameState.EMPTY:
            raise InvariantViolation("slot-state", "empty slot present in map")
        if slot.game_state not in frozenset(GameState):
            raise InvariantViolation(
                "slot-state", f"slot {(did, sid)} game state {slot.game_state!r} outside GameState"
            )
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
    for p in state.open_locks.values():
        if p.status != PaymentStatus.LOCKED or p.locking_key_hash is None:
            raise InvariantViolation("payment-lock", f"payment {p.pay_index}")
    if state.adapter.reserve != balances + state.escrow_pool + held:
        raise InvariantViolation(
            "conservation",
            f"reserve {state.adapter.reserve} != balances {balances} "
            f"+ pool {state.escrow_pool} + held {held}",
        )
    if state.adapter.reserve + sum(state.adapter.external.values()) != state.adapter.minted:
        raise InvariantViolation(
            "supply",
            f"adapter holds {state.adapter.total()} != minted {state.adapter.minted}",
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
        lambda s: s.balances.__setitem__(1, -1),
        lambda s: s.balances.__setitem__(2, U64_MAX + 1),
        lambda s: s.collected.__setitem__(3, len(s.payments) + 1),
        lambda s: s.balances.__setitem__(0, s.balances[0] + 1),
        lambda s: setattr(s, "escrow_pool", -1),
        lambda s: setattr(s.slots[(d, 1)], "slot_id", 9),
        lambda s: setattr(s.slots[(d, 0)], "game_state", GameState.EMPTY),
        lambda s: setattr(s.slots[(d, 2)], "held_funds", 1),
        lambda s: setattr(s.slots[(d, 1)], "game_state", GameState.WAITING_CHALLENGE),
        lambda s: setattr(s.slots[(d, 2)], "challenge_list", None),
        lambda s: setattr(s.slots[(d, 3)], "challenged_entry", None),
        lambda s: setattr(s.slots[(d, 2)], "delegate_id", d + 1),
        lambda s: setattr(s.slots[(d, 0)], "game_state", 9),          # outside GameState
        lambda s: setattr(
            s.slots[(d, 0)], "held_funds", s.params.collect_stake + s.params.challenge_stake
        ),
        lambda s: s.pending_collects.pop(world.seller),
        lambda s: s.pending_collects.__setitem__(world.buyer, (d, 0)),
        lambda s: setattr(s.payments[-1], "locking_key_hash", None),
        lambda s: setattr(s.payments[-1], "status", PaymentStatus.COMMITTED),
        lambda s: setattr(s.adapter, "reserve", s.adapter.reserve - 1),
        lambda s: s.adapter.external.__setitem__("buyer", s.adapter.external["buyer"] + 1),
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
    assert len(found) == 12, found


def test_every_single_slot_write_fails_like_the_reference():
    # Each slot write is marked, so the check reads the written slot alone:
    # its rules must still judge it as the reference loop's walk does.
    world = _game_world()
    world.state.check_invariants()
    keys = list(world.state.slots)
    collect_stake, challenge_stake = world.params.collect_stake, world.params.challenge_stake
    stakes = (collect_stake, challenge_stake, collect_stake + challenge_stake)
    writes = [
        *(("game_state", g) for g in (*GameState, 9)),
        *(("held_funds", funds) for funds in (0, *stakes, stakes[0] + 1, stakes[2] + 1)),
        ("challenger_id", world.buyer), ("challenger_id", None),
        ("challenge_list", ((1, 10),)), ("challenge_list", None),
        ("challenged_entry", (1, 10)), ("challenged_entry", None),
        ("instant", "flip"),
        ("recipient_id", world.buyer),
    ]
    outcomes = {}
    for key, (name, value) in itertools.product(keys, writes):
        state = copy.deepcopy(world.state)
        slot = state.slots[key]
        setattr(slot, name, not slot.instant if value == "flip" else value)
        expected = _failure(_reference_check, state)
        assert _failure(ProtocolState.check_invariants, state) == expected, (key, name, value)
        outcomes[key, name, value] = expected and expected[0]
    assert len(outcomes) == 105
    assert all(outcomes[key, "game_state", 9] == "slot-state" for key in keys)
    assert None in outcomes.values() and len(set(outcomes.values())) > 5


def _twin(key, **change):
    """Swap the slot at ``key`` for a copy written with ``change``: the copy
    carries its state's marks, so its writes are marked as the original's."""
    def swap(s):
        twin = copy.copy(s.slots[key])
        for name, value in change.items():
            setattr(twin, name, value)
        s.slots[key] = twin
    return swap


def _unmarked_twin(key, **change):
    """Swap the slot at ``key`` for a copy built outside the engine, never marked."""
    def swap(s):
        s.slots[key] = dataclasses.replace(s.slots[key], **change)
    return swap


def _foreign_slot(s, key, **change):
    """A valid slot in WAITING_CHALLENGE that no engine op put in a map."""
    fields = dict(
        delegate_id=key[0], slot_id=key[1], recipient_id=1, start_pay_index=0,
        end_pay_index=1, amount=10, fee=0, destination_address=None,
        instant=key[1] > s.params.instant_slot_threshold,
        game_state=GameState.WAITING_CHALLENGE, deadline_block=s.current_block + 1,
        held_funds=s.params.collect_stake,
    )
    fields.update(change)
    return CollectSlot(**fields)


def _moved_pending(s, recipient):
    """Rebuild the index with ``recipient``'s entry moved to the end, or re-keyed."""
    index = dict(s.pending_collects)
    index[recipient] = index.pop(recipient)
    return index


def test_check_invariants_catches_map_tampering_its_marks_cannot_see():
    # The check reads only the slots written since its last call, plus whole
    # compares of the map and the index against what it saw. Writes to the
    # map itself are not slot writes: each must still fail as the reference
    # loop fails, or pass where the state is still valid.
    world = _game_world()
    world.state.check_invariants()
    d, seller, buyer = world.delegate, world.seller, world.buyer
    stake = world.params.collect_stake
    instant = (d, 40000)
    cases = {
        "delete pending slot": lambda s: s.slots.pop((d, 0)),
        "delete instant slot": lambda s: s.slots.pop(instant),
        "delete slot and its index entry": lambda s: (
            s.slots.pop((d, 0)), s.pending_collects.pop(seller)
        ),
        "insert instant slot": lambda s: s.slots.__setitem__(
            (d, 40001), _foreign_slot(s, (d, 40001))
        ),
        "insert indexed slot": lambda s: (
            s.slots.__setitem__((d, 7), _foreign_slot(s, (d, 7), recipient_id=buyer)),
            s.pending_collects.__setitem__(buyer, (d, 7)),
        ),
        "insert a slot off its shape": lambda s: s.slots.__setitem__(
            (d, 8), _foreign_slot(s, (d, 8), held_funds=stake + 1)
        ),
        "delete a slot, the engine reopens its key": lambda s: (
            s.slots.pop((d, 0)), s.pending_collects.pop(seller),
            collect(s, d, 0, seller, 4, 10, 0, world.authorize(d, 0, seller, 4, 10, 0)),
        ),
        "swap for a twin, amount changed": _twin((d, 0), amount=11),
        "swap for a twin, deadline changed": _twin((d, 2), deadline_block=99),
        "swap for a twin, held funds changed": _twin((d, 2), held_funds=1),
        "swap for a twin, key changed": _twin((d, 1), slot_id=9),
        "swap for a twin, made instant": _twin((d, 0), instant=True),
        "swap for a twin, proof accepted": _twin((d, 3), game_state=GameState.PROOF_ACCEPTED),
        "swap for a twin, emptied": _twin((d, 3), game_state=GameState.EMPTY),
        "swap for an unmarked twin, held funds changed": _unmarked_twin((d, 2), held_funds=1),
        "swap for an unmarked twin, challenger dropped": _unmarked_twin(
            (d, 1), challenger_id=None, held_funds=stake
        ),
        "swap two slots": lambda s: s.slots.update({(d, 0): s.slots[(d, 1)], (d, 1): s.slots[(d, 0)]}),
        "two marked slots name one recipient": lambda s: (
            setattr(s.slots[(d, 0)], "deadline_block", s.slots[(d, 0)].deadline_block),
            setattr(s.slots[(d, 1)], "recipient_id", s.slots[(d, 0)].recipient_id),
        ),
        "rebuild index equal": lambda s: setattr(s, "pending_collects", dict(s.pending_collects)),
        "rebuild index, one entry moved last": lambda s: setattr(
            s, "pending_collects", _moved_pending(s, seller)
        ),
        "rebuild index, one entry re-keyed": lambda s: setattr(
            s, "pending_collects",
            {(buyer if r == seller else r): key for r, key in s.pending_collects.items()},
        ),
    }
    outcomes = {}
    for name, tamper in cases.items():
        state = copy.deepcopy(world.state)
        tamper(state)
        expected = _failure(_reference_check, state)
        assert _failure(ProtocolState.check_invariants, state) == expected, name
        outcomes[name] = expected and expected[0]
    assert outcomes["swap for a twin, amount changed"] is None
    assert outcomes["swap for a twin, deadline changed"] is None
    assert outcomes["swap for a twin, proof accepted"] is None
    assert outcomes["rebuild index equal"] is None
    assert outcomes["rebuild index, one entry moved last"] is None
    assert outcomes["two marked slots name one recipient"] == "pending-collects"
    assert {"conservation", "pending-collects", "slot-held-funds", "slot-key", "slot-state",
            "slot-challenger"} <= set(outcomes.values())


def test_an_unmarked_valid_twin_fails_as_slot_marks():
    # A row swapped in by hand with nothing wrong in it passes a full walk,
    # but its writes would not be marked: the check names it, and does not
    # adopt it silently.
    world = _game_world()
    world.state.check_invariants()
    key = (world.delegate, 0)
    _unmarked_twin(key, amount=11)(world.state)
    assert _failure(_reference_check, world.state) is None
    with pytest.raises(InvariantViolation, match="disagree with a full walk") as caught:
        world.state.check_invariants()
    assert caught.value.invariant == "slot-marks"


def test_cells_written_outside_the_engine_fail_as_account_marks():
    # Each write here leaves a state a full walk passes, but not one the
    # engine's write sites made: a value column then disagrees with the
    # shadow those sites keep, or one column's length with the others', and
    # the check names that instead of adopting the write silently.
    world = _game_world()
    world.state.check_invariants()
    seller = world.seller

    def deposit_around_the_engine(s):
        # Tokens enter the reserve at the adapter and the balance is raised
        # by as much, so conservation and supply both still hold.
        s.adapter.mint("buyer", 7)
        s.adapter.deposit("buyer", 7)
        s.balances[world.buyer] += 7

    cases = {
        "deposit around the engine": deposit_around_the_engine,
        "prefix moved in range": lambda s: s.collected.__setitem__(seller, 1),
        # An id opened in one column alone, at a value the walk passes.
        "address column grown": lambda s: s.addresses.append("stray"),
        "balance column grown": lambda s: s.balances.append(0),
        "prefix column grown": lambda s: s.collected.append(0),
    }
    for name, tamper in cases.items():
        state = copy.deepcopy(world.state)
        state.check_invariants()
        tamper(state)
        assert _failure(_reference_check, state) is None, name
        with pytest.raises(InvariantViolation, match="disagree with their shadows") as caught:
            state.check_invariants()
        assert caught.value.invariant == "account-marks", name


def test_a_prefix_past_a_shortened_payment_list_is_named_without_a_cell_write():
    # Every cell still matches its shadow, but the payments under the
    # instant collect's prefix are gone: the check still walks and names the
    # prefix, as the reference loop does.
    world = _game_world()
    world.state.check_invariants()
    del world.state.payments[-2:]
    expected = _failure(_reference_check, world.state)
    assert expected is not None and expected[0] == "collected-prefix"
    assert _failure(ProtocolState.check_invariants, world.state) == expected


def test_a_state_is_freed_by_reference_counting_alone():
    # The account table is plain lists, and nothing a state holds refers
    # back to it, so no state sits in a reference cycle: with the collector
    # off, as the benchmark's timed phases run, dropping the last reference
    # frees it.
    gc.disable()
    try:
        world = _game_world()
        replayed, _ = replay(world.state.log)
        assert replayed.digest() == world.state.digest()
        refs = [weakref.ref(world.state), weakref.ref(replayed)]
        del world, replayed
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_slot_opened_and_closed_between_checks_leaves_no_mark():
    world = World()
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.state.check_invariants()
    world.open_collect(1, end=1, amount=10)
    slot = world.state.slots[(world.delegate, 1)]
    challenge(world.state, world.delegate, 1, world.monitor)
    assert list(world.state._slot_marks) == [slot]
    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 1)
    assert not world.state._slot_marks
    world.state.check_invariants()
    # A slot a check has seen is marked on its way out, so the next check drops it.
    world.open_collect(1, end=1, amount=10)
    world.state.check_invariants()
    slot = world.state.slots[(world.delegate, 1)]
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 1)
    assert list(world.state._slot_marks) == [slot]
    world.state.check_invariants()
    assert not world.state._slot_marks and not world.state._seen_slots


_SLOT_RECORDS = (
    CollectOpened, Challenged, ListResponded, PaymentSelected, InclusionProved,
    ChallengeSucceeded, ChallengeFailed, SlotFreed,
)


def _slot_work(config, monkeypatch) -> list[tuple[int, int, int]]:
    """Run ``config``; per block, (slots the check examined, distinct slot keys
    the block's records name, slots open). The keys come from the log alone."""
    def no_walk(self):
        raise AssertionError("the full slot walk ran on an untampered run")

    monkeypatch.setattr(ProtocolState, "_walk_slots", no_walk)
    run = SimRun(config)
    state, records = run.state, run.log.records
    check, rows, done = state.check_invariants, [], [len(records)]

    def counted_check():
        named = {(r.delegate_id, r.slot_id) for r in records[done[0]:] if isinstance(r, _SLOT_RECORDS)}
        done[0] = len(records)
        rows.append((len(state._slot_marks), len(named), len(state.slots)))
        check()

    state.check_invariants = counted_check
    run.run()
    assert len(rows) == run.state.current_block
    return rows


def test_check_invariants_examines_only_the_slots_a_block_writes(monkeypatch):
    rows = _slot_work(load_scenario_config(ADVERSARIAL_CFG), monkeypatch)
    assert all(examined <= named for examined, named, _ in rows), rows
    assert sum(examined for examined, _, _ in rows) < sum(open_ for _, _, open_ in rows) / 4
    # Honest traffic over 200 sellers: a block that writes no slot examines
    # none, although a challenge window's worth of slots stands open.
    config = load_scenario_config(REPO / "configs" / "honest.cfg")
    config.sellers, config.payees_max = 200, 50
    rows = _slot_work(config, monkeypatch)
    assert all(examined <= named for examined, named, _ in rows), rows
    quiet = [(examined, open_) for examined, named, open_ in rows if not named]
    assert quiet and all(examined == 0 for examined, _ in quiet)
    assert max(open_ for _, open_ in quiet) >= 100


def test_the_per_block_checks_read_no_account_row_one_by_one(monkeypatch):
    # Bulk registration makes the account table grow with the payees, not
    # the traffic. Over the bench's adversarial_bulk config (410 accounts),
    # neither check_invariants nor the oracle mirror reads an account cell
    # or a log-derived balance one by one on any block: each compares whole
    # columns. A tampered balance still makes both walk and name it.
    reading, reads = [False], [0]

    def counted(get):
        def read(*args):
            reads[0] += reading[0]
            return get(*args)
        return read

    class CountedColumn(list):
        """An account column that counts the cells read from it, by index or
        by walking it; a whole compare reads none through Python."""

        __getitem__ = counted(list.__getitem__)

        def __iter__(self):
            for cell in list.__iter__(self):
                reads[0] += reading[0]
                yield cell

    monkeypatch.setattr(LogView, "settled_balance", counted(LogView.settled_balance))
    per_call = []

    def during(check):
        def run_check(self):
            reading[0], reads[0] = True, 0
            try:
                return check(self)
            finally:
                reading[0] = False
                per_call.append(reads[0])
        return run_check

    monkeypatch.setattr(ProtocolState, "check_invariants", during(ProtocolState.check_invariants))
    monkeypatch.setattr(SimRun, "_assert_mirror", during(SimRun._assert_mirror))
    run = SimRun(load_scenario_config(REPO / "bench" / "adversarial_bulk.cfg"))
    for name in ("addresses", "balances", "collected"):
        setattr(run.state, name, CountedColumn(getattr(run.state, name)))
    run.run()
    assert len(run.state.addresses) > 400
    assert len(per_call) == 2 * run.state.current_block and not any(per_call)

    tampered = run.seller_ids[len(run.seller_ids) // 2]
    run.state.balances[tampered] += 1
    with pytest.raises(InvariantViolation) as caught:
        run.state.check_invariants()
    assert caught.value.invariant == "conservation"
    with pytest.raises(InvariantViolation, match=f"account {tampered}: ") as caught:
        run._assert_mirror()
    assert caught.value.invariant == "oracle-mirror"
    assert per_call[-2] > 400 and per_call[-1] > tampered      # both walked, and were counted


# -- the state image against the hand-written layout --------------------------


def _reference_canonical_bytes(state) -> bytes:
    """The state image as it was written out field by field before the
    layouts were declared; the declared layouts must match it byte for byte."""

    def u16(v):
        return v.to_bytes(2, "little")

    def u32(v):
        return v.to_bytes(4, "little")

    def u64(v):
        return v.to_bytes(8, "little")

    def pack_str(text):
        raw = text.encode("utf-8")
        return u16(len(raw)) + raw

    params = state.params
    out = bytearray(b"BPSTATE\x01")
    for value in (
        params.max_account_count, params.unlock_period, params.challenge_period,
        params.response_period, params.collect_stake, params.challenge_stake,
        params.max_payments_per_batch, params.instant_slot_threshold,
    ):
        out += u64(value)
    out += state.instance_id
    out += u64(state.current_block)
    out += u64(state.adapter.reserve)
    out += u64(state.escrow_pool)
    out += u32(len(state.adapter.external))
    for addr in sorted(state.adapter.external):
        out += pack_str(addr) + u64(state.adapter.external[addr])
    out += u32(len(state.addresses))
    for account_id, address in enumerate(state.addresses):
        out += u32(account_id)
        out += b"\x01" + pack_str(address) if address is not None else b"\x00"
        out += u64(state.balances[account_id]) + u64(state.collected[account_id])
    out += u32(len(state.payments))
    for p in state.payments:
        out += u32(p.from_id) + u64(p.per_destination) + u32(p.payee_count)
        out += p.pay_data_digest
        out += u64(p.total_escrow) + u64(p.unlocker_fee)
        out += bytes([p.status])
        out += b"\x01" + p.locking_key_hash if p.locking_key_hash else b"\x00"
        out += u64(p.registered_at_block) + u64(p.collectable_from_block)
    out += u32(len(state.bulks))
    for b in state.bulks:
        out += u32(b.bulk_id) + u32(b.first_id) + u32(b.count) + b.root
        out += u64(b.registered_at_block)
    out += u32(len(state.slots))
    for key in sorted(state.slots):
        s = state.slots[key]
        out += u32(s.delegate_id) + u16(s.slot_id) + u32(s.recipient_id)
        out += u64(s.start_pay_index) + u64(s.end_pay_index)
        out += u64(s.amount) + u64(s.fee)
        out += b"\x01" + pack_str(s.destination_address) if s.destination_address is not None else b"\x00"
        out += bytes([int(s.instant), s.game_state])
        out += u64(s.deadline_block) + u64(s.held_funds)
        out += b"\x01" + u32(s.challenger_id) if s.challenger_id is not None else b"\x00"
        if s.challenge_list is not None:
            out += b"\x01" + u32(len(s.challenge_list))
            for idx, amt in s.challenge_list:
                out += u64(idx) + u64(amt)
        else:
            out += b"\x00"
        if s.challenged_entry is not None:
            out += b"\x01" + u64(s.challenged_entry[0]) + u64(s.challenged_entry[1])
        else:
            out += b"\x00"
    return bytes(out)


@pytest.mark.parametrize("all_lazy", [False, True], ids=["adversarial", "all-lazy-insolvent"])
def test_state_image_matches_the_reference_at_every_block(all_lazy):
    config = load_scenario_config(ADVERSARIAL_CFG)
    if all_lazy:
        config.lazy_monitor_fraction = 1.0
    run = SimRun(config)
    step = run.run_block
    images = set()

    def checked_block():
        step()
        image = run.state.canonical_bytes()
        assert image == _reference_canonical_bytes(run.state), run.state.current_block
        images.add(image)

    assert run.state.canonical_bytes() == _reference_canonical_bytes(run.state)
    run.run_block = checked_block
    run.run()
    assert len(images) == run.state.current_block > config.blocks
    assert run.state.bulks and run.state.payments
    if all_lazy:
        assert run.insolvency_events > 0


def test_state_image_matches_the_reference_after_every_fuzz_op():
    # Seed 1039 is the one of 1001..1050 whose slots pass through every game
    # state, so every optional slot field is imaged present and absent.
    fuzz = FuzzDriver(1039)
    seen = set()
    for _ in range(2000):
        op = fuzz.pick()
        try:
            op()
        except ProtocolError:
            pass
        state = fuzz.state
        assert state.canonical_bytes() == _reference_canonical_bytes(state), op.__name__
        seen.update(slot.game_state for slot in state.slots.values())
    assert seen == set(GameState) - {GameState.EMPTY}


def _bench_module(name: str):
    """``bench/<name>.py``, loaded by path: the benchmark is no package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_state_image_matches_the_reference_on_the_canonical_replay():
    # The end state of the benchmark's replay_canonical workload, rebuilt
    # from its log: 1,002 accounts and 1,000 payments of 1,000 payees.
    workloads = _bench_module("workloads")
    state, _ = replay(ChainLog.load(workloads.build_canonical_log(1).blob))
    assert len(state.payments) == workloads.BATCHES
    assert state.canonical_bytes() == _reference_canonical_bytes(state)


def test_every_name_the_bench_tracer_wraps_exists():
    # The tracer wraps these by name from outside the package, so a rename
    # here would otherwise surface only in a traced benchmark run.
    tracer = _bench_module("tracer")
    for owner, attr, *_ in tracer.OPS + tracer.SPANS + tracer.LEAVES:
        if isinstance(owner, type):
            assert attr in vars(owner), (owner.__name__, attr)
        else:
            assert hasattr(owner, attr), (owner.__name__, attr)


# -- rejections of bad input and of uncovered payouts ------------------------------


def _looted_world():
    """A world whose escrow pool an unchallenged overstated collect emptied.

    Returns the world's state and a locked payment inside its unlock window,
    with its unlocker and key: the empty pool can pay neither its fee nor,
    once the window closes, its refund.
    """
    world = World(params=small_params(unlock_period=20))
    unlocker = register(world.state, "unlocker")
    paid = world.pay([world.seller], per_destination=10)
    world.mature()
    key = b"key"
    locked = world.pay(
        [world.seller], locking_key_hash=locking_key_hash(unlocker, key), unlocker_fee=5
    )
    world.open_collect(0, paid, world.state.escrow_pool)     # owed 10 of the pool's 16
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 0)
    assert world.state.escrow_pool == 0
    return world, locked, unlocker, key


def _rejected_key_hash_length():
    world = World()
    data = encode_pay_data([world.seller])
    return world.state, lambda: register_payment(
        world.state, world.buyer, 1, data, "buyer", locking_key_hash=b"\x01" * 31
    )


def _rejected_payment(**change):
    """``register_payment`` of one valid locked payment, with ``change`` applied."""
    def build():
        world = World()
        args = dict(
            pay_data=encode_pay_data([world.seller]), locking_key_hash=b"\x01" * 32, unlocker_fee=1
        )
        args.update(change)
        return world.state, lambda: register_payment(
            world.state, world.buyer, 1, sender="buyer", **args
        )
    return build


def _rejected_unlock_fee():
    world, locked, unlocker, key = _looted_world()
    return world.state, lambda: unlock(world.state, locked, unlocker, key)


def _rejected_refund():
    world, locked, _, _ = _looted_world()
    world.advance(world.params.unlock_period)
    return world.state, lambda: refund_locked_payment(world.state, locked)


def _rejected_refund_past_u64():
    # The buyer's balance is raised to the top behind the engine's back, so
    # crediting the 4-token refund would leave it past the u64 range.
    world = World()
    locked = world.pay(
        [world.seller], per_destination=3, unlocker_fee=1, locking_key_hash=b"\x07" * 32
    )
    world.mature()
    world.state.balances[world.buyer] = U64_MAX
    return world.state, lambda: refund_locked_payment(world.state, locked)


def _rejected_payment_past_pool():
    world = World()
    world.state.escrow_pool = U64_MAX
    return world.state, lambda: world.pay([world.seller])


def _rejected_settlement():
    world = World()
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=50)                  # the pool only holds 5
    world.advance(world.params.challenge_period)
    return world.state, lambda: free_slot(world.state, world.delegate, 1)


def _rejected_unstaked_challenge():
    world = World()
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=5)
    poor = register(world.state, "poor")
    return world.state, lambda: challenge(world.state, world.delegate, 1, poor)


def _rejected_instant_advance():
    world = World()
    world.pay([world.seller], per_destination=200_000)
    world.mature()                                           # the delegate holds 100,000
    return world.state, lambda: world.open_collect(40000, end=1, amount=200_000)


_FIRST_ID = object()


def _rejected_claim(
    address="late-0", bulk_id=None, proof=merkle_prove(["late-0", "late-1"], 0),
    addresses=("late-0", "late-1"), account_id=_FIRST_ID,
):
    """A claim of the first id of a bulk of ``addresses``, as bulk ``bulk_id``
    and as account ``account_id`` if given."""
    def build():
        world = World()
        registered = bulk_register(world.state, len(addresses), merkle_root(list(addresses)))
        first_id = world.state.bulks[registered].first_id
        return world.state, lambda: claim_bulk_registration_id(
            world.state, registered if bulk_id is None else bulk_id,
            first_id if account_id is _FIRST_ID else account_id, address, proof,
        )
    return build


# One character over what a log record's u16 length prefix can carry, and
# the same byte length reached with multi-byte characters.
LONG_ADDRESS = "a" * 65_536
LONG_WIDE_ADDRESS = "\u00e9" * 32_768


def _rejected_deposit_from_long_address(account):
    def build():
        world = World()
        ref = NEW_ACCOUNT if account == "new" else world.buyer
        return world.state, lambda: world.state.deposit(ref, 10, LONG_ADDRESS)
    return build


def _rejected_collect_destination():
    world = World()
    world.pay([world.seller], per_destination=5)
    world.mature()
    # A destination this long cannot be signed for either; any 32 bytes do.
    return world.state, lambda: collect(
        world.state, world.delegate, 1, world.seller, 1, 5, 0, bytes(32),
        destination_address=LONG_ADDRESS,
    )


def _world_op(op):
    def build():
        world = World()
        return world.state, lambda: op(world)
    return build


def _looted_op(op):
    """``op(state, unlocker, key)`` on a ``_looted_world``: two payments, one locked."""
    def build():
        world, _, unlocker, key = _looted_world()
        return world.state, lambda: op(world.state, unlocker, key)
    return build


def _challenged_slot(*disclosed):
    """Slot 1 claiming the 10 payment 1 owes the seller, challenged; its
    range is (0, 1]. With ``disclosed`` entries the delegate has responded."""
    world = World()
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(1, end=1, amount=10)
    challenge(world.state, world.delegate, 1, world.monitor)
    if disclosed:
        respond_with_payment_list(world.state, world.delegate, 1, list(disclosed))
    return world


def _rejected_fractional_list_index():
    world = _challenged_slot()
    return world.state, lambda: respond_with_payment_list(
        world.state, world.delegate, 1, [(0.5, 10)]
    )


def _rejected_float_selection():
    world = _challenged_slot((1, 10))
    return world.state, lambda: select_payment(world.state, world.delegate, 1, 1.0, 10)


def _rejected_collect_authorization(authorization):
    def build():
        world = World()
        world.pay([world.seller], per_destination=5)
        world.mature()
        return world.state, lambda: collect(
            world.state, world.delegate, 1, world.seller, 1, 5, 0, authorization
        )
    return build


def _rejected_list(pairs):
    def build():
        world = _challenged_slot()
        return world.state, lambda: respond_with_payment_list(
            world.state, world.delegate, 1, pairs
        )
    return build


def _rejected_proof(pay_data):
    def build():
        world = _challenged_slot((1, 10))
        select_payment(world.state, world.delegate, 1, 1, 10)
        return world.state, lambda: prove_payment_inclusion(
            world.state, world.delegate, 1, pay_data
        )
    return build


def _rejected_float_slot_id():
    world = World()
    world.pay([world.seller], per_destination=5)
    world.mature()
    return world.state, lambda: collect(
        world.state, world.delegate, 1.5, world.seller, 1, 5, 0, bytes(32)
    )


def _rejected_slot_key(move, key):
    """``move`` on slot 1, which the buyer (account 0) delegates, made legal (a
    ``collect`` finds it occupied) and then named by ``key``: it equals (0, 1), so
    a lookup that took it untyped finds the slot."""
    def build():
        world = World()
        world.pay([world.seller], per_destination=10)
        world.mature()
        world.open_collect(1, end=1, amount=10, delegate=world.buyer)
        state = world.state
        if move == "challenge":
            return state, lambda: challenge(state, *key, world.monitor)
        if move == "free_slot":
            world.advance(world.params.challenge_period)
            return state, lambda: free_slot(state, *key)
        if move == "collect":
            return state, lambda: collect(state, *key, world.seller, 1, 10, 0, bytes(32))
        challenge(state, world.buyer, 1, world.monitor)
        return state, lambda: respond_with_payment_list(state, *key, [(1, 10)])
    return build


def _rejected_bulk_past_table():
    # Without the pre-check, allocation stops at the limit only after three new ids.
    state = instantiate(small_params(max_account_count=3))
    return state, lambda: bulk_register(state, 5, merkle_root(["a", "b", "c", "d", "e"]))


SLOT_KEY_MOVES = ("challenge", "free_slot", "respond", "collect")
ILL_TYPED_SLOT_KEYS = (
    ("delegate-float", (0.0, 1), UnknownAccount, "account id must be an integer, got 0.0"),
    ("delegate-bool", (False, 1), UnknownAccount, "account id must be an integer, got False"),
    ("slot-float", (0, 1.0), InvalidParameter, "slot id must be an integer, got 1.0"),
    ("slot-bool", (0, True), InvalidParameter, "slot id must be an integer, got True"),
)
SIBLINGS = merkle_prove(["late-0", "late-1"], 0).siblings


@pytest.mark.parametrize(
    "build, error, message",
    [
        *((_rejected_slot_key(move, key), error, message)
          for move in SLOT_KEY_MOVES for _, key, error, message in ILL_TYPED_SLOT_KEYS),
        (_rejected_claim(proof=MerkleProof(0.0, ()), addresses=("late-0",)), InvalidParameter,
         "proof leaf index must be an integer, got 0.0"),
        (_rejected_claim(proof=MerkleProof(0.0, SIBLINGS)), InvalidParameter,
         "proof leaf index must be an integer, got 0.0"),
        (_rejected_claim(proof=MerkleProof(False, SIBLINGS)), InvalidParameter,
         "proof leaf index must be an integer, got False"),
        (_rejected_claim(proof=MerkleProof(0, None)), InvalidParameter,
         "proof siblings must be a tuple or list, got NoneType"),
        (_rejected_bulk_past_table, TableFull, "bulk of 5 exceeds account limit 3"),
        (_rejected_key_hash_length, InvalidParameter, "locking key hash must be 32 bytes"),
        (_rejected_payment(locking_key_hash="a" * 32), InvalidParameter,
         "locking key hash must be bytes-like, got str"),
        (_rejected_payment(locking_key_hash=[1] * 32), InvalidParameter,
         "locking key hash must be bytes-like, got list"),
        (_rejected_payment(pay_data=None), InvalidParameter, "pay data must be bytes-like, got NoneType"),
        (_rejected_payment(pay_data=7), InvalidParameter, "pay data must be bytes-like, got int"),
        (_rejected_payment(pay_data="\x00" * 8), InvalidParameter,
         "pay data must be bytes-like, got str"),
        (_rejected_unlock_fee, IllegalMove, "escrow pool cannot cover the unlocker fee"),
        (_rejected_refund, IllegalMove, "escrow pool cannot cover the refund"),
        (_rejected_refund_past_u64, AmountOutOfRange,
         "balance of account 0 18446744073709551619 outside unsigned 64-bit range"),
        (_rejected_payment_past_pool, AmountOutOfRange,
         "escrow pool 18446744073709551616 outside unsigned 64-bit range"),
        (_rejected_settlement, IllegalMove, "escrow pool cannot cover the settlement"),
        (_world_op(lambda w: register(w.state, "")), InvalidParameter, "address must be non-empty"),
        (_rejected_claim(""), InvalidParameter, "address must be non-empty"),
        (_world_op(lambda w: register(w.state, LONG_ADDRESS)), InvalidParameter,
         "address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: register(w.state, LONG_WIDE_ADDRESS)), InvalidParameter,
         "address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: register(w.state, "bad-\udc80")), InvalidParameter,
         "address is not encodable as UTF-8"),
        (_rejected_claim(LONG_ADDRESS), InvalidParameter,
         "address is longer than 65535 UTF-8 bytes"),
        (_rejected_deposit_from_long_address("new"), InvalidParameter,
         "depositor address is longer than 65535 UTF-8 bytes"),
        (_rejected_deposit_from_long_address("existing"), InvalidParameter,
         "depositor address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: w.state.withdraw(w.buyer, 1, LONG_ADDRESS, "buyer")), InvalidParameter,
         "withdrawal address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: w.state.withdraw(w.buyer, 1, "", "buyer")), InvalidParameter,
         "withdrawal address must be non-empty"),
        (_rejected_collect_destination, InvalidParameter,
         "destination address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: w.state.deposit(w.buyer, 1.5, "buyer")), InvalidParameter,
         "deposit amount must be an integer"),
        (_world_op(lambda w: w.state.withdraw("0", 1, "out", "buyer")), UnknownAccount,
         "account id must be an integer, got '0'"),
        (_world_op(lambda w: w.state.withdraw(w.buyer, 0, "out", "buyer")), InvalidParameter,
         "withdraw amount must be positive"),
        (_rejected_unstaked_challenge, InsufficientFunds, "account 4 balance 0 < 50"),
        (_rejected_instant_advance, InsufficientFunds, "account 2 balance 100000 < 200100"),
        (_world_op(lambda w: w.pay([w.seller], per_destination=1_000_001)), InsufficientFunds,
         "account 0 balance 1000000 < 1000001"),
        (_world_op(lambda w: w.state.withdraw(w.buyer, 1_000_001, "out", "buyer")),
         InsufficientFunds, "account 0 balance 1000000 < 1000001"),
        (_rejected_fractional_list_index, InvalidParameter,
         "list entry payment index must be an integer"),
        (_rejected_float_selection, InvalidParameter, "selected payment index must be an integer"),
        (_looted_op(lambda s, u, k: s.payment(1.5)), UnknownAccount,
         "payment index must be an integer, got 1.5"),
        (_looted_op(lambda s, u, k: s.payment(True)), UnknownAccount,
         "payment index must be an integer, got True"),
        (_looted_op(lambda s, u, k: unlock(s, 1.5, u, k)), UnknownAccount,
         "payment index must be an integer, got 1.5"),
        (_looted_op(lambda s, u, k: refund_locked_payment(s, 1.5)), UnknownAccount,
         "payment index must be an integer, got 1.5"),
        (_rejected_float_slot_id, InvalidParameter, "slot id must be an integer, got 1.5"),
        (_world_op(lambda w: bulk_register(w.state, 1.5, bytes(32))), InvalidParameter,
         "bulk count must be an integer, got 1.5"),
        (_world_op(lambda w: register(w.state, 5)), InvalidParameter,
         "address must be a string, got 5"),
        (_world_op(lambda w: w.state.withdraw(w.buyer, 1, 5, "buyer")), InvalidParameter,
         "withdrawal address must be a string, got 5"),
        (_world_op(lambda w: w.state.deposit(w.buyer, 1, 5)), InvalidParameter,
         "depositor address must be a string, got 5"),
        (_world_op(lambda w: bulk_register(w.state, 3, "r" * 32)), InvalidParameter,
         "root must be bytes-like, got str"),
        (_world_op(lambda w: bulk_register(w.state, 3, [1] * 32)), InvalidParameter,
         "root must be bytes-like, got list"),
        (_rejected_claim(bulk_id=0.0), UnknownAccount, "bulk id must be an integer, got 0.0"),
        (_rejected_claim(bulk_id=False), UnknownAccount, "bulk id must be an integer, got False"),
        (_rejected_claim(proof=None), InvalidParameter, "proof must be a MerkleProof, got NoneType"),
        (_rejected_claim(proof=b"xx"), InvalidParameter, "proof must be a MerkleProof, got bytes"),
        (_rejected_claim(proof=MerkleProof(0, (None,))), BadProof,
         "inclusion proof does not verify against the bulk root"),
        (_rejected_claim(proof=MerkleProof(0, ("a" * 32,))), BadProof,
         "inclusion proof does not verify against the bulk root"),
        (_rejected_collect_authorization("a" * 32), InvalidParameter,
         "collect authorization must be bytes-like, got str"),
        (_rejected_collect_authorization(None), InvalidParameter,
         "collect authorization must be bytes-like, got NoneType"),
        (_rejected_collect_authorization(bytes(31)), BadSignature,
         "collect authorization does not verify"),
        (_looted_op(lambda s, u, k: unlock(s, 2, u, k.decode())), InvalidParameter,
         "unlock key must be bytes-like, got str"),
        (_looted_op(lambda s, u, k: unlock(s, 2, u, None)), InvalidParameter,
         "unlock key must be bytes-like, got NoneType"),
        (_rejected_proof("\x00" * 8), InvalidParameter, "pay data must be bytes-like, got str"),
        (_rejected_proof(None), InvalidParameter, "pay data must be bytes-like, got NoneType"),
        (_rejected_list(None), InvalidParameter, "payment list must be (payment index, amount) pairs"),
        (_rejected_list([(1,)]), InvalidParameter,
         "payment list must be (payment index, amount) pairs"),
        (_rejected_list([(1, 10, 0)]), InvalidParameter,
         "payment list must be (payment index, amount) pairs"),
        (_rejected_list([1]), InvalidParameter, "payment list must be (payment index, amount) pairs"),
        (_world_op(lambda w: w.state.advance_block(True)), InvalidParameter,
         "blocks to advance must be an integer, got True"),
        (_world_op(lambda w: w.state.advance_block(1.0)), InvalidParameter,
         "blocks to advance must be an integer, got 1.0"),
        *((_rejected_claim(account_id=account_id), UnknownAccount,
           f"account id must be an integer, got {account_id!r}")
          for account_id in ("1", None, [1], {1: 1}, b"\x01", 1.0)),
        (_rejected_claim(proof=MerkleProof(0, (bytes(32),) * 65_536)), BadProof,
         "proof has 65536 siblings, more than 65535"),
    ],
    ids=[*(f"{move}-{name}" for move in SLOT_KEY_MOVES for name, *_ in ILL_TYPED_SLOT_KEYS),
         "claim-one-leaf-index-float", "claim-leaf-index-float", "claim-leaf-index-bool",
         "claim-siblings-none", "bulk-past-table",
         "key-hash-length", "key-hash-str", "key-hash-int-list", "pay-data-none",
         "pay-data-int", "pay-data-str", "unlock-fee-uncovered", "refund-uncovered",
         "refund-balance-past-u64", "payment-pool-past-u64", "settlement-uncovered",
         "register-no-address", "claim-no-address", "register-long-address",
         "register-long-wide-address", "register-surrogate-address", "claim-long-address", "deposit-new-long-address",
         "deposit-existing-long-address", "withdraw-long-address", "withdraw-no-address",
         "collect-long-destination",
         "amount-not-int", "account-id-not-int", "withdraw-zero",
         "challenge-unstaked", "instant-advance-uncovered", "payment-past-balance",
         "withdraw-past-balance", "list-index-fractional", "selection-float",
         "payment-index-float", "payment-index-bool", "unlock-index-float",
         "refund-index-float", "collect-slot-id-float", "bulk-count-float",
         "register-address-not-str", "withdraw-address-not-str", "deposit-address-not-str",
         "bulk-root-str", "bulk-root-int-list", "claim-bulk-id-float", "claim-bulk-id-bool",
         "claim-proof-none", "claim-proof-bytes", "claim-sibling-none", "claim-sibling-str",
         "collect-auth-str", "collect-auth-none", "collect-auth-short", "unlock-key-str",
         "unlock-key-none", "prove-pay-data-str", "prove-pay-data-none", "list-none",
         "list-entry-single", "list-entry-triple", "list-entry-int", "advance-bool",
         "advance-float", "claim-account-id-str", "claim-account-id-none", "claim-account-id-list",
         "claim-account-id-dict", "claim-account-id-bytes", "claim-account-id-float",
         "claim-proof-past-u16"],
)
def test_rejection_names_its_cause_and_writes_nothing(build, error, message):
    state, op = build()
    before = state.digest(), len(state.log)
    with pytest.raises(error, match=re.escape(message)):
        op()
    assert (state.digest(), len(state.log)) == before
