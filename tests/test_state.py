"""Core state machine: accounts, deposits, clock, digests, invariants."""

from __future__ import annotations

import copy
import importlib.util
import itertools
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.chainlog import ChainLog
from batchpay.errors import (
    AmountOutOfRange,
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
    collect,
    free_slot,
    respond_with_payment_list,
    select_payment,
)
from batchpay.merkle import merkle_prove, merkle_root
from batchpay.payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from batchpay.registration import bulk_register, claim_bulk_registration_id, register
from batchpay.replay import replay
from batchpay.sim.config import load_scenario_config
from batchpay.sim.scenario import SimRun
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
    state.accounts[acct].balance += 1
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
    state.accounts[acct].balance += 1
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
    out += u32(len(state.accounts))
    for a in state.accounts:
        out += u32(a.account_id)
        out += b"\x01" + pack_str(a.address) if a.address is not None else b"\x00"
        out += u64(a.balance) + u64(a.last_collected_pay_index)
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
        assert image == _reference_canonical_bytes(run.state), run.blocks_run
        images.add(image)

    assert run.state.canonical_bytes() == _reference_canonical_bytes(run.state)
    run.run_block = checked_block
    run.run()
    assert len(images) == run.blocks_run > config.blocks
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


def test_state_image_matches_the_reference_on_the_canonical_replay():
    # The end state of the benchmark's replay_canonical workload, rebuilt
    # from its log: 1,002 accounts and 1,000 payments of 1,000 payees.
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    state, _ = replay(ChainLog.load(workloads.build_canonical_log(1).blob))
    assert len(state.payments) == workloads.BATCHES
    assert state.canonical_bytes() == _reference_canonical_bytes(state)


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


def _rejected_unlock_fee():
    world, locked, unlocker, key = _looted_world()
    return world.state, lambda: unlock(world.state, locked, unlocker, key)


def _rejected_refund():
    world, locked, _, _ = _looted_world()
    world.advance(world.params.unlock_period)
    return world.state, lambda: refund_locked_payment(world.state, locked)


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


def _rejected_claim_address(address):
    def build():
        world = World()
        addresses = ["late-0", "late-1"]
        bulk_id = bulk_register(world.state, 2, merkle_root(addresses))
        first_id = world.state.bulks[bulk_id].first_id
        proof = merkle_prove(addresses, 0)
        return world.state, lambda: claim_bulk_registration_id(
            world.state, bulk_id, first_id, address, proof
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


@pytest.mark.parametrize(
    "build, error, message",
    [
        (_rejected_key_hash_length, InvalidParameter, "locking key hash must be 32 bytes"),
        (_rejected_unlock_fee, IllegalMove, "escrow pool cannot cover the unlocker fee"),
        (_rejected_refund, IllegalMove, "escrow pool cannot cover the refund"),
        (_rejected_settlement, IllegalMove, "escrow pool cannot cover the settlement"),
        (_world_op(lambda w: register(w.state, "")), InvalidParameter, "address must be non-empty"),
        (_rejected_claim_address(""), InvalidParameter, "address must be non-empty"),
        (_world_op(lambda w: register(w.state, LONG_ADDRESS)), InvalidParameter,
         "address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: register(w.state, LONG_WIDE_ADDRESS)), InvalidParameter,
         "address is longer than 65535 UTF-8 bytes"),
        (_world_op(lambda w: register(w.state, "bad-\udc80")), InvalidParameter,
         "address is not encodable as UTF-8"),
        (_rejected_claim_address(LONG_ADDRESS), InvalidParameter,
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
    ],
    ids=["key-hash-length", "unlock-fee-uncovered", "refund-uncovered", "settlement-uncovered",
         "register-no-address", "claim-no-address", "register-long-address",
         "register-long-wide-address", "register-surrogate-address", "claim-long-address", "deposit-new-long-address",
         "deposit-existing-long-address", "withdraw-long-address", "withdraw-no-address",
         "collect-long-destination",
         "amount-not-int", "account-id-not-int", "withdraw-zero",
         "challenge-unstaked", "instant-advance-uncovered", "payment-past-balance",
         "withdraw-past-balance"],
)
def test_rejection_names_its_cause_and_writes_nothing(build, error, message):
    state, op = build()
    before = state.digest(), len(state.log)
    with pytest.raises(error, match=re.escape(message)):
        op()
    assert (state.digest(), len(state.log)) == before
