"""Shadow ledger built from the log alone, checked against the engine."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay import replay
from batchpay.chainlog import RECORD_TYPES, ChainLog, PaymentRegistered, Record, Refunded, Unlocked
from batchpay.codec import decode_pay_data, encode_pay_data
from batchpay.collect import (
    challenge,
    challenge_success,
    free_slot,
    respond_with_payment_list,
)
from batchpay.errors import InvalidParameter
from batchpay.payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from batchpay.registration import register
from batchpay.sim import SimRun, view_of
from batchpay.sim.config import load_scenario_config
from batchpay.sim import oracle
from batchpay.sim.oracle import LogView, find_inflated_entry, monitor_verdict, oracle_balance
from batchpay.state import GameState, PaymentStatus
from tests.conftest import World

ADVERSARIAL_CFG = __file__.rsplit("/", 2)[0] + "/configs/adversarial.cfg"


def test_hand_traced_single_payment():
    # one payment of 7 to the seller: worked through by hand below
    world = World()
    world.pay([world.seller], per_destination=7)
    view = view_of(world.state.log)
    # before maturity nothing is collectable and nothing settled
    assert view.mature_end() == 0
    assert view.settled_balance(world.seller) == 0
    assert view.oracle_balance(world.seller) == 0

    world.mature()
    view = view_of(world.state.log)
    # matured: entitlement 1 occurrence x 7 = 7, still unsettled
    assert view.mature_end() == 1
    assert view.entitlement(world.seller, 0, 1) == 7
    assert view.collectable(world.seller) == 7
    assert view.oracle_balance(world.seller) == 7
    assert view.settled_balance(world.seller) == 0

    # collect with fee 2 and settle: seller nets 7 - 2 = 5
    world.open_collect(1, end=1, amount=7, fee=2)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 1)
    view = view_of(world.state.log)
    assert view.settled_balance(world.seller) == 5
    assert view.collectable(world.seller) == 0
    assert view.oracle_balance(world.seller) == 5
    assert world.balance(world.seller) == 5


def test_view_mirrors_engine_balances_through_a_mixed_run():
    world = World()
    unlocker = register(world.state, "unlocker")
    other = register(world.state, "other-seller")

    world.pay([world.seller, other], per_destination=3)
    locked = register_payment(
        world.state, world.buyer, 8, encode_pay_data([other]), "buyer",
        locking_key_hash=locking_key_hash(unlocker, b"k1"), unlocker_fee=2,
    )
    doomed = register_payment(
        world.state, world.buyer, 4, encode_pay_data([world.seller]), "buyer",
        locking_key_hash=locking_key_hash(unlocker, b"k2"), unlocker_fee=1,
    )
    unlock(world.state, locked, unlocker, b"k1")
    world.mature()
    refund_locked_payment(world.state, doomed)
    world.open_collect(2, end=2, amount=3, fee=1)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 2)

    view = view_of(world.state.log)
    for account in (world.buyer, world.seller, world.delegate, unlocker, other):
        assert view.settled_balance(account) == world.balance(account)
    # the collectable amounts ride on top of the mirrored balances
    assert view.oracle_balance(other) == world.balance(other) + 3 + 8


def test_view_tracks_instant_collect_and_loss():
    world = World()
    world.pay([world.seller], per_destination=10)
    world.mature()
    world.open_collect(40000, end=1, amount=14)  # overstated instant
    view = view_of(world.state.log)
    assert view.settled_balance(world.seller) == 14
    assert view.collectable(world.seller) == 0  # prefix advanced at open

    challenge(world.state, world.delegate, 40000, world.monitor)
    world.advance(world.params.response_period)
    challenge_success(world.state, world.delegate, 40000)
    view = view_of(world.state.log)
    for account in (world.seller, world.delegate, world.monitor):
        assert view.settled_balance(account) == world.balance(account)
    assert view.oracle_balance(world.seller) == 14


def test_incremental_feed_matches_fresh_build(world):
    view = view_of(world.state.log)
    world.pay([world.seller], per_destination=6)
    world.mature()
    view.feed(world.state.log)  # consume only the new records
    world.open_collect(1, end=1, amount=6)
    world.advance(world.params.challenge_period)
    free_slot(world.state, world.delegate, 1)
    view.feed(world.state.log)
    fresh = view_of(world.state.log)
    for account in (world.buyer, world.seller, world.delegate):
        assert view.settled_balance(account) == fresh.settled_balance(account)
        assert view.oracle_balance(account) == fresh.oracle_balance(account)


def test_entitlement_window_edges(world):
    other = register(world.state, "other")
    world.pay([world.seller], per_destination=2)   # 1
    world.pay([other], per_destination=9)          # 2
    world.pay([world.seller, world.seller], per_destination=3)  # 3
    view = view_of(world.state.log)
    assert view.entitlement(world.seller, 0, 3) == 8
    assert view.entitlement(world.seller, 1, 3) == 6
    assert view.entitlement(world.seller, 2, 3) == 6
    assert view.entitlement(world.seller, 3, 3) == 0
    assert view.occurrences(3, world.seller) == 2
    assert view.entry_due(1, world.seller) == 2
    assert view.entry_due(2, world.seller) == 0


def test_entry_due_zero_while_locked(world):
    unlocker = register(world.state, "unlocker")
    idx = register_payment(
        world.state, world.buyer, 5, encode_pay_data([world.seller]), "buyer",
        locking_key_hash=locking_key_hash(unlocker, b"key"), unlocker_fee=1,
    )
    view = view_of(world.state.log)
    assert view.entry_due(idx, world.seller) == 0
    assert view.entitlement(world.seller, 0, idx) == 0
    unlock(world.state, idx, unlocker, b"key")
    view = view_of(world.state.log)
    assert view.entry_due(idx, world.seller) == 5


def test_oracle_balance_one_shot_helper(world):
    world.pay([world.seller], per_destination=4)
    world.mature()
    assert oracle_balance(world.state.log, world.seller) == 4


# -- posting-index queries against a reference read straight off the log -------

# One payment: payee picks from a pool of four sellers (repeats allowed), its
# per-destination amount, what happens to it, and blocks to advance after it.
_payment = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=6),
    st.integers(1, 20),
    st.sampled_from(("plain", "unlocked", "refunded", "locked")),
    st.integers(0, 3),
)


def _reference(log):
    """Per pay index: (ids, per_destination, committed), from records alone."""
    payments = {}
    for rec in log.records:
        if isinstance(rec, PaymentRegistered):
            ids = decode_pay_data(rec.pay_data)
            payments[rec.pay_index] = [ids, rec.per_destination, rec.locking_key_hash is None]
        elif isinstance(rec, Unlocked):
            payments[rec.pay_index][2] = True
        elif isinstance(rec, Refunded):
            payments[rec.pay_index][2] = False
    return payments


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    specs=st.lists(_payment, min_size=1, max_size=12),
    matured=st.booleans(),
    bounds=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6),
    claim_offset=st.integers(-1, 1),
)
def test_queries_match_a_count_over_the_log(specs, matured, bounds, claim_offset):
    world = World()
    unlocker = register(world.state, "unlocker")
    pool = [world.seller] + [register(world.state, f"seller-{i}") for i in range(3)]
    to_refund = []
    for n, (picks, per_destination, fate, blocks) in enumerate(specs):
        payees = [pool[i] for i in picks]
        if fate == "plain":
            world.pay(payees, per_destination)
        else:
            key = n.to_bytes(2, "big")
            idx = world.pay(
                payees, per_destination, unlocker_fee=1,
                locking_key_hash=locking_key_hash(unlocker, key),
            )
            if fate == "unlocked":
                unlock(world.state, idx, unlocker, key)
            elif fate == "refunded":
                to_refund.append(idx)
        if blocks:
            world.advance(blocks)
    if matured or to_refund:
        world.mature()
    for idx in to_refund:
        refund_locked_payment(world.state, idx)

    view = view_of(world.state.log)
    # A second view whose running totals are taken the moment each payment
    # matures, before any later unlock or refund record is fed.
    live, partial = LogView(), ChainLog()
    for rec in world.state.log.records:
        partial.append(rec)
        live.feed(partial)
        live.mature_end()
    ref = _reference(world.state.log)
    count = len(ref)
    ranges = [(0, count), (count, count), (count, 0)]
    ranges += [(min(a, count), min(b, count)) for a, b in bounds]
    ranges += [(min(a, count), view.mature_end()) for a, _ in bounds]
    for account in pool + [world.delegate]:
        for pay_index, (ids, per_destination, committed) in ref.items():
            occurs = ids.count(account)
            assert view.occurrences(pay_index, account) == occurs
            assert view.entry_due(pay_index, account) == (
                occurs * per_destination if committed else 0
            )
        for start, end in ranges + [(0, view.mature_end())]:
            expected = []
            for pay_index in range(start + 1, end + 1):
                ids, per_destination, committed = ref[pay_index]
                if committed and account in ids:
                    expected.append((pay_index, ids.count(account) * per_destination))
            assert view.dues(account, start, end) == expected
            assert view.entitlement(account, start, end) == sum(d for _, d in expected)
            if end <= view.mature_end():
                owed = (len(expected), sum(d for _, d in expected))
                assert view.owed(account, start, end) == owed
                assert live.owed(account, start, end) == owed
                # a claim over the range, priced against entitlement
                true = view.entitlement(account, start, end)
                claim = SimpleNamespace(
                    recipient_id=account, start_pay_index=start, end_pay_index=end,
                    amount=true + claim_offset,
                )
                verdict = ("understated", "ok", "overstated")[claim_offset + 1]
                assert monitor_verdict(view, claim) == monitor_verdict(live, claim) == verdict
                if end == view.mature_end():
                    # collectable prices (settled prefix, matured end]
                    view.prefixes[account] = live.prefixes[account] = start
                    assert view.collectable(account) == live.collectable(account) == true
            else:
                with pytest.raises(InvalidParameter):
                    view.owed(account, start, end)


# -- monitor decision helpers -------------------------------------------------


def pending_claim(amount):
    """Fresh world with one matured payment of 6 and one pending claim."""
    world = World()
    world.pay([world.seller], per_destination=6)
    world.mature()
    world.open_collect(1, end=1, amount=amount)
    return world, world.state.slots[(world.delegate, 1)]


def test_monitor_verdict_classifies_claims():
    for amount, expected in ((6, "ok"), (13, "overstated"), (2, "understated")):
        world, slot = pending_claim(amount)
        view = view_of(world.state.log)
        assert monitor_verdict(view, slot) == expected


def test_find_inflated_entry_pigeonholes_the_lie(world):
    other = register(world.state, "other")
    world.pay([world.seller, other], per_destination=4)      # seller due 4
    world.pay([world.seller] * 2, per_destination=3)         # seller due 6
    world.mature()
    world.open_collect(1, end=2, amount=12)  # 10 due, inflated by 2
    challenge(world.state, world.delegate, 1, world.monitor)
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 4), (2, 8)])
    view = view_of(world.state.log)
    slot = world.state.slots[(world.delegate, 1)]
    pay_index, claimed = find_inflated_entry(view, slot)
    # any sum-matching split must inflate some entry past its true due
    assert (pay_index, claimed) == (2, 8)
    assert claimed > view.entry_due(pay_index, world.seller)


def test_find_inflated_entry_rejects_honest_list(world):
    world.pay([world.seller], per_destination=5)
    world.mature()
    world.open_collect(1, end=1, amount=5)
    challenge(world.state, world.delegate, 1, world.monitor)
    respond_with_payment_list(world.state, world.delegate, 1, [(1, 5)])
    view = view_of(world.state.log)
    slot = world.state.slots[(world.delegate, 1)]
    with pytest.raises(InvalidParameter):
        find_inflated_entry(view, slot)


@pytest.mark.parametrize("all_lazy", [False, True])
def test_verdict_of_an_open_slot_never_changes(all_lazy):
    # Monitors judge each slot once, when they first see it; that is exact
    # only if re-judging the slot later could never give another answer.
    # The attentive monitor challenges an overstated slot in the block that
    # opens it, so only the all-lazy variant leaves such slots waiting.
    config = load_scenario_config(ADVERSARIAL_CFG)
    if all_lazy:
        config.lazy_monitor_fraction = 1.0
    run = SimRun(config)
    first: dict[int, str] = {}
    rejudged = 0

    def check_waiting_slots():
        nonlocal rejudged
        for key, slot in run.state.slots.items():
            if slot.game_state != GameState.WAITING_CHALLENGE:
                continue
            seq = run.view.slots[key].open_seq
            verdict = monitor_verdict(run.view, slot)
            if seq in first:
                rejudged += 1
            assert first.setdefault(seq, verdict) == verdict, (key, seq)

    for _ in range(config.blocks):
        run.run_block()
        check_waiting_slots()
    run.draining = True
    for _ in range(config.params.challenge_period + 1):
        run.run_block()
        check_waiting_slots()
    assert rejudged > 0
    assert "ok" in first.values()
    if all_lazy:
        assert "overstated" in first.values()


def test_locked_count_matches_a_scan_at_every_block():
    # The drain phase reads view.locked instead of scanning every payment.
    run = SimRun(load_scenario_config(ADVERSARIAL_CFG))
    step = run.run_block
    counts = []

    def checked_block():
        step()
        scanned = sum(p.status == PaymentStatus.LOCKED for p in run.state.payments)
        assert run.view.locked == scanned, run.blocks_run
        counts.append(scanned)

    assert run.view.locked == 0
    run.run_block = checked_block
    run.run()
    assert len(counts) == run.blocks_run > run.config.blocks
    assert max(counts) > 0 and counts[-1] == 0


def test_oracle_dispatches_every_record_type_through_its_own_table():
    # The oracle is the engine's cross-check, so it keeps its own handlers
    # rather than sharing replay's.
    assert set(oracle._APPLY) == set(RECORD_TYPES.values())
    assert not set(oracle._APPLY.values()) & set(replay._HANDLERS.values())


def test_unhandled_record_type_raises_invalid_parameter():
    @dataclass(frozen=True, slots=True)
    class Stray(Record):
        TAG = 0x70

    log = ChainLog()
    log.append(Stray())
    with pytest.raises(InvalidParameter, match="unhandled record Stray"):
        view_of(log)
