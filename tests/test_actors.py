"""Simulator actors: event-driven bookkeeping against the full scans it replaces."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from batchpay.chainlog import ChallengeFailed, FinalDigest, InclusionProved, SlotFreed
from batchpay.collect import challenge, select_payment
from batchpay.errors import InvariantViolation
from batchpay.replay import verify_log
from batchpay.sim import SimRun
from batchpay.sim.config import load_scenario_config
from batchpay.state import GameState

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DELEGATE_DEPOSIT = 1500


def _run_and_log_hash(config) -> str:
    run = SimRun(config)
    run.run()
    return hashlib.sha256(run.log.dump()).hexdigest()


@pytest.mark.parametrize("variant", ["attentive", "all_lazy", "underfunded"])
def test_event_bookkeeping_matches_full_scans(variant):
    # After every delegate and monitor step, rescan everything the actor
    # skipped and check it had nothing to do there. Underfunded delegates
    # skip sellers for their balance, and a monitor holding one stake must
    # leave overstated slots waiting until a win pays it back.
    config = load_scenario_config(str(CONFIGS / "adversarial.cfg"))
    if variant == "all_lazy":
        config.lazy_monitor_fraction = 1.0
    elif variant == "underfunded":
        config.delegate_deposit = DELEGATE_DEPOSIT
        config.monitor_deposit = config.params.challenge_stake + 10
    run = SimRun(config)
    seen = {"clean sellers": 0, "idle slots": 0, "non-candidates": 0}

    def check_delegate(delegate):
        run.sync()
        view, state = run.view, run.state
        now = state.current_block
        threshold = 1 if run.draining else config.accumulation_threshold
        mature = view.mature_end()
        for seller in delegate.sellers:
            if seller in delegate._dirty or seller in state.pending_collects:
                continue
            seen["clean sellers"] += 1
            owed = view.dues(seller, view.prefixes.get(seller, 0), mature)
            assert len(owed) < threshold, (now, seller)
        first_entry: dict[tuple[int, int], int] = {}
        for deadline, key in delegate._deadlines:
            first_entry[key] = min(deadline, first_entry.get(key, deadline))
        for key, slot in state.slots.items():
            if key[0] != delegate.account_id or key in delegate._active:
                continue
            seen["idle slots"] += 1
            assert slot.game_state == GameState.WAITING_CHALLENGE, (now, key)
            assert now < slot.deadline_block, (now, key)
            assert first_entry[key] <= slot.deadline_block, (now, key)

    def check_monitor(monitor):
        run.sync()
        view, state = run.view, run.state
        now = state.current_block
        for key, slot in state.slots.items():
            if slot.game_state != GameState.WAITING_CHALLENGE or now >= slot.deadline_block:
                continue
            if key in monitor._candidates:
                continue
            seen["non-candidates"] += 1
            seq = view.slots[key].open_seq
            assert seq in monitor._verdicts, (now, key)
            assert monitor._verdicts[seq] != "overstated", (now, key)

    def checked(actor, check):
        step = actor.step

        def step_and_check():
            step()
            check(actor)

        return step_and_check

    for delegate in run.delegate_actors:
        delegate.step = checked(delegate, check_delegate)
    for monitor in run.monitor_actors:
        monitor.step = checked(monitor, check_monitor)
    run.run()
    assert all(seen.values()), seen
    # The checks only read: the run is the one an unchecked run plays.
    assert hashlib.sha256(run.log.dump()).hexdigest() == _run_and_log_hash(config)


def test_sim_delegate_wins_a_challenge_of_an_honest_slot():
    # The simulator's own monitors never challenge honest slots, so drive
    # the challenger's moves by hand and let the sim delegate defend. The
    # challenge comes in the window's last block, so the game outlasts the
    # deadline the slot was opened with.
    config = load_scenario_config(str(CONFIGS / "honest.cfg"))
    run = SimRun(config)
    state = run.state
    challenger = run.monitor_actors[0].account_id
    key = None
    while key is None:
        run.run_block()
        for k, slot in sorted(state.slots.items()):
            if slot.game_state == GameState.WAITING_CHALLENGE and state.current_block < slot.deadline_block:
                key = k
                break
    slot = state.slots[key]
    while state.current_block < slot.deadline_block - 1:
        run.run_block()
    assert state.slots.get(key) is slot
    delegate_id, slot_id = key
    challenge(state, delegate_id, slot_id, challenger)

    run.run_block()                       # the delegate discloses its list
    assert slot.game_state == GameState.WAITING_PAYMENT_SELECTION
    pay_index, amount = slot.challenge_list[0]
    assert amount == run.view.entry_due(pay_index, slot.recipient_id)
    select_payment(state, delegate_id, slot_id, pay_index, amount)

    run.run_block()                       # ... proves the selected entry
    assert slot.game_state == GameState.PROOF_ACCEPTED
    assert InclusionProved in {type(rec) for rec in run.log.records}

    reopened_at = state.current_block
    run.run_block()                       # ... takes the stake, window reopens
    assert slot.game_state == GameState.WAITING_CHALLENGE
    assert slot.challenger_id is None
    assert slot.deadline_block == reopened_at + config.params.challenge_period
    failed = [rec for rec in run.log.records if isinstance(rec, ChallengeFailed)]
    assert [(rec.delegate_id, rec.slot_id) for rec in failed] == [key]

    while state.current_block < slot.deadline_block:
        run.run_block()
        assert state.slots.get(key) is slot, state.current_block
    before = len(run.log.records)
    run.run_block()                       # settles once the new window closes
    assert key not in state.slots
    freed = [rec for rec in run.log.records[before:] if isinstance(rec, SlotFreed)]
    assert key in {(rec.delegate_id, rec.slot_id) for rec in freed}

    run.run()
    run.log.append(FinalDigest(state.digest()))
    assert verify_log(run.log) == state.digest()


def test_mirror_check_names_the_first_account_that_differs():
    run = SimRun(load_scenario_config(str(CONFIGS / "honest.cfg")))
    for _ in range(5):
        run.run_block()
    run._assert_mirror()
    accounts = run.state.accounts
    # The last account first, then one before it, which the message must name.
    for tampered in (len(accounts) - 1, 2):
        accounts[tampered].balance += 1
        message = (
            f"account {tampered}: log-derived balance {run.view.settled_balance(tampered)} "
            f"!= ledger {accounts[tampered].balance} at block {run.state.current_block}"
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run._assert_mirror()
        assert excinfo.value.invariant == "oracle-mirror"
        assert message in str(excinfo.value)
