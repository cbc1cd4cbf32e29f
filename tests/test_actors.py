"""Simulator actors: event-driven bookkeeping against the full scans it replaces."""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from batchpay.auth import collect_auth_message, sign_collect
from batchpay.chainlog import (
    Challenged,
    ChallengeFailed,
    ChallengeSucceeded,
    FinalDigest,
    InclusionProved,
    PaymentSelected,
    SlotFreed,
    Unlocked,
)
from batchpay.collect import challenge, challenge_success, collect, legal, select_payment
from batchpay.errors import InvariantViolation
from batchpay.replay import verify_log
from batchpay.sim import ScenarioConfig, SimRun
from batchpay.sim.actors import Monitor, draw_payees
from batchpay.sim.config import load_scenario_config
from batchpay.state import GameState, Params, PaymentStatus

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH = Path(__file__).resolve().parent.parent / "bench"
DELEGATE_DEPOSIT = 1500


def _run_and_log_hash(config) -> str:
    run = SimRun(config)
    run.run()
    return hashlib.sha256(run.log.dump()).hexdigest()


@pytest.mark.parametrize("variant", ["attentive", "all_lazy", "underfunded", "refilled"])
def test_event_bookkeeping_matches_full_scans(variant):
    # After every delegate and monitor step, rescan everything the actor
    # skipped and check it had nothing to do there. Underfunded delegates
    # skip sellers for their balance, and a monitor holding one stake must
    # leave overstated slots waiting until a win pays it back. Only runs
    # with every monitor lazy drain the pool; large overstatements drain
    # it while buyers still pay in, so parked settlements wake and settle.
    config = load_scenario_config(str(CONFIGS / "adversarial.cfg"))
    if variant in ("all_lazy", "refilled"):
        config.lazy_monitor_fraction = 1.0
    if variant == "refilled":
        config.blocks = 120
        config.overstatement_min, config.overstatement_max = 200, 800
    elif variant == "underfunded":
        config.delegate_deposit = DELEGATE_DEPOSIT
        config.monitor_deposit = config.params.challenge_stake + 10
    run = SimRun(config)
    seen = dict.fromkeys(
        ("clean sellers", "idle slots", "parked slots", "settled after parking",
         "unprovable slots", "non-candidates", "waiting games"),
        0,
    )
    needed = {
        "parked slots": variant in ("all_lazy", "refilled"),
        "settled after parking": variant == "refilled",
    }
    last_parked = {}

    def check_delegate(delegate):
        run.sync()
        view, state = run.view, run.state
        now = state.current_block
        woken = last_parked.get(delegate, {}).keys() - delegate._parked.keys()
        seen["settled after parking"] += len(woken)
        assert not woken & state.slots.keys(), now
        last_parked[delegate] = dict(delegate._parked)
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
            if key in delegate._parked:
                # Settlement-ready, and the pool, which only a later step can
                # raise, is still short of it.
                seen["parked slots"] += 1
                assert slot.game_state == GameState.WAITING_CHALLENGE, (now, key)
                assert now >= slot.deadline_block, (now, key)
                assert delegate._parked[key] == slot.amount > state.escrow_pool, (now, key)
                assert key not in first_entry, (now, key)
                continue
            if slot.game_state == GameState.WAITING_PROOF:
                # The selected entry is priced below its claim for good, so
                # there is nothing to prove; the deadline brings it back.
                seen["unprovable slots"] += 1
                pay_index, claimed = slot.challenged_entry
                assert view.entry_due(pay_index, slot.recipient_id) < claimed, (now, key)
                assert now < slot.deadline_block, (now, key)
                assert (slot.deadline_block, key) in delegate._deadlines, (now, key)
                continue
            seen["idle slots"] += 1
            assert slot.game_state == GameState.WAITING_CHALLENGE, (now, key)
            assert now < slot.deadline_block, (now, key)
            assert first_entry[key] <= slot.deadline_block, (now, key)

    def check_monitor(monitor):
        run.sync()
        view, state = run.view, run.state
        now = state.current_block
        waiting = {key for _, key in monitor._deadlines}
        for key, slot in state.slots.items():
            if slot.challenger_id != monitor.account_id:
                continue
            # A game the step did not wake has no move left, and waits.
            seen["waiting games"] += 1
            assert not legal("select", slot, now), (now, key)
            assert not legal("challenge_success", slot, now), (now, key)
            assert key in monitor.games and key in waiting, (now, key)
        for key, slot in state.slots.items():
            if slot.game_state != GameState.WAITING_CHALLENGE or now >= slot.deadline_block:
                continue
            if key in monitor._candidates:
                continue
            seen["non-candidates"] += 1
            seq = len(view.opened) - 1 - view.opened[::-1].index(key)
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
    assert all(n or not needed.get(what, True) for what, n in seen.items()), seen
    if variant == "refilled":
        # The count a visit to every stranded slot in every block gives.
        assert run.insolvency_events == 759
    # The checks only read: the run is the one an unchecked run plays.
    assert hashlib.sha256(run.log.dump()).hexdigest() == _run_and_log_hash(config)


def _first_waiting_slot(run: SimRun) -> tuple[int, int]:
    """Run blocks until some slot waits for a challenge; return its key."""
    while True:
        run.run_block()
        for key, slot in sorted(run.state.slots.items()):
            waiting = slot.game_state == GameState.WAITING_CHALLENGE
            if waiting and run.state.current_block < slot.deadline_block:
                return key


def test_sim_delegate_wins_a_challenge_of_an_honest_slot():
    # The simulator's own monitors never challenge honest slots, so drive
    # the challenger's moves by hand and let the sim delegate defend. The
    # challenge comes in the window's last block, so the game outlasts the
    # deadline the slot was opened with.
    config = load_scenario_config(str(CONFIGS / "honest.cfg"))
    run = SimRun(config)
    state = run.state
    challenger = run.monitor_actors[0].account_id
    key = _first_waiting_slot(run)
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
    def fresh_run() -> SimRun:
        run = SimRun(load_scenario_config(str(CONFIGS / "honest.cfg")))
        for _ in range(5):
            run.run_block()
        run._assert_mirror()
        return run

    run = fresh_run()
    balances = run.state.balances
    # The last account first, then one before it, which the message must name.
    for tampered in (len(balances) - 1, 2):
        balances[tampered] += 1
        message = (
            f"account {tampered}: log-derived balance {run.view.settled_balance(tampered)} "
            f"!= ledger {balances[tampered]} at block {run.state.current_block}"
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run._assert_mirror()
        assert excinfo.value.invariant == "oracle-mirror"
        assert message in str(excinfo.value)

    # Tables of two lengths that agree on every id they share: the walk names
    # no account, so the check names both lengths.
    def view_grown(run):
        run.view.balances.append(0)

    def ledger_grown(run):
        run.state.balances.append(0)
        run.state._balances_shadow.append(0)

    for grow, derived, held in ((view_grown, 1, 0), (ledger_grown, 0, 1)):
        run = fresh_run()
        accounts = len(run.state.balances)
        grow(run)
        with pytest.raises(InvariantViolation) as excinfo:
            run._assert_mirror()
        assert excinfo.value.invariant == "oracle-mirror"
        assert (
            f"the log derives {accounts + derived} balances, the ledger holds {accounts + held} "
            f"at block {run.state.current_block}"
        ) in str(excinfo.value)


def test_payee_draws_match_random_choice():
    # Buyers draw payees inline instead of through ``Random.choice``; the ids
    # and the generator state after must be choice's, on every supported
    # CPython, or every golden digest moves. Sizes straddle powers of two,
    # where the rejection loop redraws most.
    for seed in range(50):
        for size in (1, 2, 3, 127, 128, 129, 200, 400):
            population = list(range(1000, 1000 + size))
            for count in (1, 16, 50):
                rng, twin = random.Random(seed), random.Random(seed)
                ids = draw_payees(rng, population, count)
                assert ids == sorted(twin.choice(population) for _ in range(count))
                assert rng.getstate() == twin.getstate()


# -- the unlocker's key-locked exchange, and retries while the pool is short ------------


def _locked_handoff() -> tuple[SimRun, object, object]:
    """A run whose one buyer has just handed a locked payment to its unlocker."""
    config = ScenarioConfig(
        seed=3, blocks=0, buyers=1, sellers=3, delegates=0, monitors=0, unlockers=1,
        payment_probability=1.0, locked_fraction=1.0, unlocker_fee=2,
    )
    run = SimRun(config)
    run.buyers[0].step()
    unlocker = run.unlockers[0]
    [job] = unlocker.inbox
    return run, unlocker, job


@pytest.mark.parametrize(
    "tamper",
    [
        None,
        lambda job: dataclasses.replace(job, expected_fee=job.expected_fee + 1),
        lambda job: dataclasses.replace(job, expected_payee_count=job.expected_payee_count + 1),
        lambda job: dataclasses.replace(job, expected_payee_digest=bytes(32)),
        lambda job: dataclasses.replace(job, key=job.key + b"!"),
    ],
    ids=["honest", "fee", "payee-count", "payee-digest", "key-hash"],
)
def test_unlocker_reveals_only_a_key_whose_payment_matches_the_handoff(tamper):
    run, unlocker, job = _locked_handoff()
    if tamper is not None:
        unlocker.inbox = [tamper(job)]
    unlocker.step()
    assert unlocker.inbox == []
    unlocked = [rec for rec in run.log.records if isinstance(rec, Unlocked)]
    status = run.state.payments[job.pay_index - 1].status
    if tamper is None:
        assert status == PaymentStatus.COMMITTED
        assert [(rec.pay_index, rec.key) for rec in unlocked] == [(job.pay_index, job.key)]
    else:
        assert status == PaymentStatus.LOCKED
        assert unlocked == []


def _short_pool(run: SimRun, payout: int) -> int:
    """Leave the escrow pool one token short of ``payout``, as an inflated
    settlement that drained it would; returns the pool to put back."""
    pool = run.state.escrow_pool
    run.state.escrow_pool = payout - 1
    return pool


def test_unlocker_retries_an_uncovered_fee_while_the_window_lasts():
    run, unlocker, job = _locked_handoff()
    pool = _short_pool(run, job.expected_fee)
    unlocker.step()
    assert unlocker.inbox == [job]
    assert run.insolvency_events == 1
    run.state.escrow_pool = pool
    unlocker.step()
    assert unlocker.inbox == []
    assert run.state.payments[job.pay_index - 1].status == PaymentStatus.COMMITTED


@pytest.mark.parametrize("refunded", [False, True])
def test_unlocker_drops_a_retried_job_once_the_payment_is_past_unlocking(refunded):
    run, unlocker, job = _locked_handoff()
    pool = _short_pool(run, job.expected_fee)
    unlocker.step()
    run.state.escrow_pool = pool
    run.state.advance_block(run.config.params.unlock_period)     # the window closes
    if refunded:
        run.buyers[0]._refund_lapsed()
    unlocker.step()
    assert unlocker.inbox == []
    expected = PaymentStatus.REFUNDED if refunded else PaymentStatus.LOCKED
    assert run.state.payments[job.pay_index - 1].status == expected


def test_buyer_keeps_an_uncovered_refund_and_retries_it():
    run, unlocker, job = _locked_handoff()
    unlocker.inbox.clear()                                        # the key never comes
    buyer = run.buyers[0]
    run.state.advance_block(run.config.params.unlock_period)
    payment = run.state.payments[job.pay_index - 1]
    pool = _short_pool(run, payment.total_escrow)
    buyer._refund_lapsed()
    assert list(run.state.open_locks) == [job.pay_index]
    assert run.insolvency_events == 1
    run.state.escrow_pool = pool
    buyer._refund_lapsed()
    assert run.state.open_locks == {}
    assert payment.status == PaymentStatus.REFUNDED


def test_buyer_without_funds_registers_nothing():
    run = SimRun(ScenarioConfig(seed=3, blocks=0, buyers=1, sellers=3, payment_probability=1.0,
                                buyer_deposit=0, delegate_deposit=0, monitor_deposit=0))
    assert [run.state.balances[buyer.account_id] for buyer in run.buyers] == [0]
    records = len(run.log)
    run.buyers[0].step()
    assert len(run.log) == records
    assert run.state.payments == []


# -- the delegate's deadline heap ----------------------------------------------------------


def test_sim_delegate_drops_the_deadline_a_won_game_replaced():
    # A game the delegate wins early in the window reopens it with a later
    # deadline. The heap entry for the first deadline then comes due on a
    # slot that is waiting again, and the delegate drops it unsettled.
    run = SimRun(load_scenario_config(str(CONFIGS / "honest.cfg")))
    state = run.state
    key = _first_waiting_slot(run)
    slot = state.slots[key]
    first_deadline = slot.deadline_block
    challenge(state, *key, run.monitor_actors[0].account_id)
    run.run_block()                       # the delegate discloses its list
    select_payment(state, *key, *slot.challenge_list[0])
    run.run_block()                       # ... proves the selected entry
    run.run_block()                       # ... takes the stake, window reopens
    assert slot.game_state == GameState.WAITING_CHALLENGE
    assert slot.deadline_block > first_deadline
    delegate = next(d for d in run.delegate_actors if d.account_id == key[0])
    assert (first_deadline, key) in delegate._deadlines
    while state.current_block <= first_deadline:
        run.run_block()
    assert state.slots.get(key) is slot
    assert (first_deadline, key) not in delegate._deadlines
    assert key not in delegate._active


# -- monitors ----------------------------------------------------------------------------


def _open_by_hand(run: SimRun, amount_of) -> tuple[int, int]:
    """Open a collect for the seller owed the most, claiming ``amount_of(owed)``.

    A buyer's account acts as the delegate, so no sim delegate defends or
    settles the slot.
    """
    state, view = run.state, run.view
    run.sync()
    end = view.mature_end()
    owed = {s: view.entitlement(s, view.prefixes.get(s, 0), end) for s in run.seller_ids
            if s not in state.pending_collects}
    seller = max(owed, key=lambda s: (owed[s], -s))
    assert owed[seller] >= 2
    delegate, slot_id, amount = run.buyers[0].account_id, 7, amount_of(owed[seller])
    message = collect_auth_message(state.instance_id, delegate, slot_id, seller, end, amount, 0, None)
    authorization = sign_collect(run.state.addresses[seller], message)
    collect(state, delegate, slot_id, seller, end, amount, 0, authorization)
    return delegate, slot_id


def test_monitor_flags_an_understated_claim_and_leaves_it():
    run = SimRun(load_scenario_config(str(CONFIGS / "honest.cfg")))
    for _ in range(12):
        run.run_block()
    key = _open_by_hand(run, lambda owed: owed - 1)
    run.run_block()
    assert run.build_report().understatements == 1           # the one claim, judged once
    assert all(key not in monitor._candidates for monitor in run.monitor_actors)
    assert run.state.slots[key].game_state == GameState.WAITING_CHALLENGE


def test_monitor_without_a_stake_drops_an_overstated_claim_when_its_window_closes():
    config = load_scenario_config(str(CONFIGS / "honest.cfg"))
    config.monitor_deposit = 0
    run = SimRun(config)
    for _ in range(12):
        run.run_block()
    key = _open_by_hand(run, lambda owed: owed + 5)
    slot = run.state.slots[key]
    while run.state.current_block < slot.deadline_block:
        run.run_block()
        assert all(key in monitor._candidates for monitor in run.monitor_actors)
    run.run_block()
    assert all(key not in monitor._candidates for monitor in run.monitor_actors)
    assert not any(isinstance(rec, Challenged) for rec in run.log.records)
    assert run.state.slots[key] is slot                     # nobody settles it


def test_monitor_visits_a_game_only_when_it_can_move(monkeypatch):
    # On adversarial_bulk at seed 1, visiting every game every block made
    # 2,981 visits for 542 moves. A game now wakes at a deadline its
    # challenger set or when the delegate's list arrives. Every visit makes
    # a move, but at most one a game: the challenge's deadline, passed after
    # the list came first.
    visits = []
    visit = Monitor._visit

    def counted(self, key, now):
        visits.append(key)
        visit(self, key, now)

    monkeypatch.setattr(Monitor, "_visit", counted)
    run = SimRun(load_scenario_config(str(BENCH / "adversarial_bulk.cfg")))
    run.run()
    records = run.log.records
    moves = sum(isinstance(rec, (PaymentSelected, ChallengeSucceeded)) for rec in records)
    games = sum(isinstance(rec, Challenged) for rec in records)
    assert (moves, games, run.insolvency_events) == (542, 271, 10072)
    assert moves <= len(visits) <= moves + games


def test_monitor_drops_a_game_someone_else_ended_and_the_log_counts_the_cheat_caught():
    # Anyone may end a timed-out game. The monitor must let go of it, and
    # the log shows the claim lost, not which actor ended its game.
    run = SimRun(load_scenario_config(str(CONFIGS / "adversarial.cfg")))
    state = run.state
    delegate_moves = (GameState.CHALLENGE_STARTED, GameState.WAITING_PROOF)
    while True:
        run.run_block()
        due = [
            (monitor, key)
            for monitor in run.monitor_actors
            for key in sorted(monitor.games)
            if state.slots[key].game_state in delegate_moves
            and state.current_block >= state.slots[key].deadline_block
        ]
        if due:
            break
    monitor, key = due[0]
    challenge_success(state, *key)
    run.run_block()
    assert key not in monitor.games
    run.run()
    cheats = run.view.cheats
    assert cheats["caught"] == cheats["attempted"] == run.cheats_attempted > 0
