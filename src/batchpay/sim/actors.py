"""Actor strategies for the block simulation.

Each block runs role phases in a fixed order: buyers, unlockers,
delegates, monitors, sellers. Sellers never move on-chain themselves;
they sign collect authorizations when their assigned delegate asks, which
happens inside the delegate phase (authorization is an off-chain act).
Ties inside a role break by account id, and all randomness comes from the
single generator owned by the run context, so a seed pins the whole
interleaving.

Byzantine variants implemented here:

  * cheating delegate: overstates every collect it opens by a seeded
    amount and defends challenges with a pro-rata inflated list; it goes
    silent once an unprovable entry is selected.
  * lazy monitor: decides once per opened slot (with probability 1/4)
    whether to watch it at all.
  * withholding unlocker: accepts key handoffs and never reveals them,
    forcing the buyer down the refund path.

Sellers trust their delegate's bookkeeping and sign whatever it proposes;
the challenge game exists precisely so that a signed-but-wrong claim
cannot settle against an attentive monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..auth import collect_auth_message, sign_collect
from ..codec import encode_pay_data
from ..collect import (
    challenge,
    challenge_failed,
    challenge_success,
    collect,
    free_slot,
    prove_payment_inclusion,
    respond_with_payment_list,
    select_payment,
)
from ..errors import IllegalMove, InvalidParameter, InvariantViolation
from ..payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from ..state import INSTANT_SLOT_THRESHOLD, SLOT_ID_MAX, GameState, PaymentStatus
from .oracle import find_inflated_entry, monitor_verdict


@dataclass
class UnlockJob:
    """Off-chain handoff from a buyer to its chosen unlocker."""

    pay_index: int
    key: bytes
    expected_fee: int
    expected_payee_digest: bytes
    expected_payee_count: int


class Buyer:
    role = "buyer"

    def __init__(self, ctx, account_id: int, address: str):
        self.ctx = ctx
        self.account_id = account_id
        self.address = address
        self.pending_locked: list[int] = []

    def step(self) -> None:
        ctx = self.ctx
        self._refund_lapsed()
        if ctx.draining or not ctx.seller_ids:
            return
        if ctx.rng.random() >= ctx.config.payment_probability:
            return
        self._register_batch()

    def _refund_lapsed(self) -> None:
        state = self.ctx.state
        still = []
        for pay_index in self.pending_locked:
            payment = state.payments[pay_index - 1]
            if payment.status != PaymentStatus.LOCKED:
                continue
            if state.current_block >= payment.collectable_from_block:
                # Status and window were just checked, so the only remaining
                # rejection is a looted escrow pool; keep the claim and retry.
                try:
                    refund_locked_payment(state, pay_index)
                except IllegalMove:
                    self.ctx.note_insolvency("refund")
                    still.append(pay_index)
            else:
                still.append(pay_index)
        self.pending_locked = still

    def _register_batch(self) -> None:
        ctx = self.ctx
        cfg = ctx.config
        rng = ctx.rng
        count = rng.randint(cfg.payees_min, cfg.payees_max)
        ids = sorted(rng.choice(ctx.seller_ids) for _ in range(count))
        per_destination = rng.randint(cfg.per_destination_min, cfg.per_destination_max)
        locked = bool(ctx.unlockers) and rng.random() < cfg.locked_fraction
        key = rng.randbytes(16) if locked else b""
        unlocker = rng.choice(ctx.unlockers) if locked else None
        fee = cfg.unlocker_fee if locked else 0
        total = per_destination * count + fee
        if ctx.state.accounts[self.account_id].balance < total:
            return
        pay_data = encode_pay_data(ids)
        pay_index = register_payment(
            ctx.state,
            self.account_id,
            per_destination,
            pay_data,
            self.address,
            locking_key_hash=locking_key_hash(unlocker.account_id, key) if locked else None,
            unlocker_fee=fee,
        )
        if locked:
            self.pending_locked.append(pay_index)
            unlocker.inbox.append(
                UnlockJob(
                    pay_index=pay_index,
                    key=key,
                    expected_fee=fee,
                    expected_payee_digest=ctx.state.payments[pay_index - 1].pay_data_digest,
                    expected_payee_count=count,
                )
            )


class Unlocker:
    role = "unlocker"

    def __init__(self, ctx, account_id: int, address: str, withholding: bool):
        self.ctx = ctx
        self.account_id = account_id
        self.address = address
        self.withholding = withholding
        self.inbox: list[UnlockJob] = []

    def step(self) -> None:
        jobs, self.inbox = self.inbox, []
        if self.withholding:
            return
        state = self.ctx.state
        for job in jobs:
            payment = state.payments[job.pay_index - 1]
            if payment.status != PaymentStatus.LOCKED:
                continue
            if state.current_block >= payment.collectable_from_block:
                continue
            # Off-chain diligence before revealing the key: the fee, the
            # payee list, and the key binding must all match the handoff.
            if payment.unlocker_fee != job.expected_fee:
                continue
            if payment.payee_count != job.expected_payee_count:
                continue
            if payment.pay_data_digest != job.expected_payee_digest:
                continue
            if locking_key_hash(self.account_id, job.key) != payment.locking_key_hash:
                continue
            if state.escrow_pool < payment.unlocker_fee:
                self.ctx.note_insolvency("unlock-fee")
                self.inbox.append(job)  # retry while the window lasts
                continue
            unlock(state, job.pay_index, self.account_id, job.key)


class Delegate:
    role = "delegate"

    def __init__(self, ctx, account_id: int, address: str, cheating: bool, sellers: list[int]):
        self.ctx = ctx
        self.account_id = account_id
        self.address = address
        self.cheating = cheating
        self.sellers = sorted(sellers)
        self._next_normal = 0
        self._next_instant = 0

    def step(self) -> None:
        self.ctx.sync()
        self._settle_and_defend()
        self.ctx.sync()
        self._open_collects()

    # -- game moves on slots this delegate owns -----------------------------

    def _my_slots(self):
        return sorted(
            (key, slot)
            for key, slot in self.ctx.state.slots.items()
            if key[0] == self.account_id
        )

    def _settle_and_defend(self) -> None:
        ctx = self.ctx
        state = ctx.state
        now = state.current_block
        for (delegate_id, slot_id), slot in self._my_slots():
            if slot.game_state == GameState.PROOF_ACCEPTED:
                challenge_failed(state, delegate_id, slot_id)
            elif slot.game_state == GameState.WAITING_PAYMENT_SELECTION:
                if now >= slot.deadline_block:
                    challenge_failed(state, delegate_id, slot_id)
            elif slot.game_state == GameState.CHALLENGE_STARTED:
                if now < slot.deadline_block:
                    self._respond(slot_id, slot)
            elif slot.game_state == GameState.WAITING_PROOF:
                if now < slot.deadline_block:
                    self._try_prove(slot_id, slot)
            elif slot.game_state == GameState.WAITING_CHALLENGE:
                if now >= slot.deadline_block:
                    try:
                        free_slot(state, delegate_id, slot_id)
                    except InvariantViolation as exc:
                        if exc.invariant != "conservation":
                            raise
                        # An earlier inflated settlement looted the shared
                        # pool; this payout can no longer be covered. Leave
                        # the slot standing and let the run report it.
                        ctx.note_insolvency("settlement")
                    else:
                        ctx.note_settled(delegate_id, slot_id)

    def _respond(self, slot_id: int, slot) -> None:
        pairs = self.ctx.view.dues(slot.recipient_id, slot.start_pay_index, slot.end_pay_index)
        delta = slot.amount - sum(due for _, due in pairs)
        if delta < 0:
            raise InvalidParameter(
                "sim delegates never understate; cannot decompose this claim"
            )
        if delta > 0:
            if not pairs:
                pairs = [(slot.end_pay_index, delta)]
            else:
                # Spread the inflation pro rata: every entry gets its share,
                # the leftovers land one token at a time from the front.
                base, extra = divmod(delta, len(pairs))
                pairs = [
                    (idx, due + base + (1 if i < extra else 0))
                    for i, (idx, due) in enumerate(pairs)
                ]
        respond_with_payment_list(self.ctx.state, self.account_id, slot_id, pairs)

    def _try_prove(self, slot_id: int, slot) -> None:
        view = self.ctx.view
        pay_index, claimed = slot.challenged_entry
        if view.payments[pay_index - 1].status != "committed":
            return
        if view.entry_due(pay_index, slot.recipient_id) != claimed:
            return  # inflated entry: nothing provable, sit out the deadline
        pay_data = self.ctx.log.pay_data(pay_index)
        prove_payment_inclusion(self.ctx.state, self.account_id, slot_id, pay_data)

    # -- opening new collects -------------------------------------------------

    def _alloc_slot_id(self, instant: bool) -> int:
        state = self.ctx.state
        if instant:
            span = SLOT_ID_MAX - INSTANT_SLOT_THRESHOLD          # ids 32769..65535
            for _ in range(span):
                candidate = INSTANT_SLOT_THRESHOLD + 1 + self._next_instant % span
                self._next_instant += 1
                if (self.account_id, candidate) not in state.slots:
                    return candidate
        else:
            span = INSTANT_SLOT_THRESHOLD + 1                    # ids 0..32768
            for _ in range(span):
                candidate = self._next_normal % span
                self._next_normal += 1
                if (self.account_id, candidate) not in state.slots:
                    return candidate
        raise InvalidParameter("no free slot id for this delegate")

    def _open_collects(self) -> None:
        ctx = self.ctx
        cfg = ctx.config
        view = ctx.view
        state = ctx.state
        threshold = 1 if ctx.draining else cfg.accumulation_threshold
        mature = view.mature_end()
        for seller_id in self.sellers:
            if seller_id in state.pending_collects:
                continue
            owed = view.dues(seller_id, view.prefixes.get(seller_id, 0), mature)
            if len(owed) < threshold:       # threshold >= 1: nothing owed, no collect
                continue
            entitlement = sum(due for _, due in owed)
            cheat = self.cheating and not ctx.draining
            delta = ctx.rng.randint(cfg.overstatement_min, cfg.overstatement_max) if cheat else 0
            amount = entitlement + delta
            fee = min(cfg.collect_fee, amount)
            instant = ctx.rng.random() < cfg.instant_fraction
            external = ctx.rng.random() < cfg.external_destination_fraction
            destination = f"payout-{seller_id}" if external else None
            advance = amount - fee if instant else 0
            stake = state.params.collect_stake
            if state.accounts[self.account_id].balance < stake + advance:
                continue
            slot_id = self._alloc_slot_id(instant)
            message = collect_auth_message(
                state.instance_id,
                self.account_id,
                slot_id,
                seller_id,
                mature,
                amount,
                fee,
                destination,
            )
            authorization = sign_collect(ctx.address_of[seller_id], message)
            collect(
                state,
                self.account_id,
                slot_id,
                seller_id,
                mature,
                amount,
                fee,
                authorization,
                destination_address=destination,
            )
            if cheat:
                ctx.note_cheat(self.account_id, slot_id, delta)


class Monitor:
    role = "monitor"

    def __init__(self, ctx, account_id: int, address: str, lazy: bool):
        self.ctx = ctx
        self.account_id = account_id
        self.address = address
        self.lazy = lazy
        self._verdicts: dict[int, str | None] = {}   # open_seq -> verdict, None if unwatched
        self.games: dict[tuple[int, int], int] = {}

    def step(self) -> None:
        self.ctx.sync()
        self._advance_games()
        self._scan_for_new()

    def _advance_games(self) -> None:
        ctx = self.ctx
        state = ctx.state
        now = state.current_block
        for key in sorted(self.games):
            slot = state.slots.get(key)
            if slot is None or slot.challenger_id != self.account_id:
                del self.games[key]               # lost or already resolved
                continue
            if slot.game_state == GameState.WAITING_PAYMENT_SELECTION:
                pay_index, amount = find_inflated_entry(ctx.view, slot)
                select_payment(state, key[0], key[1], pay_index, amount)
            elif slot.game_state in (GameState.CHALLENGE_STARTED, GameState.WAITING_PROOF):
                if now >= slot.deadline_block:
                    won = slot.held_funds
                    was_instant = slot.instant
                    challenge_success(state, key[0], key[1])
                    ctx.note_monitor_win(self.account_id, won, self.games[key], was_instant)
                    del self.games[key]

    def _scan_for_new(self) -> None:
        ctx = self.ctx
        state = ctx.state
        stake = state.params.challenge_stake
        for key in sorted(state.slots):
            slot = state.slots[key]
            if slot.game_state != GameState.WAITING_CHALLENGE:
                continue
            if state.current_block >= slot.deadline_block:
                continue
            if key[0] == self.account_id:
                continue
            seq = ctx.view.slots[key].open_seq
            if seq not in self._verdicts:
                watch = (not self.lazy) or ctx.rng.random() < 0.25
                # An open slot's verdict never changes (see monitor_verdict).
                verdict = monitor_verdict(ctx.view, slot) if watch else None
                self._verdicts[seq] = verdict
                if verdict == "understated":
                    ctx.note_understatement()
            if self._verdicts[seq] != "overstated":
                continue
            if state.accounts[self.account_id].balance < stake:
                continue
            challenge(state, key[0], key[1], self.account_id)
            ctx.note_monitor_stake(self.account_id, stake)
            self.games[key] = seq


class Seller:
    """Holds an account and signs authorizations; no moves of its own."""

    role = "seller"

    def __init__(self, ctx, account_id: int, address: str):
        self.ctx = ctx
        self.account_id = account_id
        self.address = address

    def step(self) -> None:
        return
