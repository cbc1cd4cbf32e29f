"""Actor strategies for the block simulation.

Each block runs role phases in a fixed order: buyers, unlockers,
delegates, monitors. Sellers have no actor: they never move on-chain
themselves, and sign collect authorizations when their assigned delegate
asks, inside the delegate phase (authorization is an off-chain act).
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

A block costs each actor its own traffic, not a rescan of every open slot
and seller; the order of visits, and with it every generator draw, is what
a full scan in key order would give.

  * buyer: its own entries in the state's open locks, then one possible batch.
  * unlocker: the jobs in its inbox.
  * delegate: its slots whose deadline has come (a heap of deadlines) and
    its slots in a challenge game (an active set fed by the view's
    ``challenged`` list), in key order, less those that cannot move: a
    settlement the pool cannot cover, and an entry it cannot prove; then
    its dirty sellers in id order. A seller is dirty when a newly matured
    payment names it (the view's ``payees``), its slot was freed or lost,
    its last examination found the delegate short of funds, or draining
    has just begun.
  * monitor: its games that can move, in key order: those whose deadline
    has come (a heap of deadlines) and those the delegate has answered
    (the view's ``responded`` list); then its candidates in key order:
    slots opened since it last looked (the view's ``opened`` list) and
    slots it judged overstated, until they are gone or their window
    closes. Each slot is judged once.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .. import payments
from ..auth import collect_auth_message, sign_collect
from ..codec import encode_pay_data
from ..collect import (
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
from ..errors import InvalidParameter
from ..payments import locking_key_hash, refund_locked_payment, register_payment, unlock
from ..state import INSTANT_SLOT_THRESHOLD, SLOT_ID_MAX
from .oracle import find_inflated_entry, monitor_verdict


@dataclass
class UnlockJob:
    """Off-chain handoff from a buyer to its chosen unlocker."""

    pay_index: int
    key: bytes
    expected_fee: int
    expected_payee_digest: bytes
    expected_payee_count: int


def draw_payees(rng, sellers: list[int], count: int) -> list[int]:
    """``sorted(rng.choice(sellers) for _ in range(count))``, drawn inline.

    ``Random.choice`` on CPython 3.10-3.13 indexes with
    ``_randbelow_with_getrandbits``: ``getrandbits(k)`` with
    ``k = len(sellers).bit_length()``, redrawn while it is out of range.
    This loop makes exactly those calls, so the generator ends in the same
    state, without the two Python frames ``choice`` costs per payee.
    """
    n = len(sellers)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    ids = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        ids.append(sellers[r])
    ids.sort()
    return ids


class Buyer:
    def __init__(self, ctx, account_id: int):
        self.ctx = ctx
        self.account_id = account_id
        self.address = ctx.state.addresses[account_id]

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
        now = state.current_block
        mine = [p for p in state.open_locks.values() if p.from_id == self.account_id]
        for payment in mine:
            if payments.legal("refund", payment, now):
                # A refund is refused only by a short escrow pool; the payment
                # stays locked, and the next step retries it.
                if state.covers(payment.total_escrow):
                    refund_locked_payment(state, payment.pay_index)
                else:
                    self.ctx.note_insolvency("refund")

    def _register_batch(self) -> None:
        ctx = self.ctx
        cfg = ctx.config
        rng = ctx.rng
        count = rng.randint(cfg.payees_min, cfg.payees_max)
        ids = draw_payees(rng, ctx.seller_ids, count)
        per_destination = rng.randint(cfg.per_destination_min, cfg.per_destination_max)
        locked = bool(ctx.unlockers) and rng.random() < cfg.locked_fraction
        key = rng.randbytes(16) if locked else b""
        unlocker = rng.choice(ctx.unlockers) if locked else None
        fee = cfg.unlocker_fee if locked else 0
        total = per_destination * count + fee
        if ctx.state.balances[self.account_id] < total:
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
    def __init__(self, ctx, account_id: int, withholding: bool):
        self.ctx = ctx
        self.account_id = account_id
        self.withholding = withholding
        self.inbox: list[UnlockJob] = []

    def step(self) -> None:
        jobs, self.inbox = self.inbox, []
        if self.withholding:
            return
        state = self.ctx.state
        for job in jobs:
            payment = state.payments[job.pay_index - 1]
            if not payments.legal("unlock", payment, state.current_block):
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
            # Window and key were just checked, so only a short escrow pool
            # can refuse the fee; retry while the window lasts.
            if state.covers(payment.unlocker_fee):
                unlock(state, job.pay_index, self.account_id, job.key)
            else:
                self.ctx.note_insolvency("unlock-fee")
                self.inbox.append(job)


class Delegate:
    """Settles and defends its own slots, opens collects for its sellers.

    Settlement visits only the slots that can move this block: those whose
    deadline has come (a heap of ``(deadline, key)``) and those in a
    challenge game (the active set, fed from ``LogView.challenged``).
    Collects re-examine only dirty sellers (see ``_open_collects``).

    Two kinds of slot wait outside the active set:

      * a settlement the pool cannot cover is parked (key -> amount). The
        parked slots rejoin the loop in a step whose pool covers the
        smallest of them; in any other step each is counted as refused
        again, since the pool only falls inside the loop (``free_slot`` is
        the one move there that touches it) and only this delegate can
        move a settlement-ready slot. A parked slot has no heap entry left:
        a slot is pushed at its deadline of the moment, and it waits for a
        challenge again only with a deadline later than any it had.
      * a selected entry ``_try_prove`` cannot prove goes back on the heap
        at the slot's deadline, when the game leaves this delegate nothing
        to do: the entry is fixed and its due is frozen.

    Both waits skip only visits that would have done nothing, so the run's
    moves, draws and insolvency count are those of a visit to every slot.
    """

    def __init__(self, ctx, account_id: int, cheating: bool, sellers: list[int]):
        self.ctx = ctx
        self.account_id = account_id
        self.cheating = cheating
        self.sellers = sorted(sellers)
        self._next_slot = [0, 0]                      # probe counters, by instant
        self._seller_set = frozenset(self.sellers)
        self._dirty: set[int] = set(self.sellers)    # sellers to re-examine
        self._matured = 0                            # payments seen matured
        self._drain_seen = False
        self._recipients: dict[tuple[int, int], int] = {}   # own open slot -> recipient
        self._deadlines: list[tuple[int, tuple[int, int]]] = []   # heap of waiting slots
        self._active: set[tuple[int, int]] = set()   # challenged or due slots
        self._parked: dict[tuple[int, int], int] = {}   # stranded slot -> amount
        self._challenged_seen = 0                    # cursor into view.challenged

    def step(self) -> None:
        self.ctx.sync()
        self._settle_and_defend()
        self._open_collects()

    # -- game moves on slots this delegate owns -----------------------------

    def _settle_and_defend(self) -> None:
        ctx = self.ctx
        state = ctx.state
        now = state.current_block
        active = self._active
        heap = self._deadlines
        parked = self._parked
        challenged = ctx.view.challenged
        for i in range(self._challenged_seen, len(challenged)):
            if challenged[i][0] == self.account_id:
                active.add(challenged[i])
        self._challenged_seen = len(challenged)
        while heap and heap[0][0] <= now:
            active.add(heappop(heap)[1])
        if parked:
            if state.covers(min(parked.values())):
                active.update(parked)
                parked.clear()
            else:
                # The pool only falls in this loop, so each would be refused.
                ctx.insolvency_events += len(parked)
        for key in sorted(active):
            slot = state.slots.get(key)
            if slot is None:                      # lost, or a freed slot's stale entry
                active.discard(key)
                recipient = self._recipients.pop(key, None)
                if recipient is not None:
                    self._dirty.add(recipient)
                continue
            delegate_id, slot_id = key
            if legal("free_slot", slot, now):
                if not state.covers(slot.amount):
                    # A short pool cannot pay the settlement: free_slot
                    # would refuse it, so park it until the pool can.
                    ctx.note_insolvency("settlement")
                    active.discard(key)
                    parked[key] = slot.amount
                    continue
                free_slot(state, delegate_id, slot_id)
                active.discard(key)
                self._recipients.pop(key, None)
                self._dirty.add(slot.recipient_id)
            elif legal("challenge_failed", slot, now):
                challenge_failed(state, delegate_id, slot_id)
                active.discard(key)
                heappush(heap, (slot.deadline_block, key))
            elif legal("respond", slot, now):
                self._respond(slot_id, slot)
            elif legal("prove", slot, now):
                if not self._try_prove(slot_id, slot):
                    active.discard(key)           # nothing to do until the deadline
                    heappush(heap, (slot.deadline_block, key))
            elif legal("challenge", slot, now):   # stale entry: its window's
                active.discard(key)                # close is queued already

    def _respond(self, slot_id: int, slot) -> None:
        pairs = self.ctx.view.dues(slot.recipient_id, slot.start_pay_index, slot.end_pay_index)
        delta = slot.amount - sum(due for _, due in pairs)
        if delta < 0:
            raise InvalidParameter(
                "sim delegates never understate; cannot decompose this claim"
            )
        if delta > 0:
            # Spread the inflation pro rata: every entry gets its share, the
            # leftovers land one token at a time from the front. A slot is
            # opened only for a seller owed a committed payment in its
            # range, so ``pairs`` is never empty.
            base, extra = divmod(delta, len(pairs))
            pairs = [
                (idx, due + base + (1 if i < extra else 0))
                for i, (idx, due) in enumerate(pairs)
            ]
        respond_with_payment_list(self.ctx.state, self.account_id, slot_id, pairs)

    def _try_prove(self, slot_id: int, slot) -> bool:
        """Prove the selected entry if the log bears it out; whether it did.

        An entry it cannot prove never becomes provable: the selected entry
        is fixed and lies in a matured range, whose dues are frozen (see
        ``monitor_verdict``). The caller waits for the deadline instead of
        asking again.
        """
        view = self.ctx.view
        pay_index, claimed = slot.challenged_entry
        # Every claimed entry is at least 1 and an uncommitted payment is due
        # 0, so this also sits out a locked or refunded payment.
        if view.entry_due(pay_index, slot.recipient_id) != claimed:
            return False  # inflated entry: nothing provable, sit out the deadline
        pay_data = view.payments[pay_index - 1].pay_data
        prove_payment_inclusion(self.ctx.state, self.account_id, slot_id, pay_data)
        return True

    # -- opening new collects -------------------------------------------------

    def _alloc_slot_id(self, instant: bool) -> int:
        """The next free id in the instant range 32769..65535 or the other,
        0..32768, probed round-robin from where the range's last probe stopped."""
        base = INSTANT_SLOT_THRESHOLD + 1 if instant else 0
        span = SLOT_ID_MAX - INSTANT_SLOT_THRESHOLD if instant else INSTANT_SLOT_THRESHOLD + 1
        slots = self.ctx.state.slots
        for _ in range(span):
            candidate = base + self._next_slot[instant] % span
            self._next_slot[instant] += 1
            if (self.account_id, candidate) not in slots:
                return candidate
        raise InvalidParameter("no free slot id for this delegate")

    def _open_collects(self) -> None:
        """Open a collect for every seller that owes enough, in id order.

        Only dirty sellers are examined. A seller turns clean when an
        examination finds it pending or owed fewer than ``threshold``
        committed payments, and dirty again when something could change
        that: a newly matured payment names it, its slot is freed or lost,
        or draining lowers the threshold. A seller skipped for this
        delegate's balance stays dirty. Matured dues are frozen, so a clean
        seller would give the same answer if examined, and skipping it draws
        nothing from the generator.
        """
        ctx = self.ctx
        cfg = ctx.config
        view = ctx.view
        state = ctx.state
        dirty = self._dirty
        mature = view.mature_end()
        if self._matured < mature:
            mine = self._seller_set
            for payees in view.payees[self._matured:mature]:
                dirty.update(mine.intersection(payees))
            self._matured = mature
        if ctx.draining and not self._drain_seen:
            self._drain_seen = True
            dirty.update(self.sellers)
        threshold = 1 if ctx.draining else cfg.accumulation_threshold
        for seller_id in sorted(dirty):
            if seller_id in state.pending_collects:
                dirty.discard(seller_id)
                continue
            # The engine's prefix: this step's own settlements moved it past the view's.
            prefix = state.collected[seller_id]
            count, entitlement = view.owed(seller_id, prefix, mature)
            if count < threshold:           # threshold >= 1: nothing owed, no collect
                dirty.discard(seller_id)
                continue
            cheat = self.cheating and not ctx.draining
            delta = ctx.rng.randint(cfg.overstatement_min, cfg.overstatement_max) if cheat else 0
            amount = entitlement + delta
            fee = min(cfg.collect_fee, amount)
            instant = ctx.rng.random() < cfg.instant_fraction
            external = ctx.rng.random() < cfg.external_destination_fraction
            destination = f"payout-{seller_id}" if external else None
            advance = amount - fee if instant else 0
            stake = state.params.collect_stake
            if state.balances[self.account_id] < stake + advance:
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
            authorization = sign_collect(state.addresses[seller_id], message)
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
            ctx.cheats_attempted += cheat
            # Pending now, or (instant) its prefix moved up to ``mature``.
            dirty.discard(seller_id)
            key = (self.account_id, slot_id)
            slot = state.slots[key]
            self._recipients[key] = seller_id
            heappush(self._deadlines, (slot.deadline_block, key))


class Monitor:
    """Challenges overstated collects and plays out its games.

    Each step visits only its candidates: slots opened since it last
    looked (read from ``LogView.opened``), plus judged-overstated slots it
    may still challenge. A candidate is dropped once judged not overstated,
    once gone, or once its window has closed unchallenged.

    A game waits until it can move. Its challenger moves in two places: a
    ``select`` once the delegate's list arrives (``LogView.responded``),
    and a ``challenge_success`` at the deadline its own ``challenge`` or
    ``select`` set (a heap of ``(deadline, key)``). Only the delegate moves
    the game in between, and it answers within the deadline or not at all,
    so the games woken in a step are the ones a visit to every game would
    move; a waking that finds the game lost, resolved or still in the
    delegate's hands drops it or does nothing.
    """

    def __init__(self, ctx, account_id: int, lazy: bool):
        self.ctx = ctx
        self.account_id = account_id
        self.lazy = lazy
        self._verdicts: dict[int, str | None] = {}   # position in view.opened -> verdict
        self._candidates: dict[tuple[int, int], int] = {}   # slot key -> position in view.opened
        self._opened_seen = 0                        # cursor into view.opened
        self.games: set[tuple[int, int]] = set()     # keys of the slots it challenged
        self._deadlines: list[tuple[int, tuple[int, int]]] = []   # heap of waiting games
        self._responded_seen = 0                     # cursor into view.responded

    def step(self) -> None:
        self.ctx.sync()
        self._advance_games()
        self._scan_for_new()

    def _advance_games(self) -> None:
        games = self.games
        now = self.ctx.state.current_block
        woken = set()
        responded = self.ctx.view.responded
        for i in range(self._responded_seen, len(responded)):
            if responded[i] in games:
                woken.add(responded[i])
        self._responded_seen = len(responded)
        heap = self._deadlines
        while heap and heap[0][0] <= now:
            key = heappop(heap)[1]
            if key in games:
                woken.add(key)
        for key in sorted(woken):
            self._visit(key, now)

    def _visit(self, key: tuple[int, int], now: int) -> None:
        """Make this monitor's move in the game on ``key``, if it has one."""
        ctx = self.ctx
        state = ctx.state
        slot = state.slots.get(key)
        if slot is None or slot.challenger_id != self.account_id:
            self.games.remove(key)                # lost or already resolved
        elif legal("select", slot, now):
            pay_index, amount = find_inflated_entry(ctx.view, slot)
            select_payment(state, key[0], key[1], pay_index, amount)
            heappush(self._deadlines, (slot.deadline_block, key))
        elif legal("challenge_success", slot, now):
            challenge_success(state, key[0], key[1])
            self.games.remove(key)

    def _scan_for_new(self) -> None:
        ctx = self.ctx
        state = ctx.state
        candidates = self._candidates
        opened = ctx.view.opened
        for pos in range(self._opened_seen, len(opened)):
            if opened[pos][0] != self.account_id:
                candidates[opened[pos]] = pos     # a reopened key takes its new position
        self._opened_seen = len(opened)
        stake = state.params.challenge_stake
        now = state.current_block
        for key in sorted(candidates):
            # The view lags the engine inside a step: read the slot itself.
            slot = state.slots.get(key)
            if slot is None:
                del candidates[key]
                continue
            if not legal("challenge", slot, now):
                if legal("free_slot", slot, now):
                    del candidates[key]           # window closed for good
                continue                          # else in someone's game; may reopen
            pos = candidates[key]
            if pos not in self._verdicts:
                watch = (not self.lazy) or ctx.rng.random() < 0.25
                # An open slot's verdict never changes (see monitor_verdict).
                verdict = monitor_verdict(ctx.view, slot) if watch else None
                self._verdicts[pos] = verdict
            if self._verdicts[pos] != "overstated":
                del candidates[key]
                continue
            if state.balances[self.account_id] < stake:
                continue
            challenge(state, key[0], key[1], self.account_id)
            self.games.add(key)
            heappush(self._deadlines, (slot.deadline_block, key))
