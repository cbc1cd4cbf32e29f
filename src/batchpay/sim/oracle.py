"""Balance and entitlement oracles driven purely by the public chain log.

LogView replays the record stream into a shadow ledger that never touches
the engine's state objects. It exists to double-check the engine: settled
balances reconstructed here must match the ledger at every block boundary,
and the entitlement computation is what honest monitors trust when
deciding whether a collect claim is inflated.

Entitlement queries read a posting index instead of scanning payments:
for every account, the ascending pay indices of the payments that name it,
with the number of times each names it in a parallel list. Feeding a
``PaymentRegistered`` record appends one posting per distinct payee, so a
query over (start, end] costs a bisection plus one step per payment in
the range that names the account, not one ``list.count`` per payment in
the range.

Matured postings also carry running totals: how many of the account's
payments up to each posting are committed, and what they owe it in sum.
A matured payment's due is frozen (an unlock is legal only before
maturity, and a refund turns a due of 0 into 0), so the totals are
appended once, when ``mature_end()`` passes the payment, and ``owed``
answers any matured range with two bisections. ``collectable`` (and with
it ``oracle_balance``) and ``monitor_verdict`` price their ranges, which
are all matured, through ``owed``; ``dues`` and ``entitlement`` step
through the postings and stay for ranges that may reach past maturity.

For the simulator's actors, which react to changes instead of rescanning,
the view also keeps three append-only lists: ``opened`` (the slot key of
every ``CollectOpened``, so a slot's ``open_seq`` is its position there),
``challenged`` (the slot key of every ``Challenged``) and ``payees`` (the
distinct payee ids of every payment, by pay index - 1). An actor holds a
cursor into each list it follows and reads only what was appended since.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from ..chainlog import (
    Advanced,
    BulkRegistered,
    ChainLog,
    Challenged,
    ChallengeFailed,
    ChallengeSucceeded,
    Claimed,
    CollectOpened,
    Deposited,
    FinalDigest,
    InclusionProved,
    Instantiated,
    ListResponded,
    PaymentRegistered,
    PaymentSelected,
    Refunded,
    Registered,
    SlotFreed,
    Unlocked,
    Withdrawn,
)
from ..codec import decode_pay_data
from ..errors import InvalidParameter
from ..wire import unpack


@dataclass(slots=True)
class _ViewPayment:
    payee_count: int
    per_destination: int
    status: str                   # "committed" | "locked" | "refunded"
    collectable_from: int
    total_escrow: int
    from_id: int
    pay_data: bytes               # the record's payee bytes, what a proof sends


@dataclass(slots=True)
class _ViewSlot:
    recipient_id: int
    end: int
    amount: int
    fee: int
    destination: str | None
    instant: bool
    open_seq: int                 # ordinal of the CollectOpened record
    challenger_id: int | None = None


# (pay indices, occurrences, committed count and due total before each
# matured posting, with a leading 0: entry k covers the first k postings)
_NO_POSTINGS: tuple[list[int], list[int], list[int], list[int]] = ([], [], [0], [0])


class LogView:
    """Incrementally consumable shadow ledger built from log records only."""

    def __init__(self) -> None:
        self.block = 0
        self.balances: dict[int, int] = {}
        self.payments: list[_ViewPayment] = []
        # account -> (pay indices naming it, ascending; occurrences in each;
        # running committed counts and dues over its matured postings)
        self._postings: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}
        self.payees: list[tuple[int, ...]] = []      # distinct payee ids, by pay index - 1
        self.prefixes: dict[int, int] = {}
        self.slots: dict[tuple[int, int], _ViewSlot] = {}
        self.opened: list[tuple[int, int]] = []      # slot key per CollectOpened, by open_seq
        self.challenged: list[tuple[int, int]] = []  # slot key per Challenged
        self.responded: list[tuple[int, int]] = []   # slot key per ListResponded
        self.collect_stake = 0
        self.challenge_stake = 0
        self.unlock_period = 0
        self.instant_slot_threshold = 32768
        self._consumed = 0
        self._mature = 0

    # -- feeding -------------------------------------------------------------

    def feed(self, log: ChainLog) -> None:
        """Consume any records appended since the last feed."""
        for rec in log.records[self._consumed:]:
            handler = _APPLY.get(type(rec))
            if handler is None:
                raise InvalidParameter(f"unhandled record {type(rec).__name__}")
            handler(self, rec)
        self._consumed = len(log.records)

    def _credit(self, account_id: int, amount: int) -> None:
        self.balances[account_id] = self.balances.get(account_id, 0) + amount

    def _instantiated(self, rec: Instantiated) -> None:
        # the params blob: table bound, unlock period, two game periods,
        # both stakes, batch size bound, instant slot threshold
        (_, self.unlock_period, _, _, self.collect_stake, self.challenge_stake, _,
         self.instant_slot_threshold) = unpack(("u64",) * 8, rec.params_blob)

    def _bulk_registered(self, rec: BulkRegistered) -> None:
        for i in range(rec.first_id, rec.first_id + rec.count):
            self.balances.setdefault(i, 0)

    def _advanced(self, rec: Advanced) -> None:
        self.block += rec.blocks

    def _payment_registered(self, rec: PaymentRegistered) -> None:
        ids = decode_pay_data(rec.pay_data)
        escrow = rec.per_destination * len(ids) + rec.unlocker_fee
        self._credit(rec.from_id, -escrow)
        self.payments.append(
            _ViewPayment(
                len(ids),
                rec.per_destination,
                "locked" if rec.locking_key_hash is not None else "committed",
                self.block + self.unlock_period,
                escrow,
                rec.from_id,
                rec.pay_data,
            )
        )
        pay_index = len(self.payments)
        counted = Counter(ids)
        self.payees.append(tuple(counted))
        for account_id, count in counted.items():
            posting = self._postings.get(account_id)
            if posting is None:
                posting = self._postings[account_id] = ([], [], [0], [0])
            posting[0].append(pay_index)
            posting[1].append(count)

    def _unlocked(self, rec: Unlocked) -> None:
        p = self.payments[rec.pay_index - 1]
        p.status = "committed"
        fee = p.total_escrow - p.per_destination * p.payee_count
        self._credit(rec.unlocker_id, fee)

    def _refunded(self, rec: Refunded) -> None:
        p = self.payments[rec.pay_index - 1]
        p.status = "refunded"
        self._credit(p.from_id, p.total_escrow)

    def _collect_opened(self, rec: CollectOpened) -> None:
        instant = rec.slot_id > self.instant_slot_threshold
        debit = self.collect_stake
        if instant:
            advance = rec.amount - rec.fee
            debit += advance
            if rec.destination_address is None:
                self._credit(rec.recipient_id, advance)
            self.prefixes[rec.recipient_id] = rec.last_payment_index
        self._credit(rec.delegate_id, -debit)
        key = (rec.delegate_id, rec.slot_id)
        self.slots[key] = _ViewSlot(
            rec.recipient_id, rec.last_payment_index,
            rec.amount, rec.fee, rec.destination_address, instant,
            len(self.opened),
        )
        self.opened.append(key)

    def _challenged(self, rec: Challenged) -> None:
        self._credit(rec.challenger_id, -self.challenge_stake)
        key = (rec.delegate_id, rec.slot_id)
        self.slots[key].challenger_id = rec.challenger_id
        self.challenged.append(key)

    def _list_responded(self, rec: ListResponded) -> None:
        self.responded.append((rec.delegate_id, rec.slot_id))

    def _challenge_succeeded(self, rec: ChallengeSucceeded) -> None:
        slot = self.slots.pop((rec.delegate_id, rec.slot_id))
        self._credit(slot.challenger_id, self.collect_stake + self.challenge_stake)

    def _challenge_failed(self, rec: ChallengeFailed) -> None:
        slot = self.slots[(rec.delegate_id, rec.slot_id)]
        self._credit(rec.delegate_id, self.challenge_stake)
        slot.challenger_id = None

    def _slot_freed(self, rec: SlotFreed) -> None:
        slot = self.slots.pop((rec.delegate_id, rec.slot_id))
        if slot.instant:
            self._credit(rec.delegate_id, slot.amount + self.collect_stake)
        else:
            if slot.destination is None:
                self._credit(slot.recipient_id, slot.amount - slot.fee)
            self._credit(rec.delegate_id, slot.fee + self.collect_stake)
            self.prefixes[slot.recipient_id] = max(
                self.prefixes.get(slot.recipient_id, 0), slot.end
            )

    # -- queries ---------------------------------------------------------------

    def occurrences(self, pay_index: int, account_id: int) -> int:
        """How many times one payment names an account.

        One bisection over the account's postings.
        """
        indices, counts, _, _ = self._postings.get(account_id, _NO_POSTINGS)
        k = bisect_left(indices, pay_index)
        return counts[k] if k < len(indices) and indices[k] == pay_index else 0

    def owed(self, account_id: int, start: int, end: int) -> tuple[int, int]:
        """``(count, total)`` of the committed payments in (start, end] that
        name the account: ``len`` and due sum of ``dues`` over the range.

        Valid only for ``end <= mature_end()``, where the running totals
        reach. Two bisections, whatever the range's length.
        """
        if end > self._mature:
            raise InvalidParameter(f"owed range ends at {end}, past matured {self._mature}")
        indices, _, committed, due = self._postings.get(account_id, _NO_POSTINGS)
        lo = bisect_right(indices, start)
        hi = bisect_right(indices, end)
        if hi <= lo:
            return (0, 0)
        return (committed[hi] - committed[lo], due[hi] - due[lo])

    def dues(self, account_id: int, start: int, end: int) -> list[tuple[int, int]]:
        """``(pay_index, due)`` for each committed payment in (start, end]
        that names the account, in pay-index order.

        Every due is positive, since per-destination amounts are at least 1.
        Two bisections, then one step per payment in the range that names
        the account.
        """
        indices, counts, _, _ = self._postings.get(account_id, _NO_POSTINGS)
        payments = self.payments
        out = []
        for k in range(bisect_right(indices, start), bisect_right(indices, end)):
            p = payments[indices[k] - 1]
            if p.status == "committed":
                out.append((indices[k], counts[k] * p.per_destination))
        return out

    def entitlement(self, account_id: int, start: int, end: int) -> int:
        """Committed-payment entitlement over (start, end], log-derived.

        The sum of ``dues`` over the same range, at the same cost.
        """
        return sum(due for _, due in self.dues(account_id, start, end))

    def entry_due(self, pay_index: int, account_id: int) -> int:
        """What one payment actually owes an account (0 unless committed).

        One bisection over the account's postings.
        """
        p = self.payments[pay_index - 1]
        if p.status != "committed":
            return 0
        return self.occurrences(pay_index, account_id) * p.per_destination

    def mature_end(self) -> int:
        """Highest pay index whose unlock window has closed; amortized O(1)
        per payee of each payment it passes.

        Passing a payment appends its committed flag and due to the running
        totals of every account it names.
        """
        # collectable_from is non-decreasing in pay index (fixed unlock
        # period, blocks only move forward), so a cursor suffices. Postings
        # are appended in pay-index order, so in each payee's list this
        # payment's posting is the first the running totals do not cover.
        payments = self.payments
        postings = self._postings
        while self._mature < len(payments) and payments[self._mature].collectable_from <= self.block:
            p = payments[self._mature]
            committed = p.status == "committed"
            for account_id in self.payees[self._mature]:
                _, counts, n, due = postings[account_id]
                k = len(n) - 1                    # this payment's posting
                if committed:
                    n.append(n[k] + 1)
                    due.append(due[k] + counts[k] * p.per_destination)
                else:
                    n.append(n[k])
                    due.append(due[k])
            self._mature += 1
        return self._mature

    def settled_balance(self, account_id: int) -> int:
        return self.balances.get(account_id, 0)

    def collectable(self, account_id: int) -> int:
        """Matured entitlement past the account's settled prefix.

        Two bisections of the running totals (``owed``).
        """
        return self.owed(account_id, self.prefixes.get(account_id, 0), self.mature_end())[1]

    def oracle_balance(self, account_id: int) -> int:
        """Settled balance plus still-collectable entitlement."""
        return self.settled_balance(account_id) + self.collectable(account_id)


# The oracle's own record dispatch, independent of replay's handler table.
# The records that move no balance the view tracks map to a no-op.
_APPLY = {
    Instantiated: LogView._instantiated,
    Registered: lambda view, rec: view.balances.setdefault(rec.account_id, 0),
    BulkRegistered: LogView._bulk_registered,
    Deposited: lambda view, rec: view._credit(rec.account_id, rec.amount),
    Withdrawn: lambda view, rec: view._credit(rec.account_id, -rec.amount),
    Advanced: LogView._advanced,
    PaymentRegistered: LogView._payment_registered,
    Unlocked: LogView._unlocked,
    Refunded: LogView._refunded,
    CollectOpened: LogView._collect_opened,
    Challenged: LogView._challenged,
    ListResponded: LogView._list_responded,
    ChallengeSucceeded: LogView._challenge_succeeded,
    ChallengeFailed: LogView._challenge_failed,
    SlotFreed: LogView._slot_freed,
    **dict.fromkeys(
        (Claimed, PaymentSelected, InclusionProved, FinalDigest), lambda view, rec: None
    ),
}


def view_of(log: ChainLog) -> LogView:
    view = LogView()
    view.feed(log)
    return view


def oracle_balance(log: ChainLog, account_id: int) -> int:
    """One-shot convenience over a full log."""
    return view_of(log).oracle_balance(account_id)


# -- canonical monitor strategy ------------------------------------------------

def monitor_verdict(view: LogView, slot) -> str:
    """Judge a pending collect claim against the log.

    Returns "overstated" when the claim exceeds the true entitlement over
    the slot's range (the winnable case), "understated" when it falls short
    (protocol-legal but seller-harming, flagged only), and "ok" otherwise.
    Costs two bisections of the running totals (``owed``), after
    ``mature_end()`` brings them up to the view's block.

    The verdict on an open slot never changes, so a monitor may judge each
    slot once. The claimed amount and the range are fixed at open, and
    every payment in the range had matured by then (the engine opens only
    ranges that end at or below maturity, which is also why ``owed`` can
    answer). An unlock is legal only strictly before its payment matures,
    so no due in the range can grow; a refund turns a locked payment's due
    of 0 into 0.
    """
    view.mature_end()
    _, true = view.owed(slot.recipient_id, slot.start_pay_index, slot.end_pay_index)
    if slot.amount > true:
        return "overstated"
    if slot.amount < true:
        return "understated"
    return "ok"


def find_inflated_entry(view: LogView, slot) -> tuple[int, int]:
    """First disclosed entry claiming more than its payment owes.

    When the disclosed list sums to more than the true entitlement, some
    entry must exceed its payment's true share (pigeonhole), so this cannot
    miss against an overstated claim. Costs one ``entry_due`` query per
    disclosed entry.
    """
    for pay_index, amount in slot.challenge_list:
        if amount > view.entry_due(pay_index, slot.recipient_id):
            return (pay_index, amount)
    raise InvalidParameter("no inflated entry: the disclosed list is honest")
