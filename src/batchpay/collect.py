"""The collect operation and its optimistic challenge game.

A delegate opens a collect slot claiming that a recipient is owed
``amount`` over the payment range (start, end]; the claim is backed by the
delegate's stake and the recipient's signed authorization, and is paid out
after a challenge window rather than verified up front. Anyone who stakes
a challenge can force the delegate to break the claim down into
per-payment amounts, pick one entry, and demand the published payee bytes
as proof. An entry whose amount exceeds the recipient's true share of that
payment cannot be proven, so the deadline lapses and the challenger takes
the delegate's stake. A truthful claim always survives: every entry can be
proven from the chain log, which sends the challenger's stake to the
delegate and reopens the settlement window.

Slot ids above the instant threshold advance the recipient's money and
collected prefix at open time out of the delegate's own pocket; the slot
then only settles the delegate's reimbursement. If the delegate loses the
game on an instant slot the recipient keeps the advance and the prefix
stays moved: the delegate alone eats the loss. That asymmetry is the price
of instant finality and is surfaced in simulation reports.

The game's rules are one table, ``MOVES``, read by ``legal``; the
simulator's actors choose moves with it. A move is named by the record it
logs: it enters through ``_check``, which reads the table for that record's
``OP``, and leaves through ``_apply``, which moves the slot and logs the
record. Checks that are not about the game (sums, proofs) stay with each move.

Stakes and instant advances leave balances; settlements leave the escrow
pool for balances or a destination address. Each move makes them in one
``ProtocolState.transfer``, checked in full before the move writes
anything, and writes a slot's ``held_funds`` after it.
"""

from __future__ import annotations

import hashlib

from .auth import collect_auth_message, verify_collect
from .chainlog import (
    Challenged,
    ChallengeFailed,
    ChallengeSucceeded,
    CollectOpened,
    InclusionProved,
    ListResponded,
    PaymentSelected,
    Record,
    SlotFreed,
)
from .codec import decode_pay_data
from .errors import BadProof, BadSignature, IllegalMove, InvalidParameter, UnknownAccount
from .state import (
    SLOT_ID_MAX,
    CollectSlot,
    GameState,
    PaymentStatus,
    ProtocolState,
    ensure_address,
    ensure_bytes,
    ensure_int,
    ensure_u64,
)

# When a move is legal: the values of ``block < deadline`` it is legal for,
# so strictly before the slot's deadline block, at or after it, or always.
BEFORE, AT_OR_AFTER, ANY_TIME = frozenset({True}), frozenset({False}), frozenset({True, False})

# (move, state it is made in) -> (when it is legal, the state it leads to, the
# Params period that sets the new deadline). A move is named as the ``OP`` of
# the record it logs; a pair not listed here is never legal, and a move that
# leads to EMPTY empties the slot.
MOVES: dict[tuple[str, GameState], tuple[frozenset[bool], GameState, str | None]] = {
    ("challenge", GameState.WAITING_CHALLENGE):
        (BEFORE, GameState.CHALLENGE_STARTED, "response_period"),
    ("free_slot", GameState.WAITING_CHALLENGE):
        (AT_OR_AFTER, GameState.EMPTY, None),
    ("respond", GameState.CHALLENGE_STARTED):
        (BEFORE, GameState.WAITING_PAYMENT_SELECTION, "response_period"),
    ("challenge_success", GameState.CHALLENGE_STARTED):
        (AT_OR_AFTER, GameState.EMPTY, None),
    ("select", GameState.WAITING_PAYMENT_SELECTION):
        (BEFORE, GameState.WAITING_PROOF, "response_period"),
    ("challenge_failed", GameState.WAITING_PAYMENT_SELECTION):
        (AT_OR_AFTER, GameState.WAITING_CHALLENGE, "challenge_period"),
    ("prove", GameState.WAITING_PROOF):
        (BEFORE, GameState.PROOF_ACCEPTED, "response_period"),
    ("challenge_success", GameState.WAITING_PROOF):
        (AT_OR_AFTER, GameState.EMPTY, None),
    ("challenge_failed", GameState.PROOF_ACCEPTED):
        (ANY_TIME, GameState.WAITING_CHALLENGE, "challenge_period"),
}
# Every legal (move, state, block < deadline), read off MOVES for one lookup.
_LEGAL = frozenset((*key, before) for key, (when, _, _) in MOVES.items() for before in when)


def legal(move: str, slot: CollectSlot, now: int) -> bool:
    """Whether the game lets ``move`` be made on ``slot`` at block ``now``."""
    return (move, slot.game_state, now < slot.deadline_block) in _LEGAL


def _check(state: ProtocolState, move: type[Record], delegate_id: int, slot_id: int) -> CollectSlot:
    """The slot ``move.OP`` is made on; IllegalMove if the game does not allow it now."""
    # Ids are typed first: 2.0 would find slot 2 and log a record no codec encodes.
    if type(delegate_id) is not int:
        ensure_int(delegate_id, "account id", UnknownAccount)
    if type(slot_id) is not int:
        ensure_int(slot_id, "slot id")
    slot = state.slots.get((delegate_id, slot_id))
    if slot is None:
        raise IllegalMove(f"slot ({delegate_id}, {slot_id}) is empty")
    if not legal(move.OP, slot, state.current_block):
        raise IllegalMove(
            f"{move.OP} is not legal on slot ({delegate_id}, {slot_id}) in {slot.game_state.name} "
            f"at block {state.current_block} (deadline {slot.deadline_block})"
        )
    return slot


def _apply(state: ProtocolState, slot: CollectSlot, record: Record) -> None:
    """Move the slot as MOVES says for ``record.OP`` (an emptied one leaves the map); log it."""
    _, leads_to, period = MOVES[record.OP, slot.game_state]
    if leads_to == GameState.EMPTY:
        state.close_slot(slot)
    else:
        slot.game_state = leads_to
        slot.deadline_block = state.current_block + getattr(state.params, period)
    state.log.append(record)


def collect(
    state: ProtocolState,
    delegate_id: int,
    slot_id: int,
    recipient_id: int,
    last_payment_index: int,
    amount: int,
    fee: int,
    authorization: bytes,
    destination_address: str | None = None,
) -> None:
    """Open a collect slot claiming ``amount`` for the recipient.

    The claimed range runs from the recipient's collected prefix
    (exclusive) to ``last_payment_index`` (inclusive), which must not
    exceed the newest payment whose unlock window has elapsed.
    """
    if not 0 <= ensure_int(slot_id, "slot id") <= SLOT_ID_MAX:
        raise InvalidParameter(f"slot id {slot_id} outside [0, {SLOT_ID_MAX}]")
    # The delegate is looked up first, as ``_check`` types ids first: 2.0 is
    # refused as no id whether or not slot (2, ...) is occupied.
    state.owner(delegate_id)
    if (delegate_id, slot_id) in state.slots:
        raise IllegalMove(f"slot ({delegate_id}, {slot_id}) is occupied")
    recipient_address = state.owner(recipient_id)
    ensure_u64(amount, "collect amount")
    ensure_u64(fee, "collect fee")
    ensure_u64(last_payment_index, "last payment index")
    if fee > amount:
        raise InvalidParameter(f"fee {fee} exceeds amount {amount}")
    if destination_address is not None:
        ensure_address(destination_address, "destination address")
    start_pay_index = state.collected[recipient_id]
    if last_payment_index <= start_pay_index:
        raise IllegalMove(
            f"range end {last_payment_index} not past collected prefix {start_pay_index}"
        )
    mature = state.latest_collectable_pay_index()
    if last_payment_index > mature:
        raise IllegalMove(
            f"range end {last_payment_index} beyond matured payments ({mature})"
        )
    # One pending non-instant collect per recipient: its range is not
    # consumed until settlement, so a second claim would overlap it.
    pending = state.pending_collects.get(recipient_id)
    if pending is not None:
        raise IllegalMove(
            f"recipient {recipient_id} already has a pending collect "
            f"(slot ({pending[0]}, {pending[1]}))"
        )
    message = collect_auth_message(
        state.instance_id,
        delegate_id,
        slot_id,
        recipient_id,
        last_payment_index,
        amount,
        fee,
        destination_address,
    )
    authorization = ensure_bytes(authorization, "collect authorization")
    if len(authorization) != 32 or not verify_collect(recipient_address, message, authorization):
        raise BadSignature("collect authorization does not verify")
    instant = slot_id > state.params.instant_slot_threshold
    stake = state.params.collect_stake
    if instant:
        advance = amount - fee
        state.transfer([
            (delegate_id, -(stake + advance)),
            (destination_address or recipient_id, advance),
        ])
        state.set_collected(recipient_id, last_payment_index)
    else:
        state.transfer([(delegate_id, -stake)])
    state.open_slot(CollectSlot(
        delegate_id=delegate_id,
        slot_id=slot_id,
        recipient_id=recipient_id,
        start_pay_index=start_pay_index,
        end_pay_index=last_payment_index,
        amount=amount,
        fee=fee,
        destination_address=destination_address,
        instant=instant,
        game_state=GameState.WAITING_CHALLENGE,
        deadline_block=state.current_block + state.params.challenge_period,
        held_funds=stake,
    ))
    state.log.append(
        CollectOpened(
            delegate_id,
            slot_id,
            recipient_id,
            last_payment_index,
            amount,
            fee,
            destination_address,
            authorization,
        )
    )


def free_slot(state: ProtocolState, delegate_id: int, slot_id: int) -> None:
    """Settle an unchallenged collect after its window and empty the slot.

    A settlement the escrow pool cannot cover is refused with IllegalMove
    and writes nothing; the slot stays, and may settle once the pool can.
    """
    slot = _check(state, SlotFreed, delegate_id, slot_id)
    if slot.instant:
        # Reimburse the advance and pay the fee; the recipient was paid at open.
        state.transfer(
            [(delegate_id, slot.amount + slot.held_funds)], pool=-slot.amount, what="settlement"
        )
    else:
        state.transfer([
            (slot.destination_address or slot.recipient_id, slot.amount - slot.fee),
            (delegate_id, slot.fee + slot.held_funds),
        ], pool=-slot.amount, what="settlement")
        recipient_id = slot.recipient_id
        state.set_collected(recipient_id, max(state.collected[recipient_id], slot.end_pay_index))
    _apply(state, slot, SlotFreed(delegate_id, slot_id))


def challenge(state: ProtocolState, delegate_id: int, slot_id: int, challenger_id: int) -> None:
    """Stake against a pending collect, opening the verification game."""
    slot = _check(state, Challenged, delegate_id, slot_id)
    if challenger_id == delegate_id:
        raise IllegalMove("a delegate cannot challenge its own slot")
    state.owner(challenger_id)
    stake = state.params.challenge_stake
    state.transfer([(challenger_id, -stake)])
    slot.held_funds += stake
    slot.challenger_id = challenger_id
    _apply(state, slot, Challenged(delegate_id, slot_id, challenger_id))


def respond_with_payment_list(
    state: ProtocolState,
    delegate_id: int,
    slot_id: int,
    pairs: list[tuple[int, int]] | tuple[tuple[int, int], ...],
) -> None:
    """Delegate breaks the claim into per-payment amounts summing to it.

    Entries must carry strictly increasing payment indexes inside the
    slot's range. A rejected list is a no-op; the delegate may retry until
    the deadline.
    """
    slot = _check(state, ListResponded, delegate_id, slot_id)
    try:
        entries = tuple((i, a) for i, a in pairs)
    except (TypeError, ValueError):
        raise InvalidParameter("payment list must be (payment index, amount) pairs") from None
    total = 0
    prev = slot.start_pay_index
    for pay_index, entry_amount in entries:
        ensure_u64(pay_index, "list entry payment index")
        ensure_u64(entry_amount, "list entry amount")
        if pay_index <= prev:
            raise InvalidParameter("payment indexes must be strictly increasing in range")
        if pay_index > slot.end_pay_index:
            raise InvalidParameter(
                f"payment {pay_index} outside range ({slot.start_pay_index}, "
                f"{slot.end_pay_index}]"
            )
        prev = pay_index
        total += entry_amount
    if total != slot.amount:
        raise InvalidParameter(f"list sums to {total}, claim is {slot.amount}")
    slot.challenge_list = entries
    _apply(state, slot, ListResponded(delegate_id, slot_id, slot.challenge_list))


def select_payment(
    state: ProtocolState, delegate_id: int, slot_id: int, pay_index: int, amount: int
) -> None:
    """Challenger singles out one disclosed entry for proof."""
    slot = _check(state, PaymentSelected, delegate_id, slot_id)
    # 1.0 == 1, so a float would pass the membership test and corrupt the slot.
    ensure_u64(pay_index, "selected payment index")
    ensure_u64(amount, "selected amount")
    if (pay_index, amount) not in slot.challenge_list:
        raise InvalidParameter(f"({pay_index}, {amount}) is not in the disclosed list")
    slot.challenged_entry = (pay_index, amount)
    _apply(state, slot, PaymentSelected(delegate_id, slot_id, pay_index, amount))


def prove_payment_inclusion(
    state: ProtocolState, delegate_id: int, slot_id: int, pay_data: bytes
) -> None:
    """Delegate proves the selected entry from the published payee bytes.

    The bytes must hash to the payment's stored digest, the payment must be
    committed, and the recipient's occurrences times the per-destination
    amount must equal the selected amount exactly. A failed proof is a
    no-op and may be retried until the deadline.
    """
    slot = _check(state, InclusionProved, delegate_id, slot_id)
    pay_data = ensure_bytes(pay_data, "pay data")
    pay_index, claimed = slot.challenged_entry
    payment = state.payment(pay_index)
    if hashlib.sha256(pay_data).digest() != payment.pay_data_digest:
        raise BadProof("payee bytes do not match the payment's digest")
    if payment.status != PaymentStatus.COMMITTED:
        raise BadProof(f"payment {pay_index} is {payment.status.name}, not COMMITTED")
    due = decode_pay_data(pay_data).count(slot.recipient_id) * payment.per_destination
    if due != claimed:
        raise BadProof(
            f"recipient {slot.recipient_id} is due {due} from payment "
            f"{pay_index}, entry claims {claimed}"
        )
    _apply(state, slot, InclusionProved(delegate_id, slot_id, pay_data))


def challenge_success(state: ProtocolState, delegate_id: int, slot_id: int) -> None:
    """Challenger wins on delegate timeout: takes both stakes, slot empties.

    For a non-instant slot the recipient's prefix was never advanced, so
    the entitlement stays collectable; an instant slot's advance stays with
    the recipient at the delegate's expense.
    """
    slot = _check(state, ChallengeSucceeded, delegate_id, slot_id)
    state.transfer([(slot.challenger_id, slot.held_funds)])
    _apply(state, slot, ChallengeSucceeded(delegate_id, slot_id))


def challenge_failed(state: ProtocolState, delegate_id: int, slot_id: int) -> None:
    """Delegate wins: takes the challenger's stake, slot reopens fresh.

    The slot returns to WAITING_CHALLENGE with a full new challenge window,
    open to new challengers.
    """
    slot = _check(state, ChallengeFailed, delegate_id, slot_id)
    stake = state.params.challenge_stake
    state.transfer([(delegate_id, stake)])
    slot.held_funds -= stake
    slot.challenger_id = None
    slot.challenge_list = None
    slot.challenged_entry = None
    _apply(state, slot, ChallengeFailed(delegate_id, slot_id))
