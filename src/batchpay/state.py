"""Core protocol state: parameters, accounts, token custody, block clock.

The account table is three list columns by 32-bit id: each account's
owner address (None while reserved by a bulk registration), balance and
collected prefix. An id is allocated once and never reused. The per-block
check compares the two value columns whole with shadows the engine's write
sites keep. Token custody is a single reserve held against an external
balance map (the token adapter). All token quantities are unsigned 64-bit
integers and leaving that range anywhere is a hard error.

Money inside the protocol lives in exactly three places, and the
conservation invariant ties them to the reserve after every operation:

    reserve == sum(account balances) + escrow pool + sum(slot held funds)

The escrow pool is the custody cell for registered payments: it grows by
the full escrow on registration and drains on unlock fees, refunds, and
collect settlements. Settlements drain the pool by the claimed amount
(claims are only verified optimistically, so per-payment attribution is
not observable by the ledger).

Tokens enter custody only by ``deposit``. Every other move between
balances, the escrow pool and external addresses is one
``ProtocolState.transfer`` per operation, which checks every move before
it applies any and refuses a payout the pool cannot cover with
IllegalMove; so a negative pool can only be a bug, and trips the invariant.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import IntEnum
from functools import cache
from operator import attrgetter
from typing import Annotated

from .chainlog import (
    NEW_ACCOUNT_WIRE,
    Advanced,
    ChainLog,
    Deposited,
    Instantiated,
    Withdrawn,
)
from .errors import (
    AmountOutOfRange,
    IllegalMove,
    InsufficientFunds,
    InvalidParameter,
    InvariantViolation,
    TableFull,
    Unauthorized,
    UnknownAccount,
)
from .wire import (
    B32, U16, U16_MAX, U32, U64, U64_MAX, OptB32, OptPair, OptPairs, OptStr, OptU32, Str, kinds,
    layout, pack_rows, packer, values_packer,
)

# Slot ids above this value are instant-collect slots; the boundary itself
# is not instant. Fixed by the protocol, independent of configuration.
INSTANT_SLOT_THRESHOLD = 32768
SLOT_ID_MAX = 65535

MAX_ACCOUNT_ID_SPACE = 2**32 - 1  # one below the wire sentinel

# deposit() to NEW_ACCOUNT opens a fresh account for the depositor.
NEW_ACCOUNT = NEW_ACCOUNT_WIRE


def ensure_u64(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameter(f"{what} must be an integer")
    if value < 0 or value > U64_MAX:
        raise AmountOutOfRange(f"{what} {value} outside unsigned 64-bit range")
    return value


def setting(default, lo=None, hi=None, section: str | None = None):
    """A field ``check_settings`` keeps in [lo, hi], read from config ``section``.

    A field declared with no range is a boolean, or a price ``check_price`` checks.
    """
    bounds = None if lo is None else (lo, hi)
    return field(default=default, metadata={"range": bounds, "section": section})


@cache
def _ranges(cls) -> list[tuple]:
    """``(name, integer-only, lo, hi)`` per field of ``cls`` declared with a range."""
    ranged = [f for f in fields(cls) if f.metadata.get("range")]
    return [(f.name, type(f.default) is int, *f.metadata["range"]) for f in ranged]


def check_settings(obj) -> None:
    """Refuse any ``setting`` field of ``obj`` outside its declared range."""
    for name, integer, lo, hi in _ranges(type(obj)):
        value = getattr(obj, name)
        if integer and (not isinstance(value, int) or isinstance(value, bool)):
            raise InvalidParameter(f"{name} must be an integer")
        if not lo <= value <= hi:
            bound = f">= {lo}" if value < lo else f"<= {hi}"
            raise InvalidParameter(f"{name} must be {bound}, got {value}")


def ensure_bytes(value, what: str) -> bytes:
    """``value``'s bytes; InvalidParameter if it is not a bytes-like object."""
    if type(value) is bytes:
        return value
    try:
        return memoryview(value).tobytes()
    except TypeError:
        raise InvalidParameter(f"{what} must be bytes-like, got {type(value).__name__}") from None


def ensure_int(value, what: str, error=InvalidParameter) -> int:
    """``value`` if it is an int and not a bool; else ``error``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def ensure_address(address: str, what: str) -> None:
    """Refuse an empty address, or one a log record cannot carry."""
    if not isinstance(address, str):
        raise InvalidParameter(f"{what} must be a string, got {address!r}")
    if not address:
        raise InvalidParameter(f"{what} must be non-empty")
    try:
        size = len(address.encode("utf-8"))
    except UnicodeEncodeError:
        raise InvalidParameter(f"{what} is not encodable as UTF-8") from None
    if size > U16_MAX:
        raise InvalidParameter(f"{what} is longer than {U16_MAX} UTF-8 bytes")


@dataclass
class Params:
    """Protocol constants, fixed at instantiation."""

    max_account_count: U64 = setting(MAX_ACCOUNT_ID_SPACE, 1, MAX_ACCOUNT_ID_SPACE)
    unlock_period: U64 = setting(10, 1, U64_MAX)
    challenge_period: U64 = setting(30, 1, U64_MAX)   # collect settlement window (game state 1)
    response_period: U64 = setting(10, 1, U64_MAX)    # per-move window inside a challenge
    collect_stake: U64 = setting(100, 1, U64_MAX)
    challenge_stake: U64 = setting(50, 1, U64_MAX)
    max_payments_per_batch: U64 = setting(10000, 1, U64_MAX)
    instant_slot_threshold: U64 = setting(
        INSTANT_SLOT_THRESHOLD, INSTANT_SLOT_THRESHOLD, INSTANT_SLOT_THRESHOLD
    )

    def validate(self) -> None:
        check_settings(self)

    def canonical_bytes(self) -> bytes:
        return _pack_params(self)


@dataclass
class External:
    """A row of the adapter's snapshot: an external address and its balance."""

    address: Str
    balance: U64


class TokenAdapter:
    """External token balances plus the protocol's custody reserve.

    mint() is provisioning plumbing for tests and scenario setup; inside a
    run the only flows are deposit and withdraw, which preserve the
    adapter's total. ``minted`` is everything ever minted, so
    ``check_invariants`` can tell a flow that created or lost tokens.
    Its snapshot is one ``External`` row per address, sorted by address.
    """

    def __init__(self, balances: dict[str, int] | None = None):
        self.external: dict[str, int] = {}
        self.reserve = 0
        self.minted = 0
        for addr, amount in (balances or {}).items():
            self.mint(addr, amount)

    def mint(self, address: str, amount: int) -> None:
        ensure_u64(amount, "mint amount")
        self.external[address] = ensure_u64(
            self.external.get(address, 0) + amount, "external balance"
        )
        self.minted += amount

    def balance_of(self, address: str) -> int:
        return self.external.get(address, 0)

    def deposit(self, from_address: str, amount: int) -> None:
        held = self.external.get(from_address, 0)
        if held < amount:
            raise InsufficientFunds(f"address {from_address!r} holds {held} < {amount}")
        reserve = ensure_u64(self.reserve + amount, "reserve")
        self.external[from_address] = held - amount
        self.reserve = reserve

    def check_withdraw(self, to_address: str, amount: int) -> int:
        """Raise what withdraw() would raise; return the address's new balance."""
        if self.reserve < amount:
            raise InvariantViolation("conservation", "reserve underflow on withdraw")
        return ensure_u64(self.external.get(to_address, 0) + amount, "external balance")

    def withdraw(self, to_address: str, amount: int) -> None:
        held = self.check_withdraw(to_address, amount)
        self.reserve -= amount
        self.external[to_address] = held

    def total(self) -> int:
        return self.reserve + sum(self.external.values())

    def snapshot_bytes(self) -> bytes:
        addresses = sorted(self.external)
        return pack_rows(_pack_external, addresses, map(self.external.__getitem__, addresses))


@dataclass
class Account:
    """The state image's account row, packed from the table's columns by id."""

    account_id: U32
    address: OptStr               # None while reserved via bulk registration
    balance: U64
    last_collected_pay_index: U64


class PaymentStatus(IntEnum):
    COMMITTED = 0
    LOCKED = 1
    REFUNDED = 2


@dataclass
class Payment:
    pay_index: int                # its position in the table, so off the layout
    from_id: U32
    per_destination: U64
    payee_count: U32
    pay_data_digest: B32
    total_escrow: U64
    unlocker_fee: U64
    status: Annotated[PaymentStatus, "u8"]
    locking_key_hash: OptB32
    registered_at_block: U64
    collectable_from_block: U64


@dataclass
class BulkRegistration:
    bulk_id: U32
    first_id: U32
    count: U32
    root: B32
    registered_at_block: U64


class GameState(IntEnum):
    """Collect slot lifecycle; EMPTY slots are simply absent from the map."""

    EMPTY = 0
    WAITING_CHALLENGE = 1
    CHALLENGE_STARTED = 2
    WAITING_PAYMENT_SELECTION = 3
    WAITING_PROOF = 4
    PROOF_ACCEPTED = 5


class _SlotMarks:
    """What an ``OpenSlot`` keeps beside a collect slot's fields: the mark set
    of the state whose map holds it, and its key in that map."""

    __slots__ = ("_marks", "_key")


@dataclass(eq=False, slots=True)
class CollectSlot(_SlotMarks):
    """One collect slot. Slots compare and hash by identity.

    A slot in a state's map is an ``OpenSlot``: ``ProtocolState.open_slot``
    makes it one, so building a slot marks nothing.
    """

    delegate_id: U32
    slot_id: U16
    recipient_id: U32
    start_pay_index: U64          # exclusive
    end_pay_index: U64            # inclusive
    amount: U64
    fee: U64
    destination_address: OptStr
    instant: Annotated[bool, "u8"]
    game_state: Annotated[GameState, "u8"]
    deadline_block: U64
    held_funds: U64               # stakes currently escrowed in the slot
    challenger_id: OptU32 = None
    challenge_list: OptPairs = None
    challenged_entry: OptPair = None


_store = object.__setattr__    # sets a slot past ``OpenSlot.__setattr__``


class OpenSlot(CollectSlot):
    """A collect slot in a state's map: every write to it marks it on that
    state, so ``check_invariants`` sees each slot written since its last call."""

    __slots__ = ()

    def __setattr__(self, name, value) -> None:
        _store(self, name, value)
        try:
            self._marks[self] = None
        except AttributeError:        # built as an OpenSlot, in no state's map
            pass

    def __setstate__(self, state) -> None:
        """Restore a copy's slots, marking nothing."""
        for name, value in state[1].items():
            _store(self, name, value)


class ProtocolState:
    """One protocol instance: the full on-chain state for a run.

    Two indexes are derived from the rows and kept beside them, outside
    ``canonical_bytes()`` and the digest: ``pending_collects`` (recipient id
    -> key of its one non-instant slot) and ``open_locks`` (pay index -> each
    LOCKED payment, in pay-index order).
    """

    def __init__(self, params: Params, adapter: TokenAdapter):
        params.validate()
        self.params = params
        self.adapter = adapter
        self.current_block = 0       # the only notion of time in a run
        # The account table, by id: each account's owner address (None while
        # reserved by a bulk registration), balance and collected prefix.
        # Beside each value column, a shadow that only the engine's write
        # sites write, storing the same int object in both, so one compare in
        # C shows whether a cell was written behind its back. The shadows'
        # balance total and highest prefix are kept as they go.
        self.addresses: list[str | None] = []
        self.balances: list[int] = []
        self.collected: list[int] = []
        self._balances_shadow: list[int] = []
        self._collected_shadow: list[int] = []
        self._balance_total = 0
        self._collected_top = 0
        self.payments: list[Payment] = []
        self.bulks: list[BulkRegistration] = []
        self.slots: dict[tuple[int, int], OpenSlot] = {}
        # recipient id -> key of its one non-instant slot. Derived from
        # ``slots``, so it stays out of canonical_bytes() and the digest.
        self.pending_collects: dict[int, tuple[int, int]] = {}
        # pay index -> payment, for each LOCKED one. Derived from ``payments``;
        # the unlock window bounds it, so per-block checks walk it, not history.
        self.open_locks: dict[int, Payment] = {}
        # The slots written since check_invariants last ran, and what it saw
        # then: the map, the index it implies, each slot's (key, held funds,
        # recipient if not instant) and the held total.
        # A dict, not a set: deepcopy registers a dict before copying its keys,
        # so the copied slots' ``_marks`` point back at the copied dict.
        self._slot_marks: dict[OpenSlot, None] = {}
        self._seen_slots: dict[tuple[int, int], OpenSlot] = {}
        self._seen_pending: dict[int, tuple[int, int]] = {}
        self._seen_terms: dict[OpenSlot, tuple] = {}
        self._seen_held = 0
        self.escrow_pool = 0
        self.log = ChainLog()
        params_blob = params.canonical_bytes()
        externals_blob = adapter.snapshot_bytes()
        self.instance_id = hashlib.sha256(
            b"BPINST\x01" + params_blob + externals_blob
        ).digest()
        self.log.append(Instantiated(params_blob, externals_blob))

    # -- lookups -----------------------------------------------------------

    def address(self, account_id: int) -> str | None:
        """The account's owner address; None while a bulk registration reserves it."""
        if not isinstance(account_id, int) or isinstance(account_id, bool):
            raise UnknownAccount(f"account id must be an integer, got {account_id!r}")
        if not 0 <= account_id < len(self.addresses):
            raise UnknownAccount(f"account {account_id} does not exist")
        return self.addresses[account_id]

    def owner(self, account_id: int) -> str:
        """The claimed account's owner address; UnknownAccount while it is reserved."""
        address = self.address(account_id)
        if address is None:
            raise UnknownAccount(f"account {account_id} is reserved but unclaimed")
        return address

    def payment(self, pay_index: int) -> Payment:
        if not isinstance(pay_index, int) or isinstance(pay_index, bool):
            raise UnknownAccount(f"payment index must be an integer, got {pay_index!r}")
        if not 1 <= pay_index <= len(self.payments):
            raise UnknownAccount(f"payment {pay_index} does not exist")
        return self.payments[pay_index - 1]

    @property
    def latest_pay_index(self) -> int:
        return len(self.payments)

    def latest_collectable_pay_index(self) -> int:
        """Highest payment index whose unlock window has already elapsed.

        Registration blocks are non-decreasing in the index, so maturity is
        a prefix; binary search over collectable_from_block.
        """
        return bisect_right(
            self.payments, self.current_block, key=attrgetter("collectable_from_block")
        )

    # -- account table -----------------------------------------------------

    def allocate_account(self, address: str | None) -> int:
        """Open the next id, owned by ``address``, at balance and prefix 0; return it."""
        account_id = len(self.addresses)
        if account_id >= self.params.max_account_count:
            raise TableFull(f"account table at limit {self.params.max_account_count}")
        self.addresses.append(address)
        self.balances.append(0)
        self._balances_shadow.append(0)
        self.collected.append(0)
        self._collected_shadow.append(0)
        return account_id

    def set_collected(self, account_id: int, pay_index: int) -> None:
        """Move an account's collected prefix: the engine's one prefix write."""
        self.collected[account_id] = self._collected_shadow[account_id] = pay_index
        if pay_index > self._collected_top:
            self._collected_top = pay_index

    # -- collect slots ------------------------------------------------------

    def open_slot(self, slot: CollectSlot) -> None:
        """Put a new slot in the map and, unless instant, the index; mark it,
        and make it an ``OpenSlot``, whose writes mark it from now on."""
        key = (slot.delegate_id, slot.slot_id)
        self.slots[key] = slot
        if not slot.instant:
            self.pending_collects[slot.recipient_id] = key
        # The map's own key object, so the check's whole compares match by identity.
        slot._key = key
        slot._marks = self._slot_marks
        slot.__class__ = OpenSlot
        self._slot_marks[slot] = None

    def close_slot(self, slot: OpenSlot) -> None:
        """Take a slot out of the map and the index, marked so the next check
        drops it; a slot no check has seen leaves no mark."""
        del self.slots[(slot.delegate_id, slot.slot_id)]
        if not slot.instant:
            del self.pending_collects[slot.recipient_id]
        if slot in self._seen_terms:
            self._slot_marks[slot] = None
        else:
            self._slot_marks.pop(slot, None)

    # -- token movement -----------------------------------------------------

    def covers(self, amount: int) -> bool:
        """Whether the escrow pool can pay out ``amount``; ``transfer`` refuses when not."""
        return self.escrow_pool >= amount

    def transfer(self, moves, pool: int = 0, what: str = "payout") -> None:
        """Apply every ``(to, amount)`` move and add ``pool`` to the escrow pool, or none.

        ``to`` is an account id, credited (debited, for a negative amount), or
        an address, paid out of custody. Each move is checked against the
        balance the earlier ones leave. A pool that does not cover ``-pool``
        is refused first, with IllegalMove naming ``what``.
        """
        if not self.covers(-pool):
            raise IllegalMove(f"escrow pool cannot cover the {what}")
        pool += self.escrow_pool
        column = self.balances
        balances: dict[int, int] = {}
        for to, amount in moves:
            if isinstance(to, str):
                if amount:
                    self.adapter.check_withdraw(to, amount)
                continue
            before = balances[to] if to in balances else column[to]
            balance = before + amount
            if balance < 0:
                raise InsufficientFunds(f"account {to} balance {before} < {-amount}")
            if balance > U64_MAX:
                raise AmountOutOfRange(
                    f"balance of account {to} {balance} outside unsigned 64-bit range"
                )
            balances[to] = balance
        if pool > U64_MAX:
            raise AmountOutOfRange(f"escrow pool {pool} outside unsigned 64-bit range")
        # One int object in the column and its shadow, as ``deposit`` writes;
        # the shadow's total moves by what the shadow held.
        shadow, total = self._balances_shadow, self._balance_total
        for account_id, balance in balances.items():
            total += balance - shadow[account_id]
            column[account_id] = shadow[account_id] = balance
        self._balance_total = total
        for to, amount in moves:
            if isinstance(to, str) and amount:
                self.adapter.withdraw(to, amount)
        self.escrow_pool = pool

    # -- core operations ----------------------------------------------------

    def deposit(self, account_ref, amount: int, from_address: str) -> int:
        """Move tokens from an external address into an account's balance.

        ``account_ref`` is an existing claimed id, or NEW_ACCOUNT to open a
        fresh account owned by ``from_address``. Returns the credited id.
        """
        ensure_u64(amount, "deposit amount")
        if amount < 1:
            raise InvalidParameter("deposit amount must be positive")
        ensure_address(from_address, "depositor address")
        if account_ref == NEW_ACCOUNT and type(account_ref) is int:  # a float equal to it is no id
            if len(self.addresses) >= self.params.max_account_count:
                raise TableFull(f"account table at limit {self.params.max_account_count}")
            self.adapter.deposit(from_address, amount)
            account_id = self.allocate_account(from_address)
            balance = amount
        else:
            self.owner(account_ref)
            account_id = account_ref
            balance = ensure_u64(self.balances[account_id] + amount, "account balance")
            self.adapter.deposit(from_address, amount)
        self._balance_total += balance - self._balances_shadow[account_id]
        self.balances[account_id] = self._balances_shadow[account_id] = balance
        self.log.append(Deposited(account_ref, account_id, amount, from_address))
        return account_id

    def withdraw(self, account_id: int, amount: int, to_address: str, sender: str) -> None:
        """Move balance out to an external address; only the owner may call."""
        ensure_u64(amount, "withdraw amount")
        if amount < 1:
            raise InvalidParameter("withdraw amount must be positive")
        ensure_address(to_address, "withdrawal address")
        if self.owner(account_id) != sender:
            raise Unauthorized(f"{sender!r} does not own account {account_id}")
        self.transfer([(account_id, -amount), (to_address, amount)])
        self.log.append(Withdrawn(account_id, amount, to_address, sender))

    def advance_block(self, blocks: int = 1) -> int:
        if ensure_int(blocks, "blocks to advance") < 1:
            raise InvalidParameter("must advance by at least one block")
        self.current_block = ensure_u64(self.current_block + blocks, "block number")
        self.log.append(Advanced(blocks))
        return self.current_block

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Check conservation, supply and each account's and slot's
        invariants; raise InvariantViolation naming the first that fails.

        No account is read one by one while the engine alone has written the
        table. The balance and collected-prefix columns are each compared
        whole, in C, with the shadow the engine's write sites keep
        (``transfer``, ``deposit``, ``set_collected`` and ``allocate_account``
        store one int object in a column and its shadow), and the three
        columns must have one length. Every value those sites store is in
        range when stored, so when the compares match, the shadows' running
        balance total stands for the sum and their highest prefix for every
        prefix.

        Of the payments only the open locks in ``open_locks`` are inspected:
        a payment leaves that index when it is unlocked or refunded, so the
        check costs what is open, not history. An indexed payment must be
        LOCKED and carry its key hash. A LOCKED payment missing from the
        index is the end-of-run scan's to catch (``SimRun._verify_end`` walks
        every payment once).

        Of the slots only those marked since the last call are inspected: a
        slot is marked when it is opened or closed and by every write to it
        (``OpenSlot.__setattr__``), so a standing slot costs nothing. Each
        marked slot still in the map must pass ``_check_slot``, the one
        statement of a slot's rules. The held total and the expected
        ``pending_collects`` index are running values kept from the marked
        slots; the index and the map's slot identities are compared whole
        with what the last call saw, so a slot deleted, inserted or swapped
        without a marked write is a mismatch.

        Only on a mismatch does a full walk run: ``_walk_accounts`` when a
        value column differs from its shadow or a column's length from the
        others, ``_walk_slots`` when the marks disagree with the map or
        conservation fails against the running held total. Each names the
        first failing check as a plain walk would. If the state passes the
        walk, the shadows or marks disagree with it (a cell written or a
        column grown outside the engine, or running values drifted), and
        that fails too ("account-marks", "slot-marks"); the running values
        are never resynced silently.

        The adapter's total is summed over every external address each call:
        a dict sum in C, so a tampered external balance still fails "supply".
        """
        payment_count = len(self.payments)
        walked_accounts = not (
            self.balances == self._balances_shadow
            and self.collected == self._collected_shadow
            and len(self.addresses) == len(self.balances) == len(self.collected)
            and self._collected_top <= payment_count
        )
        balances = self._walk_accounts(payment_count) if walked_accounts else self._balance_total
        if self.escrow_pool < 0:
            raise InvariantViolation("conservation", "escrow pool negative")
        held = self._see_marked_slots()
        walked = held is None or self.adapter.reserve != balances + self.escrow_pool + held
        if walked:
            held = self._walk_slots()
        LOCKED = PaymentStatus.LOCKED
        for p in self.open_locks.values():
            if p.status != LOCKED or p.locking_key_hash is None:
                raise InvariantViolation("payment-lock", f"payment {p.pay_index}")
        if self.adapter.reserve != balances + self.escrow_pool + held:
            raise InvariantViolation(
                "conservation",
                f"reserve {self.adapter.reserve} != balances {balances} "
                f"+ pool {self.escrow_pool} + held {held}",
            )
        if self.adapter.total() != self.adapter.minted:
            raise InvariantViolation(
                "supply",
                f"adapter holds {self.adapter.total()} != minted {self.adapter.minted}",
            )
        if walked_accounts:
            raise InvariantViolation(
                "account-marks",
                "the account columns disagree with their shadows; a full walk passes",
            )
        if walked:
            raise InvariantViolation(
                "slot-marks", "the marked slots disagree with a full walk, which passes"
            )

    def _walk_accounts(self, payment_count: int) -> int:
        """Check every account in id order; return the balance total.

        The full walk behind ``check_invariants``' shadow compares, run when
        they disagree: it names the first account whose balance leaves the
        u64 range or whose collected prefix passes the last payment.
        """
        balances = 0
        for account_id, (balance, prefix) in enumerate(zip(self.balances, self.collected)):
            if balance < 0 or balance > U64_MAX:
                raise InvariantViolation("balance-range", f"account {account_id}")
            if prefix > payment_count:
                raise InvariantViolation("collected-prefix", f"account {account_id} past log end")
            balances += balance
        return balances

    def _see_marked_slots(self) -> int | None:
        """Bring the seen slots, index and held total up to the marks; return
        the total, or None on a mismatch, leaving the marks to a later call.

        Each marked slot's old terms come out first, so a slot freed and a
        new one opened under its key or for its recipient do not collide. A
        marked slot that took an unmarked row's place in the map takes its
        terms out too.
        """
        marks = self._slot_marks
        seen, terms, pending = self._seen_slots, self._seen_terms, self._seen_pending
        if marks:
            for slot in marks:
                if slot in terms:
                    self._unsee(slot)
            collect_stake = self.params.collect_stake
            challenged_stake = collect_stake + self.params.challenge_stake
            slots = self.slots
            for slot in marks:
                key = slot._key
                if slots.get(key) is not slot:
                    continue                      # closed; if moved, the map compare fails
                if key in seen:
                    self._unsee(seen[key])
                try:
                    _check_slot(key, slot, collect_stake, challenged_stake)
                except InvariantViolation:
                    return None
                funds = slot.held_funds
                recipient = None if slot.instant else slot.recipient_id
                if recipient is not None and recipient in pending:
                    return None
                terms[slot] = (key, funds, recipient)
                seen[key] = slot
                self._seen_held += funds
                if recipient is not None:
                    pending[recipient] = key
            marks.clear()
        if self.slots != seen or self.pending_collects != pending:
            return None
        return self._seen_held

    def _unsee(self, slot: OpenSlot) -> None:
        """Take a slot's terms out of the seen slots, index and held total."""
        key, funds, recipient = self._seen_terms.pop(slot)
        self._seen_held -= funds
        del self._seen_slots[key]
        if recipient is not None:
            del self._seen_pending[recipient]

    def _walk_slots(self) -> int:
        """Check every slot and the index in map order; return the held total.

        The full walk behind ``check_invariants``' marks, run when they
        disagree with the map: ``_check_slot`` names the first rule a slot
        breaks, then the index is checked against the non-instant slots.
        """
        collect_stake = self.params.collect_stake
        challenged_stake = collect_stake + self.params.challenge_stake
        pending_collects = self.pending_collects
        held = 0
        pending = 0
        for key, slot in self.slots.items():
            _check_slot(key, slot, collect_stake, challenged_stake)
            if not slot.instant:
                pending += 1
                if pending_collects.get(slot.recipient_id) != key:
                    raise InvariantViolation("pending-collects", f"slot {key} not indexed")
            held += slot.held_funds
        if len(pending_collects) != pending:
            raise InvariantViolation(
                "pending-collects",
                f"{len(pending_collects)} indexed, {pending} non-instant slots",
            )
        return held

    # -- canonical serialization / digest -------------------------------------

    def canonical_bytes(self) -> bytes:
        """The state image: magic, header, externals, then four row lists."""
        slots, addresses = self.slots, self.addresses
        ids = range(len(addresses))
        return b"".join((
            b"BPSTATE\x01",
            _pack_header(self),
            self.adapter.snapshot_bytes(),
            pack_rows(_pack_account, ids, addresses, self.balances, self.collected),
            pack_rows(_pack_payment, self.payments),
            pack_rows(_pack_bulk, self.bulks),
            pack_rows(_pack_slot, [slots[key] for key in sorted(slots)]),
        ))

    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_bytes()).digest()


# `x in GameState` warns on 3.10 and 3.11 for a non-member and compares values on 3.12+.
_GAME_STATES = frozenset(GameState)


def _check_slot(key, slot: CollectSlot, collect_stake: int, challenged_stake: int) -> None:
    """A slot's rules in order; InvariantViolation names the first it breaks.

    The slot sits under its own key in a game state of ``GameState`` other
    than EMPTY, holds the collect stake plus the challenge stake if it has a
    challenger, and has a challenger, a list and a selected entry exactly
    when its game state has reached the move that sets each.
    """
    if key != (slot.delegate_id, slot.slot_id):
        raise InvariantViolation("slot-key", f"slot {key} mislabeled")
    game_state = slot.game_state
    if game_state == GameState.EMPTY:
        raise InvariantViolation("slot-state", "empty slot present in map")
    if game_state not in _GAME_STATES:
        raise InvariantViolation(
            "slot-state", f"slot {key} game state {game_state!r} outside GameState"
        )
    has_challenger = slot.challenger_id is not None
    expected = challenged_stake if has_challenger else collect_stake
    if slot.held_funds != expected:
        raise InvariantViolation(
            "slot-held-funds",
            f"slot {key} holds {slot.held_funds}, expected {expected}",
        )
    if has_challenger != (game_state >= GameState.CHALLENGE_STARTED):
        raise InvariantViolation("slot-challenger", f"slot {key}")
    if (slot.challenge_list is not None) != (game_state >= GameState.WAITING_PAYMENT_SELECTION):
        raise InvariantViolation("slot-challenge-list", f"slot {key}")
    if (slot.challenged_entry is not None) != (game_state >= GameState.WAITING_PROOF):
        raise InvariantViolation("slot-challenged-entry", f"slot {key}")


_pack_params, _pack_payment, _pack_bulk, _pack_slot = (
    packer(layout(cls)) for cls in (Params, Payment, BulkRegistration, CollectSlot)
)
# The rows packed from columns, one positional value per field.
_pack_account, _pack_external = (values_packer(kinds(cls)) for cls in (Account, External))
# every params field, then the instance id, block, reserve and escrow pool
_pack_header = packer([
    *layout(Params, "o.params."), ("o.instance_id", "b32"), ("o.current_block", "u64"),
    ("o.adapter.reserve", "u64"), ("o.escrow_pool", "u64"),
])


def instantiate(params: Params, adapter: TokenAdapter | None = None) -> ProtocolState:
    """Create a fresh protocol instance; the conventional entry point."""
    return ProtocolState(params, adapter if adapter is not None else TokenAdapter())
