"""Core protocol state: parameters, accounts, token custody, block clock.

Accounts are rows in a flat table addressed by 32-bit ids; an id is
allocated once and never reused. Token custody is a single reserve held
against an external balance map (the token adapter). All token quantities
are unsigned 64-bit integers and leaving that range anywhere is a hard error.

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
from .wire import U16_MAX, U64_MAX, layout, pack_rows, packer

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


def ensure_address(address: str, what: str) -> None:
    """Refuse an empty address, or one a log record cannot carry."""
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

    WIRE = ("u64",) * 8

    max_account_count: int = setting(MAX_ACCOUNT_ID_SPACE, 1, MAX_ACCOUNT_ID_SPACE)
    unlock_period: int = setting(10, 1, U64_MAX)
    challenge_period: int = setting(30, 1, U64_MAX)   # collect settlement window (game state 1)
    response_period: int = setting(10, 1, U64_MAX)    # per-move window inside a challenge
    collect_stake: int = setting(100, 1, U64_MAX)
    challenge_stake: int = setting(50, 1, U64_MAX)
    max_payments_per_batch: int = setting(10000, 1, U64_MAX)
    instant_slot_threshold: int = setting(
        INSTANT_SLOT_THRESHOLD, INSTANT_SLOT_THRESHOLD, INSTANT_SLOT_THRESHOLD
    )

    def validate(self) -> None:
        check_settings(self)

    def canonical_bytes(self) -> bytes:
        return _pack_params(self)


class TokenAdapter:
    """External token balances plus the protocol's custody reserve.

    mint() is provisioning plumbing for tests and scenario setup; inside a
    run the only flows are deposit and withdraw, which preserve the
    adapter's total. ``minted`` is everything ever minted, so
    ``check_invariants`` can tell a flow that created or lost tokens.
    Its snapshot is one ``WIRE`` row per address, sorted by address.
    """

    WIRE = ("str", "u64")        # address, external balance

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
        return pack_rows(_pack_external, sorted(self.external.items()))


@dataclass
class Account:
    WIRE = ("u32", "str?", "u64", "u64")
    account_id: int
    address: str | None           # None while reserved via bulk registration
    balance: int = 0
    last_collected_pay_index: int = 0

    @property
    def claimed(self) -> bool:
        return self.address is not None


class PaymentStatus(IntEnum):
    COMMITTED = 0
    LOCKED = 1
    REFUNDED = 2


@dataclass
class Payment:
    WIRE = ("u32", "u64", "u32", "b32", "u64", "u64", "u8", "b32?", "u64", "u64")
    pay_index: int
    from_id: int
    per_destination: int
    payee_count: int
    pay_data_digest: bytes
    total_escrow: int
    unlocker_fee: int
    status: PaymentStatus
    locking_key_hash: bytes | None
    registered_at_block: int
    collectable_from_block: int


@dataclass
class BulkRegistration:
    WIRE = ("u32", "u32", "u32", "b32", "u64")
    bulk_id: int
    first_id: int
    count: int
    root: bytes
    registered_at_block: int


class GameState(IntEnum):
    """Collect slot lifecycle; EMPTY slots are simply absent from the map."""

    EMPTY = 0
    WAITING_CHALLENGE = 1
    CHALLENGE_STARTED = 2
    WAITING_PAYMENT_SELECTION = 3
    WAITING_PROOF = 4
    PROOF_ACCEPTED = 5


@dataclass
class CollectSlot:
    WIRE = (
        "u32", "u16", "u32", "u64", "u64", "u64", "u64", "str?",
        "u8", "u8", "u64", "u64", "u32?", "pairs?", "pair?",
    )
    delegate_id: int
    slot_id: int
    recipient_id: int
    start_pay_index: int          # exclusive
    end_pay_index: int            # inclusive
    amount: int
    fee: int
    destination_address: str | None
    instant: bool
    game_state: GameState
    deadline_block: int
    held_funds: int               # stakes currently escrowed in the slot
    challenger_id: int | None = None
    challenge_list: tuple[tuple[int, int], ...] | None = None
    challenged_entry: tuple[int, int] | None = None


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
        self.accounts: list[Account] = []
        self.payments: list[Payment] = []
        self.bulks: list[BulkRegistration] = []
        self.slots: dict[tuple[int, int], CollectSlot] = {}
        # recipient id -> key of its one non-instant slot. Derived from
        # ``slots``, so it stays out of canonical_bytes() and the digest.
        self.pending_collects: dict[int, tuple[int, int]] = {}
        # pay index -> payment, for each LOCKED one. Derived from ``payments``;
        # the unlock window bounds it, so per-block checks walk it, not history.
        self.open_locks: dict[int, Payment] = {}
        self.escrow_pool = 0
        self.log = ChainLog()
        params_blob = params.canonical_bytes()
        externals_blob = adapter.snapshot_bytes()
        self.instance_id = hashlib.sha256(
            b"BPINST\x01" + params_blob + externals_blob
        ).digest()
        self.log.append(Instantiated(params_blob, externals_blob))

    # -- lookups -----------------------------------------------------------

    def account(self, account_id: int) -> Account:
        if not isinstance(account_id, int) or isinstance(account_id, bool):
            raise UnknownAccount(f"account id must be an integer, got {account_id!r}")
        if not 0 <= account_id < len(self.accounts):
            raise UnknownAccount(f"account {account_id} does not exist")
        return self.accounts[account_id]

    def claimed_account(self, account_id: int) -> Account:
        acct = self.account(account_id)
        if not acct.claimed:
            raise UnknownAccount(f"account {account_id} is reserved but unclaimed")
        return acct

    def payment(self, pay_index: int) -> Payment:
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

    def allocate_account(self, address: str | None) -> Account:
        if len(self.accounts) >= self.params.max_account_count:
            raise TableFull(f"account table at limit {self.params.max_account_count}")
        acct = Account(account_id=len(self.accounts), address=address)
        self.accounts.append(acct)
        return acct

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
        balances: dict[int, int] = {}
        for to, amount in moves:
            if isinstance(to, str):
                if amount:
                    self.adapter.check_withdraw(to, amount)
                continue
            before = balances[to] if to in balances else self.accounts[to].balance
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
        for account_id, balance in balances.items():
            self.accounts[account_id].balance = balance
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
            if len(self.accounts) >= self.params.max_account_count:
                raise TableFull(f"account table at limit {self.params.max_account_count}")
            self.adapter.deposit(from_address, amount)
            acct = self.allocate_account(from_address)
            acct.balance = amount
        else:
            acct = self.claimed_account(account_ref)
            ensure_u64(acct.balance + amount, "account balance")
            self.adapter.deposit(from_address, amount)
            acct.balance += amount
        self.log.append(Deposited(account_ref, acct.account_id, amount, from_address))
        return acct.account_id

    def withdraw(self, account_id: int, amount: int, to_address: str, sender: str) -> None:
        """Move balance out to an external address; only the owner may call."""
        ensure_u64(amount, "withdraw amount")
        if amount < 1:
            raise InvalidParameter("withdraw amount must be positive")
        ensure_address(to_address, "withdrawal address")
        acct = self.claimed_account(account_id)
        if acct.address != sender:
            raise Unauthorized(f"{sender!r} does not own account {account_id}")
        self.transfer([(account_id, -amount), (to_address, amount)])
        self.log.append(Withdrawn(account_id, amount, to_address, sender))

    def advance_block(self, blocks: int = 1) -> int:
        if blocks < 1:
            raise InvalidParameter("must advance by at least one block")
        self.current_block = ensure_u64(self.current_block + blocks, "block number")
        self.log.append(Advanced(blocks))
        return self.current_block

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Full re-summation conservation check plus per-type invariants.

        Every account and slot is inspected, but of the payments only the
        open locks in ``open_locks``: a payment leaves that index when it is
        unlocked or refunded, so the check costs what is open, not history.
        A LOCKED payment missing from the index is the end-of-run scan's to
        catch (``SimRun._verify_end`` walks every payment once).

        Runs after every simulated block, so its plain loops (faster here than
        ``map``/``attrgetter`` passes) read enum members and parameters from
        locals; the account loop sums the balances as it checks them.
        """
        payment_count = len(self.payments)
        balances = 0
        for acct in self.accounts:
            balance = acct.balance
            if balance < 0 or balance > U64_MAX:
                raise InvariantViolation("balance-range", f"account {acct.account_id}")
            if acct.last_collected_pay_index > payment_count:
                raise InvariantViolation(
                    "collected-prefix", f"account {acct.account_id} past log end"
                )
            balances += balance
        if self.escrow_pool < 0:
            raise InvariantViolation("conservation", "escrow pool negative")
        EMPTY = GameState.EMPTY
        CHALLENGE_STARTED = GameState.CHALLENGE_STARTED
        WAITING_PAYMENT_SELECTION = GameState.WAITING_PAYMENT_SELECTION
        WAITING_PROOF = GameState.WAITING_PROOF
        collect_stake = self.params.collect_stake
        challenged_stake = collect_stake + self.params.challenge_stake
        pending_collects = self.pending_collects
        held = 0
        pending = 0
        for key, slot in self.slots.items():
            if key != (slot.delegate_id, slot.slot_id):
                raise InvariantViolation("slot-key", f"slot {key} mislabeled")
            game_state = slot.game_state
            if game_state == EMPTY:
                raise InvariantViolation("slot-state", "empty slot present in map")
            has_challenger = slot.challenger_id is not None
            expected = challenged_stake if has_challenger else collect_stake
            if slot.held_funds != expected:
                raise InvariantViolation(
                    "slot-held-funds",
                    f"slot {key} holds {slot.held_funds}, expected {expected}",
                )
            if has_challenger != (game_state >= CHALLENGE_STARTED):
                raise InvariantViolation("slot-challenger", f"slot {key}")
            if (slot.challenge_list is not None) != (game_state >= WAITING_PAYMENT_SELECTION):
                raise InvariantViolation("slot-challenge-list", f"slot {key}")
            if (slot.challenged_entry is not None) != (game_state >= WAITING_PROOF):
                raise InvariantViolation("slot-challenged-entry", f"slot {key}")
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
        LOCKED = PaymentStatus.LOCKED
        for p in self.open_locks.values():
            if p.status == LOCKED and p.locking_key_hash is None:
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

    # -- canonical serialization / digest -------------------------------------

    def canonical_bytes(self) -> bytes:
        """The state image: magic, header, externals, then four row lists."""
        slots = self.slots
        return b"".join((
            b"BPSTATE\x01",
            _pack_header(self),
            self.adapter.snapshot_bytes(),
            pack_rows(_pack_account, self.accounts),
            pack_rows(_pack_payment, self.payments),
            pack_rows(_pack_bulk, self.bulks),
            pack_rows(_pack_slot, [slots[key] for key in sorted(slots)]),
        ))

    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_bytes()).digest()


_pack_params, _pack_account, _pack_payment, _pack_bulk, _pack_slot = (
    packer(layout(cls)) for cls in (Params, Account, Payment, BulkRegistration, CollectSlot)
)
_pack_external = packer(zip(("o[0]", "o[1]"), TokenAdapter.WIRE))
# every params field, then the instance id, block, reserve and escrow pool
_pack_header = packer([
    *layout(Params, "o.params."), ("o.instance_id", "b32"), ("o.current_block", "u64"),
    ("o.adapter.reserve", "u64"), ("o.escrow_pool", "u64"),
])


def instantiate(params: Params, adapter: TokenAdapter | None = None) -> ProtocolState:
    """Create a fresh protocol instance; the conventional entry point."""
    return ProtocolState(params, adapter if adapter is not None else TokenAdapter())
