"""Core protocol state: parameters, accounts, token custody, block clock.

Accounts are rows in a flat table addressed by 32-bit ids; an id is
allocated once and never reused. Token custody is a single reserve held
against an external balance map (the token adapter); the only flows
between the two are deposit and withdraw. All token quantities are
unsigned 64-bit integers and leaving that range anywhere is a hard error.

Money inside the protocol lives in exactly three places, and the
conservation invariant ties them to the reserve after every operation:

    reserve == sum(account balances) + escrow pool + sum(slot held funds)

The escrow pool is the custody cell for registered payments: it grows by
the full escrow on registration and drains on unlock fees, refunds, and
collect settlements. Settlements drain the pool by the claimed amount
(claims are only verified optimistically, so per-payment attribution is
not observable by the ledger); the pool going negative is the insolvency
signal and trips the invariant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
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
    InsufficientFunds,
    InvalidParameter,
    InvariantViolation,
    TableFull,
    Unauthorized,
    UnknownAccount,
)
from .wire import U64_MAX, pack_str, u16, u32, u64

# Slot ids above this value are instant-collect slots; the boundary itself
# is not instant. Fixed by the protocol, independent of configuration.
INSTANT_SLOT_THRESHOLD = 32768
SLOT_ID_MAX = 65535

MAX_ACCOUNT_ID_SPACE = 2**32 - 1  # one below the wire sentinel


class _NewAccount:
    """Sentinel for deposit(): open a fresh account for the depositor."""

    def __repr__(self) -> str:
        return "NEW_ACCOUNT"


NEW_ACCOUNT = _NewAccount()


def ensure_u64(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameter(f"{what} must be an integer")
    if value < 0 or value > U64_MAX:
        raise AmountOutOfRange(f"{what} {value} outside unsigned 64-bit range")
    return value


@dataclass
class Params:
    """Protocol constants, fixed at instantiation."""

    max_account_count: int = MAX_ACCOUNT_ID_SPACE
    unlock_period: int = 10
    challenge_period: int = 30        # collect settlement window (game state 1)
    response_period: int = 10         # per-move window inside a challenge
    collect_stake: int = 100
    challenge_stake: int = 50
    max_payments_per_batch: int = 10000
    instant_slot_threshold: int = INSTANT_SLOT_THRESHOLD

    def validate(self) -> None:
        if not 1 <= self.max_account_count <= MAX_ACCOUNT_ID_SPACE:
            raise InvalidParameter("max_account_count must be in [1, 2^32 - 1]")
        for name in ("unlock_period", "challenge_period", "response_period"):
            if getattr(self, name) < 1:
                raise InvalidParameter(f"{name} must be >= 1")
        for name in ("collect_stake", "challenge_stake"):
            ensure_u64(getattr(self, name), name)
            if getattr(self, name) < 1:
                raise InvalidParameter(f"{name} must be >= 1")
        if self.max_payments_per_batch < 1:
            raise InvalidParameter("max_payments_per_batch must be >= 1")
        if self.instant_slot_threshold != INSTANT_SLOT_THRESHOLD:
            raise InvalidParameter("instant_slot_threshold is fixed at 32768")
        for name in ("unlock_period", "challenge_period", "response_period", "max_payments_per_batch"):
            ensure_u64(getattr(self, name), name)

    def canonical_bytes(self) -> bytes:
        return b"".join(
            u64(v)
            for v in (
                self.max_account_count,
                self.unlock_period,
                self.challenge_period,
                self.response_period,
                self.collect_stake,
                self.challenge_stake,
                self.max_payments_per_batch,
                self.instant_slot_threshold,
            )
        )


class TokenAdapter:
    """External token balances plus the protocol's custody reserve.

    mint() is provisioning plumbing for tests and scenario setup; inside a
    run the only flows are deposit and withdraw, which preserve the
    adapter's total.
    """

    def __init__(self, balances: dict[str, int] | None = None):
        self.external: dict[str, int] = {}
        self.reserve = 0
        for addr, amount in (balances or {}).items():
            self.mint(addr, amount)

    def mint(self, address: str, amount: int) -> None:
        ensure_u64(amount, "mint amount")
        self.external[address] = ensure_u64(
            self.external.get(address, 0) + amount, "external balance"
        )

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
        out = bytearray(u32(len(self.external)))
        for addr in sorted(self.external):
            out += pack_str(addr) + u64(self.external[addr])
        return bytes(out)


@dataclass
class BlockClock:
    """Logical block counter; the only notion of time in a run."""

    block: int = 0

    def advance(self, blocks: int) -> None:
        if blocks < 1:
            raise InvalidParameter("must advance by at least one block")
        self.block = ensure_u64(self.block + blocks, "block number")


@dataclass
class Account:
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
    """One protocol instance: the full on-chain state for a run."""

    def __init__(self, params: Params, adapter: TokenAdapter):
        params.validate()
        self.params = params
        self.adapter = adapter
        self.clock = BlockClock()
        self.accounts: list[Account] = []
        self.payments: list[Payment] = []
        self.bulks: list[BulkRegistration] = []
        self.slots: dict[tuple[int, int], CollectSlot] = {}
        # recipient id -> key of its one non-instant slot. Derived from
        # ``slots``, so it stays out of canonical_bytes() and the digest.
        self.pending_collects: dict[int, tuple[int, int]] = {}
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
    def current_block(self) -> int:
        return self.clock.block

    @property
    def latest_pay_index(self) -> int:
        return len(self.payments)

    def latest_collectable_pay_index(self) -> int:
        """Highest payment index whose unlock window has already elapsed.

        Registration blocks are non-decreasing in the index, so maturity is
        a prefix; binary search over collectable_from_block.
        """
        lo, hi = 0, len(self.payments)
        now = self.clock.block
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.payments[mid - 1].collectable_from_block <= now:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- account table -----------------------------------------------------

    def allocate_account(self, address: str | None) -> Account:
        if len(self.accounts) >= self.params.max_account_count:
            raise TableFull(f"account table at limit {self.params.max_account_count}")
        acct = Account(account_id=len(self.accounts), address=address)
        self.accounts.append(acct)
        return acct

    # -- balance plumbing ---------------------------------------------------

    def credit(self, account_id: int, amount: int) -> None:
        acct = self.accounts[account_id]
        acct.balance = ensure_u64(acct.balance + amount, f"balance of account {account_id}")

    def debit(self, account_id: int, amount: int) -> None:
        acct = self.accounts[account_id]
        if acct.balance < amount:
            raise InsufficientFunds(
                f"account {account_id} balance {acct.balance} < {amount}"
            )
        acct.balance -= amount

    # -- core operations ----------------------------------------------------

    def deposit(self, account_ref, amount: int, from_address: str) -> int:
        """Move tokens from an external address into an account's balance.

        ``account_ref`` is an existing claimed id, or NEW_ACCOUNT to open a
        fresh account owned by ``from_address``. Returns the credited id.
        """
        ensure_u64(amount, "deposit amount")
        if amount < 1:
            raise InvalidParameter("deposit amount must be positive")
        if isinstance(account_ref, _NewAccount):
            if len(self.accounts) >= self.params.max_account_count:
                raise TableFull(f"account table at limit {self.params.max_account_count}")
            self.adapter.deposit(from_address, amount)
            acct = self.allocate_account(from_address)
            acct.balance = amount
            wire_ref = NEW_ACCOUNT_WIRE
        else:
            acct = self.claimed_account(account_ref)
            ensure_u64(acct.balance + amount, "account balance")
            self.adapter.deposit(from_address, amount)
            acct.balance += amount
            wire_ref = acct.account_id
        self.log.append(Deposited(wire_ref, acct.account_id, amount, from_address))
        return acct.account_id

    def withdraw(self, account_id: int, amount: int, to_address: str, sender: str) -> None:
        """Move balance out to an external address; only the owner may call."""
        ensure_u64(amount, "withdraw amount")
        if amount < 1:
            raise InvalidParameter("withdraw amount must be positive")
        acct = self.claimed_account(account_id)
        if acct.address != sender:
            raise Unauthorized(f"{sender!r} does not own account {account_id}")
        if acct.balance < amount:
            raise InsufficientFunds(
                f"account {account_id} balance {acct.balance} < {amount}"
            )
        self.adapter.check_withdraw(to_address, amount)
        acct.balance -= amount
        self.adapter.withdraw(to_address, amount)
        self.log.append(Withdrawn(account_id, amount, to_address, sender))

    def advance_block(self, blocks: int = 1) -> int:
        self.clock.advance(blocks)
        self.log.append(Advanced(blocks))
        return self.clock.block

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Full re-summation conservation check plus per-type invariants.

        Runs after every simulated block, so the loops read enum members
        and parameters from locals and sum balances in C; a failing account
        is then named by the per-account loop, in the same order.
        """
        accounts = self.accounts
        payment_count = len(self.payments)
        balance_of = list(map(attrgetter("balance"), accounts))
        if accounts and (
            min(balance_of) < 0
            or max(balance_of) > U64_MAX
            or max(map(attrgetter("last_collected_pay_index"), accounts)) > payment_count
        ):
            for acct in accounts:
                if acct.balance < 0 or acct.balance > U64_MAX:
                    raise InvariantViolation("balance-range", f"account {acct.account_id}")
                if acct.last_collected_pay_index > payment_count:
                    raise InvariantViolation(
                        "collected-prefix", f"account {acct.account_id} past log end"
                    )
        balances = sum(balance_of)
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
        for p in self.payments:
            if p.status == LOCKED and p.locking_key_hash is None:
                raise InvariantViolation("payment-lock", f"payment {p.pay_index}")
        if self.adapter.reserve != balances + self.escrow_pool + held:
            raise InvariantViolation(
                "conservation",
                f"reserve {self.adapter.reserve} != balances {balances} "
                f"+ pool {self.escrow_pool} + held {held}",
            )

    # -- canonical serialization / digest -------------------------------------

    def canonical_bytes(self) -> bytes:
        out = bytearray(b"BPSTATE\x01")
        out += self.params.canonical_bytes()
        out += self.instance_id
        out += u64(self.clock.block)
        out += u64(self.adapter.reserve)
        out += u64(self.escrow_pool)
        out += self.adapter.snapshot_bytes()
        out += u32(len(self.accounts))
        for a in self.accounts:
            out += u32(a.account_id)
            out += b"\x01" + pack_str(a.address) if a.address is not None else b"\x00"
            out += u64(a.balance) + u64(a.last_collected_pay_index)
        out += u32(len(self.payments))
        for p in self.payments:
            out += u32(p.from_id) + u64(p.per_destination) + u32(p.payee_count)
            out += p.pay_data_digest
            out += u64(p.total_escrow) + u64(p.unlocker_fee)
            out += bytes([p.status])
            out += b"\x01" + p.locking_key_hash if p.locking_key_hash else b"\x00"
            out += u64(p.registered_at_block) + u64(p.collectable_from_block)
        out += u32(len(self.bulks))
        for b in self.bulks:
            out += u32(b.bulk_id) + u32(b.first_id) + u32(b.count) + b.root
            out += u64(b.registered_at_block)
        out += u32(len(self.slots))
        for key in sorted(self.slots):
            s = self.slots[key]
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

    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_bytes()).digest()


def instantiate(params: Params, adapter: TokenAdapter | None = None) -> ProtocolState:
    """Create a fresh protocol instance; the conventional entry point."""
    return ProtocolState(params, adapter if adapter is not None else TokenAdapter())
