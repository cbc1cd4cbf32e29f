"""Shared fixtures: a small funded world for protocol-level tests."""

from __future__ import annotations

import pytest

from batchpay.auth import collect_auth_message, sign_collect
from batchpay.codec import decode_pay_data, encode_pay_data
from batchpay.collect import collect
from batchpay.payments import register_payment
from batchpay.registration import register
from batchpay.state import NEW_ACCOUNT, Params, PaymentStatus, TokenAdapter, instantiate


def small_params(**overrides) -> Params:
    """Compact protocol constants so tests advance few blocks."""
    base = dict(
        max_account_count=10_000,
        unlock_period=5,
        challenge_period=8,
        response_period=4,
        collect_stake=100,
        challenge_stake=50,
        max_payments_per_batch=1000,
    )
    base.update(overrides)
    return Params(**base)


def payment_occurrences(pay_data: bytes, account_id: int) -> int:
    """Reference: how many times a payee list names an account."""
    return decode_pay_data(pay_data).count(account_id)


def payment_entitlement(state, pay_data: dict[int, bytes], account_id: int, start: int, end: int) -> int:
    """Reference: what the committed payments in (start, end] owe an account.

    ``pay_data`` maps each pay index to the payee bytes it was registered
    with. Locked and refunded payments owe nothing, and an id listed k
    times is owed k times the per-destination amount.
    """
    total = 0
    for pay_index in range(start + 1, end + 1):
        payment = state.payments[pay_index - 1]
        if payment.status == PaymentStatus.COMMITTED:
            total += payment_occurrences(pay_data[pay_index], account_id) * payment.per_destination
    return total


class World:
    """One funded protocol instance with the standard cast of accounts."""

    def __init__(self, params: Params | None = None):
        self.params = params or small_params()
        adapter = TokenAdapter()
        for address, amount in (
            ("buyer", 1_000_000),
            ("delegate", 100_000),
            ("monitor", 10_000),
        ):
            adapter.mint(address, amount)
        self.state = instantiate(self.params, adapter)
        self.buyer = self.state.deposit(NEW_ACCOUNT, 1_000_000, "buyer")
        self.seller = register(self.state, "seller")
        self.delegate = self.state.deposit(NEW_ACCOUNT, 100_000, "delegate")
        self.monitor = self.state.deposit(NEW_ACCOUNT, 10_000, "monitor")
        self.pay_data: dict[int, bytes] = {}      # pay index -> registered payee bytes

    # -- shorthand protocol moves -----------------------------------------

    def pay(self, payees, per_destination: int = 1, **kw) -> int:
        pay_data = encode_pay_data(sorted(payees))
        pay_index = register_payment(self.state, self.buyer, per_destination, pay_data, "buyer", **kw)
        self.pay_data[pay_index] = pay_data
        return pay_index

    def entitlement(self, account_id: int, start: int, end: int) -> int:
        return payment_entitlement(self.state, self.pay_data, account_id, start, end)

    def mature(self) -> None:
        """Advance past the newest payment's unlock window."""
        self.state.advance_block(self.params.unlock_period)

    def advance(self, blocks: int = 1) -> None:
        self.state.advance_block(blocks)

    def authorize(
        self, delegate_id, slot_id, recipient_id, end, amount, fee, destination=None
    ) -> bytes:
        message = collect_auth_message(
            self.state.instance_id,
            delegate_id,
            slot_id,
            recipient_id,
            end,
            amount,
            fee,
            destination,
        )
        return sign_collect(self.state.accounts[recipient_id].address, message)

    def open_collect(
        self,
        slot_id,
        end,
        amount,
        fee=0,
        destination=None,
        recipient=None,
        delegate=None,
    ) -> None:
        recipient = self.seller if recipient is None else recipient
        delegate = self.delegate if delegate is None else delegate
        auth = self.authorize(delegate, slot_id, recipient, end, amount, fee, destination)
        collect(
            self.state,
            delegate,
            slot_id,
            recipient,
            end,
            amount,
            fee,
            auth,
            destination_address=destination,
        )

    def balance(self, account_id: int) -> int:
        return self.state.accounts[account_id].balance


@pytest.fixture
def world() -> World:
    return World()
