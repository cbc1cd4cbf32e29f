"""Gas and fiat cost model: anchors, calldata pricing, amortization."""

from __future__ import annotations

import time
from decimal import Decimal

import pytest

from batchpay.auth import collect_auth_message, sign_collect
from batchpay.chainlog import RECORD_TYPES, CollectOpened, PaymentRegistered, scaling_payload
from batchpay.codec import encode_pay_data
from batchpay.collect import collect
from batchpay.costmodel import (
    BASE_TX,
    OP_GAS,
    PER_NONZERO_BYTE,
    PER_STORAGE_WRITE,
    PER_ZERO_BYTE,
    amortized_per_payment,
    calldata_gas,
    collect_gas,
    cost_summary,
    register_payment_gas,
    tx_cost,
    usd_cost,
)
from batchpay.errors import InvalidParameter
from batchpay.payments import register_payment
from batchpay.registration import register
from batchpay.state import NEW_ACCOUNT, Params, TokenAdapter, instantiate


def test_register_anchor_for_thousand_consecutive_payees():
    # 1000 consecutive ids fit in 1007 payload bytes; the measured total for
    # this transaction on the reference deployment is the model's anchor
    assert register_payment_gas(1000) == 228_255


def test_collect_anchor():
    assert collect_gas() == 167_440


def test_amortized_at_thousand():
    reg = register_payment_gas(1000)
    col = collect_gas()
    assert amortized_per_payment(reg, col, 1000) == 397


def test_usd_anchor():
    # 397 gas at 5 gwei and 225 USD/ETH, rounded half-up to 5 places
    assert usd_cost(397, 5, 225) == Decimal("0.00045")


def test_usd_rounding_is_half_up():
    # 4000 gas * 5 gwei * 225 = 0.0000045 ETH... scaled to exercise the tie
    assert usd_cost(2000, 5, 50) == Decimal("0.00050")
    assert usd_cost(1999, 5, 50) == Decimal("0.00050")
    assert usd_cost(1000, 1, 1) == Decimal("0.00000")


def test_calldata_pricing_counts_zero_and_nonzero_bytes():
    assert calldata_gas(b"") == 0
    assert calldata_gas(b"\x00" * 10) == 40
    assert calldata_gas(b"\x01" * 10) == 160
    assert calldata_gas(b"\x00\xff") == 20


def test_tx_cost_composition():
    payload = encode_pay_data(list(range(1000)))
    fixed, writes = OP_GAS["register_payment"]
    expected = (
        BASE_TX
        + fixed
        + calldata_gas(payload)
        + writes * PER_STORAGE_WRITE
    )
    assert tx_cost("register_payment", payload) == expected
    assert expected == 228_255


def test_tx_cost_rejects_unknown_op():
    with pytest.raises(InvalidParameter):
        tx_cost("paint_the_shed")


def test_every_listed_op_is_priced():
    # The table prices exactly the ops the chain-log records declare.
    assert set(OP_GAS) == {cls.OP for cls in RECORD_TYPES.values()} - {None}
    for op in OP_GAS:
        assert tx_cost(op) >= BASE_TX


def test_amortized_uses_ceiling_on_both_legs():
    # both per-payment shares round up, so the sum never understates
    assert amortized_per_payment(1001, 999, 1000) == 2 + 1
    assert amortized_per_payment(1000, 1000, 1000) == 2
    with pytest.raises(InvalidParameter):
        amortized_per_payment(1, 1, 0)


def test_register_gas_grows_with_batch_size():
    sizes = [1, 10, 100, 1000, 5000]
    gas = [register_payment_gas(n) for n in sizes]
    assert gas == sorted(gas)
    assert gas[0] < gas[-1]


def test_register_gas_prices_the_encoded_batch():
    # the count's bytes turn nonzero at 256 and 65,536
    for n in [*range(1, 300), 999, 1000, 1001, 10_000, 65_535, 65_536, 65_537, 100_000]:
        assert register_payment_gas(n) == tx_cost(
            "register_payment", encode_pay_data(list(range(n)))
        ), n


def test_register_gas_for_the_largest_batch_builds_no_ids():
    # 2^32 - 1 ids as a list would take over a hundred gigabytes
    start = time.perf_counter()
    gas = register_payment_gas(2**32 - 1)
    assert time.perf_counter() - start < 1.0
    # the two high count bytes turn nonzero, and each added payee is one byte
    extra_bytes = 2 * (PER_NONZERO_BYTE - PER_ZERO_BYTE) + (2**32 - 1 - 1000) * PER_NONZERO_BYTE
    assert gas == register_payment_gas(1000) + extra_bytes
    with pytest.raises(InvalidParameter):
        register_payment_gas(2**32)


def test_cost_summary_shape():
    summary = cost_summary(1000, 5, 225)
    assert summary["n"] == 1000
    assert summary["register_gas"] == 228_255
    assert summary["collect_gas"] == 167_440
    assert summary["amortized_gas_per_payment"] == 397
    assert summary["usd_per_payment"] == Decimal("0.00045")
    assert summary["ratio_to_transfer"] == 52.9
    assert summary["payments_per_second"] == 1679



def test_a_logged_register_and_collect_price_as_the_summary_says():
    # One batch to 1000 consecutive registered ids and one collect, made
    # through the engine and priced from the log's records.
    params = Params()
    state = instantiate(params, TokenAdapter({"buyer": 1000, "delegate": params.collect_stake}))
    buyer = state.deposit(NEW_ACCOUNT, 1000, "buyer")
    delegate = state.deposit(NEW_ACCOUNT, params.collect_stake, "delegate")
    payees = [register(state, f"payee-{i}") for i in range(1000)]
    assert payees == list(range(payees[0], payees[0] + 1000))
    register_payment(state, buyer, 1, encode_pay_data(payees), "buyer")
    state.advance_block(params.unlock_period)
    message = collect_auth_message(state.instance_id, delegate, 0, payees[0], 1, 1, 0, None)
    collect(state, delegate, 0, payees[0], 1, 1, 0, sign_collect("payee-0", message))
    gas = {
        type(rec): tx_cost(rec.OP, scaling_payload(rec))
        for rec in state.log.records
        if isinstance(rec, (PaymentRegistered, CollectOpened))
    }
    summary = cost_summary(1000, 5, 225)
    # The anchor prices ids 0..999, whose u32 first id is four zero bytes.
    # These ids start at 2, so one of those bytes is nonzero in the log.
    tolerance = PER_NONZERO_BYTE - PER_ZERO_BYTE
    assert payees[0] == 2
    assert gas[PaymentRegistered] == summary["register_gas"] + tolerance == 228_267
    assert gas[CollectOpened] == summary["collect_gas"] == 167_440
    assert (
        amortized_per_payment(gas[PaymentRegistered], gas[CollectOpened], 1000)
        == summary["amortized_gas_per_payment"]
    )
