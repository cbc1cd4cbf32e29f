"""Gas and fiat cost model: anchors, calldata pricing, amortization."""

from __future__ import annotations

from decimal import Decimal

import pytest

from batchpay.chainlog import RECORD_TYPES
from batchpay.codec import encode_pay_data
from batchpay.costmodel import (
    BASE_TX,
    OP_GAS,
    PER_STORAGE_WRITE,
    amortized_per_payment,
    calldata_gas,
    collect_gas,
    cost_summary,
    register_payment_gas,
    tx_cost,
    usd_cost,
)
from batchpay.errors import InvalidParameter


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


def test_cost_summary_shape():
    summary = cost_summary(1000, 5, 225)
    assert summary["n"] == 1000
    assert summary["register_gas"] == 228_255
    assert summary["collect_gas"] == 167_440
    assert summary["amortized_gas_per_payment"] == 397
    assert summary["usd_per_payment"] == Decimal("0.00045")
    assert summary["ratio_to_transfer"] == 52.9
    assert summary["payments_per_second"] == 1679

