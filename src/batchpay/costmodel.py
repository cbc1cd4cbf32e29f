"""Linear gas surrogate calibrated against two measured anchor points.

Transaction cost is modeled as

    gas = BASE_TX + fixed + 4 * zero_bytes + 16 * nonzero_bytes
        + writes * PER_STORAGE_WRITE,   (fixed, writes) = OP_GAS[op]

where the byte terms price only an operation's *scaling* payload (payee
bytes, disclosed lists, proofs); fixed-size arguments are absorbed into
the per-operation constant. Byte pricing and the 21,000 base follow public
chain calldata pricing.

The two per-operation constants that matter were solved so the canonical
workload lands exactly on measured figures: a batch payment to 1000
consecutive ids (1007 payload bytes: 6 zero, 1001 nonzero) costs 228,255
gas, and a collect costs 167,440 gas:

    171,215 = 228,255 - 21,000 - (6*4 + 1001*16) - 1 * 20,000
    126,440 = 167,440 - 21,000 -              0  - 1 * 20,000

Amortized per-payment figures use ceiling division per transaction:

    amortized(n) = ceil(register(n) / n) + ceil(collect / n)

so the canonical batch of 1000 works out to 229 + 168 = 397 gas per
payment. Collect is flat in n, and each extra consecutive payee adds one
nonzero payload byte, so register(n) = 212,255 + 16 * n for every n whose
u32 count has, as 1000 does, two nonzero low bytes and two zero high
bytes. There the per-payment figure is 16 + ceil(212,255 / n) +
ceil(167,440 / n): it falls as batches grow, toward the 16 gas of one
payee byte, from 1283 at n = 300 to 143 at n = 3000 and 55 at n = 10000.
Remaining constants are plausible surrogates; they shape simulation
aggregates only.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal

from .codec import MAX_ID
from .errors import InvalidParameter

# Assumed chain limits for the payments-per-second figure, not figures
# from the paper: a 10M-gas block limit and one block every 15 s.
BLOCK_GAS = 10_000_000
BLOCK_SECONDS = 15

# Public chain pricing. The OP_GAS anchors below are solved for exactly these
# values, so they are constants rather than settings.
BASE_TX = 21000
PER_ZERO_BYTE = 4
PER_NONZERO_BYTE = 16
PER_STORAGE_WRITE = 20000

# Calibrated: see module docstring for the solve. One row per operation
# kind a chain-log record declares as its ``OP``: (fixed gas, storage writes).
OP_GAS = {
    "register": (23000, 1),
    "bulk_register": (26000, 1),
    "claim": (15000, 1),
    "deposit": (26000, 2),
    "withdraw": (30000, 2),
    "register_payment": (171215, 1),
    "unlock": (24000, 2),
    "refund": (24000, 2),
    "collect": (126440, 1),
    "challenge": (42000, 1),
    "respond": (30000, 1),
    "select": (24000, 1),
    "prove": (30000, 1),
    "challenge_success": (30000, 2),
    "challenge_failed": (30000, 2),
    "free_slot": (40000, 3),
}


def calldata_gas(payload: bytes) -> int:
    zeros = payload.count(0)
    return zeros * PER_ZERO_BYTE + (len(payload) - zeros) * PER_NONZERO_BYTE


def tx_cost(op_kind: str, payload: bytes = b"") -> int:
    """Gas for one transaction of the given kind with the given payload."""
    if op_kind not in OP_GAS:
        raise InvalidParameter(f"unknown operation kind {op_kind!r}")
    fixed, writes = OP_GAS[op_kind]
    return BASE_TX + fixed + calldata_gas(payload) + writes * PER_STORAGE_WRITE


def register_payment_gas(n_payees: int) -> int:
    """Gas for the canonical batch payment to ``n_payees`` consecutive ids.

    Priced without building the ids: the codec's header (count, first id 0),
    then one 0x01 gap byte per further payee.
    """
    if not 1 <= n_payees <= MAX_ID:
        raise InvalidParameter(f"payee count must be in [1, {MAX_ID}], got {n_payees}")
    header = n_payees.to_bytes(4, "little") + bytes(4)
    return tx_cost("register_payment", header) + (n_payees - 1) * PER_NONZERO_BYTE


def collect_gas() -> int:
    """Gas for a collect; independent of how many payments it covers."""
    return tx_cost("collect")


def amortized_per_payment(register_gas: int, collect_gas_: int, n: int) -> int:
    """Per-payment share of the register + collect pair, each rounded up."""
    if n < 1:
        raise InvalidParameter("payment count must be >= 1")
    return -(-register_gas // n) + (-(-collect_gas_ // n))


def check_price(name: str, value: float) -> None:
    """Refuse a gas or token price that is not a positive, finite number."""
    if not 0 < value < math.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")


def usd_cost(gas: int, gas_price_gwei, eth_usd) -> Decimal:
    """Dollar cost of ``gas`` at the given gas price and token price.

    Reported to five decimal places, round half up.
    """
    value = (
        Decimal(gas)
        * Decimal(str(gas_price_gwei))
        * Decimal(str(eth_usd))
        / Decimal(10**9)
    )
    return value.quantize(Decimal("0.00001"), rounding=ROUND_HALF_UP)


def cost_summary(n: int, gas_price_gwei, eth_usd) -> dict:
    """The canonical two-transaction cost breakdown used by the CLI.

    ``ratio_to_transfer`` is how many times cheaper a payment is than a
    plain transfer (``BASE_TX``), to one decimal; ``payments_per_second``
    is how many fit the assumed BLOCK_GAS every BLOCK_SECONDS.
    """
    reg = register_payment_gas(n)
    col = collect_gas()
    amortized = amortized_per_payment(reg, col, n)
    return {
        "n": n,
        "register_gas": reg,
        "collect_gas": col,
        "amortized_gas_per_payment": amortized,
        "usd_per_payment": usd_cost(amortized, gas_price_gwei, eth_usd),
        "ratio_to_transfer": round(BASE_TX / amortized, 1),
        "payments_per_second": BLOCK_GAS // amortized // BLOCK_SECONDS,
    }
