"""Batch micropayment protocol: state machine, cost model, simulator.

The protocol core lives in flat modules (state, registration, payments,
collect, costmodel, replay); the multi-actor simulation harness is the
``sim`` subpackage; ``cli`` is the command-line front end.
"""

from .codec import decode_pay_data, encode_pay_data
from .costmodel import (
    amortized_per_payment,
    collect_gas,
    cost_summary,
    register_payment_gas,
    tx_cost,
    usd_cost,
)
from .merkle import MerkleProof, merkle_prove, merkle_proofs, merkle_root, merkle_verify
from .state import NEW_ACCOUNT, Params, ProtocolState, TokenAdapter, instantiate

__version__ = "0.1.0"

__all__ = [
    "MerkleProof",
    "NEW_ACCOUNT",
    "Params",
    "ProtocolState",
    "TokenAdapter",
    "amortized_per_payment",
    "collect_gas",
    "cost_summary",
    "decode_pay_data",
    "encode_pay_data",
    "instantiate",
    "merkle_prove",
    "merkle_proofs",
    "merkle_root",
    "merkle_verify",
    "register_payment_gas",
    "tx_cost",
    "usd_cost",
]
