"""Account onboarding: direct registration and bulk reservation with claims."""

from __future__ import annotations

import pytest

from batchpay.errors import (
    BadProof,
    InvalidParameter,
    TableFull,
    UnknownAccount,
)
from batchpay.merkle import MerkleProof, merkle_prove, merkle_root
from batchpay.registration import bulk_register, claim_bulk_registration_id, register
from batchpay.state import NEW_ACCOUNT, TokenAdapter, instantiate
from tests.conftest import small_params


def fresh(params=None):
    adapter = TokenAdapter()
    adapter.mint("funder", 1_000_000)
    return instantiate(params or small_params(), adapter)


def test_register_assigns_ids_in_order():
    state = fresh()
    a = register(state, "alice")
    b = register(state, "bob")
    assert (a, b) == (0, 1)
    assert state.addresses[a] is not None
    assert state.balances[a] == 0


def test_register_same_address_twice_gets_two_accounts():
    # addresses are not unique keys; each registration opens a new row
    state = fresh()
    assert register(state, "alice") != register(state, "alice")


def test_register_respects_capacity():
    state = fresh(small_params(max_account_count=1))
    register(state, "alice")
    with pytest.raises(TableFull):
        register(state, "bob")


def test_bulk_register_reserves_unclaimed_span():
    state = fresh()
    addresses = [f"seller-{i}" for i in range(5)]
    bulk_id = bulk_register(state, 5, merkle_root(addresses))
    bulk = state.bulks[bulk_id]
    assert bulk.first_id == 0
    assert bulk.count == 5
    for i in range(5):
        assert state.addresses[i] is None
    # reserved rows cannot receive deposits until claimed
    with pytest.raises(UnknownAccount):
        state.deposit(2, 10, "funder")


def test_bulk_register_validates_inputs():
    state = fresh()
    with pytest.raises(InvalidParameter):
        bulk_register(state, 0, merkle_root(["x"]))
    with pytest.raises(InvalidParameter):
        bulk_register(state, 1, b"short")
    capped = fresh(small_params(max_account_count=3))
    with pytest.raises(TableFull):
        bulk_register(capped, 4, merkle_root(["a", "b", "c", "d"]))


def test_claim_with_valid_proof():
    state = fresh()
    addresses = [f"seller-{i}" for i in range(5)]
    bulk_id = bulk_register(state, 5, merkle_root(addresses))
    for i, address in enumerate(addresses):
        claim_bulk_registration_id(state, bulk_id, i, address, merkle_prove(addresses, i))
        assert state.addresses[i] == address
    # once claimed, the account behaves like a registered one
    state.deposit(2, 10, "funder")
    assert state.balances[2] == 10


def test_claim_rejects_wrong_address():
    state = fresh()
    addresses = ["p", "q", "r"]
    bulk_id = bulk_register(state, 3, merkle_root(addresses))
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 1, "impostor", merkle_prove(addresses, 1))


def test_claim_rejects_mismatched_position():
    # proof for one slot must not claim a different reserved id
    state = fresh()
    addresses = ["p", "q", "r", "s"]
    bulk_id = bulk_register(state, 4, merkle_root(addresses))
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 2, "q", merkle_prove(addresses, 1))


def test_claim_rejects_double_claim():
    state = fresh()
    addresses = ["p", "q"]
    bulk_id = bulk_register(state, 2, merkle_root(addresses))
    claim_bulk_registration_id(state, bulk_id, 0, "p", merkle_prove(addresses, 0))
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 0, "p", merkle_prove(addresses, 0))


def test_claim_rejects_id_outside_span():
    state = fresh()
    register(state, "existing")
    addresses = ["p", "q"]
    bulk_id = bulk_register(state, 2, merkle_root(addresses))
    # account 0 exists but belongs to direct registration, not this bulk
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 0, "existing", merkle_prove(addresses, 0))
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 3, "p", merkle_prove(addresses, 0))


def test_claim_rejects_unknown_bulk():
    state = fresh()
    with pytest.raises(UnknownAccount):
        claim_bulk_registration_id(state, 0, 0, "p", MerkleProof(0, ()))


def test_interleaved_direct_and_bulk_spans():
    state = fresh()
    a = register(state, "alice")
    first_bulk = [f"x-{i}" for i in range(3)]
    bulk_a = bulk_register(state, 3, merkle_root(first_bulk))
    b = register(state, "bob")
    second_bulk = [f"y-{i}" for i in range(2)]
    bulk_b = bulk_register(state, 2, merkle_root(second_bulk))
    assert (a, b) == (0, 4)
    assert state.bulks[bulk_a].first_id == 1
    assert state.bulks[bulk_b].first_id == 5
    claim_bulk_registration_id(state, bulk_b, 6, "y-1", merkle_prove(second_bulk, 1))
    assert state.addresses[6] == "y-1"
