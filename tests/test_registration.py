"""Account onboarding: direct registration and bulk reservation with claims."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.errors import (
    BadProof,
    InvalidParameter,
    TableFull,
    UnknownAccount,
)
from batchpay import merkle
from batchpay.chainlog import ChainLog, Claimed
from batchpay.merkle import (
    MerkleProof,
    leaf_hash,
    merkle_prove,
    merkle_root,
    merkle_tree,
    merkle_verify,
    node_hash,
)
from batchpay.registration import bulk_register, claim_bulk_registration_id, register
from batchpay.replay import replay
from batchpay.sim import scenario
from batchpay.sim.config import load_scenario_config
from batchpay.state import NEW_ACCOUNT, TokenAdapter, instantiate
from batchpay.wire import U16_MAX
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


def _remembered(state) -> dict:
    return {
        bulk_id: (path.root, path.leaf_index, list(path.nodes), list(path.siblings))
        for bulk_id, path in state.claim_paths.items()
    }


def _with_top(proof: MerkleProof, top) -> MerkleProof:
    return MerkleProof(proof.leaf_index, proof.siblings[:-1] + (top,))


@pytest.mark.parametrize(
    "refused",
    [
        lambda addrs, proofs: (5, "impostor", proofs[5]),
        lambda addrs, proofs: (5, addrs[6], proofs[6]),                 # wrong offset
        lambda addrs, proofs: (5, addrs[5], MerkleProof(5, proofs[4].siblings)),
        lambda addrs, proofs: (5, addrs[5], _with_top(proofs[5], bytes(32))),
        lambda addrs, proofs: (5, addrs[5], _with_top(proofs[5], bytearray(proofs[5].siblings[-1]))),
        lambda addrs, proofs: (4, addrs[4], proofs[4]),                 # already claimed
    ],
    ids=["wrong-address", "wrong-offset", "siblings-of-the-last-claim", "tampered-upper-sibling",
         "bytearray-upper-sibling", "double-claim"],
)
def test_a_refused_claim_after_an_accepted_one_changes_nothing(refused):
    # The claim right after an accepted one meets its path low in the tree,
    # so every refusal here is reached with the bulk's path remembered.
    state = fresh()
    addrs = [f"seller-{i}" for i in range(11)]
    root, proofs = merkle_tree(addrs)
    bulk_id = bulk_register(state, len(addrs), root)
    for i in range(5):
        claim_bulk_registration_id(state, bulk_id, i, addrs[i], proofs[i])
    before = state.digest(), state.log.dump(), _remembered(state)
    assert before[2][bulk_id][1] == 4
    account_id, address, proof = refused(addrs, proofs)
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, account_id, address, proof)
    assert (state.digest(), state.log.dump(), _remembered(state)) == before
    claim_bulk_registration_id(state, bulk_id, 5, addrs[5], proofs[5])
    assert state.addresses[5] == addrs[5]


@given(
    n=st.integers(1, 70),
    repeats=st.lists(st.integers(1, 69), max_size=4),
    as_list=st.booleans(),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_claim_logs_the_bytes_of_the_proof_it_accepted(n, repeats, as_list, shuffled, seed):
    # Repeated addresses make adjacent equal leaves, some of which no proof
    # can claim. Before each claim, its proof with one sibling swapped for a
    # bytes-like or wrong-length value, below and from the level where its
    # path meets the last accepted one, is refused and changes nothing.
    addrs = [f"seller-{i}" for i in range(n)]
    for j in repeats:
        if j < n:
            addrs[j] = addrs[j - 1]
    root, proofs = merkle_tree(addrs)
    state = fresh()
    bulk_id = bulk_register(state, n, root)
    first_id = state.bulks[bulk_id].first_id
    rng = random.Random(seed)
    ids = list(range(n))
    if shuffled:
        rng.shuffle(ids)
    for i in ids:
        proof = proofs[i]
        siblings = list(proof.siblings) if as_list else proof.siblings
        depth = len(siblings)
        path = state.claim_paths.get(bulk_id)
        meet = min((i ^ path.leaf_index).bit_length() if path else 0, depth)
        for levels in (range(meet), range(meet, depth)):
            if not levels:
                continue
            level = rng.choice(levels)
            good = siblings[level]
            for bad in (bytearray(good), memoryview(good), good[:31], good + b"\x00"):
                tampered = [*siblings[:level], bad, *siblings[level + 1:]]
                before = state.digest(), list(state.log.records), _remembered(state)
                with pytest.raises(BadProof):
                    claim_bulk_registration_id(
                        state, bulk_id, first_id + i, addrs[i],
                        MerkleProof(i, tampered if as_list else tuple(tampered)),
                    )
                assert (state.digest(), state.log.records, _remembered(state)) == before
        if not merkle_verify(root, addrs[i], proof):
            with pytest.raises(BadProof):
                claim_bulk_registration_id(state, bulk_id, first_id + i, addrs[i], proof)
            continue
        claim_bulk_registration_id(state, bulk_id, first_id + i, addrs[i], MerkleProof(i, siblings))
        record = state.log.records[-1]
        assert record == Claimed(bulk_id, first_id + i, addrs[i], proof.to_bytes())
        assert MerkleProof.from_bytes(record.proof_blob) == proof
    rebuilt, _ = replay(ChainLog.load(state.log.dump()))
    assert rebuilt.digest() == state.digest()


class _TwoFaced(list):
    """A sibling list whose iteration yields other digests than its items."""

    def __init__(self, items, iterated):
        super().__init__(items)
        self.iterated = iterated

    def __iter__(self):
        return iter(self.iterated)


def test_a_claim_reads_a_list_subclass_of_siblings_once():
    state = fresh()
    addrs = [f"seller-{i}" for i in range(8)]
    root, proofs = merkle_tree(addrs)
    bulk_id = bulk_register(state, len(addrs), root)
    for i in range(3):
        claim_bulk_registration_id(state, bulk_id, i, addrs[i], proofs[i])
    good = proofs[3].siblings
    forged = (bytes(32),) * len(good)
    # Items that verify, iterated as others: refused, nothing written.
    before = state.digest(), state.log.dump(), _remembered(state)
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 3, addrs[3], MerkleProof(3, _TwoFaced(good, forged)))
    assert (state.digest(), state.log.dump(), _remembered(state)) == before
    # Forged items, iterated as the true siblings: the walk, the remembered
    # path and the record all hold what iteration gave.
    claim_bulk_registration_id(state, bulk_id, 3, addrs[3], MerkleProof(3, _TwoFaced(forged, good)))
    assert state.log.records[-1].proof_blob == proofs[3].to_bytes()
    assert state.claim_paths[bulk_id].siblings == good
    for i in range(4, len(addrs)):
        claim_bulk_registration_id(state, bulk_id, i, addrs[i], proofs[i])
    rebuilt, _ = replay(ChainLog.load(state.log.dump()))
    assert rebuilt.digest() == state.digest()


def _chosen_root(address: str, depth: int) -> tuple[bytes, MerkleProof]:
    """A root ``depth`` levels above ``address``'s leaf, and leaf 0's proof for it."""
    siblings = (bytes(32),) * depth
    node = leaf_hash(address)
    for sibling in siblings:
        node = node_hash(node, sibling)
    return node, MerkleProof(0, siblings)


def test_a_proof_longer_than_a_record_carries_is_refused_before_its_walk():
    # A registrant picks any root, so a proof of any depth can verify; a
    # Claimed record counts its siblings in a u16.
    root, proof = _chosen_root("p", U16_MAX + 1)
    assert merkle_verify(root, "p", proof)
    state = fresh()
    bulk_id = bulk_register(state, 1, root)
    before = state.digest(), state.log.dump()
    with pytest.raises(BadProof, match=f"proof has {U16_MAX + 1} siblings, more than {U16_MAX}"):
        claim_bulk_registration_id(state, bulk_id, 0, "p", proof)
    assert (state.digest(), state.log.dump(), state.claim_paths) == (*before, {})
    root, proof = _chosen_root("p", U16_MAX)
    bulk_id = bulk_register(state, 1, root)
    claim_bulk_registration_id(state, bulk_id, 1, "p", proof)
    assert MerkleProof.from_bytes(state.log.records[-1].proof_blob) == proof
    rebuilt, _ = replay(ChainLog.load(state.log.dump()))
    assert rebuilt.digest() == state.digest()


def test_a_refused_first_claim_remembers_no_path():
    state = fresh()
    addrs = ["p", "q", "r"]
    bulk_id = bulk_register(state, 3, merkle_root(addrs))
    with pytest.raises(BadProof):
        claim_bulk_registration_id(state, bulk_id, 1, "impostor", merkle_prove(addrs, 1))
    assert state.claim_paths == {}


def test_claims_of_two_bulks_interleaved_out_of_order_replay_to_the_live_digest():
    state = fresh()
    a_addrs = [f"a-{i}" for i in range(37)]
    b_addrs = [f"b-{i}" for i in range(21)]
    a_root, a_proofs = merkle_tree(a_addrs)
    b_root, b_proofs = merkle_tree(b_addrs)
    bulk_a = bulk_register(state, len(a_addrs), a_root)
    register(state, "between")
    bulk_b = bulk_register(state, len(b_addrs), b_root)
    claims = [(bulk_a, i, a_addrs, a_proofs) for i in range(len(a_addrs))]
    claims += [(bulk_b, i, b_addrs, b_proofs) for i in range(len(b_addrs))]
    random.Random(3).shuffle(claims)
    for bulk_id, i, addrs, proofs in claims:
        first_id = state.bulks[bulk_id].first_id
        claim_bulk_registration_id(state, bulk_id, first_id + i, addrs[i], proofs[i])
    assert None not in state.addresses
    rebuilt, _ = replay(ChainLog.load(state.log.dump()))
    assert rebuilt.digest() == state.digest()
    assert _remembered(rebuilt) == _remembered(state)


def test_bulk_set_up_claims_hash_about_twice_per_id(monkeypatch):
    # The bench's adversarial_bulk config claims its 400 sellers' ids in id
    # order at set-up. Walked in full, each claim would hash its whole path
    # (400 * 9 nodes); remembering the bulk's last accepted path, the claims
    # together hash at most 2n + depth.
    claiming, calls = [False], [0]
    node_hash, claim = merkle.node_hash, scenario.claim_bulk_registration_id

    def counted_node_hash(left, right):
        calls[0] += claiming[0]
        return node_hash(left, right)

    def counted_claim(*args):
        claiming[0] = True
        try:
            return claim(*args)
        finally:
            claiming[0] = False

    monkeypatch.setattr(merkle, "node_hash", counted_node_hash)
    monkeypatch.setattr(scenario, "claim_bulk_registration_id", counted_claim)
    config = load_scenario_config(Path(__file__).resolve().parent.parent / "bench" / "adversarial_bulk.cfg")
    run = scenario.SimRun(config)
    n = config.sellers
    depth = (n - 1).bit_length()
    assert n == 400 and None not in run.state.addresses
    assert 0 < calls[0] <= 2 * n + depth
