"""Merkle commitments: roots, proofs, serialization, tamper rejection."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay.errors import CodecError, InvalidParameter
from batchpay.merkle import (
    MerkleProof,
    leaf_hash,
    merkle_prove,
    merkle_proofs,
    merkle_root,
    merkle_verify,
    node_hash,
)


def addresses(n: int) -> list[str]:
    return [f"addr-{i}" for i in range(n)]


def test_single_leaf_root_is_leaf_hash():
    assert merkle_root(["only"]) == leaf_hash("only")


def test_two_leaf_root_is_ordered_pair_hash():
    left, right = leaf_hash("a"), leaf_hash("b")
    assert merkle_root(["a", "b"]) == node_hash(left, right)


def test_odd_level_duplicates_last():
    a, b, c = (leaf_hash(x) for x in "abc")
    expected = node_hash(node_hash(a, b), node_hash(c, c))
    assert merkle_root(["a", "b", "c"]) == expected


def test_domain_separation():
    # a leaf digest fed back in as a leaf must not collide with its parent
    assert leaf_hash("x") != hashlib.sha256(b"x").digest()
    inner = node_hash(leaf_hash("a"), leaf_hash("b"))
    assert inner != leaf_hash(leaf_hash("a").hex())


def test_empty_tree_rejected():
    with pytest.raises(InvalidParameter):
        merkle_root([])


def test_prove_and_verify_all_positions():
    leaves = addresses(7)
    root = merkle_root(leaves)
    for i, leaf in enumerate(leaves):
        proof = merkle_prove(leaves, i)
        assert proof.leaf_index == i
        assert merkle_verify(root, leaf, proof)


def test_proofs_of_every_leaf_match_one_by_one_proofs():
    for n in range(1, 71):
        leaves = addresses(n)
        root = merkle_root(leaves)
        proofs = merkle_proofs(leaves)
        assert len(proofs) == n
        for i, proof in enumerate(proofs):
            assert proof == merkle_prove(leaves, i), (n, i)
            assert merkle_verify(root, leaves[i], proof), (n, i)


def test_proofs_of_an_empty_list_rejected():
    with pytest.raises(InvalidParameter):
        merkle_proofs([])


def test_proof_bound_to_position():
    # a valid proof for one index must not verify a different leaf
    leaves = addresses(8)
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, 3)
    assert not merkle_verify(root, leaves[4], proof)
    shifted = MerkleProof(leaf_index=4, siblings=proof.siblings)
    assert not merkle_verify(root, leaves[3], shifted)


def test_index_bit_flip_never_verifies():
    # covers the duplicated tail of odd levels: leaf 4 of 5 is paired with
    # a copy of itself, and index 5 must not verify through that copy
    for n in range(1, 17):
        leaves = addresses(n)
        root = merkle_root(leaves)
        for i in range(n):
            proof = merkle_prove(leaves, i)
            for bit in range(32):
                flipped = MerkleProof(i ^ (1 << bit), proof.siblings)
                assert not merkle_verify(root, leaves[i], flipped), (n, i, bit)


def test_wrong_root_rejected():
    leaves = addresses(5)
    proof = merkle_prove(leaves, 2)
    other = merkle_root(addresses(6))
    assert not merkle_verify(other, leaves[2], proof)


def test_verify_refuses_a_negative_index_or_a_sibling_of_the_wrong_length():
    addrs = addresses(3)
    root = merkle_root(addrs)
    proof = merkle_prove(addrs, 1)
    assert merkle_verify(root, addrs[1], proof)
    assert not merkle_verify(root, addrs[1], MerkleProof(-1, proof.siblings))
    short = (proof.siblings[0][:-1],) + proof.siblings[1:]
    assert not merkle_verify(root, addrs[1], MerkleProof(1, short))


def test_proof_serialization_round_trip():
    leaves = addresses(9)
    for i in range(9):
        proof = merkle_prove(leaves, i)
        blob = proof.to_bytes()
        again = MerkleProof.from_bytes(blob)
        assert again == proof
        assert merkle_verify(merkle_root(leaves), leaves[i], again)


def test_proof_from_bytes_rejects_garbage():
    proof = merkle_prove(addresses(4), 1)
    blob = proof.to_bytes()
    with pytest.raises(CodecError):
        MerkleProof.from_bytes(blob[:-1])
    with pytest.raises(CodecError):
        MerkleProof.from_bytes(blob + b"\x00")
    with pytest.raises(CodecError):
        MerkleProof.from_bytes(b"")


def test_prove_index_out_of_range():
    with pytest.raises(InvalidParameter):
        merkle_prove(addresses(4), 4)
    with pytest.raises(InvalidParameter):
        merkle_prove(addresses(4), -1)


@given(st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_random_sizes_prove_verify(n, data):
    leaves = addresses(n)
    i = data.draw(st.integers(0, n - 1))
    root = merkle_root(leaves)
    assert merkle_verify(root, leaves[i], merkle_prove(leaves, i))


@given(st.integers(2, 16), st.data())
@settings(max_examples=60, deadline=None)
def test_bit_flip_in_proof_rejected(n, data):
    leaves = addresses(n)
    i = data.draw(st.integers(0, n - 1))
    root = merkle_root(leaves)
    blob = bytearray(merkle_prove(leaves, i).to_bytes())
    pos = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    blob[pos] ^= 1 << bit
    try:
        mutated = MerkleProof.from_bytes(bytes(blob))
    except CodecError:
        return
    assert not merkle_verify(root, leaves[i], mutated)
