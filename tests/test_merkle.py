"""Merkle commitments: roots, proofs, serialization, tamper rejection."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchpay import merkle
from batchpay.errors import CodecError, InvalidParameter
from batchpay.merkle import (
    MerkleProof,
    VerifiedPath,
    leaf_hash,
    merkle_prove,
    merkle_root,
    merkle_tree,
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
        root, proofs = merkle_tree(leaves)
        assert root == merkle_root(leaves)
        assert len(proofs) == n
        for i, proof in enumerate(proofs):
            assert proof == merkle_prove(leaves, i), (n, i)
            assert merkle_verify(root, leaves[i], proof), (n, i)


def test_proofs_of_an_empty_list_rejected():
    with pytest.raises(InvalidParameter):
        merkle_tree([])


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


# -- the remembered path -------------------------------------------------------


def _remembered(path: VerifiedPath) -> tuple:
    return path.root, path.leaf_index, list(path.nodes), list(path.siblings)


def _mutations(root, leaves, proof, path):
    """Proofs near ``proof``, each as ``(address, proof)``: a bit flip at each
    level, truncated and extended siblings, wrong and negative indexes, the
    neighbour's address, and, at each level from where the path meets the
    remembered one, an equal-content sibling that is not ``bytes``."""
    i, sibs = proof.leaf_index, proof.siblings
    address = leaves[i]
    depth = len(sibs)
    out = []
    for level in range(depth):
        flipped = bytes([sibs[level][0] ^ 1]) + sibs[level][1:]
        out.append((address, MerkleProof(i, sibs[:level] + (flipped,) + sibs[level + 1:])))
    if depth:
        out.append((address, MerkleProof(i, sibs[:-1])))
        out.append((address, MerkleProof(i, sibs + (sibs[-1],))))
    out.append((address, MerkleProof(i, sibs + (root,))))
    for wrong in (i ^ 1, i + 1, i - 1, i + (1 << depth), -1, -1 - i, path.leaf_index):
        out.append((address, MerkleProof(wrong, sibs)))
    out.append((leaves[i ^ 1] if i ^ 1 < len(leaves) else "elsewhere", proof))
    meet = (i ^ path.leaf_index).bit_length()
    for level in range(min(meet, depth), depth):
        for kind in (bytearray, memoryview):
            out.append((address, MerkleProof(i, sibs[:level] + (kind(sibs[level]),) + sibs[level + 1:])))
    return out


@given(
    n=st.integers(1, 70),
    repeats=st.lists(st.integers(1, 69), max_size=4),
    order=st.sampled_from(["in order", "reversed", "shuffled"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_remembered_path_never_changes_the_answer(n, repeats, order, seed):
    # A memo-carrying verify against a fresh one, on identical inputs, over
    # every proof of a tree and the mutations of each, claimed in order,
    # reversed or shuffled. Repeated addresses make adjacent equal leaves.
    leaves = addresses(n)
    for j in repeats:
        if j < n:
            leaves[j] = leaves[j - 1]
    root, proofs = merkle_tree(leaves)
    ids = list(range(n))
    if order == "reversed":
        ids.reverse()
    elif order == "shuffled":
        random.Random(seed).shuffle(ids)
    path = VerifiedPath()
    for i in ids:
        for address, proof in _mutations(root, leaves, proofs[i], path) + [(leaves[i], proofs[i])]:
            before = _remembered(path)
            accepted = merkle_verify(root, address, proof, path)
            assert accepted == merkle_verify(root, address, proof), (n, i, proof)
            if accepted:
                # The memo is the path a full walk of this proof remembers.
                fresh = VerifiedPath()
                assert merkle_verify(root, address, proof, fresh)
                assert _remembered(path) == _remembered(fresh)
            else:
                assert _remembered(path) == before


def test_a_remembered_path_is_kept_per_root():
    # A path remembered against one root never shortens a walk against another.
    left, right = addresses(8), [f"other-{i}" for i in range(8)]
    (root_l, proofs_l), (root_r, proofs_r) = merkle_tree(left), merkle_tree(right)
    path = VerifiedPath()
    assert merkle_verify(root_l, left[0], proofs_l[0], path)
    assert not merkle_verify(root_r, left[1], proofs_l[1], path)
    assert merkle_verify(root_r, right[1], proofs_r[1], path)
    assert path.root == root_r and path.leaf_index == 1


def _counted_node_hash(monkeypatch) -> list[int]:
    calls = [0]
    node_hash = merkle.node_hash

    def counted(left, right):
        calls[0] += 1
        return node_hash(left, right)

    monkeypatch.setattr(merkle, "node_hash", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1000])
def test_claims_in_id_order_hash_each_interior_node_about_twice(monkeypatch, n):
    # n proofs walked in full would hash n * depth nodes; remembering the last
    # accepted path, the walk from leaf i stops where it meets leaf i - 1's.
    leaves = addresses(n)
    root, proofs = merkle_tree(leaves)
    depth = len(proofs[0].siblings)
    calls = _counted_node_hash(monkeypatch)
    path = VerifiedPath()
    for address, proof in zip(leaves, proofs):
        assert merkle_verify(root, address, proof, path)
    assert calls[0] <= 2 * n + depth


def test_claims_in_any_order_hash_no_more_than_full_walks(monkeypatch):
    leaves = addresses(300)
    root, proofs = merkle_tree(leaves)
    calls = _counted_node_hash(monkeypatch)
    path = VerifiedPath()
    order = list(range(300))
    random.Random(7).shuffle(order)
    for i in order:
        before = calls[0]
        assert merkle_verify(root, leaves[i], proofs[i], path)
        assert calls[0] - before <= len(proofs[i].siblings)
