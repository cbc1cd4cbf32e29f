"""Merkle commitments over address lists, used for bulk account claims.

Hashing is sha256 with one-byte domain separation: leaves are hashed under
prefix 0x00, interior nodes under 0x01, so a leaf digest can never be
replayed as an interior node or vice versa. Levels with an odd node count
duplicate their last node. A single-leaf tree's root is just that leaf's
digest.

The duplicated copy is not a leaf, so verification refuses any step that
pairs a node, as the right child, with an identical left sibling. The
cost: a list whose adjacent even/odd positions hold identical subtrees
(a repeated address, say) cannot prove the right-hand copy.

Proofs carry the leaf index plus the sibling digests from leaf to root,
and serialize as their ``WIRE`` kinds: the leaf index as u32, then the
digests as ``b32s`` (a u16 count), in leaf-to-root order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InvalidParameter
from .wire import layout, packer, unpack

DIGEST_SIZE = 32
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_hash(address: str) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + address.encode("utf-8")).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def _levels(addresses: list[str]) -> list[list[bytes]]:
    if not addresses:
        raise InvalidParameter("cannot build a tree over zero leaves")
    level = [leaf_hash(a) for a in addresses]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2:
            level = level + [level[-1]]
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def merkle_root(addresses: list[str]) -> bytes:
    return _levels(addresses)[-1][0]


@dataclass(frozen=True)
class MerkleProof:
    WIRE = ("u32", "b32s")
    leaf_index: int
    siblings: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        return _pack_proof(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleProof":
        """Parse a serialized proof; CodecError unless ``data`` is exactly one."""
        return cls(*unpack(cls.WIRE, data))


_pack_proof = packer(layout(MerkleProof))


def _path(levels: list[list[bytes]], leaf_index: int) -> MerkleProof:
    siblings = []
    idx = leaf_index
    for level in levels[:-1]:
        sib = idx ^ 1
        # Odd tail: the node is paired with a copy of itself.
        siblings.append(level[sib] if sib < len(level) else level[idx])
        idx >>= 1
    return MerkleProof(leaf_index, tuple(siblings))


def merkle_prove(addresses: list[str], leaf_index: int) -> MerkleProof:
    """Produce the sibling path for one leaf of the given list."""
    if not 0 <= leaf_index < len(addresses):
        raise InvalidParameter(f"leaf index {leaf_index} out of range")
    return _path(_levels(addresses), leaf_index)


def merkle_proofs(addresses: list[str]) -> list[MerkleProof]:
    """Every leaf's proof, in leaf order, from one build of the tree.

    ``merkle_proofs(a)[i] == merkle_prove(a, i)``; proving all n leaves
    one by one would hash the whole tree n times.
    """
    levels = _levels(addresses)
    return [_path(levels, i) for i in range(len(addresses))]


def merkle_verify(root: bytes, address: str, proof: MerkleProof) -> bool:
    """Check a proof against a root; orientation comes from the index bits.

    The index must be fully consumed by the walk (no bits beyond the tree
    depth), which makes any bit flip in the index detectable even for a
    single-leaf tree. A right child whose left sibling equals it is
    refused: that pairing is an odd level's duplicated last node, and the
    index would name a leaf the tree does not have.
    """
    node = leaf_hash(address)
    idx = proof.leaf_index
    if idx < 0:
        return False
    for sib in proof.siblings:
        if len(sib) != DIGEST_SIZE:
            return False
        if idx & 1 == 0:
            node = node_hash(node, sib)
        elif sib == node:
            return False
        else:
            node = node_hash(sib, node)
        idx >>= 1
    return idx == 0 and node == root
