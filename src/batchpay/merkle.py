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
and serialize as their fields' kinds: the leaf index as u32, then the
digests as ``b32s`` (a u16 count), in leaf-to-root order.

``merkle_prove`` walks one leaf's path up the tree. ``merkle_tree`` builds
every leaf's proof at once, a level at a time: the level's siblings in
node order (each pair swapped, an odd tail paired with itself), each
repeated once per leaf below its node, so that column holds every leaf's
sibling at that level. The columns are lazy iterators, zipped in C into
each leaf's sibling tuple; no level is walked once per leaf.

Claims of one bulk arrive mostly in id order, and consecutive proofs share
every level above the node where their paths meet. So ``merkle_verify``
may carry a ``VerifiedPath``: the last path it accepted against a root,
as the leaf index, the node at each level and the sibling at each level.
A proof against that root is then hashed from the leaf only up to level
``k = (index ^ last index).bit_length()``, where the two leaves' paths
meet: both indexes agree on every bit from k up. There it is accepted
without further hashing when the node it reached is the remembered node
at level k and every sibling from level k up is of type ``bytes`` and
equal to the remembered one (so both proofs have as many siblings).
Otherwise it walks in full.
The early stop is taken only when the rest of the walk would hash exactly
the inputs that the remembered, accepted walk hashed: the same node, the
same siblings, the same orientation (the index bits from k up), and the
same index bits beyond the depth. So that rest would compute the same
nodes, pass the same duplicate-pairing checks and end at the same root;
the accepted and refused proofs are those of the full walk, and the
argument does not rest on sha256's collision resistance. The remembered
path changes only when a proof is accepted. Claiming all n ids of one
bulk in id order hashes at most 2n + depth interior nodes, not n times
the depth.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, repeat
from operator import countOf

from .errors import InvalidParameter
from .wire import B32s, U32, kinds, layout, packer, unpack

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
    leaf_index: U32
    siblings: B32s

    def to_bytes(self) -> bytes:
        return _pack_proof(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleProof":
        """Parse a serialized proof; CodecError unless ``data`` is exactly one."""
        return cls(*unpack(kinds(cls), data))


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


def merkle_tree(addresses: list[str]) -> tuple[bytes, list[MerkleProof]]:
    """The root and every leaf's proof, in leaf order, from one build of the tree.

    ``merkle_tree(a) == (merkle_root(a), [merkle_prove(a, i) for i in ...])``;
    proving all n leaves one by one would hash the whole tree n times.
    """
    levels = _levels(addresses)
    columns = []
    for height, level in enumerate(levels[:-1]):
        if len(level) % 2:
            level = level + [level[-1]]
        # Each node's sibling, in node order, then repeated once per leaf below it.
        column = chain.from_iterable(zip(level[1::2], level[::2]))
        columns.append(chain.from_iterable(map(repeat, column, repeat(1 << height))))
    paths = zip(*columns) if columns else repeat(())
    return levels[-1][0], list(map(MerkleProof, range(len(addresses)), paths))


class VerifiedPath:
    """The last path ``merkle_verify`` accepted against ``root``.

    ``nodes[l]`` is the node the walk reached at level ``l`` (the leaf
    digest at 0, ``root`` at the depth) and ``siblings[l]`` the sibling it
    was paired with there. A fresh one has no root and remembers nothing.
    """

    __slots__ = ("root", "leaf_index", "nodes", "siblings")

    def __init__(self) -> None:
        self.root: bytes | None = None
        self.leaf_index = 0
        self.nodes: list[bytes] = []
        self.siblings: tuple[bytes, ...] = ()


def merkle_verify(
    root: bytes, address: str, proof: MerkleProof, path: VerifiedPath | None = None
) -> bool:
    """Check a proof against a root; orientation comes from the index bits.

    The index must be fully consumed by the walk (no bits beyond the tree
    depth), which makes any bit flip in the index detectable even for a
    single-leaf tree. A right child whose left sibling equals it is
    refused: that pairing is an odd level's duplicated last node, and the
    index would name a leaf the tree does not have. A sibling that is not
    32 bytes of ``bytes`` fails the proof.

    With ``path``, the walk stops where the proof's path meets the one
    ``path`` remembers (see the module docstring), and an accepted proof
    becomes the remembered one. The answer is the same as without it.
    """
    idx = proof.leaf_index
    if idx < 0:
        return False
    siblings = proof.siblings
    depth = stop = len(siblings)
    if path is not None and path.root == root:
        meet = (idx ^ path.leaf_index).bit_length()
        if meet < depth:
            # A tuple: a list's slice never equals the remembered tuple's.
            upper = tuple(siblings[meet:])
            if countOf(map(type, upper), bytes) == depth - meet and upper == path.siblings[meet:]:
                stop = meet
    node = leaf_hash(address)
    nodes = [node]
    bits = idx
    for sib in siblings[:stop]:
        if type(sib) is not bytes or len(sib) != DIGEST_SIZE:
            return False
        if bits & 1 == 0:
            node = node_hash(node, sib)
        elif sib == node:
            return False
        else:
            node = node_hash(sib, node)
        nodes.append(node)
        bits >>= 1
    if stop < depth:
        if node != path.nodes[stop]:
            return False
        path.nodes[: stop + 1] = nodes
    elif bits or node != root:
        return False
    elif path is None:
        return True
    else:
        path.nodes = nodes
    # Every sibling is now known to be 32 bytes of ``bytes``: those below
    # ``stop`` were checked above, and those from it up equal the remembered ones.
    path.root, path.leaf_index, path.siblings = root, idx, tuple(siblings)
    return True
