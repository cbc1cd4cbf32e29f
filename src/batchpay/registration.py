"""Account registration: direct, via deposit, and bulk reservation + claim.

Bulk registration reserves a contiguous id range against a Merkle root of
addresses; each reserved id is claimed later with an inclusion proof whose
leaf index must equal the id's offset inside the range. Reserved-unclaimed
ids may appear in payee lists (they accrue entitlements) but cannot
receive deposits or collects until claimed, because they have no owner
address yet.

Nothing challenges a bulk root: a wrong root permanently strands its
reserved ids. That gap is deliberate and surfaced in simulation reports.
"""

from __future__ import annotations

from .chainlog import BulkRegistered, Claimed, Registered
from .errors import BadProof, InvalidParameter, TableFull, UnknownAccount
from .merkle import DIGEST_SIZE, MerkleProof, VerifiedPath, merkle_verify
from .state import BulkRegistration, ProtocolState, ensure_address, ensure_bytes, ensure_int
from .wire import U16_MAX


def register(state: ProtocolState, address: str) -> int:
    """Open a fresh account owned by ``address``; returns the new id."""
    ensure_address(address, "address")
    account_id = state.allocate_account(address)
    state.log.append(Registered(account_id, address))
    return account_id


def bulk_register(state: ProtocolState, count: int, root: bytes) -> int:
    """Reserve ``count`` consecutive ids under an address-list root.

    Returns the bulk id. The range starts at the next free id; ids inside
    it stay unclaimed (no address) until individually claimed.
    """
    if ensure_int(count, "bulk count") < 1:
        raise InvalidParameter("bulk count must be >= 1")
    root = ensure_bytes(root, "root")
    if len(root) != DIGEST_SIZE:
        raise InvalidParameter("root must be a 32-byte digest")
    if len(state.addresses) + count > state.params.max_account_count:
        raise TableFull(
            f"bulk of {count} exceeds account limit {state.params.max_account_count}"
        )
    first_id = len(state.addresses)
    for _ in range(count):
        state.allocate_account(None)
    bulk = BulkRegistration(
        bulk_id=len(state.bulks),
        first_id=first_id,
        count=count,
        root=root,
        registered_at_block=state.current_block,
    )
    state.bulks.append(bulk)
    state.log.append(BulkRegistered(bulk.bulk_id, first_id, count, bulk.root))
    return bulk.bulk_id


def claim_bulk_registration_id(
    state: ProtocolState,
    bulk_id: int,
    account_id: int,
    address: str,
    proof: MerkleProof,
) -> None:
    """Bind an address to a reserved id using its Merkle inclusion proof."""
    if type(bulk_id) is not int:
        ensure_int(bulk_id, "bulk id", UnknownAccount)
    if not 0 <= bulk_id < len(state.bulks):
        raise UnknownAccount(f"bulk registration {bulk_id} does not exist")
    ensure_address(address, "address")
    if not isinstance(proof, MerkleProof):
        raise InvalidParameter(f"proof must be a MerkleProof, got {type(proof).__name__}")
    leaf_index = proof.leaf_index
    # 0.0 == 0 would pass the offset check, and a one-leaf proof walks no sibling.
    if type(leaf_index) is not int:
        ensure_int(leaf_index, "proof leaf index")
    siblings = proof.siblings
    if not isinstance(siblings, (tuple, list)):
        raise InvalidParameter(
            f"proof siblings must be a tuple or list, got {type(siblings).__name__}"
        )
    # Read the siblings once, into a plain tuple: the walk, the remembered
    # path and the record then see the same digests, whatever a subclass does.
    if type(proof) is not MerkleProof or type(siblings) is not tuple:
        siblings = tuple(siblings)
        proof = MerkleProof(leaf_index, siblings)
    # "1" would fail the range test below with a bare TypeError.
    if type(account_id) is not int:
        ensure_int(account_id, "account id", UnknownAccount)
    bulk = state.bulks[bulk_id]
    offset = account_id - bulk.first_id
    if not 0 <= offset < bulk.count:
        raise BadProof(
            f"account {account_id} is not inside bulk range "
            f"[{bulk.first_id}, {bulk.first_id + bulk.count})"
        )
    if state.addresses[account_id] is not None:
        raise BadProof(f"account {account_id} already claimed")
    # The proof must sit at the id's offset inside the reserved range;
    # a valid proof for a different leaf cannot move an id.
    if leaf_index != offset:
        raise BadProof(f"leaf index {leaf_index} != id offset {offset}")
    # A registrant picks any root, so a longer proof can verify, but no record carries it.
    if len(siblings) > U16_MAX:
        raise BadProof(f"proof has {len(siblings)} siblings, more than {U16_MAX}")
    # A refused proof leaves the bulk's remembered path as it was.
    path = state.claim_paths.get(bulk_id) or VerifiedPath()
    if not merkle_verify(bulk.root, address, proof, path):
        raise BadProof("inclusion proof does not verify against the bulk root")
    state.claim_paths[bulk_id] = path
    state.addresses[account_id] = address
    state.log.append(Claimed(bulk_id, account_id, address, proof.to_bytes()))
