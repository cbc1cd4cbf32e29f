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
from .merkle import DIGEST_SIZE, MerkleProof, merkle_verify
from .state import BulkRegistration, ProtocolState, ensure_address


def register(state: ProtocolState, address: str) -> int:
    """Open a fresh account owned by ``address``; returns the new id."""
    ensure_address(address, "address")
    acct = state.allocate_account(address)
    state.log.append(Registered(acct.account_id, address))
    return acct.account_id


def bulk_register(state: ProtocolState, count: int, root: bytes) -> int:
    """Reserve ``count`` consecutive ids under an address-list root.

    Returns the bulk id. The range starts at the next free id; ids inside
    it stay unclaimed (no address) until individually claimed.
    """
    if count < 1:
        raise InvalidParameter("bulk count must be >= 1")
    if len(root) != DIGEST_SIZE:
        raise InvalidParameter("root must be a 32-byte digest")
    if len(state.accounts) + count > state.params.max_account_count:
        raise TableFull(
            f"bulk of {count} exceeds account limit {state.params.max_account_count}"
        )
    first_id = len(state.accounts)
    for _ in range(count):
        state.allocate_account(None)
    bulk = BulkRegistration(
        bulk_id=len(state.bulks),
        first_id=first_id,
        count=count,
        root=bytes(root),
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
    if not 0 <= bulk_id < len(state.bulks):
        raise UnknownAccount(f"bulk registration {bulk_id} does not exist")
    ensure_address(address, "address")
    bulk = state.bulks[bulk_id]
    if not bulk.first_id <= account_id < bulk.first_id + bulk.count:
        raise BadProof(
            f"account {account_id} is not inside bulk range "
            f"[{bulk.first_id}, {bulk.first_id + bulk.count})"
        )
    acct = state.account(account_id)
    if acct.claimed:
        raise BadProof(f"account {account_id} already claimed")
    # The proof must sit at the id's offset inside the reserved range;
    # a valid proof for a different leaf cannot move an id.
    if proof.leaf_index != account_id - bulk.first_id:
        raise BadProof(
            f"leaf index {proof.leaf_index} != id offset {account_id - bulk.first_id}"
        )
    if not merkle_verify(bulk.root, address, proof):
        raise BadProof("inclusion proof does not verify against the bulk root")
    acct.address = address
    state.log.append(Claimed(bulk_id, account_id, address, proof.to_bytes()))
