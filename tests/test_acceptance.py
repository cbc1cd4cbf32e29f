"""Top-level acceptance checks, one test per numbered criterion.

Each test prints a single summary line to the real stdout (bypassing
capture so the line survives in piped test output):

    ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>, budget <seconds>)

and enforces its own wall-clock budget on top of its assertions.

Check 2 pins the amortization curve over batch sizes 300, 1000, 3000
and 10000. At the canonical n = 1000 the per-payment figure is 397 gas,
inside the 300..1000 band. At every size it must equal the closed form
16 + ceil(212,255 / n) + ceil(167,440 / n), worked out from the two
calibrated anchors and the 16 gas of the one calldata byte each extra
consecutive payee costs, and it must fall strictly as n grows. The band
is not asserted away from n = 1000: collect is flat in n, so holding
300 gas at n = 10000 would need register(10000) > 2.82M gas, a slope of
more than 287.9 gas per payee through the 228,255 anchor and so a
negative fixed part. A band across sizes contradicts amortization.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from batchpay.cli import main
from batchpay.codec import MAX_ID, decode_pay_data, encode_pay_data
from batchpay.collect import (
    challenge,
    challenge_failed,
    challenge_success,
    collect,
    free_slot,
    prove_payment_inclusion,
    respond_with_payment_list,
    select_payment,
)
from batchpay.costmodel import cost_summary
from batchpay.errors import BadProof, CodecError, IllegalMove, ProtocolError
from batchpay.merkle import MerkleProof, merkle_prove, merkle_root, merkle_verify
from batchpay.payments import (
    locking_key_hash,
    refund_locked_payment,
    register_payment,
    unlock,
)
from batchpay.registration import register
from batchpay.sim import ScenarioConfig, run_scenario
from batchpay.sim.config import parse_scenario_config
from batchpay.sim.report import report_digest
from batchpay.sim.scenario import run_scenario_full
from batchpay.wire import U64_MAX
from batchpay.state import (
    NEW_ACCOUNT,
    GameState,
    Params,
    PaymentStatus,
    TokenAdapter,
    instantiate,
)
from tests.conftest import World, payment_entitlement, payment_occurrences, small_params

GOLDEN_DIR = __file__.rsplit("/", 1)[0] + "/golden"
HONEST_CFG = __file__.rsplit("/", 2)[0] + "/configs/honest.cfg"


@pytest.fixture
def check(request):
    """Runs one acceptance body, prints its verdict line, enforces its budget.

    The line is printed with capture suspended so it reaches the real
    terminal (and any pipe) even under pytest's default fd capture.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, file=sys.stderr, flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    def run(number: int, name: str, budget: float, fn) -> None:
        start = time.perf_counter()
        try:
            detail = fn() or ""
        except BaseException as exc:
            elapsed = time.perf_counter() - start
            note = str(exc).splitlines()[0][:120] if str(exc) else type(exc).__name__
            emit(f"\nACCEPTANCE {number} {name}: FAIL ({elapsed:.2f}s) {note}")
            raise
        elapsed = time.perf_counter() - start
        verdict = "PASS" if elapsed < budget else "FAIL"
        suffix = f" {detail}" if detail else ""
        emit(
            f"\nACCEPTANCE {number} {name}: {verdict} "
            f"({elapsed:.2f}s, budget {budget:g}s){suffix}"
        )
        assert elapsed < budget, (
            f"{name} exceeded its {budget:g}s budget ({elapsed:.2f}s)"
        )

    return run


# -- 1: calibrated cost figures ---------------------------------------------------


def test_1_cost_reproduction(check, capsys):
    def body():
        assert main(["cost", "--n", "1000", "--gwei", "5", "--ethusd", "225"]) == 0
        fields = dict(
            line.split(maxsplit=1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert int(fields["register_payment_gas"]) == 228_255
        assert int(fields["collect_gas"]) == 167_440
        assert int(fields["amortized_gas_per_payment"]) == 397
        printed_usd = float(fields["usd_per_payment"])
        assert abs(printed_usd - 0.00045) <= 0.00001
        exact = 397 * 5e-9 * 225
        assert abs(exact - 0.000446625) < 1e-12
        assert abs(exact - 0.00045) <= 0.00001
        return "register 228255, collect 167440, amortized 397, usd 0.00045"

    check(1, "cost reproduction", 1.0, body)


# -- 2: amortized gas per payment across batch sizes -------------------------------

# Measured anchors the cost model is calibrated to, and the calldata price
# of the one byte each extra consecutive payee adds to the payment.
REGISTER_GAS_AT_1000 = 228_255
COLLECT_GAS = 167_440
GAS_PER_PAYEE_BYTE = 16


def test_2_amortized_gas_band(check):
    def body():
        sweep = (300, 1000, 3000, 10000)
        summaries = {n: cost_summary(n, 5, 225) for n in sweep}
        amortized = {n: s["amortized_gas_per_payment"] for n, s in summaries.items()}
        # The canonical size, inside the 300..1000 band.
        assert amortized[1000] == 397
        register_fixed = REGISTER_GAS_AT_1000 - GAS_PER_PAYEE_BYTE * 1000
        for n, summary in summaries.items():
            # The closed form assumes the u32 count has the same zero bytes
            # as at n = 1000: two nonzero low bytes, two zero high bytes.
            count = n.to_bytes(4, "little")
            assert 0 not in count[:2] and count[2:] == bytes(2)
            assert summary["register_gas"] == register_fixed + GAS_PER_PAYEE_BYTE * n
            assert summary["collect_gas"] == COLLECT_GAS
            expected = (
                GAS_PER_PAYEE_BYTE
                + -(-register_fixed // n)
                + -(-COLLECT_GAS // n)
            )
            assert amortized[n] == expected, (
                f"amortized gas at n = {n} is {amortized[n]}, closed form gives {expected}"
            )
        curve = [amortized[n] for n in sweep]
        assert all(a > b for a, b in zip(curve, curve[1:])), (
            f"amortized gas per payment does not fall as batches grow: {amortized}"
        )
        return f"amortized {amortized}"

    check(2, "amortized gas band", 1.0, body)


# -- 3: payee codec round trips ------------------------------------------------------


def _random_id_list(rng: random.Random, size: int) -> list[int]:
    ids = []
    cur = rng.randint(0, 1000)
    for _ in range(size):
        cur += rng.randint(0, min(1_000_000, MAX_ID - cur))
        ids.append(cur)
    return ids


def test_3_codec_round_trips(check):
    def body():
        rng = random.Random(0xC0DEC)
        sizes = (
            [rng.randint(0, 100) for _ in range(8500)]
            + [rng.randint(101, 1000) for _ in range(1200)]
            + [rng.randint(1001, 4999) for _ in range(290)]
            + [5000] * 10
        )
        assert len(sizes) == 10_000
        for size in sizes:
            ids = _random_id_list(rng, size)
            assert decode_pay_data(encode_pay_data(ids)) == ids
        for _ in range(1000):
            start = rng.randint(0, MAX_ID - 1000)
            ids = list(range(start, start + 1000))
            blob = encode_pay_data(ids)
            assert len(blob) == 1007
            assert decode_pay_data(blob) == ids
        return "10000 round trips, 1000 consecutive lists at 1007 bytes"

    check(3, "codec round trips", 10.0, body)


# -- 4: inclusion proofs -----------------------------------------------------------


def test_4_merkle_suite(check):
    def body():
        proofs = []
        for size in range(1, 33):
            addresses = [f"addr-{size}-{i}" for i in range(size)]
            root = merkle_root(addresses)
            for index, address in enumerate(addresses):
                proof = merkle_prove(addresses, index)
                assert merkle_verify(root, address, proof)
                proofs.append((root, address, proof.to_bytes()))

        rng = random.Random(0x3E71)
        for _ in range(1000):
            root, address, blob = proofs[rng.randrange(len(proofs))]
            mutated = bytearray(blob)
            bit = rng.randrange(len(mutated) * 8)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                parsed = MerkleProof.from_bytes(bytes(mutated))
            except CodecError:
                continue
            assert not merkle_verify(root, address, parsed), (
                f"a single flipped bit (offset {bit}) still verified "
                f"for list size with {len(blob)} proof bytes"
            )
        return "528 proofs over sizes 1..32, 1000 bit flips rejected"

    check(4, "inclusion proof suite", 10.0, body)


# -- 5: challenge game soundness and completeness -------------------------------------

STAKE = 4            # delegate's collect stake on the game boards
CHALLENGE_STAKE = 2


class GameBoard:
    """A long-lived world where payment batches append and games replay.

    Every batch is the whole payment history between the seller's current
    collected prefix and the newest payment, so a fresh batch starts the
    moment the previous one settles. Lost games never advance the prefix,
    which is what lets one batch host many adversarial rounds before its
    single honest settlement.
    """

    def __init__(self):
        self.world = World(
            params=small_params(
                unlock_period=1,
                challenge_period=1,
                response_period=1,
                collect_stake=STAKE,
                challenge_stake=CHALLENGE_STAKE,
            )
        )
        self.state = self.world.state
        self.filler = register(self.state, "filler")
        self.games = 0
        self.batches = 0

    def stage(self, vector: tuple[int, ...], per_dest: int) -> tuple[int, int, list[int]]:
        """Register one payment per vector entry; entry = seller occurrences."""
        world, state = self.world, self.state
        start = state.collected[world.seller]
        assert start == state.latest_pay_index, "previous batch did not settle"
        for occurrences in vector:
            payees = [world.seller] * occurrences if occurrences else [self.filler]
            world.pay(payees, per_destination=per_dest)
        world.advance(1)                      # unlock_period = 1: all mature
        end = state.latest_pay_index
        dues = [occ * per_dest for occ in vector]
        assert world.entitlement(world.seller, start, end) == sum(dues)
        self.batches += 1
        return start, end, dues

    def play_soundness(self, start, end, dues, delta, defense) -> None:
        """An overstated claim must lose to the canonical challenger."""
        world, state = self.world, self.state
        claim = sum(dues) + delta
        delegate_before = world.balance(world.delegate)
        monitor_before = world.balance(world.monitor)
        seller_before = world.balance(world.seller)
        pool_before = state.escrow_pool
        prefix_before = state.collected[world.seller]

        world.open_collect(0, end, claim)
        challenge(state, world.delegate, 0, world.monitor)
        pairs = defense(start, dues, claim)
        if pairs is not None:
            respond_with_payment_list(state, world.delegate, 0, pairs)
            due_of = {start + 1 + i: due for i, due in enumerate(dues)}
            inflated = [(i, a) for i, a in pairs if a > due_of.get(i, 0)]
            assert inflated, "a list summing over the truth must inflate an entry"
            pick = max(inflated, key=lambda entry: entry[1] - due_of.get(entry[0], 0))
            select_payment(state, world.delegate, 0, *pick)
            with pytest.raises(BadProof):
                prove_payment_inclusion(
                    state, world.delegate, 0, world.pay_data[pick[0]]
                )
        world.advance(1)
        challenge_success(state, world.delegate, 0)

        assert (world.delegate, 0) not in state.slots
        assert world.balance(world.monitor) - monitor_before == STAKE
        assert world.balance(world.delegate) - delegate_before == -STAKE
        assert world.balance(world.seller) == seller_before
        assert state.escrow_pool == pool_before
        assert (
            state.collected[world.seller] == prefix_before
        ), "a lost claim must not consume the range"
        self.games += 1

    def settle_honest(self, start, end, dues) -> None:
        """A truthful claim is never challengeable and settles exactly."""
        world, state = self.world, self.state
        claim = world.entitlement(world.seller, start, end)
        assert claim == sum(dues)             # the canonical watcher sees "ok"
        delegate_before = world.balance(world.delegate)
        seller_before = world.balance(world.seller)
        pool_before = state.escrow_pool

        world.open_collect(0, end, claim)
        world.advance(1)
        free_slot(state, world.delegate, 0)

        assert world.balance(world.seller) - seller_before == claim
        assert world.balance(world.delegate) == delegate_before
        assert state.escrow_pool == pool_before - claim
        assert state.collected[world.seller] == end
        self.games += 1


def _defense_pro_rata(start, dues, claim):
    pairs = [(start + 1 + i, due) for i, due in enumerate(dues) if due]
    delta = claim - sum(due for _, due in pairs)
    if not pairs:
        return [(start + len(dues), delta)]
    base, extra = divmod(delta, len(pairs))
    return [
        (index, due + base + (1 if k < extra else 0))
        for k, (index, due) in enumerate(pairs)
    ]


def _defense_lump_first(start, dues, claim):
    return [(start + 1, claim)]


def _defense_lump_last(start, dues, claim):
    return [(start + len(dues), claim)]


def _defense_phantom(start, dues, claim):
    """Hide the inflation on a payment that owes the recipient nothing."""
    if 0 not in dues:
        return None
    trues = [(start + 1 + i, due) for i, due in enumerate(dues) if due]
    phantom = (start + 1 + dues.index(0), claim - sum(due for _, due in trues))
    return sorted(trues + [phantom])


def _defense_swap(start, dues, claim):
    """Understate one honest entry and overstate a later one."""
    positives = [i for i, due in enumerate(dues) if due]
    if len(positives) < 2:
        return None
    first, last = positives[0], positives[-1]
    delta = claim - sum(dues)
    pairs = []
    for i, due in enumerate(dues):
        if not due:
            continue
        if i == first:
            pairs.append((start + 1 + i, due - 1))
        elif i == last:
            pairs.append((start + 1 + i, due + delta + 1))
        else:
            pairs.append((start + 1 + i, due))
    return pairs


def _defense_silent(start, dues, claim):
    return None


_VARIANT_DEFENSES = (
    _defense_lump_first,
    _defense_lump_last,
    _defense_phantom,
    _defense_swap,
    _defense_silent,
)


def _spike_vectors(m: int):
    yield (0,) * m
    yield (1,) * m
    yield (4,) * m
    yield tuple(1 if i % 2 == 0 else 0 for i in range(m))
    yield tuple(min(i + 1, 4) for i in range(m))
    for k in range(m):
        yield tuple(4 if i == k else 0 for i in range(m))


def test_5_game_soundness_and_completeness(check):
    def body():
        boards = {per_dest: GameBoard() for per_dest in (1, 2, 3)}

        # Full sweep of short logs: every occurrence vector up to 4 payments.
        for m in (1, 2, 3, 4):
            for vector in itertools.product(range(5), repeat=m):
                for per_dest, board in boards.items():
                    start, end, dues = board.stage(vector, per_dest)
                    for delta in (1, 2, 3):
                        board.play_soundness(start, end, dues, delta, _defense_pro_rata)
                    if m == 3 and per_dest == 2:
                        for defense in _VARIANT_DEFENSES:
                            if defense(start, dues, sum(dues) + 2) is None and (
                                defense is not _defense_silent
                            ):
                                continue
                            board.play_soundness(start, end, dues, 2, defense)
                    board.settle_honest(start, end, dues)
                if boards[1].batches % 40 == 0:
                    boards[1].state.check_invariants()

        # Longer logs, thinned alphabet.
        for m in (5, 6):
            for vector in itertools.product(range(3), repeat=m):
                for per_dest in (1, 3):
                    board = boards[per_dest]
                    start, end, dues = board.stage(vector, per_dest)
                    for delta in (1, 3):
                        board.play_soundness(start, end, dues, delta, _defense_pro_rata)
                    board.settle_honest(start, end, dues)

        # Boundary shapes at the largest log sizes.
        for m in (7, 8):
            for vector in _spike_vectors(m):
                for per_dest in (1, 3):
                    board = boards[per_dest]
                    start, end, dues = board.stage(vector, per_dest)
                    for delta in (1, 3):
                        board.play_soundness(start, end, dues, delta, _defense_pro_rata)
                    board.settle_honest(start, end, dues)

        for board in boards.values():
            board.state.check_invariants()
        games = sum(board.games for board in boards.values())
        batches = sum(board.batches for board in boards.values())
        return f"{games} games over {batches} payment logs"

    check(5, "game soundness and completeness", 300.0, body)


# -- 6: conservation under random operation fuzz --------------------------------------


class FuzzDriver:
    """Applies one random (not always legal) operation per call.

    Collect claims are always the true entitlement, so every rejection is
    a typed protocol error and the shared pool always covers settlements;
    everything else (timing, targets, keys, stakes) is fuzzed freely.
    Amounts, the table size and the proof bytes come from the hooks below,
    which a subclass may move to the edges of their ranges.
    """

    WALLET = 10**9                    # each wallet's minted funds

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        rng = self.rng
        adapter = TokenAdapter()
        for i in range(6):
            adapter.mint(f"wallet-{i}", self.WALLET)
        self.params = self._params()
        self.state = instantiate(self.params, adapter)
        for i in range(3):
            self.state.deposit(NEW_ACCOUNT, self._opening_deposit(), f"wallet-{i}")
        for i in range(3, 5):
            register(self.state, f"wallet-{i}")
        self.keys: dict[int, tuple[int, bytes]] = {}
        self.pay_data: dict[int, bytes] = {}     # pay index -> registered payee bytes
        self.succeeded: set[str] = set()
        self.successes = 0
        self._ops = [
            (self.op_advance, 3),
            (self.op_deposit, 1),
            (self.op_withdraw, 1),
            (self.op_register, 0.5),
            (self.op_register_payment, 2.5),
            (self.op_unlock, 1),
            (self.op_refund, 1),
            (self.op_collect, 2),
            (self.op_challenge, 1.5),
            (self.op_respond, 1.5),
            (self.op_select, 1.5),
            (self.op_prove, 1.5),
            (self.op_challenge_success, 1),
            (self.op_challenge_failed, 1),
            (self.op_free_slot, 2),
        ]
        self._weights = [w for _, w in self._ops]

    # -- parameter, amount and proof hooks --------------------------------

    def _params(self) -> Params:
        rng = self.rng
        return Params(
            unlock_period=rng.randint(1, 3),
            challenge_period=rng.randint(1, 4),
            response_period=rng.randint(1, 3),
            collect_stake=rng.randint(2, 10),
            challenge_stake=rng.randint(1, 5),
            max_payments_per_batch=50,
        )

    def _opening_deposit(self) -> int:
        return self.rng.randint(5_000, 50_000)

    def _deposit_amount(self) -> int:
        return self.rng.randint(1, 20_000)

    def _per_destination(self, buyer_id: int, count: int) -> int:
        return self.rng.randint(1, 9)

    def _proof_data(self, pay_index: int) -> bytes:
        return self.pay_data[pay_index]

    # -- argument pickers -------------------------------------------------

    def _any_account(self) -> int:
        return self.rng.randrange(len(self.state.addresses))

    def _slot_key(self):
        if not self.state.slots:
            return None
        keys = sorted(self.state.slots)
        return keys[self.rng.randrange(len(keys))]

    def _true_pairs(self, slot):
        pairs = []
        for pay_index in range(slot.start_pay_index + 1, slot.end_pay_index + 1):
            payment = self.state.payments[pay_index - 1]
            if payment.status != PaymentStatus.COMMITTED:
                continue
            due = (
                payment_occurrences(self.pay_data[pay_index], slot.recipient_id)
                * payment.per_destination
            )
            if due:
                pairs.append((pay_index, due))
        return pairs

    # -- one op per kind ---------------------------------------------------

    def op_advance(self):
        self.state.advance_block(self.rng.randint(1, 3))
        return "advance"

    def op_deposit(self):
        rng = self.rng
        wallet = f"wallet-{rng.randrange(6)}"
        if len(self.state.addresses) < 40 and rng.random() < 0.3:
            self.state.deposit(NEW_ACCOUNT, self._deposit_amount(), wallet)
        else:
            self.state.deposit(self._any_account(), self._deposit_amount(), wallet)
        return "deposit"

    def op_withdraw(self):
        rng = self.rng
        state = self.state
        account_id = self._any_account()
        sender = state.addresses[account_id] if rng.random() < 0.9 else "mallory"
        amount = rng.randint(1, max(1, int(state.balances[account_id] * 1.2) + 1))
        state.withdraw(account_id, amount, f"wallet-{rng.randrange(6)}", sender)
        return "withdraw"

    def op_register(self):
        register(self.state, f"wallet-{self.rng.randrange(6)}")
        return "register"

    def op_unlock(self):
        rng = self.rng
        if not self.keys:
            return self.op_advance()
        pay_index = rng.choice(sorted(self.keys))
        unlocker_id, key = self.keys[pay_index]
        if rng.random() < 0.1:
            key = b"wrong" + key
        unlock(self.state, pay_index, unlocker_id, key)
        if self.state.payments[pay_index - 1].status == PaymentStatus.COMMITTED:
            del self.keys[pay_index]
        return "unlock"

    def op_refund(self):
        rng = self.rng
        locked = [
            p.pay_index
            for p in self.state.payments
            if p.status == PaymentStatus.LOCKED
        ]
        if not locked:
            return self.op_advance()
        pay_index = rng.choice(locked)
        refund_locked_payment(self.state, pay_index)
        self.keys.pop(pay_index, None)
        return "refund"

    def op_register_payment(self):
        rng = self.rng
        state = self.state
        buyer = self._any_account()
        count = rng.randint(1, 6)
        payees = sorted(rng.randrange(len(state.addresses)) for _ in range(count))
        per_dest = self._per_destination(buyer, count)
        locked = rng.random() < 0.35
        key = rng.randbytes(8) if locked else b""
        unlocker_id = self._any_account() if locked else None
        fee = rng.randint(0, 3) if locked else 0
        sender = state.addresses[buyer] if rng.random() < 0.9 else "mallory"
        pay_data = encode_pay_data(payees)
        pay_index = register_payment(
            state,
            buyer,
            per_dest,
            pay_data,
            sender,
            locking_key_hash=locking_key_hash(unlocker_id, key) if locked else None,
            unlocker_fee=fee,
        )
        self.pay_data[pay_index] = pay_data
        if locked:
            self.keys[pay_index] = (unlocker_id, key)
        return "register_payment"

    def op_collect(self):
        rng = self.rng
        state = self.state
        recipient = self._any_account()
        prefix = state.collected[recipient]
        latest = state.latest_pay_index
        if latest <= prefix:
            return self.op_advance()
        end = rng.randint(prefix + 1, latest)
        amount = payment_entitlement(state, self.pay_data, recipient, prefix, end)
        fee = rng.randint(0, min(3, amount))
        delegate = self._any_account()
        slot_id = rng.randint(0, 5) if rng.random() < 0.8 else rng.randint(32769, 32774)
        signer = state.addresses[recipient] if rng.random() < 0.95 else "mallory"
        from batchpay.auth import collect_auth_message, sign_collect

        message = collect_auth_message(
            state.instance_id,
            delegate,
            slot_id,
            recipient,
            end,
            amount,
            fee,
            None,
        )
        collect(
            state,
            delegate,
            slot_id,
            recipient,
            end,
            amount,
            fee,
            sign_collect(signer, message),
        )
        return "collect"

    def op_challenge(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        challenge(self.state, key[0], key[1], self._any_account())
        return "challenge"

    def op_respond(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        slot = self.state.slots[key]
        pairs = self._true_pairs(slot)
        if self.rng.random() < 0.15:
            pairs = pairs + [(slot.end_pay_index, 1)]    # garbage: breaks the sum
        respond_with_payment_list(self.state, key[0], key[1], pairs)
        return "respond"

    def op_select(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        slot = self.state.slots[key]
        if not slot.challenge_list:
            return self.op_advance()
        pair = slot.challenge_list[self.rng.randrange(len(slot.challenge_list))]
        select_payment(self.state, key[0], key[1], *pair)
        return "select"

    def op_prove(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        slot = self.state.slots[key]
        if not slot.challenged_entry:
            return self.op_advance()
        pay_data = self._proof_data(slot.challenged_entry[0])
        prove_payment_inclusion(self.state, key[0], key[1], pay_data)
        return "prove"

    def op_challenge_success(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        challenge_success(self.state, key[0], key[1])
        return "challenge_success"

    def op_challenge_failed(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        challenge_failed(self.state, key[0], key[1])
        return "challenge_failed"

    def op_free_slot(self):
        key = self._slot_key()
        if key is None:
            return self.op_advance()
        free_slot(self.state, key[0], key[1])
        return "free_slot"

    # -- the loop ----------------------------------------------------------

    def pick(self):
        return self.rng.choices(self._ops, weights=self._weights)[0][0]

    def run(self, ops: int) -> None:
        for _ in range(ops):
            op = self.pick()
            try:
                kind = op()
            except ProtocolError:
                pass
            else:
                self.successes += 1
                self.succeeded.add(kind)
            self.state.check_invariants()


def test_6_conservation_fuzz(check):
    def body():
        total_ops = 0
        successes = 0
        succeeded: set[str] = set()
        for seed in range(1, 51):
            driver = FuzzDriver(1000 + seed)
            driver.run(2000)
            total_ops += 2000
            successes += driver.successes
            succeeded |= driver.succeeded
            driver.state.check_invariants()
        assert total_ops == 100_000
        assert successes >= 30_000, f"only {successes} ops succeeded; fuzz too weak"
        required = {
            "advance", "deposit", "withdraw", "register", "register_payment",
            "unlock", "refund", "collect", "challenge", "respond", "select",
            "prove", "challenge_success", "challenge_failed", "free_slot",
        }
        missing = required - succeeded
        assert not missing, f"fuzz never exercised: {sorted(missing)}"
        return f"{total_ops} ops, {successes} accepted, every op kind exercised"

    check(6, "conservation fuzz", 120.0, body)


def _refusals(driver_type, seeds, ops: int) -> Counter:
    """Drive ``ops`` picks per seed and count every ``ProtocolError`` by
    (op name, error class), asserting that each left the state digest and
    the log length as they were (errors.py: a rejected operation leaves
    state untouched)."""
    refused: Counter = Counter()
    for seed in seeds:
        fuzz = driver_type(seed)
        state = fuzz.state
        for _ in range(ops):
            op = fuzz.pick()
            before = state.digest(), len(state.log)
            try:
                op()
            except ProtocolError as exc:
                after = state.digest(), len(state.log)
                assert after == before, f"seed {seed}: {op.__name__} raised {exc!r} after writing"
                refused[op.__name__.removeprefix("op_"), type(exc).__name__] += 1
            state.check_invariants()
    return refused


def test_rejected_fuzz_ops_leave_state_and_log_untouched():
    refused = _refusals(FuzzDriver, range(7001, 7009), 600)
    # Every kind FuzzDriver gets refused is covered; it never has an
    # advance, deposit, register or prove refused (NearLimitDriver does).
    refusable = {
        "withdraw", "register_payment", "unlock", "refund", "collect", "challenge",
        "respond", "select", "challenge_success", "challenge_failed", "free_slot",
    }
    assert refusable <= {op for op, _ in refused}, refused
    assert sum(refused.values()) >= 1000, refused


class NearLimitDriver(FuzzDriver):
    """FuzzDriver at the edges: wallets minted near U64_MAX, deposits of
    U64_MAX >> k, payments sized to the buyer's balance or past the u64
    range, an eight-account table, and a third of the proofs sent with
    another payment's pay data. Game moves mostly target the slot furthest
    into its game, and the game windows are longer, so proofs happen."""

    WALLET = U64_MAX - 2**20

    def _params(self) -> Params:
        rng = self.rng
        return dataclasses.replace(
            super()._params(),
            max_account_count=8,
            challenge_period=rng.randint(4, 8),
            response_period=rng.randint(4, 8),
        )

    def _opening_deposit(self) -> int:
        return U64_MAX >> self.rng.randint(3, 5)

    def _deposit_amount(self) -> int:
        return U64_MAX >> self.rng.randint(0, 8)

    def _per_destination(self, buyer_id: int, count: int) -> int:
        rng = self.rng
        if rng.random() < 0.7:
            spend = self.state.balances[buyer_id] >> rng.randint(0, 3)
        else:
            spend = U64_MAX >> rng.randint(0, 2)
        return max(1, spend // count + rng.randint(0, 1))

    def _slot_key(self):
        slots = self.state.slots
        if slots and self.rng.random() < 0.7:
            furthest = max(slot.game_state for slot in slots.values())
            keys = sorted(key for key, slot in slots.items() if slot.game_state == furthest)
            return keys[self.rng.randrange(len(keys))]
        return super()._slot_key()

    def _proof_data(self, pay_index: int) -> bytes:
        if self.rng.random() < 0.34:
            return self.pay_data[self.rng.randint(1, self.state.latest_pay_index)]
        return self.pay_data[pay_index]


def test_near_limit_rejections_leave_state_and_log_untouched():
    # About 2 s. FuzzDriver never has a deposit, a register or a prove
    # refused, nor a payment for being past the u64 range; this driver has.
    refused = _refusals(NearLimitDriver, range(9001, 9011), 1500)
    assert {"deposit", "register"} <= {op for op, _ in refused}, refused
    assert refused["prove", "BadProof"], refused
    assert refused["register_payment", "AmountOutOfRange"], refused


# -- 7: honest worlds agree with the log oracle ---------------------------------------


def test_7_honest_oracle_equivalence(check):
    def body():
        master = random.Random(0x0B5E55ED)
        challenged = 0
        for _ in range(1000):
            unlockers = master.randint(0, 2)
            config = ScenarioConfig(
                seed=master.getrandbits(48),
                blocks=master.randint(6, 20),
                buyers=master.randint(1, 3),
                sellers=master.randint(2, 8),
                delegates=master.randint(1, 2),
                monitors=master.randint(0, 2),
                unlockers=unlockers,
                payment_probability=master.uniform(0.3, 0.9),
                locked_fraction=master.uniform(0.0, 0.6) if unlockers else 0.0,
                instant_fraction=master.uniform(0.0, 0.5),
                external_destination_fraction=master.uniform(0.0, 0.4),
                payees_min=1,
                payees_max=master.randint(1, 5),
                per_destination_min=1,
                per_destination_max=master.randint(1, 6),
                accumulation_threshold=master.randint(1, 3),
                collect_fee=master.randint(0, 2),
                unlocker_fee=master.randint(0, 1) if unlockers else 0,
                bulk_register_sellers=master.random() < 0.3,
                params=Params(
                    unlock_period=master.randint(1, 3),
                    challenge_period=master.randint(2, 5),
                    response_period=master.randint(1, 3),
                ),
            )
            report = run_scenario(config)
            assert report.oracle_diffs == [], (
                f"seed {config.seed}: ledger and log oracle disagree: "
                f"{report.oracle_diffs[:3]}"
            )
            challenged += report.games["challenged"]
        assert challenged == 0, f"{challenged} challenges in honest worlds"
        return "1000 honest runs, oracle == ledger everywhere, zero challenges"

    check(7, "honest oracle equivalence", 120.0, body)


# -- 8: locked payment lifecycle -------------------------------------------------------

_LIFECYCLE_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _locked_world(per_dest, occurrences, extra_payees, fee):
    world = World()
    unlocker = register(world.state, "unlocker-8")
    filler = register(world.state, "filler-8")
    key = b"k" + bytes([occurrences, extra_payees])
    payees = [world.seller] * occurrences + [filler] * extra_payees
    before = world.balance(world.buyer)
    pay_index = world.pay(
        payees,
        per_destination=per_dest,
        locking_key_hash=locking_key_hash(unlocker, key),
        unlocker_fee=fee,
    )
    spent = per_dest * len(payees) + fee
    assert world.balance(world.buyer) == before - spent
    return world, unlocker, key, pay_index, before


def test_8_locked_payment_lifecycle(check):
    def body():
        @_LIFECYCLE_SETTINGS
        @given(
            per_dest=st.integers(1, 40),
            occurrences=st.integers(0, 4),
            extra_payees=st.integers(0, 2),
            fee=st.integers(0, 15),
            offset=st.integers(0, 4),
        )
        def unlock_in_window(per_dest, occurrences, extra_payees, fee, offset):
            if occurrences + extra_payees == 0:
                extra_payees = 1
            world, unlocker, key, pay_index, _ = _locked_world(
                per_dest, occurrences, extra_payees, fee
            )
            state = world.state
            assert world.entitlement(world.seller, pay_index - 1, pay_index) == 0
            if offset:
                world.advance(offset)        # still inside the unlock window
            unlocker_before = world.balance(unlocker)
            unlock(state, pay_index, unlocker, key)
            assert world.balance(unlocker) - unlocker_before == fee
            assert state.payments[pay_index - 1].status == PaymentStatus.COMMITTED
            assert (
                world.entitlement(world.seller, pay_index - 1, pay_index)
                == per_dest * occurrences
            )
            with pytest.raises(IllegalMove):
                refund_locked_payment(state, pay_index)

        @_LIFECYCLE_SETTINGS
        @given(
            per_dest=st.integers(1, 40),
            occurrences=st.integers(1, 4),
            extra_payees=st.integers(0, 2),
            fee=st.integers(0, 15),
            lateness=st.integers(0, 3),
        )
        def timeout_refund_makes_whole(per_dest, occurrences, extra_payees, fee, lateness):
            world, unlocker, key, pay_index, before = _locked_world(
                per_dest, occurrences, extra_payees, fee
            )
            state = world.state
            world.advance(state.params.unlock_period + lateness)
            with pytest.raises(IllegalMove):
                unlock(state, pay_index, unlocker, key)     # window closed
            refund_locked_payment(state, pay_index)
            assert world.balance(world.buyer) == before      # exactly whole
            assert (
                world.entitlement(world.seller, pay_index - 1, pay_index) == 0
            )
            with pytest.raises(IllegalMove):
                refund_locked_payment(state, pay_index)

        @_LIFECYCLE_SETTINGS
        @given(
            per_dest=st.integers(1, 20),
            occurrences=st.integers(1, 4),
        )
        def locked_claims_are_unprovable(per_dest, occurrences):
            world, unlocker, key, pay_index, _ = _locked_world(
                per_dest, occurrences, 0, 0
            )
            state = world.state
            world.advance(state.params.unlock_period)       # matured, never unlocked
            claim = per_dest * occurrences                   # as if it had committed
            world.open_collect(0, pay_index, claim)
            challenge(state, world.delegate, 0, world.monitor)
            respond_with_payment_list(
                state, world.delegate, 0, [(pay_index, claim)]
            )
            select_payment(state, world.delegate, 0, pay_index, claim)
            with pytest.raises(BadProof):
                prove_payment_inclusion(
                    state, world.delegate, 0, world.pay_data[pay_index]
                )
            world.advance(state.params.response_period)
            monitor_before = world.balance(world.monitor)
            challenge_success(state, world.delegate, 0)
            assert (
                world.balance(world.monitor) - monitor_before
                == state.params.collect_stake + state.params.challenge_stake
            )

        unlock_in_window()
        timeout_refund_makes_whole()
        locked_claims_are_unprovable()

        # Window edges, pinned exactly.
        world = World()
        unlocker = register(world.state, "unlocker-8")
        key = b"edge"
        pay_index = world.pay(
            [world.seller],
            locking_key_hash=locking_key_hash(unlocker, key),
            unlocker_fee=1,
        )
        state = world.state
        world.advance(state.params.unlock_period - 1)
        with pytest.raises(IllegalMove):
            refund_locked_payment(state, pay_index)          # one block early
        world.advance(1)
        with pytest.raises(IllegalMove):
            unlock(state, pay_index, unlocker, key)          # one block late
        refund_locked_payment(state, pay_index)
        return "150 property examples plus exact window edges"

    check(8, "locked payment lifecycle", 10.0, body)


# -- 9: scenario determinism against the golden digest ---------------------------------


def test_9_report_determinism(check):
    def body():
        with open(HONEST_CFG) as fh:
            config_text = fh.read()
        digests = set()
        state_digests = set()
        for _ in range(5):
            config = parse_scenario_config(config_text)
            report = run_scenario(config)
            digests.add(report_digest(report))
            state_digests.add(report.state_digest)
        assert len(digests) == 1, f"report digest drifted: {digests}"
        assert len(state_digests) == 1, f"state digest drifted: {state_digests}"
        golden = {}
        with open(GOLDEN_DIR + "/honest_report_digest.txt") as fh:
            for line in fh:
                name, value = line.split()
                golden[name] = value
        assert golden["report_digest"] == digests.pop()
        assert golden["state_digest"] == state_digests.pop()
        return "5 identical runs, digests match the golden file"

    check(9, "report determinism", 10.0, body)
