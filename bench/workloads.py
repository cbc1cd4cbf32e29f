"""The benchmark's workloads: two simulator scenarios and one replayed log.

Every workload is a closed batch job driven by one client. Its inputs come
from the workload seed alone. Each exposes the same four steps:

* ``setup(seed)`` builds the inputs; its host time is ``setup_s``;
* ``measure(inputs, watch)`` runs the measured phase and returns a
  ``Result``. When a ``watch`` is given, the phase runs as
  ``watch.phase(fn)`` and every block as ``watch.block(fn)``; both return
  ``fn()``. ``blocks_in_phase`` says whether those blocks run inside the
  measured phase or in a pass after it;
* ``check(result)`` re-derives the digests outside the timed phase and
  returns the failures it found;
* ``digests(result)`` returns the digests that must match across
  repetitions and, at the default seed, the pinned values.

The engine is called through module attributes (``payments.register_payment``
rather than a name imported here), so the traced run sees these calls too.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from batchpay import auth, codec, payments, registration, replay
from batchpay import collect as game
from batchpay.chainlog import Advanced, ChainLog, FinalDigest
from batchpay.sim.config import parse_scenario_config
from batchpay.sim.report import emit_report, report_digest
from batchpay.sim.scenario import SimRun
from batchpay.state import NEW_ACCOUNT, Params, ProtocolState, TokenAdapter, instantiate

HERE = Path(__file__).resolve().parent


@dataclass
class Result:
    records: int                      # chain-log records produced or replayed
    measure_ns: int                   # host time of the measured phase, probes included under a watch
    log: ChainLog                     # the log the phase produced or loaded
    blob: bytes                       # the dumped log
    extra: dict = field(default_factory=dict)


class SimWorkload:
    """A scenario config played by ``SimRun``, as ``batchpay run --out --chainlog``."""

    blocks_in_phase = True

    def __init__(self, name: str):
        self.name = name
        self.config_text = (HERE / f"{name}.cfg").read_text(encoding="utf-8")

    def setup(self, seed: int) -> SimRun:
        config = parse_scenario_config(self.config_text)
        config.seed = seed
        return SimRun(config)

    def measure(self, run: SimRun, watch=None) -> Result:
        def phase():
            run.run()
            report = run.build_report()
            emit_report(report, "json")
            run.log.append(FinalDigest(run.state.digest()))
            return report, run.log.dump()

        if watch is not None:
            run_block = run.run_block
            run.run_block = lambda: watch.block(run_block)   # run() looks the method up per block
        t0 = perf_counter_ns()
        report, blob = phase() if watch is None else watch.phase(phase)
        elapsed = perf_counter_ns() - t0
        return Result(len(run.log), elapsed, run.log, blob, {"report": report})

    def check(self, result: Result) -> list[str]:
        report = result.extra["report"]
        replayed = replay.verify_log(ChainLog.load(result.blob)).hex()
        result.extra["replay_digest"] = replayed
        problems = []
        if replayed != report.state_digest:
            problems.append(f"replay digest {replayed} != run digest {report.state_digest}")
        # The oracle adds entitlement nobody collected (insolvent runs leave
        # some), so it may exceed the ledger but never fall below it.
        short = [d for d in report.oracle_diffs if d["oracle"] < d["ledger"]]
        if short:
            problems.append(f"{len(short)} accounts hold more than the oracle allows")
        return problems

    def digests(self, result: Result) -> dict[str, str]:
        report = result.extra["report"]
        return {
            "state_digest": report.state_digest,
            "report_digest": report_digest(report),
            "replay_digest": result.extra["replay_digest"],
        }


# -- replay_canonical -----------------------------------------------------------

BATCHES = 1000        # batch payments in the log
PAYEES = 1000         # consecutive payee ids in every batch
BUYER = "buyer-0"
DELEGATE = "delegate-0"


@dataclass
class CanonicalLog:
    blob: bytes
    externals: dict[str, int]         # the adapter balances the log starts from


def build_canonical_log(seed: int) -> CanonicalLog:
    """The paper's canonical shape, built by calling the engine directly.

    One batch per block pays the same PAYEES consecutive ids; after the
    unlock window one collect per recipient claims all BATCHES payments,
    and after the challenge window every slot is freed. The seed draws the
    per-destination amounts, the collect fees and the collect order.
    """
    rng = random.Random(seed)
    params = Params()
    per_destination = [rng.randint(1, 20) for _ in range(BATCHES)]
    claim = sum(per_destination)
    externals = {BUYER: claim * PAYEES, DELEGATE: params.collect_stake * PAYEES}
    state = instantiate(params, TokenAdapter(dict(externals)))
    buyer = state.deposit(NEW_ACCOUNT, externals[BUYER], BUYER)
    delegate = state.deposit(NEW_ACCOUNT, externals[DELEGATE], DELEGATE)
    payees = [registration.register(state, f"payee-{i}") for i in range(PAYEES)]
    for amount in per_destination:
        payments.register_payment(state, buyer, amount, codec.encode_pay_data(payees), BUYER)
        state.advance_block(1)
    state.advance_block(params.unlock_period)

    order = list(enumerate(payees))
    rng.shuffle(order)
    for slot_id, (i, recipient) in enumerate(order):
        fee = rng.randint(0, 3)
        message = auth.collect_auth_message(
            state.instance_id, delegate, slot_id, recipient, BATCHES, claim, fee, None
        )
        game.collect(
            state, delegate, slot_id, recipient, BATCHES, claim, fee,
            auth.sign_collect(f"payee-{i}", message),
        )
    state.advance_block(params.challenge_period)
    for slot_id in range(len(order)):
        game.free_slot(state, delegate, slot_id)
    state.log.append(FinalDigest(state.digest()))
    return CanonicalLog(state.log.dump(), externals)


class ReplayWorkload:
    """``batchpay replay`` of the canonical log: ``ChainLog.load`` + ``verify_log``."""

    name = "replay_canonical"
    blocks_in_phase = False

    def setup(self, seed: int) -> CanonicalLog:
        return build_canonical_log(seed)

    def measure(self, inputs: CanonicalLog, watch=None) -> Result:
        def phase():
            log = ChainLog.load(inputs.blob)
            return log, replay.verify_log(log)

        t0 = perf_counter_ns()
        log, digest = phase() if watch is None else watch.phase(phase)
        elapsed = perf_counter_ns() - t0
        result = Result(len(log), elapsed, log, inputs.blob, {"replay_digest": digest.hex()})
        if watch is not None:
            result.extra["block_digest"] = _replay_by_block(log, inputs.externals, watch.block)
        return result

    def check(self, result: Result) -> list[str]:
        problems = []
        if "block_digest" in result.extra and result.extra["block_digest"] != result.extra["replay_digest"]:
            problems.append("block-by-block replay landed on another digest")
        return problems

    def digests(self, result: Result) -> dict[str, str]:
        return {
            "replay_digest": result.extra["replay_digest"],
            "log_sha256": hashlib.sha256(result.blob).hexdigest(),
        }


def _replay_by_block(log: ChainLog, externals: dict[str, int], run_block) -> str:
    """Re-apply the log one block at a time, each as ``run_block(fn)``.

    A block is the run of records up to and including an ``Advanced``
    record; whatever follows the last one is a block too. This is the
    per-block cost a node following the chain pays, so it is the replay
    counterpart of the simulator's per-block time.
    """
    blocks: list[list] = [[]]
    for rec in log.records[1:]:
        if isinstance(rec, FinalDigest):
            break
        blocks[-1].append(rec)
        if isinstance(rec, Advanced):
            blocks.append([])
    state = ProtocolState(Params(), TokenAdapter(dict(externals)))

    def apply(records: list) -> None:
        for rec in records:
            replay.apply_record(state, rec)

    for records in blocks:
        run_block(lambda: apply(records))
    state.check_invariants()
    return state.digest().hex()


WORKLOADS = {
    "honest_wide": lambda: SimWorkload("honest_wide"),
    "adversarial_bulk": lambda: SimWorkload("adversarial_bulk"),
    "replay_canonical": ReplayWorkload,
}
