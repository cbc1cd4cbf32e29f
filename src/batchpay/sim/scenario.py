"""Scenario runner: setup, the block loop, the drain phase, verification.

A run instantiates one protocol state, registers every actor, then plays
``config.blocks`` blocks of traffic followed by a drain phase in which no
new payments start and everyone settles honestly until nothing is left
pending. At every block boundary the global conservation invariant is
re-checked and the chain-log shadow ledger must mirror every settled
balance exactly; at the end, the log-derived oracle balance must equal the
ledger balance for every account.

Cheat accounting is mechanical: every overstated collect a cheating
delegate opens is recorded when opened and must later be popped either by
a monitor win or by an unchallenged settlement. If any cheat settles
unchallenged while an attentive monitor was configured, the run fails.
"""

from __future__ import annotations

import random

from ..chainlog import ChainLog, PaymentRegistered, scaling_payload
from ..costmodel import tx_cost, usd_cost
from ..errors import InvariantViolation
from ..merkle import merkle_proofs, merkle_root
from ..registration import bulk_register, claim_bulk_registration_id, register
from ..state import (
    NEW_ACCOUNT,
    GameState,
    PaymentStatus,
    ProtocolState,
    TokenAdapter,
    instantiate,
)
from .actors import Buyer, Delegate, Monitor, Seller, Unlocker
from .config import ScenarioConfig
from .oracle import LogView
from .report import ScenarioReport

_DRAIN_HARD_CAP = 100_000


def _headcount(fraction: float, total: int) -> int:
    return min(total, int(fraction * total + 0.5))


class SimRun:
    """Mutable context shared by the actors of one scenario."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.rng = random.Random(config.seed)
        adapter = TokenAdapter()
        for i in range(config.buyers):
            if config.buyer_deposit:
                adapter.mint(f"buyer-{i}", config.buyer_deposit)
        for i in range(config.delegates):
            if config.delegate_deposit:
                adapter.mint(f"delegate-{i}", config.delegate_deposit)
        for i in range(config.monitors):
            if config.monitor_deposit:
                adapter.mint(f"monitor-{i}", config.monitor_deposit)
        self.state: ProtocolState = instantiate(config.params, adapter)
        self.log: ChainLog = self.state.log
        self.view = LogView()
        self.draining = False
        self.blocks_run = 0

        self.cheats_attempted = 0
        self.cheats_caught = 0
        self.cheats_escaped = 0
        self.cheats_stranded = 0
        self.understatements = 0
        self.instant_losses = 0
        self.insolvency_events = 0
        self.pending_cheats: dict[int, dict] = {}    # open_seq -> info
        self.monitor_net: dict[int, int] = {}
        self.gap_notes: set[str] = set()

        self.address_of: dict[int, str] = {}
        self._setup_actors()
        self.sync()

    # -- setup ----------------------------------------------------------------

    def _setup_actors(self) -> None:
        cfg = self.config
        state = self.state

        self.buyers: list[Buyer] = []
        for i in range(cfg.buyers):
            address = f"buyer-{i}"
            if cfg.buyer_deposit:
                account_id = state.deposit(NEW_ACCOUNT, cfg.buyer_deposit, address)
            else:
                account_id = register(state, address)
            self.buyers.append(Buyer(self, account_id, address))
            self.address_of[account_id] = address

        seller_addresses = [f"seller-{i}" for i in range(cfg.sellers)]
        self.seller_actors: list[Seller] = []
        if cfg.sellers and cfg.bulk_register_sellers:
            root = merkle_root(seller_addresses)
            bulk_id = bulk_register(state, cfg.sellers, root)
            first_id = state.bulks[bulk_id].first_id
            proofs = merkle_proofs(seller_addresses)
            for i, address in enumerate(seller_addresses):
                claim_bulk_registration_id(state, bulk_id, first_id + i, address, proofs[i])
                self.seller_actors.append(Seller(self, first_id + i, address))
                self.address_of[first_id + i] = address
        else:
            for address in seller_addresses:
                account_id = register(state, address)
                self.seller_actors.append(Seller(self, account_id, address))
                self.address_of[account_id] = address
        self.seller_ids = [s.account_id for s in self.seller_actors]

        cheaters = _headcount(cfg.cheating_delegate_fraction, cfg.delegates)
        self.delegate_actors: list[Delegate] = []
        for i in range(cfg.delegates):
            address = f"delegate-{i}"
            if cfg.delegate_deposit:
                account_id = state.deposit(NEW_ACCOUNT, cfg.delegate_deposit, address)
            else:
                account_id = register(state, address)
            assigned = [s for j, s in enumerate(self.seller_ids) if j % cfg.delegates == i]
            self.delegate_actors.append(
                Delegate(self, account_id, address, cheating=i < cheaters, sellers=assigned)
            )
            self.address_of[account_id] = address

        lazies = _headcount(cfg.lazy_monitor_fraction, cfg.monitors)
        self.monitor_actors: list[Monitor] = []
        for i in range(cfg.monitors):
            address = f"monitor-{i}"
            if cfg.monitor_deposit:
                account_id = state.deposit(NEW_ACCOUNT, cfg.monitor_deposit, address)
            else:
                account_id = register(state, address)
            self.monitor_actors.append(Monitor(self, account_id, address, lazy=i < lazies))
            self.monitor_net[account_id] = 0
            self.address_of[account_id] = address

        withholders = _headcount(cfg.withholding_unlocker_fraction, cfg.unlockers)
        self.unlockers: list[Unlocker] = []
        for i in range(cfg.unlockers):
            address = f"unlocker-{i}"
            account_id = register(state, address)
            self.unlockers.append(
                Unlocker(self, account_id, address, withholding=i < withholders)
            )
            self.address_of[account_id] = address

    # -- shared services for actors --------------------------------------------

    def sync(self) -> None:
        self.view.feed(self.log)

    def note_cheat(self, delegate_id: int, slot_id: int, delta: int) -> None:
        self.sync()
        seq = self.view.slots[(delegate_id, slot_id)].open_seq
        self.pending_cheats[seq] = {
            "delegate": delegate_id,
            "slot": slot_id,
            "delta": delta,
        }
        self.cheats_attempted += 1

    def note_settled(self, delegate_id: int, slot_id: int) -> None:
        """A slot is about to settle unchallenged; flag it if it was a cheat."""
        seq = self.view.slots[(delegate_id, slot_id)].open_seq
        if self.pending_cheats.pop(seq, None) is not None:
            self.cheats_escaped += 1

    def note_monitor_stake(self, monitor_id: int, stake: int) -> None:
        self.monitor_net[monitor_id] -= stake

    def note_monitor_win(self, monitor_id: int, won: int, seq: int, was_instant: bool) -> None:
        self.monitor_net[monitor_id] += won
        if self.pending_cheats.pop(seq, None) is not None:
            self.cheats_caught += 1
        if was_instant:
            self.instant_losses += 1

    def note_understatement(self) -> None:
        self.understatements += 1

    def note_insolvency(self, what: str) -> None:
        """An op was refused because the escrow pool cannot cover it.

        This happens only after an overstated collect settled unchallenged:
        the inflated payout came out of the shared pool, so the pool is now
        short against the remaining promises. Actors retry harmlessly and
        the run winds down by stagnation instead of crashing.
        """
        self.insolvency_events += 1
        self.gap_notes.add(
            f"escrow pool insolvency blocked a {what}: an inflated settlement "
            "drained funds that backed other claims"
        )

    # -- the loop ----------------------------------------------------------------

    def run_block(self) -> None:
        for group in (
            self.buyers,
            self.unlockers,
            self.delegate_actors,
            self.monitor_actors,
            self.seller_actors,
        ):
            for actor in group:
                actor.step()
        self.state.advance_block(1)
        self.blocks_run += 1
        self.sync()
        self.state.check_invariants()
        self._assert_mirror()

    def _assert_mirror(self) -> None:
        for acct in self.state.accounts:
            shadow = self.view.settled_balance(acct.account_id)
            if shadow != acct.balance:
                raise InvariantViolation(
                    "oracle-mirror",
                    f"account {acct.account_id}: log-derived balance {shadow} "
                    f"!= ledger {acct.balance} at block {self.state.current_block}",
                )

    def _drained(self) -> bool:
        if self.state.slots:
            return False
        if any(p.status == PaymentStatus.LOCKED for p in self.state.payments):
            return False
        if self.view.mature_end() < len(self.view.payments):
            return False
        return all(
            self.view.collectable(acct.account_id) == 0 for acct in self.state.accounts
        )

    def run(self) -> None:
        for _ in range(self.config.blocks):
            self.run_block()
        self.draining = True
        params = self.config.params
        # Longer than any silent wait the protocol can demand, so a log that
        # stops growing for this long means nothing pending is timed.
        window = (
            params.challenge_period + params.response_period + params.unlock_period + 4
        )
        stagnant = 0
        while not self._drained():
            if self.blocks_run >= self.config.blocks + _DRAIN_HARD_CAP:
                raise InvariantViolation("drain-stalled", "hard block cap exceeded")
            before = len(self.log.records)
            self.run_block()
            if len(self.log.records) == before + 1:      # only the block advance
                stagnant += 1
                if stagnant >= window:
                    break
            else:
                stagnant = 0
        self._verify_end()

    # -- end-of-run verification and reporting -------------------------------------

    def _verify_end(self) -> None:
        stranded_slots = sorted(self.state.slots)
        stranded_locked = [
            p.pay_index for p in self.state.payments if p.status == PaymentStatus.LOCKED
        ]
        if stranded_slots or stranded_locked:
            if not self.insolvency_events:
                raise InvariantViolation(
                    "drain-stalled", "open slots or locked payments survived the drain"
                )
            # Insolvency strands claims, but only in the one shape the engine
            # allows: a settlement-ready slot whose payout the pool cannot
            # cover. Anything stuck mid-game is a genuine stall.
            mid_game = [
                key
                for key in stranded_slots
                if self.state.slots[key].game_state != GameState.WAITING_CHALLENGE
            ]
            if mid_game:
                raise InvariantViolation(
                    "drain-stalled", f"insolvent run left slots mid-game: {mid_game}"
                )
            for key in stranded_slots:
                seq = self.view.slots[key].open_seq
                if self.pending_cheats.pop(seq, None) is not None:
                    self.cheats_stranded += 1
            self.gap_notes.add(
                f"insolvency stranded {len(stranded_slots)} uncoverable collects "
                f"and {len(stranded_locked)} locked payments"
            )
        leftover = sum(
            self.view.collectable(acct.account_id) for acct in self.state.accounts
        )
        if leftover:
            self.gap_notes.add(
                f"{leftover} tokens of entitlement were never collected "
                "(no solvent delegate reached them)"
            )
        if self.pending_cheats:
            raise InvariantViolation(
                "cheat-tracking", "a recorded cheat neither settled nor resolved"
            )
        if self.cheats_attempted != (
            self.cheats_caught + self.cheats_escaped + self.cheats_stranded
        ):
            raise InvariantViolation(
                "cheat-tracking",
                f"attempted {self.cheats_attempted} != caught {self.cheats_caught} "
                f"+ escaped {self.cheats_escaped} + stranded {self.cheats_stranded}",
            )
        attentive = any(not m.lazy for m in self.monitor_actors)
        if attentive and self.cheats_escaped:
            raise InvariantViolation(
                "cheat-escaped",
                f"{self.cheats_escaped} overstated collects settled despite an "
                "attentive monitor",
            )

    def _gas_rows(self) -> tuple[dict, int]:
        rows: dict[str, dict] = {}
        total = 0
        for rec in self.log.records:
            op = rec.OP
            if op is None:
                continue
            gas = tx_cost(self.config.costs, op, scaling_payload(rec))
            row = rows.setdefault(op, {"count": 0, "gas": 0})
            row["count"] += 1
            row["gas"] += gas
            total += gas
        return rows, total

    def build_report(self) -> ScenarioReport:
        state = self.state
        report = ScenarioReport()
        report.seed = self.config.seed
        report.blocks_requested = self.config.blocks
        report.blocks_run = self.blocks_run
        report.state_digest = state.digest().hex()
        report.conservation_ok = True     # a failed check raises before this point

        actors = (
            self.buyers
            + self.seller_actors
            + self.delegate_actors
            + self.monitor_actors
            + self.unlockers
        )
        role_of = {actor.account_id: actor.role for actor in actors}
        report.balances = [
            {
                "account": acct.account_id,
                "role": role_of.get(acct.account_id, "other"),
                "balance": acct.balance,
            }
            for acct in state.accounts
        ]
        report.externals = [
            {"address": address, "balance": balance}
            for address, balance in sorted(state.adapter.external.items())
            if balance
        ]

        event_counts: dict[str, int] = {}
        for rec in self.log.records:
            name = type(rec).__name__
            event_counts[name] = event_counts.get(name, 0) + 1
        report.event_counts = event_counts

        report.games = {
            "opened": event_counts.get("CollectOpened", 0),
            "challenged": event_counts.get("Challenged", 0),
            "won_by_monitor": event_counts.get("ChallengeSucceeded", 0),
            "won_by_delegate": event_counts.get("ChallengeFailed", 0),
        }
        locked = sum(
            1
            for rec in self.log.records
            if isinstance(rec, PaymentRegistered) and rec.locking_key_hash is not None
        )
        report.payments = {
            "registered": event_counts.get("PaymentRegistered", 0),
            "locked": locked,
            "unlocked": event_counts.get("Unlocked", 0),
            "refunded": event_counts.get("Refunded", 0),
        }
        report.cheats = {
            "attempted": self.cheats_attempted,
            "caught": self.cheats_caught,
            "escaped": self.cheats_escaped,
            "stranded": self.cheats_stranded,
        }
        report.understatements = self.understatements
        report.instant_advance_losses = self.instant_losses

        gas_rows, total_gas = self._gas_rows()
        report.gas_by_op = gas_rows
        report.cost = {
            "total_gas": total_gas,
            "gas_price_gwei": self.config.gas_price_gwei,
            "eth_usd": self.config.eth_usd,
            "total_usd": str(
                usd_cost(total_gas, self.config.gas_price_gwei, self.config.eth_usd)
            ),
        }

        report.oracle_diffs = [
            {"account": acct.account_id, "ledger": acct.balance, "oracle": oracle}
            for acct in state.accounts
            if acct.balance != (oracle := self.view.oracle_balance(acct.account_id))
        ]
        report.monitor_net = {
            str(account_id): net for account_id, net in sorted(self.monitor_net.items())
        }

        if self.config.bulk_register_sellers and self.config.sellers:
            self.gap_notes.add(
                "bulk-registration roots are never challenged on-chain; "
                "a wrong root strands its reserved ids"
            )
        if self.cheats_escaped:
            self.gap_notes.add(
                f"{self.cheats_escaped} overstated collects settled unchallenged "
                "(no attentive monitor saw them)"
            )
        if self.instant_losses:
            self.gap_notes.add(
                "instant-collect advances stay with recipients when the delegate "
                "loses the game; the delegate absorbs the difference"
            )
        report.known_gaps = sorted(self.gap_notes)
        return report


def run_scenario_full(config: ScenarioConfig) -> tuple[ScenarioReport, SimRun]:
    """Run to completion and return both the report and the live run."""
    run = SimRun(config)
    run.run()
    return run.build_report(), run


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    report, _ = run_scenario_full(config)
    return report
