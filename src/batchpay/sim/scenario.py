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
from collections import Counter

from ..chainlog import ChainLog, PaymentRegistered, scaling_payload
from ..costmodel import calldata_gas, tx_cost, usd_cost
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
from .actors import Buyer, Delegate, Monitor, Unlocker
from .config import DRAIN_HARD_CAP, ScenarioConfig
from .oracle import LogView
from .report import ScenarioReport


def _headcount(fraction: float, total: int) -> int:
    return min(total, int(fraction * total + 0.5))


class SimRun:
    """Mutable context shared by the actors of one scenario."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.rng = random.Random(config.seed)
        adapter = TokenAdapter()
        for role, count, deposit in (
            ("buyer", config.buyers, config.buyer_deposit),
            ("delegate", config.delegates, config.delegate_deposit),
            ("monitor", config.monitors, config.monitor_deposit),
        ):
            if deposit:
                for i in range(count):
                    adapter.mint(f"{role}-{i}", deposit)
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
        self.pending_cheats: set[int] = set()        # open_seq of each unresolved cheat
        self.gap_notes: set[str] = set()
        self.insolvent_kinds: set[str] = set()       # ops the pool could not cover

        self.address_of: dict[int, str] = {}
        self.role_of: dict[int, str] = {}
        self._setup_actors()
        self.sync()

    # -- setup ----------------------------------------------------------------

    def _name(self, account_id: int, role: str, address: str) -> None:
        self.address_of[account_id] = address
        self.role_of[account_id] = role

    def _open_account(self, role: str, i: int, deposit: int = 0) -> tuple[int, str]:
        """Open ``{role}-{i}``'s account: by a deposit if it brings funds."""
        address = f"{role}-{i}"
        if deposit:
            account_id = self.state.deposit(NEW_ACCOUNT, deposit, address)
        else:
            account_id = register(self.state, address)
        self._name(account_id, role, address)
        return account_id, address

    def _setup_actors(self) -> None:
        cfg = self.config
        state = self.state

        self.buyers = [
            Buyer(self, *self._open_account("buyer", i, cfg.buyer_deposit))
            for i in range(cfg.buyers)
        ]

        if cfg.sellers and cfg.bulk_register_sellers:
            addresses = [f"seller-{i}" for i in range(cfg.sellers)]
            bulk_id = bulk_register(state, cfg.sellers, merkle_root(addresses))
            first_id = state.bulks[bulk_id].first_id
            for i, proof in enumerate(merkle_proofs(addresses)):
                claim_bulk_registration_id(state, bulk_id, first_id + i, addresses[i], proof)
                self._name(first_id + i, "seller", addresses[i])
            self.seller_ids = list(range(first_id, first_id + cfg.sellers))
        else:
            self.seller_ids = [self._open_account("seller", i)[0] for i in range(cfg.sellers)]

        cheaters = _headcount(cfg.cheating_delegate_fraction, cfg.delegates)
        self.delegate_actors = [
            Delegate(
                self,
                *self._open_account("delegate", i, cfg.delegate_deposit),
                cheating=i < cheaters,
                sellers=self.seller_ids[i :: cfg.delegates],
            )
            for i in range(cfg.delegates)
        ]

        lazies = _headcount(cfg.lazy_monitor_fraction, cfg.monitors)
        self.monitor_actors = [
            Monitor(self, *self._open_account("monitor", i, cfg.monitor_deposit), lazy=i < lazies)
            for i in range(cfg.monitors)
        ]

        withholders = _headcount(cfg.withholding_unlocker_fraction, cfg.unlockers)
        self.unlockers = [
            Unlocker(self, *self._open_account("unlocker", i), withholding=i < withholders)
            for i in range(cfg.unlockers)
        ]

    # -- shared services for actors --------------------------------------------

    def sync(self) -> None:
        self.view.feed(self.log)

    def note_cheat(self, delegate_id: int, slot_id: int) -> None:
        self.sync()
        self.pending_cheats.add(self.view.slots[(delegate_id, slot_id)].open_seq)
        self.cheats_attempted += 1

    def _resolve_cheat(self, seq: int) -> bool:
        """Close the cheat opened as ``seq``; False if that slot was no cheat."""
        if seq not in self.pending_cheats:
            return False
        self.pending_cheats.remove(seq)
        return True

    def note_settled(self, delegate_id: int, slot_id: int) -> None:
        """A slot settled unchallenged (the view holds it until the next sync)."""
        seq = self.view.slots[(delegate_id, slot_id)].open_seq
        if self._resolve_cheat(seq):
            self.cheats_escaped += 1

    def note_monitor_win(self, seq: int, was_instant: bool) -> None:
        if self._resolve_cheat(seq):
            self.cheats_caught += 1
        if was_instant:
            self.instant_losses += 1

    def note_understatement(self) -> None:
        self.understatements += 1

    def note_insolvency(self, what: str) -> None:
        """An op was not tried because the escrow pool cannot cover it.

        This happens only after an overstated collect settled unchallenged, so
        the shared pool is short against the remaining promises. Buyers,
        unlockers and delegates ask ``state.covers`` before a refund, an unlock
        or a settlement, note the one it refuses, and retry it on a later block.
        The run winds down by stagnation.
        """
        self.insolvency_events += 1
        if what not in self.insolvent_kinds:
            self.insolvent_kinds.add(what)
            self.gap_notes.add(
                f"escrow pool insolvency blocked a {what}: an inflated settlement "
                "drained funds that backed other claims"
            )

    # -- the loop ----------------------------------------------------------------

    def run_block(self) -> None:
        # Sellers have no moves of their own, so they are not stepped.
        for group in (
            self.buyers,
            self.unlockers,
            self.delegate_actors,
            self.monitor_actors,
        ):
            for actor in group:
                actor.step()
        self.state.advance_block(1)
        self.blocks_run += 1
        self.sync()
        self.state.check_invariants()
        self._assert_mirror()

    def _assert_mirror(self) -> None:
        shadows = self.view.balances
        for acct in self.state.accounts:
            shadow = shadows.get(acct.account_id, 0)
            if shadow != acct.balance:
                raise InvariantViolation(
                    "oracle-mirror",
                    f"account {acct.account_id}: log-derived balance {shadow} "
                    f"!= ledger {acct.balance} at block {self.state.current_block}",
                )

    def _drained(self) -> bool:
        if self.state.slots:
            return False
        if self.view.locked:
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
        window = self.config.drain_window()
        # the cap counts only drain blocks in which the log grew, never a quiet one
        active = stagnant = 0
        while not self._drained():
            if active >= DRAIN_HARD_CAP:
                raise InvariantViolation("drain-stalled", "hard block cap exceeded")
            before = len(self.log.records)
            self.run_block()
            if len(self.log.records) == before + 1:      # only the block advance
                stagnant += 1
                if stagnant >= window:
                    break
            else:
                active += 1
                stagnant = 0
        self._verify_end()

    # -- end-of-run verification and reporting -------------------------------------

    def _verify_end(self) -> None:
        stranded_slots = sorted(self.state.slots)
        stranded_locked = [
            p.pay_index for p in self.state.payments if p.status == PaymentStatus.LOCKED
        ]
        # The per-block check reads only the index; this scan backs it up.
        if stranded_locked != list(self.state.open_locks):
            raise InvariantViolation(
                "open-locks",
                f"locked payments {stranded_locked}, indexed {list(self.state.open_locks)}",
            )
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
                if self._resolve_cheat(seq):
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
        # A monitor that cannot afford the challenge stake watches in vain.
        attentive = self.config.monitor_deposit >= self.config.params.challenge_stake and any(
            not m.lazy for m in self.monitor_actors
        )
        if attentive and self.cheats_escaped:
            raise InvariantViolation(
                "cheat-escaped",
                f"{self.cheats_escaped} overstated collects settled despite an "
                "attentive monitor",
            )

    def _tally(self) -> tuple[dict, dict, int]:
        """Record counts by type, ``{count, gas}`` by op, and locked payments;
        only records that declare ``SCALING`` are walked, to price their payload."""
        records = self.log.records
        by_type = Counter(map(type, records))
        rows = {c.OP: {"count": n, "gas": n * tx_cost(c.OP)} for c, n in by_type.items() if c.OP}
        locked = 0
        for rec in records:
            if rec.SCALING is not None:
                rows[rec.OP]["gas"] += calldata_gas(scaling_payload(rec))
                if type(rec) is PaymentRegistered and rec.locking_key_hash is not None:
                    locked += 1
        return {cls.__name__: n for cls, n in by_type.items()}, rows, locked

    def build_report(self) -> ScenarioReport:
        state = self.state
        report = ScenarioReport()
        report.seed = self.config.seed
        report.blocks_requested = self.config.blocks
        report.blocks_run = self.blocks_run
        report.state_digest = state.digest().hex()
        report.conservation_ok = True     # a failed check raises before this point

        report.balances = [
            {
                "account": acct.account_id,
                "role": self.role_of.get(acct.account_id, "other"),
                "balance": acct.balance,
            }
            for acct in state.accounts
        ]
        report.externals = [
            {"address": address, "balance": balance}
            for address, balance in sorted(state.adapter.external.items())
            if balance
        ]

        event_counts, gas_rows, locked = self._tally()
        report.event_counts = event_counts

        report.games = {
            "opened": event_counts.get("CollectOpened", 0),
            "challenged": event_counts.get("Challenged", 0),
            "won_by_monitor": event_counts.get("ChallengeSucceeded", 0),
            "won_by_delegate": event_counts.get("ChallengeFailed", 0),
        }
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

        total_gas = sum(row["gas"] for row in gas_rows.values())
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
        # A monitor's only flows are its challenge stakes and its winnings.
        report.monitor_net = {
            str(m.account_id): state.accounts[m.account_id].balance - self.config.monitor_deposit
            for m in self.monitor_actors
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
