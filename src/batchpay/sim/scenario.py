"""Scenario runner: setup, the block loop, the drain phase, verification.

A run instantiates one protocol state, registers every actor, then plays
``config.blocks`` blocks of traffic followed by a drain phase in which no
new payments start and everyone settles honestly until nothing is left
pending. At every block boundary the global conservation invariant is
re-checked and the chain-log shadow ledger must mirror every settled
balance exactly; at the end, the log-derived oracle balance must equal the
ledger balance for every account.

Cheat accounting is read from the chain log: the log-derived view
classifies each collect claim when it opens, and counts an overstated one
caught when a challenger wins its game and escaped when it settles
unchallenged (see ``LogView.cheats``); one still open at the end was
stranded. The delegates count the overstated collects they mean to open,
and the run fails if the log shows another number, or if any cheat
settles unchallenged while an attentive monitor was configured.
"""

from __future__ import annotations

import random
from collections import Counter

from ..chainlog import ChainLog, PaymentRegistered, scaling_payload
from ..costmodel import calldata_gas, tx_cost, usd_cost
from ..errors import InvariantViolation
from ..merkle import merkle_tree
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

        self.cheats_attempted = 0                    # overstated collects delegates opened
        self.understatements = 0
        self.insolvency_events = 0
        self.gap_notes: set[str] = set()
        self.insolvent_kinds: set[str] = set()       # ops the pool could not cover

        self.role_of: dict[int, str] = {}
        self._setup_actors()
        self.sync()

    # -- setup ----------------------------------------------------------------

    def _open_account(self, role: str, i: int, deposit: int = 0) -> tuple[int, str]:
        """Open ``{role}-{i}``'s account: by a deposit if it brings funds."""
        address = f"{role}-{i}"
        if deposit:
            account_id = self.state.deposit(NEW_ACCOUNT, deposit, address)
        else:
            account_id = register(self.state, address)
        self.role_of[account_id] = role
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
            root, proofs = merkle_tree(addresses)
            bulk_id = bulk_register(state, cfg.sellers, root)
            first_id = state.bulks[bulk_id].first_id
            for i, proof in enumerate(proofs):
                claim_bulk_registration_id(state, bulk_id, first_id + i, addresses[i], proof)
                self.role_of[first_id + i] = "seller"
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
        """The log-derived balances equal the ledger's column, in one compare;
        on a mismatch, a walk names the first account that differs, or else
        both tables' lengths."""
        ledger, shadows = self.state.balances, self.view.balances
        if ledger == shadows:
            return
        block = self.state.current_block
        for account_id, balance in enumerate(ledger):
            shadow = self.view.settled_balance(account_id)
            if shadow != balance:
                raise InvariantViolation(
                    "oracle-mirror",
                    f"account {account_id}: log-derived balance {shadow} "
                    f"!= ledger {balance} at block {block}",
                )
        raise InvariantViolation(
            "oracle-mirror",
            f"the log derives {len(shadows)} balances, the ledger holds {len(ledger)} "
            f"at block {block}",
        )

    def _drained(self) -> bool:
        if self.state.slots:
            return False
        if self.state.open_locks:
            return False
        if self.view.mature_end() < len(self.view.payments):
            return False
        return not any(map(self.view.collectable, range(len(self.state.addresses))))

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
            self.gap_notes.add(
                f"insolvency stranded {len(stranded_slots)} uncoverable collects "
                f"and {len(stranded_locked)} locked payments"
            )
        leftover = sum(map(self.view.collectable, range(len(self.state.addresses))))
        if leftover:
            self.gap_notes.add(
                f"{leftover} tokens of entitlement were never collected "
                "(no solvent delegate reached them)"
            )
        logged = self.view.cheats["attempted"]
        if self.cheats_attempted != logged:
            raise InvariantViolation(
                "cheat-tracking",
                f"delegates overstated {self.cheats_attempted} collects, the log {logged}",
            )
        # A monitor that cannot afford the challenge stake watches in vain.
        attentive = self.config.monitor_deposit >= self.config.params.challenge_stake and any(
            not m.lazy for m in self.monitor_actors
        )
        escaped = self.view.cheats["escaped"]
        if attentive and escaped:
            raise InvariantViolation(
                "cheat-escaped",
                f"{escaped} overstated collects settled despite an attentive monitor",
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
                "account": account_id,
                "role": self.role_of.get(account_id, "other"),
                "balance": balance,
            }
            for account_id, balance in enumerate(state.balances)
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
        cheats = self.view.cheats
        report.cheats = {
            "attempted": cheats["attempted"],
            "caught": cheats["caught"],
            "escaped": cheats["escaped"],
            "stranded": cheats["attempted"] - cheats["caught"] - cheats["escaped"],
        }
        report.understatements = self.understatements
        report.instant_advance_losses = self.view.instant_losses

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
            {"account": account_id, "ledger": balance, "oracle": oracle}
            for account_id, balance in enumerate(state.balances)
            if balance != (oracle := self.view.oracle_balance(account_id))
        ]
        # A monitor's only flows are its challenge stakes and its winnings.
        report.monitor_net = {
            str(m.account_id): state.balances[m.account_id] - self.config.monitor_deposit
            for m in self.monitor_actors
        }

        if self.config.bulk_register_sellers and self.config.sellers:
            self.gap_notes.add(
                "bulk-registration roots are never challenged on-chain; "
                "a wrong root strands its reserved ids"
            )
        if cheats["escaped"]:
            self.gap_notes.add(
                f"{cheats['escaped']} overstated collects settled unchallenged "
                "(no attentive monitor saw them)"
            )
        if self.view.instant_losses:
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
