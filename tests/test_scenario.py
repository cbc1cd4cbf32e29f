"""End-to-end simulated runs: honest towns, adversaries, determinism."""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from batchpay import collect, payments, registration
from batchpay.chainlog import ChainLog
from batchpay.codec import encode_pay_data
from batchpay.errors import InvariantViolation, ProtocolError
from batchpay.payments import register_payment
from batchpay.replay import replay
from batchpay.sim import (
    ScenarioConfig,
    SimRun,
    report_digest,
    run_scenario,
    run_scenario_full,
    scenario_report,
    view_of,
)
from batchpay.sim import config as sim_config
from batchpay.sim import scenario
from batchpay.sim.actors import Delegate
from batchpay.sim.config import load_scenario_config
from batchpay.sim.scenario import _headcount
from batchpay.state import GameState, Params, ProtocolState

ROOT = Path(__file__).resolve().parent.parent


def quick_params(**overrides) -> Params:
    base = dict(unlock_period=3, challenge_period=5, response_period=3)
    base.update(overrides)
    return Params(**base)


def test_honest_town_reconciles():
    report, run = run_scenario_full(
        ScenarioConfig(
            seed=11,
            blocks=200,
            buyers=10,
            sellers=100,
            delegates=2,
            monitors=2,
            params=quick_params(),
        )
    )
    assert report.oracle_diffs == []
    assert report.games["challenged"] == 0
    assert report.games["won_by_monitor"] == 0
    assert report.conservation_ok
    assert report.payments["registered"] > 0
    assert report.games["opened"] > 0
    assert report.blocks_run >= report.blocks_requested
    assert report.state_digest == run.state.digest().hex()
    # every seller's entitlement was drained by the end
    for account_id in range(len(run.state.addresses)):
        assert run.view.collectable(account_id) == 0


def test_same_seed_reproduces_digest():
    config = dict(seed=77, blocks=30, buyers=3, sellers=10, params=quick_params())
    a = run_scenario(ScenarioConfig(**config))
    b = run_scenario(ScenarioConfig(**config))
    assert a.state_digest == b.state_digest
    c = run_scenario(ScenarioConfig(**{**config, "seed": 78}))
    assert c.state_digest != a.state_digest


def test_every_overstated_collect_is_caught():
    report = run_scenario(
        ScenarioConfig(
            seed=13,
            blocks=40,
            buyers=4,
            sellers=12,
            delegates=2,
            monitors=1,
            cheating_delegate_fraction=1.0,
            params=quick_params(),
            monitor_deposit=50_000,
            delegate_deposit=200_000,
        )
    )
    assert report.cheats["attempted"] > 0
    assert report.cheats["caught"] == report.cheats["attempted"]
    assert report.games["won_by_monitor"] >= report.cheats["attempted"]
    assert report.oracle_diffs == []


def test_lazy_monitors_let_some_cheats_escape():
    report = run_scenario(
        ScenarioConfig(
            seed=29,
            blocks=40,
            buyers=4,
            sellers=12,
            delegates=2,
            monitors=1,
            cheating_delegate_fraction=1.0,
            lazy_monitor_fraction=1.0,
            params=quick_params(),
            monitor_deposit=50_000,
            delegate_deposit=200_000,
        )
    )
    cheats = report.cheats
    assert cheats["attempted"] > cheats["caught"]
    assert cheats["escaped"] > 0
    assert cheats["attempted"] == cheats["caught"] + cheats["escaped"] + cheats["stranded"]
    assert any("settled unchallenged" in note for note in report.known_gaps)
    # the inflated payouts came out of the shared pool, so late settlements
    # find it short; the run reports that instead of crashing
    assert any("insolvency" in note for note in report.known_gaps)
    # uncaught inflation leaks value to recipients; the ledger still conserves
    assert report.conservation_ok


@pytest.mark.parametrize(
    "path, setting, value, cheats, instant_losses",
    [
        ("configs/adversarial.cfg", "lazy_monitor_fraction", 1.0, (16, 6, 10, 0), 1),
        ("bench/adversarial_bulk.cfg", "monitor_deposit", 0, (489, 0, 455, 34), 0),
    ],
    ids=["all-lazy", "unstaked"],
)
def test_cheat_table_reaches_every_outcome(path, setting, value, cheats, instant_losses):
    # Together these runs have cheats caught, escaped and stranded, and an
    # instant loss.
    config = load_scenario_config(str(ROOT / path))
    config.seed = 1
    setattr(config, setting, value)
    report = run_scenario(config)
    assert tuple(report.cheats.values()) == cheats
    assert report.instant_advance_losses == instant_losses


def no_monitor_config() -> ScenarioConfig:
    """One cheating delegate and no monitor: the looted pool strands collects."""
    return ScenarioConfig(
        seed=31,
        blocks=30,
        buyers=3,
        sellers=8,
        delegates=1,
        monitors=0,
        cheating_delegate_fraction=1.0,
        params=quick_params(),
        delegate_deposit=200_000,
    )


def test_no_monitors_means_no_cheat_is_caught():
    report = run_scenario(no_monitor_config())
    cheats = report.cheats
    assert cheats["attempted"] > 0
    assert cheats["caught"] == 0
    assert report.games["challenged"] == 0
    assert cheats["escaped"] > 0
    # once the pool is looted the stragglers cannot settle at all
    assert cheats["attempted"] == cheats["escaped"] + cheats["stranded"]
    assert any("settled unchallenged" in note for note in report.known_gaps)


def test_monitors_that_cannot_stake_a_challenge_let_cheats_escape():
    # The attentive monitor has no deposit, so it never challenges: the run
    # reports the escaped cheats instead of failing its cheat-escaped check.
    config = load_scenario_config(str(ROOT / "configs" / "adversarial.cfg"))
    config.monitor_deposit = 0
    report = run_scenario(config)
    assert report.games["challenged"] == 0
    assert report.cheats["escaped"] == 11
    assert "11 overstated collects settled unchallenged (no attentive monitor saw them)" in (
        report.known_gaps
    )


def test_withholding_unlocker_forces_refunds():
    report = run_scenario(
        ScenarioConfig(
            seed=17,
            blocks=30,
            buyers=4,
            sellers=10,
            unlockers=1,
            locked_fraction=1.0,
            withholding_unlocker_fraction=1.0,
            params=quick_params(),
        )
    )
    assert report.payments["locked"] == report.payments["registered"]
    assert report.payments["unlocked"] == 0
    assert report.payments["refunded"] == report.payments["locked"]
    assert report.oracle_diffs == []
    # nothing was ever collectable, so no games were worth opening
    assert report.games["opened"] == 0


def test_locked_payments_flow_through_unlockers():
    report = run_scenario(
        ScenarioConfig(
            seed=19,
            blocks=30,
            buyers=4,
            sellers=10,
            unlockers=2,
            locked_fraction=0.5,
            params=quick_params(),
        )
    )
    assert report.payments["locked"] > 0
    assert report.payments["unlocked"] == report.payments["locked"]
    assert report.payments["refunded"] == 0
    assert report.oracle_diffs == []


def test_instant_collects_reconcile():
    report = run_scenario(
        ScenarioConfig(
            seed=23,
            blocks=30,
            buyers=4,
            sellers=10,
            instant_fraction=1.0,
            external_destination_fraction=0.5,
            params=quick_params(),
        )
    )
    assert report.games["opened"] > 0
    assert report.oracle_diffs == []
    assert report.externals  # routed payouts landed outside the ledger


def test_bulk_registered_sellers_reconcile():
    report = run_scenario(
        ScenarioConfig(
            seed=37,
            blocks=25,
            buyers=3,
            sellers=9,
            bulk_register_sellers=True,
            params=quick_params(),
        )
    )
    assert report.oracle_diffs == []
    assert report.event_counts.get("BulkRegistered") == 1
    assert report.event_counts.get("Claimed") == 9
    assert any("bulk-registration" in note for note in report.known_gaps)


def test_no_delegates_leaves_entitlements_standing():
    report = run_scenario(
        ScenarioConfig(
            seed=41, blocks=20, buyers=2, sellers=6, delegates=0, params=quick_params()
        )
    )
    assert report.payments["registered"] > 0
    assert report.games["opened"] == 0
    # uncollected entitlements surface as oracle-over-ledger differences
    assert report.oracle_diffs
    assert all(d["oracle"] > d["ledger"] for d in report.oracle_diffs)


def test_empty_scenario_is_well_formed():
    report = run_scenario(
        ScenarioConfig(seed=1, blocks=5, payment_probability=0.0, params=quick_params())
    )
    assert report.payments["registered"] == 0
    assert report.games["opened"] == 0
    assert report.oracle_diffs == []
    assert report.cost["total_gas"] > 0  # registrations and block advances


def test_gas_accounting_covers_every_logged_op():
    report, run = run_scenario_full(
        ScenarioConfig(seed=43, blocks=20, buyers=3, sellers=8, params=quick_params())
    )
    logged = sum(report.event_counts.values())
    # block advances and the setup record are bookkeeping, not transactions
    untaxed = report.event_counts.get("Advanced", 0) + report.event_counts.get(
        "Instantiated", 0
    )
    counted = sum(row["count"] for row in report.gas_by_op.values())
    assert counted == logged - untaxed
    assert report.cost["total_gas"] == sum(row["gas"] for row in report.gas_by_op.values())


def test_monitor_stakes_round_trip_in_honest_runs():
    report = run_scenario(
        ScenarioConfig(
            seed=47, blocks=30, buyers=3, sellers=8, monitors=2, params=quick_params()
        )
    )
    assert all(net == 0 for net in report.monitor_net.values())


def test_headcount_rounds_to_nearest():
    assert _headcount(0.0, 4) == 0
    assert _headcount(1.0, 4) == 4
    assert _headcount(0.5, 2) == 1
    assert _headcount(0.5, 3) == 2   # 1.5 rounds up
    assert _headcount(0.26, 4) == 1
    assert _headcount(0.9, 1) == 1
    assert _headcount(1.0, 0) == 0


def _committed_config(name: str, seed: int = 42) -> ScenarioConfig:
    """``configs/{name}.cfg`` at ``seed``; ``adversarial_all_lazy`` is
    adversarial.cfg with every monitor lazy, which runs insolvent."""
    all_lazy = name.endswith("_all_lazy")
    config = load_scenario_config(str(ROOT / "configs" / f"{name.removesuffix('_all_lazy')}.cfg"))
    config.seed = seed
    if all_lazy:
        config.lazy_monitor_fraction = 1.0
    return config


def _golden_chain_logs() -> dict[str, str]:
    golden = {}
    for line in (ROOT / "tests/golden/chain_log_sha256.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, value = line.split()
            golden[name] = value
    return golden


@pytest.mark.parametrize(
    "name", ["honest", "adversarial", "adversarial_all_lazy", "scaled_honest", "scaled_adversarial"]
)
def test_chain_log_matches_golden(name):
    # Byte-for-byte pin of the public log: any change to what the actors do,
    # in what order, or to how records are encoded moves this hash.
    report, run = run_scenario_full(_committed_config(name))
    assert hashlib.sha256(run.log.dump()).hexdigest() == _golden_chain_logs()[name]
    if name == "adversarial":
        assert report.games["won_by_monitor"] == 24
    if name == "adversarial_all_lazy":
        assert run.insolvency_events == 165


@pytest.mark.parametrize(
    "name, seed",
    [
        (name, seed)
        for name in ("honest", "adversarial", "scaled_honest", "scaled_adversarial")
        for seed in (1, 7, 42)
    ]
    + [("adversarial_all_lazy", 42)],
)
def test_report_rebuilt_from_the_dumped_log_has_the_live_digest(name, seed):
    # The report reads the final state, the log's view and the config, which
    # a published log gives back through replay and a fresh view, and the op
    # kinds the pool refused, which only the run knows.
    config = _committed_config(name, seed)
    report, run = run_scenario_full(config)
    assert bool(run.insolvent_kinds) == (name == "adversarial_all_lazy")
    log = ChainLog.load(run.log.dump())
    rebuilt = scenario_report(config, replay(log)[0], view_of(log), run.insolvent_kinds)
    assert report_digest(rebuilt) == report_digest(report)


# The public engine ops: module functions, then ProtocolState methods.
ENGINE_OPS = (
    (registration, ("register", "bulk_register", "claim_bulk_registration_id")),
    (payments, ("register_payment", "unlock", "refund_locked_payment")),
    (collect, (
        "collect", "challenge", "respond_with_payment_list", "select_payment",
        "prove_payment_inclusion", "challenge_success", "challenge_failed", "free_slot",
    )),
    (ProtocolState, ("deposit", "withdraw", "advance_block")),
)


@pytest.mark.parametrize("name", ["honest", "adversarial", "adversarial_all_lazy"])
def test_actors_make_no_move_the_engine_refuses(name, monkeypatch):
    # Actors ask before they move (the game's move table, the pool's covers,
    # their own balances), so no op they call raises, not even on the all-lazy
    # run that strands settlements. A function is wrapped in every batchpay
    # module that bound it by name.
    calls, refused = Counter(), Counter()

    def wrap(fn, op):
        def wrapper(*args, **kwargs):
            calls[op] += 1
            try:
                return fn(*args, **kwargs)
            except ProtocolError:
                refused[op] += 1
                raise
        return wrapper

    for owner, ops in ENGINE_OPS:
        for op in ops:
            original = getattr(owner, op)
            if isinstance(owner, type):
                monkeypatch.setattr(owner, op, wrap(original, op))
                continue
            for module in list(sys.modules.values()):
                if module.__name__.startswith("batchpay") and vars(module).get(op) is original:
                    monkeypatch.setattr(module, op, wrap(original, op))
    # A stranded settlement waits for the pool and an unprovable entry for
    # its deadline, so each is looked at once, however long it waits.
    for owner, op in ((SimRun, "note_insolvency"), (Delegate, "_try_prove")):
        monkeypatch.setattr(owner, op, wrap(getattr(owner, op), op))
    _, run = run_scenario_full(_committed_config(name))
    assert refused == Counter()
    assert {"deposit", "register_payment", "collect", "free_slot", "advance_block"} <= set(calls)
    if name != "honest":
        assert {"challenge", "respond_with_payment_list", "challenge_success", "unlock"} <= set(calls)
    assert calls["_try_prove"] == calls["select_payment"]
    if name == "adversarial_all_lazy":
        assert run.insolvency_events == 165
        assert calls["note_insolvency"] == len(run.state.slots) == calls["_try_prove"] == 3


# -- the end-of-run checks catch a tampered run ------------------------------------------


def _finished(config: ScenarioConfig) -> SimRun:
    _, run = run_scenario_full(config)
    return run


def _cheat_counted_twice(run):
    run.cheats_attempted += 1


def _cheat_logged_twice(run):
    run.view.cheats["attempted"] += 1


def _cheat_escaped(run):
    run.view.cheats["escaped"] += 1


def _payment_left_locked(run):
    buyer = run.buyers[0]
    register_payment(
        run.state, buyer.account_id, 1, encode_pay_data([run.seller_ids[0]]), buyer.address,
        locking_key_hash=bytes(32),
    )


def _stranded_slot_mid_game(run):
    key = min(run.state.slots)
    run.state.slots[key].game_state = GameState.CHALLENGE_STARTED


@pytest.mark.parametrize(
    "config, tamper, invariant, message",
    [
        ("adversarial", _cheat_counted_twice, "cheat-tracking", "delegates overstated 25 collects, the log 24"),
        ("adversarial", _cheat_logged_twice, "cheat-tracking", "delegates overstated 24 collects, the log 25"),
        ("adversarial", _cheat_escaped, "cheat-escaped", "1 overstated collects settled despite an attentive monitor"),
        ("honest", _payment_left_locked, "drain-stalled", "open slots or locked payments survived the drain"),
        ("no-monitor", _stranded_slot_mid_game, "drain-stalled", "insolvent run left slots mid-game: [(11, 42)]"),
    ],
    ids=["cheat-count", "cheat-logged", "cheat-escaped", "locked-left", "mid-game"],
)
def test_end_of_run_checks_catch_a_tampered_run(config, tamper, invariant, message):
    if config == "no-monitor":
        run = _finished(no_monitor_config())
    else:
        run = _finished(load_scenario_config(str(ROOT / "configs" / f"{config}.cfg")))
    run._verify_end()                     # the run as played passes
    tamper(run)
    with pytest.raises(InvariantViolation) as excinfo:
        run._verify_end()
    assert excinfo.value.invariant == invariant
    assert excinfo.value.detail == message


def test_drain_stops_at_its_hard_cap(monkeypatch):
    monkeypatch.setattr(scenario, "DRAIN_HARD_CAP", 0)
    run = SimRun(load_scenario_config(str(ROOT / "configs" / "honest.cfg")))
    with pytest.raises(InvariantViolation, match="hard block cap exceeded"):
        run.run()
    assert run.state.current_block == run.config.blocks


def test_drain_cap_leaves_out_the_quiet_window(monkeypatch):
    # The cap counts only drain blocks in which the log grew, so a config
    # whose quiet window is as long as the cap validates and also finishes,
    # though its whole drain runs past the cap.
    config = load_scenario_config(str(ROOT / "configs" / "honest.cfg"))
    config.blocks, config.params.unlock_period = 10, 10
    for module in (sim_config, scenario):
        monkeypatch.setattr(module, "DRAIN_HARD_CAP", config.drain_window())
    config.validate()
    run = SimRun(config)
    run.run()
    assert run.state.current_block - config.blocks > config.drain_window()


def test_a_block_feeds_the_view_once_and_once_per_step_that_reads_it(monkeypatch):
    # Actors read the present from the engine. The view is fed at set-up,
    # at each block's end, and at the start of each delegate's and monitor's
    # step, which read the log's history; buyers and unlockers never read it.
    calls = 0
    sync = SimRun.sync

    def counted(self):
        nonlocal calls
        calls += 1
        sync(self)

    monkeypatch.setattr(SimRun, "sync", counted)
    run = SimRun(load_scenario_config(str(ROOT / "configs" / "adversarial.cfg")))
    run.run()
    cfg = run.config
    assert calls == 1 + run.state.current_block * (1 + cfg.delegates + cfg.monitors) == 586
