"""Scenario configuration: defaults, INI parsing, validation."""

from __future__ import annotations

import pytest

from batchpay.errors import InvalidParameter
from batchpay.sim import ScenarioConfig, parse_scenario_config, run_scenario
from batchpay.sim.config import _SECTIONS, DRAIN_HARD_CAP, load_scenario_config
from batchpay.state import Params
from batchpay.wire import U64_MAX

FULL_CONFIG = """
[scenario]
seed = 99
blocks = 25
payment_probability = 0.5
locked_fraction = 0.25
instant_fraction = 0.1
external_destination_fraction = 0.2
cheating_delegate_fraction = 0.5
lazy_monitor_fraction = 0.5
withholding_unlocker_fraction = 1.0

[roles]
buyers = 2
sellers = 6
delegates = 2
monitors = 2
unlockers = 1
bulk_register_sellers = true

[amounts]
per_destination_min = 2
per_destination_max = 9
payees_min = 1
payees_max = 4
accumulation_threshold = 2
collect_fee = 3
unlocker_fee = 2
overstatement_min = 5
overstatement_max = 30
buyer_deposit = 100000
delegate_deposit = 60000
monitor_deposit = 9000

[params]
unlock_period = 4
challenge_period = 6
response_period = 3
collect_stake = 64
challenge_stake = 32
max_payments_per_batch = 500

[costs]
gas_price_gwei = 7.5
eth_usd = 301.25
"""


def test_defaults_validate():
    ScenarioConfig().validate()


def test_full_file_parses():
    config = parse_scenario_config(FULL_CONFIG)
    assert config.seed == 99
    assert config.blocks == 25
    assert config.locked_fraction == 0.25
    assert config.sellers == 6
    assert config.bulk_register_sellers is True
    assert config.per_destination_max == 9
    assert config.gas_price_gwei == 7.5
    assert config.eth_usd == 301.25
    assert config.params.unlock_period == 4
    assert config.params.collect_stake == 64
    config.validate()


def test_partial_file_keeps_defaults():
    config = parse_scenario_config("[scenario]\nseed = 7\n")
    assert config.seed == 7
    assert config.blocks == ScenarioConfig().blocks
    assert config.buyers == ScenarioConfig().buyers


def test_unknown_section_rejected():
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[weather]\nsunny = yes\n")


def test_unknown_key_rejected():
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[scenario]\nturbo = 1\n")


def test_top_level_keys_rejected():
    with pytest.raises(InvalidParameter):
        parse_scenario_config("seed = 1\n[scenario]\nblocks = 5\n")
    with pytest.raises(InvalidParameter, match="keys outside a section are not allowed"):
        parse_scenario_config("[DEFAULT]\nseed = 1\n[scenario]\nblocks = 5\n")


@pytest.mark.parametrize(
    "raw, value", [("1", True), ("Yes", True), ("on", True), ("0", False), ("false", False), ("OFF", False)]
)
def test_boolean_spellings_parse(raw, value):
    config = parse_scenario_config(f"[roles]\nbulk_register_sellers = {raw}\n")
    assert config.bulk_register_sellers is value


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(InvalidParameter, match="cannot read config"):
        load_scenario_config(str(tmp_path / "absent.cfg"))


def test_non_utf8_config_file_rejected(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"[scenario]\n# caf\xe9\nseed = 1\n")
    with pytest.raises(InvalidParameter, match="is not UTF-8 text"):
        load_scenario_config(str(path))


def test_bad_value_types_rejected():
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[scenario]\nseed = soon\n")
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[scenario]\npayment_probability = maybe\n")
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[roles]\nbulk_register_sellers = sometimes\n")


def test_malformed_ini_rejected():
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[scenario\nseed = 1\n")


def test_fraction_bounds_enforced():
    for key in (
        "payment_probability",
        "locked_fraction",
        "instant_fraction",
        "external_destination_fraction",
        "cheating_delegate_fraction",
        "lazy_monitor_fraction",
        "withholding_unlocker_fraction",
    ):
        config = ScenarioConfig(**{key: 1.5})
        with pytest.raises(InvalidParameter):
            config.validate()
        config = ScenarioConfig(**{key: -0.1})
        with pytest.raises(InvalidParameter):
            config.validate()


def test_locked_payments_need_an_unlocker():
    config = ScenarioConfig(locked_fraction=0.5, unlockers=0)
    with pytest.raises(InvalidParameter):
        config.validate()
    ScenarioConfig(locked_fraction=0.5, unlockers=1).validate()


def test_empty_ranges_rejected():
    with pytest.raises(InvalidParameter):
        ScenarioConfig(per_destination_min=5, per_destination_max=4).validate()
    with pytest.raises(InvalidParameter):
        ScenarioConfig(payees_min=0).validate()
    with pytest.raises(InvalidParameter):
        ScenarioConfig(overstatement_min=0).validate()
    with pytest.raises(InvalidParameter):
        ScenarioConfig(accumulation_threshold=0).validate()


def test_negative_counts_rejected():
    for key in ("blocks", "buyers", "sellers", "delegates", "monitors", "unlockers"):
        config = ScenarioConfig(**{key: -1})
        with pytest.raises(InvalidParameter):
            config.validate()


@pytest.mark.parametrize(
    "key", ["collect_fee", "unlocker_fee", "buyer_deposit", "delegate_deposit", "monitor_deposit"]
)
def test_negative_amounts_rejected(key):
    with pytest.raises(InvalidParameter, match=f"{key} must be >= 0"):
        ScenarioConfig(**{key: -1}).validate()


def test_seed_range_enforced():
    ScenarioConfig(seed=0).validate()
    ScenarioConfig(seed=2**64 - 1).validate()
    with pytest.raises(InvalidParameter):
        ScenarioConfig(seed=-1).validate()
    with pytest.raises(InvalidParameter):
        ScenarioConfig(seed=2**64).validate()


@pytest.mark.parametrize("key", ["gas_price_gwei", "eth_usd"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_prices_must_be_positive_and_finite(key, value):
    with pytest.raises(InvalidParameter, match=f"{key} must be positive and finite"):
        parse_scenario_config(f"[costs]\n{key} = {value}\n")


def test_protocol_params_validated_at_parse_time():
    with pytest.raises(InvalidParameter):
        parse_scenario_config("[params]\nunlock_period = 0\n")


def test_payees_max_past_the_batch_limit_rejected():
    # The engine would refuse the first batch larger than the limit mid-run.
    with pytest.raises(InvalidParameter, match="payees_max 20 exceeds max_payments_per_batch 10"):
        parse_scenario_config("[amounts]\npayees_max = 20\n[params]\nmax_payments_per_batch = 10\n")
    config = parse_scenario_config("[amounts]\npayees_max = 10\n[params]\nmax_payments_per_batch = 10\n")
    assert config.payees_max == config.params.max_payments_per_batch == 10


def test_more_actors_than_the_account_table_rejected():
    # Every actor opens one account during setup; the default cast is
    # 4 buyers + 12 sellers + 1 delegate + 1 monitor + 0 unlockers = 18.
    with pytest.raises(InvalidParameter, match="= 18 exceeds max_account_count 17"):
        parse_scenario_config("[params]\nmax_account_count = 17\n")
    with pytest.raises(InvalidParameter, match="= 7 exceeds max_account_count 5"):
        parse_scenario_config(
            "[roles]\nbuyers = 1\nsellers = 2\ndelegates = 1\nmonitors = 1\nunlockers = 2\n"
            "[scenario]\nlocked_fraction = 0.5\n[params]\nmax_account_count = 5\n"
        )


def test_configs_at_both_limits_run():
    config = parse_scenario_config(
        "[scenario]\nblocks = 4\n[amounts]\npayees_min = 3\npayees_max = 3\n"
        "[params]\nmax_account_count = 18\nmax_payments_per_batch = 3\n"
    )
    report = run_scenario(config)
    assert len(report.balances) == 18
    assert report.payments["registered"] > 0


def test_sections_hold_the_same_keys_in_the_same_order():
    # Every documented key, under its section, in order: a field that moves
    # section or position moves a key of the config format.
    assert list(_SECTIONS.items()) == [
        ("scenario", (
            "seed", "blocks", "payment_probability", "locked_fraction", "instant_fraction",
            "external_destination_fraction", "cheating_delegate_fraction",
            "lazy_monitor_fraction", "withholding_unlocker_fraction",
        )),
        ("roles", ("buyers", "sellers", "delegates", "monitors", "unlockers", "bulk_register_sellers")),
        ("amounts", (
            "per_destination_min", "per_destination_max", "payees_min", "payees_max",
            "accumulation_threshold", "collect_fee", "unlocker_fee", "overstatement_min",
            "overstatement_max", "buyer_deposit", "delegate_deposit", "monitor_deposit",
        )),
        ("params", (
            "max_account_count", "unlock_period", "challenge_period", "response_period",
            "collect_stake", "challenge_stake", "max_payments_per_batch", "instant_slot_threshold",
        )),
        ("costs", ("gas_price_gwei", "eth_usd")),
    ]


def test_deposits_up_to_u64_accepted():
    # 4 buyers, 1 delegate and 1 monitor by default
    deposits = 4 * 200_000 + 50_000 + 5_000
    config = ScenarioConfig(overstatement_min=1, overstatement_max=U64_MAX - deposits)
    config.validate()
    config.overstatement_max += 1
    with pytest.raises(InvalidParameter, match="exceeds"):
        config.validate()


def test_drain_window_up_to_the_cap_accepted():
    params = Params(challenge_period=40_000, response_period=30_000)
    params.unlock_period = DRAIN_HARD_CAP - 4 - 70_000
    config = ScenarioConfig(params=params)
    assert config.drain_window() == DRAIN_HARD_CAP
    config.validate()
    params.unlock_period += 1
    with pytest.raises(InvalidParameter, match=f"= {DRAIN_HARD_CAP + 1} exceeds the drain cap"):
        config.validate()


@pytest.mark.parametrize("value", [1.0, True, "1"])
def test_integer_settings_refuse_other_types(value):
    with pytest.raises(InvalidParameter, match="blocks must be an integer"):
        ScenarioConfig(blocks=value).validate()
    with pytest.raises(InvalidParameter, match="unlock_period must be an integer"):
        Params(unlock_period=value).validate()
