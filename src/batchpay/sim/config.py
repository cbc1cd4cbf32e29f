"""Scenario configuration: the dataclass and its INI-style file loader.

A scenario file has up to five sections, all optional, every key optional:

    [scenario]  seed, blocks, behavior fractions
    [roles]     actor counts per role
    [amounts]   token quantities, batch-size ranges, thresholds
    [params]    protocol constants (mirrors the Params dataclass)
    [costs]     gas and token prices for the USD column

Unknown sections or keys are rejected outright rather than ignored, since
a typo that silently falls back to a default is the worst failure mode a
config file can have.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from ..costmodel import check_price
from ..errors import InvalidParameter
from ..state import Params


# [scenario] keys that are probabilities or shares, each in [0, 1]
_FRACTIONS = (
    "payment_probability", "locked_fraction", "instant_fraction", "external_destination_fraction",
    "cheating_delegate_fraction", "lazy_monitor_fraction", "withholding_unlocker_fraction",
)


@dataclass
class ScenarioConfig:
    # [scenario]
    seed: int = 1
    blocks: int = 60
    payment_probability: float = 0.8       # chance a buyer registers a batch each block
    locked_fraction: float = 0.0           # fraction of batches registered locked
    instant_fraction: float = 0.0          # fraction of collects using instant slots
    external_destination_fraction: float = 0.0  # collects paid to an outside address
    cheating_delegate_fraction: float = 0.0
    lazy_monitor_fraction: float = 0.0
    withholding_unlocker_fraction: float = 0.0

    # [roles]
    buyers: int = 4
    sellers: int = 12
    delegates: int = 1
    monitors: int = 1
    unlockers: int = 0
    bulk_register_sellers: bool = False

    # [amounts]
    per_destination_min: int = 1
    per_destination_max: int = 20
    payees_min: int = 1
    payees_max: int = 8
    accumulation_threshold: int = 3        # matured payments before a seller collects
    collect_fee: int = 2
    unlocker_fee: int = 1
    overstatement_min: int = 1             # token units a cheater adds to a claim
    overstatement_max: int = 25
    buyer_deposit: int = 200_000
    delegate_deposit: int = 50_000
    monitor_deposit: int = 5_000

    # pricing knobs for the report's USD column ([costs] section)
    gas_price_gwei: float = 5.0
    eth_usd: float = 225.0

    params: Params = field(default_factory=Params)

    def validate(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise InvalidParameter("seed must fit in 64 bits")
        if self.blocks < 0:
            raise InvalidParameter("blocks must be >= 0")
        for name in _FRACTIONS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidParameter(f"{name} must be in [0, 1], got {value}")
        for name in ("buyers", "sellers", "delegates", "monitors", "unlockers"):
            if getattr(self, name) < 0:
                raise InvalidParameter(f"{name} must be >= 0")
        for lo, hi in (
            ("per_destination_min", "per_destination_max"),
            ("payees_min", "payees_max"),
            ("overstatement_min", "overstatement_max"),
        ):
            if getattr(self, lo) < 1:
                raise InvalidParameter(f"{lo} must be >= 1")
            if getattr(self, lo) > getattr(self, hi):
                raise InvalidParameter(f"{lo} > {hi}: empty range")
        if self.accumulation_threshold < 1:
            raise InvalidParameter("accumulation_threshold must be >= 1")
        for name in (
            "collect_fee",
            "unlocker_fee",
            "buyer_deposit",
            "delegate_deposit",
            "monitor_deposit",
        ):
            if getattr(self, name) < 0:
                raise InvalidParameter(f"{name} must be >= 0")
        check_price("gas_price_gwei", self.gas_price_gwei)
        check_price("eth_usd", self.eth_usd)
        if self.locked_fraction > 0 and self.unlockers == 0:
            raise InvalidParameter("locked payments configured but no unlockers")
        self.params.validate()
        # the engine would refuse these later, mid-run
        if self.payees_max > self.params.max_payments_per_batch:
            raise InvalidParameter(
                f"payees_max {self.payees_max} exceeds max_payments_per_batch "
                f"{self.params.max_payments_per_batch}"
            )
        actors = self.buyers + self.sellers + self.delegates + self.monitors + self.unlockers
        if actors > self.params.max_account_count:
            raise InvalidParameter(
                f"buyers + sellers + delegates + monitors + unlockers = {actors} "
                f"exceeds max_account_count {self.params.max_account_count}"
            )


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidParameter(f"{where}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw.strip(), 0)
    except ValueError:
        raise InvalidParameter(f"{where}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise InvalidParameter(f"{where}: expected a number, got {raw!r}") from None


_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float}
# section -> its keys. Each key names a field of exactly one of the config
# and its Params, and is parsed by the type of its default.
_SECTIONS = {
    "scenario": ("seed", "blocks", *_FRACTIONS),
    "roles": ("buyers", "sellers", "delegates", "monitors", "unlockers", "bulk_register_sellers"),
    "amounts": (
        "per_destination_min", "per_destination_max", "payees_min", "payees_max",
        "accumulation_threshold", "collect_fee", "unlocker_fee", "overstatement_min",
        "overstatement_max", "buyer_deposit", "delegate_deposit", "monitor_deposit",
    ),
    "params": tuple(f.name for f in fields(Params)),
    "costs": ("gas_price_gwei", "eth_usd"),
}


def _apply_section(config: ScenarioConfig, section: str, items) -> None:
    keys = _SECTIONS.get(section)
    if keys is None:
        raise InvalidParameter(f"unknown section [{section}]")
    for key, raw in items:
        where = f"[{section}] {key}"
        if key not in keys:
            raise InvalidParameter(f"{where}: unknown key")
        target = config.params if section == "params" else config
        setattr(target, key, _PARSERS[type(getattr(target, key))](raw, where))


def parse_scenario_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InvalidParameter(f"config does not parse: {exc}") from exc
    if parser.defaults():
        raise InvalidParameter("keys outside a section are not allowed")
    config = ScenarioConfig()
    for section in parser.sections():
        _apply_section(config, section, parser.items(section))
    config.validate()
    return config


def load_scenario_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidParameter(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not UTF-8 text: {exc}") from None
    return parse_scenario_config(text)
