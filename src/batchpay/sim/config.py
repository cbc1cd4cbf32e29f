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
from ..state import MAX_ACCOUNT_ID_SPACE, Params, check_settings, setting
from ..wire import U64_MAX

# Drain blocks in which the log grew that a run allows before it gives up.
DRAIN_HARD_CAP = 100_000


@dataclass
class ScenarioConfig:
    seed: int = setting(1, 0, U64_MAX, "scenario")
    blocks: int = setting(60, 0, U64_MAX, "scenario")
    payment_probability: float = setting(0.8, 0.0, 1.0, "scenario")  # that a buyer pays, per block
    locked_fraction: float = setting(0.0, 0.0, 1.0, "scenario")  # of batches, registered locked
    instant_fraction: float = setting(0.0, 0.0, 1.0, "scenario")  # of collects, on instant slots
    external_destination_fraction: float = setting(0.0, 0.0, 1.0, "scenario")  # paid outside
    cheating_delegate_fraction: float = setting(0.0, 0.0, 1.0, "scenario")
    lazy_monitor_fraction: float = setting(0.0, 0.0, 1.0, "scenario")
    withholding_unlocker_fraction: float = setting(0.0, 0.0, 1.0, "scenario")

    # one account per actor, so no more than the account table holds
    buyers: int = setting(4, 0, MAX_ACCOUNT_ID_SPACE, "roles")
    sellers: int = setting(12, 0, MAX_ACCOUNT_ID_SPACE, "roles")
    delegates: int = setting(1, 0, MAX_ACCOUNT_ID_SPACE, "roles")
    monitors: int = setting(1, 0, MAX_ACCOUNT_ID_SPACE, "roles")
    unlockers: int = setting(0, 0, MAX_ACCOUNT_ID_SPACE, "roles")
    bulk_register_sellers: bool = setting(False, section="roles")

    per_destination_min: int = setting(1, 1, U64_MAX, "amounts")
    per_destination_max: int = setting(20, 1, U64_MAX, "amounts")
    payees_min: int = setting(1, 1, U64_MAX, "amounts")
    payees_max: int = setting(8, 1, U64_MAX, "amounts")
    accumulation_threshold: int = setting(3, 1, U64_MAX, "amounts")  # matured payments to collect
    collect_fee: int = setting(2, 0, U64_MAX, "amounts")
    unlocker_fee: int = setting(1, 0, U64_MAX, "amounts")
    overstatement_min: int = setting(1, 1, U64_MAX, "amounts")  # tokens a cheater adds to a claim
    overstatement_max: int = setting(25, 1, U64_MAX, "amounts")
    buyer_deposit: int = setting(200_000, 0, U64_MAX, "amounts")
    delegate_deposit: int = setting(50_000, 0, U64_MAX, "amounts")
    monitor_deposit: int = setting(5_000, 0, U64_MAX, "amounts")

    params: Params = field(default_factory=Params, metadata={"section": "params"})

    gas_price_gwei: float = setting(5.0, section="costs")  # for the report's USD column
    eth_usd: float = setting(225.0, section="costs")

    def drain_window(self) -> int:
        """Quiet blocks that end the drain: longer than any silent wait the
        protocol can demand, so a log that stops growing for this long means
        nothing pending is timed."""
        params = self.params
        return params.challenge_period + params.response_period + params.unlock_period + 4

    def validate(self) -> None:
        check_settings(self)
        for lo, hi in (
            ("per_destination_min", "per_destination_max"),
            ("payees_min", "payees_max"),
            ("overstatement_min", "overstatement_max"),
        ):
            if getattr(self, lo) > getattr(self, hi):
                raise InvalidParameter(f"{lo} > {hi}: empty range")
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
        # every balance, the pool and every claim hold part of the deposits,
        # plus at most one overstatement
        tokens = self.buyers * self.buyer_deposit + self.delegates * self.delegate_deposit
        tokens += self.monitors * self.monitor_deposit + self.overstatement_max
        if tokens > U64_MAX:
            raise InvalidParameter(
                "buyers * buyer_deposit + delegates * delegate_deposit + monitors * "
                f"monitor_deposit + overstatement_max = {tokens} exceeds {U64_MAX}"
            )
        # a drain ends on one whole quiet window; keep that wait within the cap
        if self.drain_window() > DRAIN_HARD_CAP:
            raise InvalidParameter(
                f"challenge_period + response_period + unlock_period + 4 = {self.drain_window()} "
                f"exceeds the drain cap of {DRAIN_HARD_CAP} blocks"
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


def _sections() -> dict[str, tuple[str, ...]]:
    """Section -> its keys in field order; ``[params]`` is every Params field."""
    sections: dict[str, tuple[str, ...]] = {}
    for f in fields(ScenarioConfig):
        keys = tuple(p.name for p in fields(Params)) if f.name == "params" else (f.name,)
        sections[f.metadata["section"]] = sections.get(f.metadata["section"], ()) + keys
    return sections


_SECTIONS = _sections()


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
