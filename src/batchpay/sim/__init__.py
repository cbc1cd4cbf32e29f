"""Deterministic multi-actor simulation harness."""

from .config import ScenarioConfig, load_scenario_config, parse_scenario_config
from .oracle import LogView, view_of
from .report import ScenarioReport, emit_report, parse_report, report_digest, scenario_report
from .scenario import SimRun, run_scenario, run_scenario_full

__all__ = [
    "LogView",
    "ScenarioConfig",
    "ScenarioReport",
    "SimRun",
    "emit_report",
    "load_scenario_config",
    "parse_report",
    "parse_scenario_config",
    "report_digest",
    "run_scenario",
    "run_scenario_full",
    "scenario_report",
    "view_of",
]
