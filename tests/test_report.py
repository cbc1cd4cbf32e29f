"""Scenario report emission: json and line-delimited formats, digests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from batchpay.errors import InvalidParameter
from batchpay.sim import (
    ScenarioConfig,
    emit_report,
    parse_report,
    report_digest,
    run_scenario,
)
from batchpay.sim.config import load_scenario_config

ADVERSARIAL_CFG = Path(__file__).resolve().parent.parent / "configs" / "adversarial.cfg"


def tiny_report():
    return run_scenario(ScenarioConfig(seed=5, blocks=12, sellers=3, buyers=2))


def test_json_round_trip():
    report = tiny_report()
    blob = emit_report(report, "json")
    again = parse_report(blob)
    assert again == report
    assert json.loads(blob.decode("utf-8"))["seed"] == 5


def test_lines_round_trip():
    report = tiny_report()
    blob = emit_report(report, "lines")
    for line in blob.decode("utf-8").strip().splitlines():
        record = json.loads(line)
        assert "kind" in record
    assert parse_report(blob) == report


def test_lines_kinds_cover_the_report():
    report = tiny_report()
    kinds = {
        json.loads(line)["kind"]
        for line in emit_report(report, "lines").decode("utf-8").strip().splitlines()
    }
    assert {"meta", "games", "payments", "cheats", "cost", "balance"} <= kinds


def test_lines_round_trip_every_row_kind():
    # adversarial.cfg pays out to outside addresses and notes known gaps;
    # a clean run has no oracle diff, so one is added by hand.
    report = run_scenario(load_scenario_config(str(ADVERSARIAL_CFG)))
    report.oracle_diffs = [{"account": 3, "ledger": 10, "oracle": 12}]
    blob = emit_report(report, "lines")
    kinds = {json.loads(line)["kind"] for line in blob.decode("utf-8").strip().splitlines()}
    assert kinds == {
        "meta", "games", "payments", "cheats", "cost", "balance", "external", "event",
        "gas", "diff", "monitor", "gap",
    }
    assert parse_report(blob) == report


def test_unknown_format_rejected():
    with pytest.raises(InvalidParameter):
        emit_report(tiny_report(), "yaml")


def test_parse_rejects_garbage():
    with pytest.raises(InvalidParameter):
        parse_report(b"not a report")
    with pytest.raises(InvalidParameter):
        parse_report(b"")
    with pytest.raises(InvalidParameter, match="unknown report row kind 'weather'"):
        parse_report(b'{"kind":"weather"}\n')


def test_digest_stable_across_formats_and_timestamps():
    report = tiny_report()
    fingerprint = report_digest(report)
    report.generated_at = "2001-01-01T00:00:00Z"
    assert report_digest(report) == fingerprint
    # but any substantive field moves it
    report.understatements += 1
    assert report_digest(report) != fingerprint


def test_reports_from_same_seed_are_identical():
    a, b = tiny_report(), tiny_report()
    a.generated_at = b.generated_at = ""
    assert a == b
    assert report_digest(a) == report_digest(b)
