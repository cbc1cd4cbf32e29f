"""Scenario report emission: json and line-delimited formats, digests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from batchpay.auth import collect_auth_message, sign_collect
from batchpay.chainlog import scaling_payload
from batchpay.codec import encode_pay_data
from batchpay.collect import (
    challenge,
    collect,
    prove_payment_inclusion,
    respond_with_payment_list,
    select_payment,
)
from batchpay.costmodel import tx_cost
from batchpay.errors import InvalidParameter
from batchpay.payments import register_payment
from batchpay.registration import register
from batchpay.sim import (
    ScenarioConfig,
    emit_report,
    parse_report,
    report_digest,
    run_scenario,
)
from batchpay.sim.config import load_scenario_config
from batchpay.sim.scenario import SimRun

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ADVERSARIAL_CFG = CONFIGS / "adversarial.cfg"


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


def _prove_one_honest_collect(run):
    """Log a challenged, proven collect on a finished run's state.

    The simulator never logs InclusionProved: its monitors challenge only
    overstated claims, which cannot be proven. A fresh seller is paid once,
    so the honest list is that one payment.
    """
    state = run.state
    buyer, delegate = run.buyers[0].account_id, run.delegate_actors[0].account_id
    seller = register(state, "late-seller")
    pay_data = encode_pay_data([seller])
    end = register_payment(state, buyer, 5, pay_data, run.address_of[buyer])
    state.advance_block(state.params.unlock_period)
    slot_id = min(i for i in range(100) if (delegate, i) not in state.slots)
    message = collect_auth_message(state.instance_id, delegate, slot_id, seller, end, 5, 0, None)
    collect(state, delegate, slot_id, seller, end, 5, 0, sign_collect("late-seller", message))
    challenge(state, delegate, slot_id, run.monitor_actors[-1].account_id)
    respond_with_payment_list(state, delegate, slot_id, [(end, 5)])
    select_payment(state, delegate, slot_id, end, 5)
    prove_payment_inclusion(state, delegate, slot_id, pay_data)


@pytest.mark.parametrize("name", ["honest", "adversarial"])
def test_report_matches_a_deep_copy_and_a_per_record_gas_sum(name):
    # The emitters dump the report's own fields; a deep asdict() copy is the
    # reference. The adversarial run logs every record kind whose payload is
    # priced, once a proven game is added to it.
    config = load_scenario_config(str(CONFIGS / f"{name}.cfg"))
    run = SimRun(config)
    run.run()
    if name == "adversarial":
        _prove_one_honest_collect(run)
    report = run.build_report()
    report.generated_at = "2020-01-01T00:00:00Z"
    reference = asdict(report)
    dumps = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))  # noqa: E731
    assert emit_report(report, "json") == (dumps(reference) + "\n").encode("ascii")
    del reference["generated_at"]
    assert report_digest(report) == hashlib.sha256(dumps(reference).encode("ascii")).hexdigest()
    assert report.generated_at == "2020-01-01T00:00:00Z"

    if name == "adversarial":
        priced = {"Claimed", "PaymentRegistered", "Unlocked", "ListResponded", "InclusionProved"}
        assert priced <= set(report.event_counts)
    rows: dict[str, dict] = {}
    for rec in run.log.records:
        if rec.OP is not None:
            row = rows.setdefault(rec.OP, {"count": 0, "gas": 0})
            row["count"] += 1
            row["gas"] += tx_cost(rec.OP, scaling_payload(rec))
    assert report.gas_by_op == rows
    assert report.cost["total_gas"] == sum(row["gas"] for row in rows.values())
