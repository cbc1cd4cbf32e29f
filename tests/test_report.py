"""Scenario report emission: json and line-delimited formats, digests."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
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
    for blob in (
        b"\xff",                                        # not ASCII
        b'{"kind":"meta"}\nnot json\n',                 # a later line is not JSON
        b'{"kind":"meta"}\n[1]\n',                      # a later line is not an object
        b'{"weather":"rain"}\n',                        # json: no such report field
        b'{"seed":1}\n{"seed":2}\n',                    # json: more than one object
        b'{"games":5}\n',                               # json: a field of the wrong shape
        b'{"known_gaps":"rain"}\n',                     # json: a string, not a list of them
        b'{"event_counts":{"Deposited":null}}\n',       # json: its event row lacks a count
        b'{"kind":"event"}\n',                          # no name and no count
        b'{"kind":"monitor","account":3,"net":1}\n',    # a mapping key that is not a string
        b'{"kind":"gap","note":"x","weather":"rain"}\n',  # a key the row kind does not have
        b'{"kind":"meta","weather":"rain"}\n',          # meta carries no such field
        b'{"kind":"meta","games":{}}\n',                # a field the table lays out
    ):
        with pytest.raises(InvalidParameter):
            parse_report(blob)


# sha256 of emit_report with generated_at "2020-01-01T00:00:00Z": config -> seed, json, lines
PINNED_BYTES = {
    "honest": (
        42,
        "db73fdcc742b97e0e624939b4e2dacb21dd970361d49dd9a2433c60832434614",
        "4059054130dbef4a17bb056c047d418c6c94fd3e95db5d3c85979b3868ccd820",
    ),
    "adversarial": (
        1009,
        "756bb89c4ae77e6ed2be84b56c204e14e0e9a4a1835dd5cb6589d27469b2ddae",
        "74b1c9ad62b6b69bc58a7be5f8a9e61392ed69c8ce3e236a02b435546fdeb68e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_emitted_report_bytes_are_pinned(name):
    seed, json_sha, lines_sha = PINNED_BYTES[name]
    config = load_scenario_config(str(CONFIGS / f"{name}.cfg"))
    assert config.seed == seed
    report = run_scenario(config)
    report.generated_at = "2020-01-01T00:00:00Z"
    assert hashlib.sha256(emit_report(report, "json")).hexdigest() == json_sha
    assert hashlib.sha256(emit_report(report, "lines")).hexdigest() == lines_sha


@pytest.mark.parametrize("hash_seed", ["0", "7"])
def test_lines_bytes_do_not_depend_on_the_hash_seed(hash_seed):
    code = (
        "import hashlib, sys\n"
        "from batchpay.sim import emit_report, run_scenario\n"
        "from batchpay.sim.config import load_scenario_config\n"
        "for path in sys.argv[1:]:\n"
        "    report = run_scenario(load_scenario_config(path))\n"
        "    report.generated_at = '2020-01-01T00:00:00Z'\n"
        "    print(hashlib.sha256(emit_report(report, 'lines')).hexdigest())\n"
    )
    names = sorted(PINNED_BYTES)
    proc = subprocess.run(
        [sys.executable, "-c", code, *(str(CONFIGS / f"{name}.cfg") for name in names)],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == [PINNED_BYTES[name][2] for name in names]


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
    end = register_payment(state, buyer, 5, pay_data, run.state.addresses[buyer])
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
