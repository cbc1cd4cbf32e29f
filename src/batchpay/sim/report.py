"""Scenario report: the result structure, serialization, and digesting.

Two interchangeable formats carry the same values:

    "json"   one JSON summary document
    "lines"  line-delimited JSON records, one record per row kind

Both round-trip through parse_report. The emitted bytes carry a
``generated_at`` stamp; report_digest excludes it so repeated runs of the
same scenario produce the same digest, which is what the golden-file
check pins down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import InvalidParameter

REPORT_VERSION = 1


@dataclass
class ScenarioReport:
    version: int = REPORT_VERSION
    seed: int = 0
    blocks_requested: int = 0
    blocks_run: int = 0                      # including the drain phase
    generated_at: str = ""                   # excluded from the digest
    state_digest: str = ""
    conservation_ok: bool = True
    balances: list = field(default_factory=list)        # {account, role, balance}
    externals: list = field(default_factory=list)       # {address, balance}
    games: dict = field(default_factory=lambda: {
        "opened": 0, "challenged": 0, "won_by_monitor": 0, "won_by_delegate": 0,
    })
    payments: dict = field(default_factory=lambda: {
        "registered": 0, "locked": 0, "unlocked": 0, "refunded": 0,
    })
    cheats: dict = field(default_factory=lambda: {
        "attempted": 0, "caught": 0, "escaped": 0, "stranded": 0,
    })
    understatements: int = 0
    instant_advance_losses: int = 0
    event_counts: dict = field(default_factory=dict)
    gas_by_op: dict = field(default_factory=dict)       # op -> {count, gas}
    cost: dict = field(default_factory=dict)
    oracle_diffs: list = field(default_factory=list)    # {account, ledger, oracle}
    monitor_net: dict = field(default_factory=dict)     # account id (str) -> net stake
    known_gaps: list = field(default_factory=list)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Every field holds plain dicts, lists and scalars, so the report's own
# ``vars`` dumps to the bytes of a deep ``dataclasses.asdict`` copy.
def emit_report(report: ScenarioReport, format: str) -> bytes:
    if format == "json":
        return (_dumps(vars(report)) + "\n").encode("ascii")
    if format == "lines":
        return _emit_lines(report)
    raise InvalidParameter(f"unknown report format {format!r}")


def _emit_lines(report: ScenarioReport) -> bytes:
    rows = [
        {
            "kind": "meta",
            "version": report.version,
            "seed": report.seed,
            "blocks_requested": report.blocks_requested,
            "blocks_run": report.blocks_run,
            "generated_at": report.generated_at,
            "state_digest": report.state_digest,
            "conservation_ok": report.conservation_ok,
            "understatements": report.understatements,
            "instant_advance_losses": report.instant_advance_losses,
        },
        {"kind": "games", **report.games},
        {"kind": "payments", **report.payments},
        {"kind": "cheats", **report.cheats},
        {"kind": "cost", **report.cost},
    ]
    rows.extend({"kind": "balance", **row} for row in report.balances)
    rows.extend({"kind": "external", **row} for row in report.externals)
    rows.extend(
        {"kind": "event", "name": name, "count": count}
        for name, count in sorted(report.event_counts.items())
    )
    rows.extend(
        {"kind": "gas", "op": op, **stats}
        for op, stats in sorted(report.gas_by_op.items())
    )
    rows.extend({"kind": "diff", **row} for row in report.oracle_diffs)
    rows.extend(
        {"kind": "monitor", "account": account, "net": net}
        for account, net in sorted(report.monitor_net.items())
    )
    rows.extend({"kind": "gap", "note": note} for note in report.known_gaps)
    return ("\n".join(_dumps(r) for r in rows) + "\n").encode("ascii")


def parse_report(data: bytes) -> ScenarioReport:
    """Reassemble a report from either emitted format."""
    text = data.decode("ascii").strip()
    if not text:
        raise InvalidParameter("empty report")
    try:
        first = json.loads(text.splitlines()[0])
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"report does not parse: {exc}") from exc
    if "kind" not in first:
        return ScenarioReport(**json.loads(text))
    report = ScenarioReport()
    for line in text.splitlines():
        row = json.loads(line)
        kind = row.pop("kind")
        if kind == "meta":
            for key, value in row.items():
                setattr(report, key, value)
        elif kind == "games":
            report.games = row
        elif kind == "payments":
            report.payments = row
        elif kind == "cheats":
            report.cheats = row
        elif kind == "cost":
            report.cost = row
        elif kind == "balance":
            report.balances.append(row)
        elif kind == "external":
            report.externals.append(row)
        elif kind == "event":
            report.event_counts[row["name"]] = row["count"]
        elif kind == "gas":
            op = row.pop("op")
            report.gas_by_op[op] = row
        elif kind == "diff":
            report.oracle_diffs.append(row)
        elif kind == "monitor":
            report.monitor_net[row["account"]] = row["net"]
        elif kind == "gap":
            report.known_gaps.append(row["note"])
        else:
            raise InvalidParameter(f"unknown report row kind {kind!r}")
    return report


def report_digest(report: ScenarioReport) -> str:
    """Hex digest over everything except the timestamp."""
    mapping = dict(vars(report))
    mapping.pop("generated_at")
    return hashlib.sha256(_dumps(mapping).encode("ascii")).hexdigest()
