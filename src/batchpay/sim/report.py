"""Scenario report: the result structure, serialization, and digesting.

Two interchangeable formats carry the same values:

    "json"   one JSON summary document
    "lines"  line-delimited JSON records, laid out by the _ROWS table

Both round-trip through parse_report, which refuses anything else. The
emitted bytes carry a ``generated_at`` stamp; report_digest excludes it so
repeated runs of the same scenario produce the same digest, which is what
the golden-file check pins down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

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
    games: dict = field(default_factory=dict)
    payments: dict = field(default_factory=dict)
    cheats: dict = field(default_factory=dict)
    understatements: int = 0
    instant_advance_losses: int = 0
    event_counts: dict = field(default_factory=dict)
    gas_by_op: dict = field(default_factory=dict)       # op -> {count, gas}
    cost: dict = field(default_factory=dict)
    oracle_diffs: list = field(default_factory=list)    # {account, ledger, oracle}
    monitor_net: dict = field(default_factory=dict)     # account id (str) -> net stake
    known_gaps: list = field(default_factory=list)


# The "lines" layout: after one "meta" row of every field not named here,
# each field below in turn, as rows of its kind. A dict with no key is one
# row; a list gives a row per item; a dict with a key gives a row per entry,
# in key order, its key under ``key``. An item goes under ``value`` when one
# is named, and is spread into the row when not.
_ROWS = (
    # field           kind        key        value
    ("games",         "games",    None,      None),
    ("payments",      "payments", None,      None),
    ("cheats",        "cheats",   None,      None),
    ("cost",          "cost",     None,      None),
    ("balances",      "balance",  None,      None),
    ("externals",     "external", None,      None),
    ("event_counts",  "event",    "name",    "count"),
    ("gas_by_op",     "gas",      "op",      None),
    ("oracle_diffs",  "diff",     None,      None),
    ("monitor_net",   "monitor",  "account", "net"),
    ("known_gaps",    "gap",      None,      "note"),
)
_KINDS = {row[1]: row for row in _ROWS}
_NAMES = tuple(f.name for f in fields(ScenarioReport))
_META = tuple(name for name in _NAMES if name not in {row[0] for row in _ROWS})


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Every field holds plain dicts, lists and scalars, so the report's own
# ``vars`` dumps to the bytes of a deep ``dataclasses.asdict`` copy.
def emit_report(report: ScenarioReport, format: str) -> bytes:
    if format == "json":
        return (_dumps(vars(report)) + "\n").encode("ascii")
    if format == "lines":
        return ("\n".join(map(_dumps, _rows(report))) + "\n").encode("ascii")
    raise InvalidParameter(f"unknown report format {format!r}")


def _rows(report: ScenarioReport):
    values = vars(report)
    yield {"kind": "meta", **{name: values[name] for name in _META}}
    for name, kind, key, value in _ROWS:
        held = values[name]
        if key:
            items = sorted(held.items())
        else:
            items = [(None, item) for item in held] if isinstance(held, list) else [(None, held)]
        for label, item in items:
            row = {"kind": kind, **({value: item} if value else item)}
            if key:
                row[key] = label
            yield row


def parse_report(data: bytes) -> ScenarioReport:
    """Reassemble a report from either emitted format; InvalidParameter if malformed."""
    try:
        docs = [json.loads(line) for line in data.decode("ascii").strip().splitlines()]
    except ValueError as exc:            # not ASCII, or a line that is not JSON
        raise InvalidParameter(f"report does not parse: {exc}") from exc
    if not docs or not all(isinstance(doc, dict) for doc in docs):
        raise InvalidParameter("a report is one or more lines, each a JSON object")
    if "kind" in docs[0]:
        return _from_rows(docs)
    if len(docs) > 1 or docs[0].keys() - _NAMES:
        raise InvalidParameter("a json report is one object of ScenarioReport fields")
    report = ScenarioReport(**docs[0])
    try:                                 # legal when its lines rows read back to it
        same = _from_rows(_rows(report)) == report
    except (TypeError, AttributeError):
        same = False
    if not same:
        raise InvalidParameter("a json report field does not fit its lines rows")
    return report


def _from_rows(rows) -> ScenarioReport:
    report = ScenarioReport()
    for row in rows:
        kind = row.pop("kind", None)
        if kind == "meta":
            if row.keys() - _META:
                raise InvalidParameter(f"a meta row cannot carry {sorted(row.keys() - _META)}")
            vars(report).update(row)
            continue
        if kind not in _KINDS:
            raise InvalidParameter(f"unknown report row kind {kind!r}")
        name, _, key, value = _KINDS[kind]
        label = row.pop(key, None)
        item = row.pop(value, None) if value else row
        if (key and not isinstance(label, str)) or (value and (item is None or row)):
            raise InvalidParameter(f"{kind} row does not match the lines layout")
        held = getattr(report, name)
        if key:
            held[label] = item
        elif isinstance(held, list):
            held.append(item)
        else:
            setattr(report, name, item)
    return report


def report_digest(report: ScenarioReport) -> str:
    """Hex digest over everything except the timestamp."""
    mapping = dict(vars(report))
    mapping.pop("generated_at")
    return hashlib.sha256(_dumps(mapping).encode("ascii")).hexdigest()
