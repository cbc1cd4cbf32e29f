"""Scenario report: the result structure, how a run builds it from what a
replay of its log gives back (scenario_report), serialization, and digesting.

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
import re
from collections import Counter
from dataclasses import dataclass, field, fields

from ..chainlog import PaymentRegistered, scaling_payload
from ..costmodel import calldata_gas, tx_cost, usd_cost
from ..errors import InvalidParameter
from ..state import ProtocolState
from .config import ScenarioConfig
from .oracle import LogView

REPORT_VERSION = 1


@dataclass
class ScenarioReport:
    version: int = REPORT_VERSION
    seed: int = 0
    blocks_requested: int = 0
    blocks_run: int = 0                      # the final block, drain phase included
    generated_at: str = ""                   # excluded from the digest
    state_digest: str = ""
    conservation_ok: bool = True             # a failed check raises before a run ends
    balances: list = field(default_factory=list)        # {account, role, balance}
    externals: list = field(default_factory=list)       # {address, balance}
    games: dict = field(default_factory=dict)
    payments: dict = field(default_factory=dict)
    cheats: dict = field(default_factory=dict)
    understatements: int = 0                 # claims opened for less than owed
    instant_advance_losses: int = 0
    event_counts: dict = field(default_factory=dict)
    gas_by_op: dict = field(default_factory=dict)       # op -> {count, gas}
    cost: dict = field(default_factory=dict)
    oracle_diffs: list = field(default_factory=list)    # {account, ledger, oracle}
    monitor_net: dict = field(default_factory=dict)     # account id (str) -> net stake
    known_gaps: list = field(default_factory=list)


# A run opens its i-th account of a role at "{role}-{i}", so the log
# names every actor's role.
_ACTOR_ADDRESS = re.compile(r"(buyer|seller|delegate|monitor|unlocker)-(?:0|[1-9][0-9]*)")


def actor_address(role: str, i: int) -> str:
    return f"{role}-{i}"


def role_of(address: str | None) -> str:
    """The role an actor's address names; ``other`` for any other address."""
    match = _ACTOR_ADDRESS.fullmatch(address or "")
    return match[1] if match else "other"


def scenario_report(
    config: ScenarioConfig, state: ProtocolState, view: LogView, blocked: set[str]
) -> ScenarioReport:
    """The report of a run that ended in ``state``, with ``view`` fed its
    whole log. ``blocked`` holds the op kinds the escrow pool refused, which
    were never tried and so left no record."""
    counts, gas_by_op, locked = _tally(state.log.records)
    total_gas = sum(row["gas"] for row in gas_by_op.values())
    cheats = view.cheats
    balances = [
        {"account": account_id, "role": role_of(address), "balance": balance}
        for account_id, (address, balance) in enumerate(zip(state.addresses, state.balances))
    ]
    return ScenarioReport(
        seed=config.seed,
        blocks_requested=config.blocks,
        blocks_run=state.current_block,
        state_digest=state.digest().hex(),
        balances=balances,
        externals=[
            {"address": address, "balance": balance}
            for address, balance in sorted(state.adapter.external.items())
            if balance
        ],
        games={
            "opened": counts.get("CollectOpened", 0),
            "challenged": counts.get("Challenged", 0),
            "won_by_monitor": counts.get("ChallengeSucceeded", 0),
            "won_by_delegate": counts.get("ChallengeFailed", 0),
        },
        payments={
            "registered": counts.get("PaymentRegistered", 0),
            "locked": locked,
            "unlocked": counts.get("Unlocked", 0),
            "refunded": counts.get("Refunded", 0),
        },
        cheats={
            "attempted": cheats["attempted"],
            "caught": cheats["caught"],
            "escaped": cheats["escaped"],
            "stranded": cheats["attempted"] - cheats["caught"] - cheats["escaped"],
        },
        understatements=view.understated,
        instant_advance_losses=view.instant_losses,
        event_counts=counts,
        gas_by_op=gas_by_op,
        cost={
            "total_gas": total_gas,
            "gas_price_gwei": config.gas_price_gwei,
            "eth_usd": config.eth_usd,
            "total_usd": str(usd_cost(total_gas, config.gas_price_gwei, config.eth_usd)),
        },
        oracle_diffs=[
            {"account": account_id, "ledger": balance, "oracle": oracle}
            for account_id, balance in enumerate(state.balances)
            if balance != (oracle := view.oracle_balance(account_id))
        ],
        # A monitor's only flows are its challenge stakes and its winnings.
        monitor_net={
            str(row["account"]): row["balance"] - config.monitor_deposit
            for row in balances
            if row["role"] == "monitor"
        },
        known_gaps=sorted(_gaps(config, state, view, blocked)),
    )


def _tally(records) -> tuple[dict, dict, int]:
    """Record counts by type, ``{count, gas}`` by op, and locked payments;
    only records that declare ``SCALING`` are walked, to price their payload."""
    by_type = Counter(map(type, records))
    rows = {c.OP: {"count": n, "gas": n * tx_cost(c.OP)} for c, n in by_type.items() if c.OP}
    locked = 0
    for rec in records:
        if rec.SCALING is not None:
            rows[rec.OP]["gas"] += calldata_gas(scaling_payload(rec))
            if type(rec) is PaymentRegistered and rec.locking_key_hash is not None:
                locked += 1
    return {cls.__name__: n for cls, n in by_type.items()}, rows, locked


def _gaps(config: ScenarioConfig, state: ProtocolState, view: LogView, blocked: set[str]):
    """A note per op kind in ``blocked``; the rest follow from the final
    state, the log and the config."""
    for what in blocked:
        yield (
            f"escrow pool insolvency blocked a {what}: an inflated settlement "
            "drained funds that backed other claims"
        )
    if state.slots or state.open_locks:         # the run allows this only when insolvent
        yield (
            f"insolvency stranded {len(state.slots)} uncoverable collects "
            f"and {len(state.open_locks)} locked payments"
        )
    if leftover := sum(map(view.collectable, range(len(state.addresses)))):
        yield (
            f"{leftover} tokens of entitlement were never collected "
            "(no solvent delegate reached them)"
        )
    if config.bulk_register_sellers and config.sellers:
        yield (
            "bulk-registration roots are never challenged on-chain; "
            "a wrong root strands its reserved ids"
        )
    if escaped := view.cheats["escaped"]:
        yield f"{escaped} overstated collects settled unchallenged (no attentive monitor saw them)"
    if view.instant_losses:
        yield (
            "instant-collect advances stay with recipients when the delegate "
            "loses the game; the delegate absorbs the difference"
        )


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
