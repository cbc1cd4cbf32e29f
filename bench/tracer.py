"""Span tracer for the benchmark's traced run.

The tracer wraps public batchpay functions and methods from outside the
package; the program itself carries no instrumentation. Layers are named
after their modules (``oracle.entitlement`` is ``LogView.entitlement`` in
``batchpay.sim.oracle``).

Three kinds of wrapper:

* a *span* records name, start, end and parent for every call, and counts
  calls that raise a ``ProtocolError`` as rejected;
* a *leaf* is a hot query (millions of calls in one run); it keeps only a
  call count and total ns under the span that is active when it runs. A
  leaf must not call another wrapped function, or its time would count
  twice;
* a *counter* only counts calls.

A span's self time is its duration minus its child spans and its leaves.
A wrapped name is replaced in every ``batchpay`` module namespace that
holds it (``from .merkle import merkle_prove`` makes a second binding),
and every replacement is undone when the ``installed()`` block ends.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from batchpay import auth, codec, collect, merkle, payments, registration, replay
from batchpay.chainlog import ChainLog
from batchpay.errors import ProtocolError
from batchpay.sim import oracle
from batchpay.sim.actors import Buyer, Delegate, Monitor, Unlocker
from batchpay.sim.oracle import LogView
from batchpay.sim.scenario import SimRun
from batchpay.state import ProtocolState

# Every record type replay can apply, in tag order.
RECORD_TYPES = (
    "Registered", "BulkRegistered", "Claimed", "Deposited", "Withdrawn",
    "Advanced", "PaymentRegistered", "Unlocked", "Refunded", "CollectOpened",
    "Challenged", "ListResponded", "PaymentSelected", "InclusionProved",
    "ChallengeSucceeded", "ChallengeFailed", "SlotFreed",
)

# Public engine operations: (module or class, attribute, layer name).
OPS = (
    (registration, "register", "registration.register"),
    (registration, "bulk_register", "registration.bulk_register"),
    (registration, "claim_bulk_registration_id", "registration.claim"),
    (ProtocolState, "deposit", "state.deposit"),
    (ProtocolState, "withdraw", "state.withdraw"),
    (ProtocolState, "advance_block", "state.advance_block"),
    (payments, "register_payment", "payments.register_payment"),
    (payments, "unlock", "payments.unlock"),
    (payments, "refund_locked_payment", "payments.refund"),
    (collect, "collect", "collect.collect"),
    (collect, "challenge", "collect.challenge"),
    (collect, "respond_with_payment_list", "collect.respond"),
    (collect, "select_payment", "collect.select"),
    (collect, "prove_payment_inclusion", "collect.prove"),
    (collect, "challenge_success", "collect.challenge_success"),
    (collect, "challenge_failed", "collect.challenge_failed"),
    (collect, "free_slot", "collect.free_slot"),
)

# Other spans: (class, method, layer name).
SPANS = (
    (SimRun, "run_block", "scenario.run_block"),
    (Buyer, "step", "actors.buyer"),
    (Unlocker, "step", "actors.unlocker"),
    (Delegate, "step", "actors.delegate"),
    (Monitor, "step", "actors.monitor"),
    (ProtocolState, "check_invariants", "state.check_invariants"),
    (ProtocolState, "digest", "state.digest"),
    (ChainLog, "dump", "chainlog.dump"),
    (ChainLog, "load", "chainlog.load"),
    (LogView, "feed", "oracle.feed"),
)

# Leaves: (module or class, attribute, layer name, work(args, result) or None).
LEAVES = (
    (LogView, "entitlement", "oracle.entitlement", lambda a, r: a[3] - a[2]),
    (LogView, "entry_due", "oracle.entry_due", None),
    (codec, "decode_pay_data", "codec.decode", lambda a, r: len(r)),
    (codec, "encode_pay_data", "codec.encode", lambda a, r: len(a[0])),
    (merkle, "merkle_prove", "merkle.prove", lambda a, r: len(a[0])),
    (merkle, "merkle_verify", "merkle.verify", None),
    (auth, "verify_collect", "auth.verify", None),
)


class Tracer:
    """Spans and leaf aggregates of one traced repetition, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, start_ns, end_ns, parent, leaves]
        self.stack: list[int] = []
        self.rejected: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def region(self, name: str):
        """A root span around one phase of the repetition (setup, measure)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def span(self, name, fn, work=None, name_of=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            except ProtocolError:
                self.rejected[rec[0]] += 1
                raise
            finally:
                self._close(rec)
            if work is not None:
                self.work[name] += work(args, result)
            return result
        return wrapper

    def leaf(self, name, fn, work=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                rec = spans[stack[-1]]
                leaves = rec[4]
                if leaves is None:
                    leaves = rec[4] = {}
                agg = leaves.get(name)
                if agg is None:
                    leaves[name] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
            if work is not None:
                self.work[name] += work(args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapped) -> None:
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("batchpay") and mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped(original))

    def _patch_method(self, cls, attr: str, wrapped) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(wrapped(original.__func__)))
        else:
            setattr(cls, attr, wrapped(original))

    def _patch(self, owner, attr: str, wrapped) -> None:
        if isinstance(owner, type):
            self._patch_method(owner, attr, wrapped)
        else:
            self._patch_function(owner, attr, wrapped)

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        fed = weakref.WeakKeyDictionary()

        def feed_work(args, result):
            view, log = args[0], args[1]
            before, fed[view] = fed.get(view, 0), len(log.records)
            return fed[view] - before

        work_of = {
            "oracle.feed": feed_work,
            "chainlog.dump": lambda a, r: len(r),
            "chainlog.load": lambda a, r: len(r.records),
        }
        try:
            for owner, attr, name in OPS + SPANS:
                self._patch(owner, attr, lambda fn, n=name: self.span(n, fn, work_of.get(n)))
            self._patch(replay, "apply_record", lambda fn: self.span(
                "replay.apply", fn, name_of=lambda a: f"replay.apply.{type(a[1]).__name__}"
            ))
            for owner, attr, name, work in LEAVES:
                self._patch(owner, attr, lambda fn, n=name, w=work: self.leaf(n, fn, w))
            self._patch(oracle, "monitor_verdict", lambda fn: self.counter("oracle.verdict", fn))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def totals(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Per layer ``[calls, self_ns]``, and the duration of each root span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        roots: dict[str, int] = {}
        for i, (name, start, end, parent, leaves) in enumerate(self.spans):
            leaf_ns = 0
            for leaf_name, (calls, ns) in (leaves or {}).items():
                agg = totals[leaf_name]
                agg[0] += calls
                agg[1] += ns
                leaf_ns += ns
            agg = totals[name]
            agg[0] += 1
            agg[1] += end - start - child_ns[i] - leaf_ns
            if parent < 0:
                roots[name] = end - start
        return totals, roots

    def dump_spans(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start_ns", "end_ns", "parent", "leaves"],
            "spans": self.spans,
        }


def layer_metrics(tracer: Tracer, opens: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by name.

    ``opens`` is the number of ``CollectOpened`` records in the
    repetition's log, the base of the monitor's waste ratio.
    """
    totals, _ = tracer.totals()

    def calls(name):
        return totals[name][0] if name in totals else 0

    def self_s(name):
        return totals[name][1] / 1e9 if name in totals else 0.0

    def per(name, unit_work):
        return totals[name][1] / unit_work if unit_work else 0.0

    work, counts = tracer.work, tracer.counts
    m = {
        "oracle.entitlement.calls": calls("oracle.entitlement"),
        "oracle.entitlement.self_s": self_s("oracle.entitlement"),
        "oracle.entitlement.payments_scanned": work["oracle.entitlement"],
        "oracle.entry_due.calls": calls("oracle.entry_due"),
        "oracle.entry_due.self_s": self_s("oracle.entry_due"),
        "oracle.feed.records": work["oracle.feed"],
        "oracle.feed.self_s": self_s("oracle.feed"),
        "oracle.verdict.calls": counts["oracle.verdict"],
        "actors.buyer.self_s": self_s("actors.buyer"),
        "actors.unlocker.self_s": self_s("actors.unlocker"),
        "actors.delegate.self_s": self_s("actors.delegate"),
        "actors.monitor.self_s": self_s("actors.monitor"),
        "actors.monitor.verdicts_per_open": counts["oracle.verdict"] / opens if opens else 0.0,
        "scenario.run_block.self_s": self_s("scenario.run_block"),
        "state.check_invariants.calls": calls("state.check_invariants"),
        "state.check_invariants.self_s": self_s("state.check_invariants"),
        "state.digest.self_s": self_s("state.digest"),
        "merkle.prove.calls": calls("merkle.prove"),
        "merkle.prove.self_s": self_s("merkle.prove"),
        "merkle.prove.leaves_per_proof": (
            work["merkle.prove"] / calls("merkle.prove") if calls("merkle.prove") else 0.0
        ),
        "merkle.verify.calls": calls("merkle.verify"),
        "merkle.verify.self_s": self_s("merkle.verify"),
        "codec.decode.ids": work["codec.decode"],
        "codec.decode.ns_per_id": per("codec.decode", work["codec.decode"]),
        "codec.encode.ids": work["codec.encode"],
        "codec.encode.ns_per_id": per("codec.encode", work["codec.encode"]),
        "chainlog.load.records": work["chainlog.load"],
        "chainlog.load.ns_per_record": per("chainlog.load", work["chainlog.load"]),
        "chainlog.dump.bytes": work["chainlog.dump"],
        "chainlog.dump.self_s": self_s("chainlog.dump"),
        "auth.verify.calls": calls("auth.verify"),
        "auth.verify.self_s": self_s("auth.verify"),
    }
    for _, _, name in OPS:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.rejected"] = tracer.rejected.get(name, 0)
    for rtype in RECORD_TYPES:
        m[f"replay.apply.{rtype}.calls"] = calls(f"replay.apply.{rtype}")
        m[f"replay.apply.{rtype}.self_s"] = self_s(f"replay.apply.{rtype}")
    return m
