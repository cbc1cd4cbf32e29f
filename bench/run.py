#!/usr/bin/env python3
"""batchpay benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload honest_wide --seed 1 --seconds 40 --trace 0

Run from the repository root. The program is imported from ``src/`` and
measured from outside through its public functions.

With ``--trace 0`` the benchmark repeats the workload until ``--seconds``
have passed and reports the end-to-end metrics named in
``BENCHMARK.json``. Times are given in the terms of an idle reference
core: every piece of work runs between two probes of host speed and is
scaled by how much slower than on that core the probe ran (see
``Watch``). With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics, including the tracing
overhead; the spans of the last traced repetition go to
``bench/out/spans-<workload>-seed<seed>.json``.

Every repetition is checked: the dumped log must replay to the run's
state digest, the digests must agree across repetitions, and at the
workload's default seed they must equal the values in ``pinned.json``.
``configs/honest.cfg`` at seed 42 must also still give the golden report
digest in ``tests/golden/``. Failures are counted in ``failed`` and make
``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_rev() -> str:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_rev": _git_rev(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


class Checks:
    """Correctness bookkeeping: every repetition is one attempt."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned
        self.digests: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def repetition(self, workload, result) -> None:
        self.attempted += 1
        try:
            problems = workload.check(result)
            digests = workload.digests(result)
        except Exception as exc:          # a failed check is a failed attempt
            self.fail(f"check raised {exc!r}")
            return
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append(f"digests differ between repetitions: {digests} != {self.digests}")
        if self.pinned is not None:
            for key, value in digests.items():
                if self.pinned.get(key) != value:
                    problems.append(f"{key} {value} != pinned {self.pinned.get(key)}")
        if problems:
            self.fail("; ".join(problems))

    def golden_smoke(self) -> None:
        """configs/honest.cfg at seed 42 must reproduce the golden digests."""
        from batchpay.sim.config import load_scenario_config
        from batchpay.sim.report import report_digest
        from batchpay.sim.scenario import run_scenario

        self.attempted += 1
        golden = dict(
            line.split() for line in
            (ROOT / "tests/golden/honest_report_digest.txt").read_text().splitlines()
            if line.strip()
        )
        config = load_scenario_config(str(ROOT / "configs/honest.cfg"))
        config.seed = 42
        report = run_scenario(config)
        got = {"report_digest": report_digest(report), "state_digest": report.state_digest}
        if any(golden.get(k) != v for k, v in got.items()):
            self.fail(f"honest.cfg seed 42 gave {got}, golden file says {golden}")


def _attempt(checks: Checks, what: str, fn):
    """Run one repetition step; an exception counts as a failed attempt."""
    try:
        return fn()
    except Exception as exc:
        checks.attempted += 1
        checks.fail(f"{what} raised {exc!r}")
        return None


@contextmanager
def quiet_heap():
    """Collect garbage, then keep the cyclic collector off for the block.

    As ``timeit`` does: whether a full collection lands inside one
    repetition or the next swung repetitions of the same work by 30%.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def probe() -> int:
    """Host time, in ns, of a fixed piece of interpreter work.

    Dict updates and a sort, about 0.3 ms, independent of batchpay. On a
    shared host other tenants slow the same work by up to 2x for seconds
    to minutes at a time; a probe run just before and just after a piece
    of work tells how fast the host was meanwhile.
    """
    t0 = perf_counter_ns()
    sums: dict[int, int] = {}
    for i in range(3000):
        key = i % 97
        sums[key] = sums.get(key, 0) + i
    sorted((total, key) for key, total in sums.items())
    return perf_counter_ns() - t0


# The probe's fastest time on an idle core of the machine the baseline was
# measured on (2 vCPU Xeon at 2.0 GHz, CPython 3.11.7); see Watch.
REF_PROBE_NS = 276_000


@dataclass(slots=True)
class Sample:
    ns: int        # host time of the piece of work
    probe_ns: int  # mean of the probes just before and just after it
    total_ns: int  # host time of the piece and both probes


class Watch:
    """Times pieces of work, each between two probes of host speed.

    The probe does the same work every time, so ``probe_ns / REF_PROBE_NS``
    is how much slower than an idle reference core the host ran around a
    piece; the piece's time in reference terms is ``ns * REF_PROBE_NS /
    probe_ns``. A fixed reference, rather than the fastest probe of the
    run, keeps runs comparable when a whole run finds no idle moment.
    """

    def __init__(self):
        for _ in range(20):
            probe()            # warm the interpreter up on the probe before it counts
        self.probes: list[int] = []
        self.phase_sample: Sample | None = None
        self.blocks: list[Sample] = []

    def time(self, fn):
        start = perf_counter_ns()
        before = probe()
        t0 = perf_counter_ns()
        result = fn()
        t1 = perf_counter_ns()
        after = probe()
        self.probes += (before, after)
        return result, Sample(t1 - t0, (before + after) // 2, perf_counter_ns() - start)

    def repetition(self) -> None:
        self.phase_sample = None
        self.blocks = []

    # the two hooks a workload's measure() calls
    def phase(self, fn):
        result, self.phase_sample = self.time(fn)
        return result

    def block(self, fn):
        result, sample = self.time(fn)
        self.blocks.append(sample)
        return result

    @staticmethod
    def corrected(sample: Sample, ns: int | None = None) -> float:
        """``ns`` (default: the sample's own) in reference terms, in ns."""
        return (sample.ns if ns is None else ns) * REF_PROBE_NS / sample.probe_ns


def _quietly(checks: Checks, what: str, fn):
    """Run ``fn`` with the collector paused; None if it raised."""
    with quiet_heap():
        return _attempt(checks, what, fn)


def run_untraced(workload, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Repeat set-up + measured phase until ``seconds`` have passed.

    Every piece of work (a set-up, a block, the measured phase) runs
    between two probes of host speed, and its time is taken in reference
    terms (see ``Watch``). Every repetition replays the same seeded work
    block for block, so block i's time is its median over repetitions;
    the measured phase and set-up are medians over repetitions too. In a sim phase, what runs outside the blocks (the
    run loop, the report and the dump) is scaled by the probes around the
    whole phase. The raw medians are kept in the result file.
    """
    watch = Watch()
    setups: list[Sample] = []
    reps: list[tuple[Sample, list[Sample]]] = []
    records = 0
    deadline = perf_counter() + seconds
    while not reps or perf_counter() < deadline:
        got = _quietly(checks, "setup", lambda: watch.time(lambda: workload.setup(seed)))
        if got is None:
            break
        inputs, setup = got
        watch.repetition()
        result = _quietly(checks, "measured phase", lambda: workload.measure(inputs, watch))
        if result is None:
            break
        if reps and len(watch.blocks) != len(reps[0][1]):
            checks.fail(f"repetition ran {len(watch.blocks)} blocks, the first ran {len(reps[0][1])}")
            break
        setups.append(setup)
        reps.append((watch.phase_sample, watch.blocks))
        records = result.records
        checks.repetition(workload, result)
    if not reps:
        raise RuntimeError("no repetition completed: " + "; ".join(checks.problems))

    phases: list[float] = []
    raw_phases: list[int] = []
    for phase, blocks in reps:
        if workload.blocks_in_phase:
            # blocks and their probes run inside the phase; the rest is scaled by the outer probes
            outside = phase.ns - sum(block.total_ns for block in blocks)
            raw_phases.append(outside + sum(block.ns for block in blocks))
            phases.append(sum(map(watch.corrected, blocks)) + watch.corrected(phase, outside))
        else:
            raw_phases.append(phase.ns)
            phases.append(watch.corrected(phase))
    block_ns = [statistics.median(map(watch.corrected, column)) for column in zip(*(b for _, b in reps))]
    metrics = {
        "records_per_s": records / (statistics.median(phases) / 1e9),
        "block_ms_p50": _percentile(block_ns, 0.50) / 1e6,
        "block_ms_p95": _percentile(block_ns, 0.95) / 1e6,
        "setup_s": statistics.median(map(watch.corrected, setups)) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "repetitions": len(reps),
        "blocks_per_repetition": len(block_ns),
        "records": records,
        "fastest_probe_ns": min(watch.probes),
        "median_host_slowdown": statistics.median(watch.probes) / REF_PROBE_NS,
        "raw_median_records_per_s": statistics.median(records / (ns / 1e9) for ns in raw_phases),
        "raw_median_setup_s": statistics.median(s.ns for s in setups) / 1e9,
        "records_per_s": [records / (ns / 1e9) for ns in phases],
        "raw_records_per_s": [records / (ns / 1e9) for ns in raw_phases],
        "setup_s": [watch.corrected(s) / 1e9 for s in setups],
    }
    return metrics, samples


def run_traced(workload, seed: int, seconds: float, checks: Checks, spans_path: Path) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    layers: list[dict] = []
    unattributed: list[float] = []
    deadline = perf_counter() + seconds
    while not traced_ns or perf_counter() < deadline:
        inputs = workload.setup(seed)
        with quiet_heap():
            result = workload.measure(inputs)
        untraced_ns.append(result.measure_ns)
        checks.repetition(workload, result)

        tracer = Tracer(f"{workload.name}-seed{seed}-rep{len(traced_ns)}")
        with tracer.installed(), quiet_heap():
            with tracer.region("setup"):
                traced_inputs = workload.setup(seed)
            with tracer.region("measure"):
                result = workload.measure(traced_inputs)
        checks.repetition(workload, result)
        traced_ns.append(result.measure_ns)
        opens = sum(1 for rec in result.log.records if type(rec).__name__ == "CollectOpened")
        layers.append(layer_metrics(tracer, opens))
        totals, roots = tracer.totals()
        unattributed.append(totals["measure"][1] / roots["measure"])

    # median_low keeps counts whole: it picks a repetition's value, never a mean of two.
    metrics = {name: statistics.median_low(rep[name] for rep in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_ns) / statistics.median(untraced_ns)
    metrics["trace.unattributed_share"] = statistics.median(unattributed)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.dump_spans(), separators=(",", ":")))
    samples = {
        "repetitions": len(traced_ns),
        "untraced_measure_s": [ns / 1e9 for ns in untraced_ns],
        "traced_measure_s": [ns / 1e9 for ns in traced_ns],
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the pinned seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "batchpay").is_dir():
        print(f"error: no batchpay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    pinned_all = json.loads((HERE / "pinned.json").read_text())
    pinned = pinned_all[args.workload]
    seed = pinned["seed"] if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]()

    env = environment()
    checks = Checks(pinned["digests"] if seed == pinned["seed"] else None)
    out_dir = HERE / "out"
    if args.trace:
        spans_path = out_dir / f"spans-{args.workload}-seed{seed}.json"
        metrics, samples = run_traced(workload, seed, args.seconds, checks, spans_path)
        wanted = spec["per_layer"]
    else:
        metrics, samples = run_untraced(workload, seed, args.seconds, checks)
        wanted = spec["end_to_end"]
    checks.golden_smoke()
    env["loadavg_1m_end"] = os.getloadavg()[0]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print("env " + json.dumps(env, sort_keys=True))
    scalars = {k: v for k, v in samples.items() if not isinstance(v, list)}
    print(f"workload {args.workload} seed {seed} trace {args.trace} samples {json.dumps(scalars)}")
    for name, entry in reported.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {checks.failed / max(checks.attempted, 1):.6g} ({checks.failed} failed of {checks.attempted} attempted)")
    print("digests " + json.dumps(checks.digests, sort_keys=True))
    for problem in checks.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": reported,
    }
    detail = dict(summary, workload=args.workload, seed=seed, trace=args.trace, env=env,
                  samples=samples, digests=checks.digests, problems=checks.problems,
                  all_metrics=metrics)
    (out_dir / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
