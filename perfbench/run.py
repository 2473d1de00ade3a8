"""Benchmark of rcg: one workload, one process, one thread, a closed loop
with one caller.

    python3 perfbench/run.py --workload tower_decomp --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports rcg from ./src.  A run works
through whole rounds of a workload's operations until --seconds have
passed; round r uses inputs drawn from (workload, seed, r).  Only each
public call is timed; the independent check of its result is not.

Every time reported is CPU time of this one-thread process
(time.process_time, user plus system), not wall time: on a shared virtual
machine the hypervisor takes the CPU away for stretches of seconds, and
wall time then measures that, not rcg.  --seconds is wall time.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  With --trace 1 the run instead makes three passes over
round 0: untraced to warm up, untraced as the reference, and traced; it
prints the per-layer metrics of the traced pass, and trace.overhead_s is
the traced pass's call time minus the reference pass's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import oracles as O

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run, spread over it; their median is reported
SETUP_REPEATS = 21


def import_rcg():
    """A fresh import of rcg (and rcg.cli) from ./src."""
    for name in [m for m in sys.modules if m == "rcg" or m.startswith("rcg.")]:
        del sys.modules[name]
    rcg = importlib.import_module("rcg")
    importlib.import_module("rcg.cli")
    if SRC not in Path(rcg.__file__).resolve().parents:
        raise ImportError(f"rcg was imported from {rcg.__file__}, not from {SRC}")
    return rcg


def round_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


class Tally:
    """Attempted, failed and checked operations with their call times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.call_s = 0.0
        self.latencies = []
        self.failures = Counter()
        self.wrong = []

    def call(self, op):
        """Time op.call; returns (ok, seconds, result)."""
        self.attempted += 1
        t0 = process_time()
        try:
            result = op.call()
        except Exception as exc:  # the program under test failed this operation
            self.call_s += process_time() - t0
            self.failed += 1
            self.failures[f"{op.kind}: {type(exc).__name__}: {str(exc)[:120]}"] += 1
            return False, 0.0, None
        dt = process_time() - t0
        self.call_s += dt
        return True, dt, result

    def check(self, op, dt, result):
        """Count a checked operation's latency; a result that certifies
        less than its operation promises counts as a failed operation."""
        try:
            problem = op.check(result)
        except (ValueError, TypeError, AttributeError, IndexError, KeyError) as exc:
            problem = f"unreadable result: {type(exc).__name__}: {exc}"
        if isinstance(problem, O.Shortfall):
            self.failed += 1
            self.failures[f"{op.kind}: Shortfall: {problem}"] += 1
        elif problem:
            self.wrong.append(f"{op.kind}: {problem}")
        else:
            self.latencies.append(dt)

    def run(self, ops):
        """Call and check each operation.  The garbage of the previous check
        is collected first, untimed, so that no call pays for it."""
        for op in ops:
            gc.collect()
            outcome = self.call(op)
            if outcome[0]:
                self.check(op, outcome[1], outcome[2])

    def report(self, metrics, out=sys.stderr):
        for text, count in sorted(self.failures.items()):
            print(f"failed x{count}: {text}", file=out)
        for text in self.wrong[:20]:
            print(f"WRONG: {text}", file=out)
        print(json.dumps({
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))


def setup(workload, raw, workdir):
    """One set-up: a fresh import of rcg, and round 0's inputs handed to it.
    The garbage of an earlier set-up is collected first, untimed.  Returns
    (seconds, rcg, ops)."""
    gc.collect()
    t0 = process_time()
    rcg = import_rcg()
    ops = workload.prepare(rcg, raw, workdir)
    return process_time() - t0, rcg, ops


def setup_aside(workload, raw, workdir):
    """The time of one more set-up, made with the live rcg modules put aside
    and restored afterwards, so the running round keeps using them (and the
    imports rcg makes inside its functions still find them)."""
    live = {k: v for k, v in sys.modules.items() if k == "rcg" or k.startswith("rcg.")}
    try:
        return setup(workload, raw, workdir)[0]
    finally:
        for name in [m for m in sys.modules if m == "rcg" or m.startswith("rcg.")]:
            del sys.modules[name]
        sys.modules.update(live)


def measure(name, workload, seed, seconds, workdir, raw, rcg, ops, setup_s):
    """Whole rounds until `seconds` have passed.  A round's operations run
    in a seeded random order, and SETUP_REPEATS set-ups are spread evenly
    over the run, so that every percentile and the set-up median sample the
    machine over the whole run rather than in one burst."""
    tally = Tally()
    setups = [setup_s]
    spacing = seconds / (SETUP_REPEATS - 1)
    aside = workdir / "setup"
    aside.mkdir()
    start = perf_counter()
    index = 0
    while True:
        if index:
            ops = workload.prepare(rcg, workload.generate(round_rng(name, seed, index)), workdir)
        random.Random(f"{name}:{seed}:{index}:order").shuffle(ops)
        for op in ops:
            if len(setups) < SETUP_REPEATS and perf_counter() - start >= len(setups) * spacing:
                setups.append(setup_aside(workload, raw, aside))
            tally.run([op])
        index += 1
        if perf_counter() - start >= seconds:
            break
    lat = tally.latencies
    metrics = {
        "ops_per_s": (len(lat) / tally.call_s, "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{name}: {index} rounds, {len(lat)} checked operations, {len(setups)} set-ups",
          file=sys.stderr)
    return tally, metrics


def traced(rcg, ops):
    from tracing import Tracer

    Tally().run(ops)
    reference = Tally()
    reference.run(ops)
    tally = Tally()
    tracer = Tracer(rcg)
    tracer.install()
    outcomes = []
    try:
        for op in ops:
            gc.collect()
            outcomes.append((op, tally.call(op)))
    finally:
        tracer.uninstall()
    for op, outcome in outcomes:
        if outcome[0]:
            tally.check(op, outcome[1], outcome[2])
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (tally.call_s - reference.call_s, "s")
    return tally, metrics


def main(argv=None):
    import workloads as W

    table = {
        "tower_decomp": W.TowerDecomp,
        "rational_lie": W.RationalLie,
        "puiseux_decomp": W.PuiseuxDecomp,
        "cli_text": W.CliText,
    }
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rcg" / "__init__.py").is_file():
        print(f"rcg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = table[args.workload]()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        raw = workload.generate(round_rng(args.workload, args.seed, 0))
        setup_s, rcg, ops = setup(workload, raw, workdir)
        if args.trace:
            tally, metrics = traced(rcg, ops)
        else:
            tally, metrics = measure(args.workload, workload, args.seed, args.seconds,
                                     workdir, raw, rcg, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    tally.report(metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
