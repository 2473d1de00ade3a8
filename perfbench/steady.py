"""Steadiness of the benchmark: two independent sets of runs of the same code.

    python3 perfbench/steady.py [--trace-check]

Set A runs seeds 1-10 of every workload in BENCHMARK.json, then set B runs
seeds 101-110, each run in its own process as the benchmark is run
(``python3 perfbench/run.py ...`` from the repository root, for
``run_seconds``).  For each workload and end-to-end metric it prints each
set's median and spread (the distance between the first and third quartile
as a share of the median) and the shift of B's median against A's in the
metric's worse direction, next to the metric's bound from BENCHMARK.json;
and the share of failed operations in each set.  --trace-check instead
makes two traced runs per workload with one seed and lists every per-layer
count that differs.

Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMED_UNITS = ("s", "ms")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
RUNS = 10


def run(workload, seed, trace=0):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problem = malformed(result, SPEC["per_layer" if trace else "end_to_end"])
    if problem:
        sys.exit(f"{workload} seed {seed} trace {trace}: result line {problem}")
    return result


def malformed(result, wanted):
    """What is wrong with a result line against the manifest's metrics, or ''."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "does not have exactly the keys correct, attempted, failed and metrics"
    if not (type(result["attempted"]) is int and type(result["failed"]) is int
            and result["attempted"] >= 1 and type(result["correct"]) is bool):
        return "has a malformed correct, attempted or failed"
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        return f"metrics differ from the manifest: {sorted(set(metrics) ^ names)}"
    for m in wanted:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            return f"gives {m['name']} as {got}, not in {m['unit']}"
        if isinstance(got["value"], bool) or not isinstance(got["value"], (int, float)):
            return f"gives {m['name']} a value that is not a number"
    return ""


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def steadiness():
    sets = {"A": range(1, RUNS + 1), "B": range(101, 101 + RUNS)}
    results = {name: {w: [] for w in WORKLOADS} for name in sets}
    for name, seeds in sets.items():
        for w in WORKLOADS:
            for seed in seeds:
                results[name][w].append(run(w, seed))
                print(f"set {name} {w} seed {seed} done", file=sys.stderr, flush=True)
    ok = True
    print(f"{'workload':16s} {'metric':16s} {'median A':>12s} {'spread A':>9s} "
          f"{'median B':>12s} {'spread B':>9s} {'B worse by':>10s} {'bound':>6s}")
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in results["A"][w]]
            b = [r["metrics"][m["name"]]["value"] for r in results["B"][w]]
            (ma, sa), (mb, sb) = spread(a), spread(b)
            worse = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)
            flags = []
            if max(sa, sb) > m["bound"]:
                flags.append("SPREAD>BOUND")
            elif max(sa, sb) > m["bound"] / 3:
                flags.append("spread>bound/3")
            if worse > m["bound"]:
                flags.append("SHIFT>BOUND")
            ok = ok and not any(f.isupper() for f in flags)
            print(f"{w:16s} {m['name']:16s} {ma:12.5g} {sa:9.3f} {mb:12.5g} {sb:9.3f} "
                  f"{worse:10.3f} {m['bound']:6.2f} {' '.join(flags)}")
        shares = {name: {r["failed"] / r["attempted"] for r in results[name][w]} for name in sets}
        correct = all(r["correct"] for name in sets for r in results[name][w])
        same = len(shares["A"] | shares["B"]) == 1
        ok = ok and same and correct
        print(f"{w:16s} failed share A {sorted(shares['A'])} B {sorted(shares['B'])}"
              f"{'' if same else '  DIFFERS'}{'' if correct else '  INCORRECT'}")
    return ok, results


def trace_check():
    ok = True
    results = {}
    for w in WORKLOADS:
        first, second = run(w, 1, trace=1), run(w, 1, trace=1)
        results[w] = [first, second]
        differ = [k for k, v in first["metrics"].items()
                  if v["unit"] not in TIMED_UNITS and v != second["metrics"][k]]
        ok = ok and not differ and first["correct"] and second["correct"]
        print(f"{w:16s} counts {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f"; overhead {first['metrics']['trace.overhead_s']['value']:.2f} s, "
              f"{second['metrics']['trace.overhead_s']['value']:.2f} s")
    return ok, results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()
    ok, results = trace_check() if args.trace_check else steadiness()
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    kind = "trace" if args.trace_check else "steady"
    path = out / f"{kind}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"{'OK' if ok else 'NOT STEADY'}; raw results in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
