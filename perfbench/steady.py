#!/usr/bin/env python3
"""Steadiness report: rerun each workload and show how much its
end-to-end metrics spread.

    python3 perfbench/steady.py [--runs N] [--sets K] [--workload W ...]

Run from the root of a source checkout.  Each set runs every workload N
times (seeds 1..N) through perfbench/run.py.  For each end-to-end metric
the report gives the first set's median and quartiles
(statistics.quantiles, n=4) and each set's spread (Q3 - Q1) / median.
A spread is marked "OVER" when it exceeds the metric's bound in
BENCHMARK.json and "wide" when it exceeds a third of it.  With K > 1
sets it also shows how far each later set's median moved, worse-ward,
from the first set's ("OVER" beyond the bound).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("steady: %s seed %d exited with %d" % (workload, seed, out.returncode))
    result = json.loads(out.stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        print("steady: %s seed %d: %d of %d cells failed"
              % (workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Relative move of [second] away from [first] in the worse direction."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    d = (second - first) / abs(first)
    return d if better == "lower" else -d


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    raw = {}
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for seed in range(1, args.runs + 1):
                runs.append(run_once(w, seed))
                print("set %d %s seed %d done" % (s + 1, w, seed), file=sys.stderr, flush=True)
            raw.setdefault(w, []).append(runs)

    flagged = 0
    for w in workloads:
        print("\n%s (%d runs per set, seeds 1..%d; median, Q1 and Q3 of set 1)"
              % (w, args.runs, args.runs))
        print("  %-12s %12s %12s %12s %6s  %-24s %s" % (
            "metric", "median", "Q1", "Q3", "bound", "spread per set", "median move per set"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs] for runs in raw[w]]
            med, q1, q3, _ = spread(sets[0])
            spreads = []
            for values in sets:
                sp = spread(values)[3]
                mark = " OVER" if sp > bound else " wide" if sp > bound / 3 else ""
                spreads.append("%.4f%s" % (sp, mark))
                flagged += sp > bound
            moves = []
            for later in sets[1:]:
                mv = worse_by(med, statistics.median(later), m["better"])
                moves.append("%+.3f%s" % (mv, " OVER" if mv > bound else ""))
                flagged += mv > bound
            print("  %-12s %12.6g %12.6g %12.6g %6.3f  %-24s %s" % (
                name, med, q1, q3, bound, " ".join(spreads), " ".join(moves)))
    print("\n%d metric(s) over their bound" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
