#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  The script builds
perfbench/main.exe with dune (inside the checkout, dune's shared cache
off), runs the workload in its own process, adds the process's peak RSS
(getrusage of the child) and checks that the metric names and units are
exactly those BENCHMARK.json declares.  The last line of stdout is the
JSON result; a build or run failure exits non-zero without one.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
DEFAULT_SEED = 42


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def run_workload(args):
    """Runs the workload; returns (stdout lines, peak RSS in MB)."""
    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    return out.splitlines(), usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    lines, peak_rss_mb = run_workload(args)
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s (%s) is not declared with that unit" % (name, m["unit"]))
    missing = [n for n in units if n not in metrics]
    if missing and not args.trace:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    # A layer this workload never calls did no work: its per-layer
    # numbers are 0.
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": units[name]}
    result["metrics"] = {n: metrics[n] for n in units}

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("  %-28s %14.6g MB" % ("peak_rss_mb", peak_rss_mb))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
