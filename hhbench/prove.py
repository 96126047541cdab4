#!/usr/bin/env python3
"""Steadiness proof for the repository benchmark.

    python3 hhbench/prove.py [--workloads campaign,matrix,sweep]
        [--seeds 10] [--sets 1] [--traced 2] [--out runs.json]

For each set and workload, runs hhbench/run.py once per seed (seeds
1..N) with --trace 0 and reports, per end-to-end metric, the median,
the quartiles and the interquartile spread as a share of the median
(statistics.quantiles(values, n=4)). A spread must stay within the
metric's bound from BENCHMARK.json (setup_s excepted) and is flagged
when it exceeds a third of it; with --sets 2 each later set's median
must not be worse than the first set's by more than the bound.

Then runs --trace 1 --traced times on seed 1 per workload: every
deterministic count must read exactly the same in each run.

Finally checks that run.py fails fast, with no result line, in a
directory holding only BENCHMARK.json and the benchmark's paths.
Exits 1 if any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Counts that follow wall-clock timing rather than the inputs.
TIMING_DEPENDENT = {"dispatch.ledger_saves"}


def run(workload, seed, seconds, trace, cwd=ROOT, timeout=900):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "hhbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=timeout)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in declared["workloads"]])
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    ok = True
    log = {"runs": [], "traced": []}

    firsts = {}
    for s in range(args.sets):
        for workload in workloads:
            values = {name: [] for name in bounds}
            for seed in range(1, args.seeds + 1):
                rc, result, wall = run(workload, seed, seconds, 0)
                log["runs"].append({"set": s, "workload": workload,
                                    "seed": seed, "rc": rc,
                                    "wall_s": wall, "result": result})
                if rc != 0 or result is None or not result["correct"]:
                    print("FAIL %s seed %d: rc=%d result=%s"
                          % (workload, seed, rc, result))
                    ok = False
                    continue
                if result["failed"] != 0:
                    ok = False
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print("  set %d %-8s seed %2d  %5.1fs  %s" % (
                    s, workload, seed, wall, "  ".join(
                        "%s=%.4g" % (n, result["metrics"][n]["value"])
                        for n in bounds)), flush=True)
            for name, vals in values.items():
                if len(vals) < 2:
                    continue
                m = bounds[name]
                q1, med, q3 = stats.quartiles(vals)
                spread = (q3 - q1) / med
                verdict = "ok"
                if name != "setup_s" and spread > m["bound"]:
                    verdict = "SPREAD>BOUND"
                    ok = False
                elif name != "setup_s" and spread > m["bound"] / 3:
                    verdict = "spread>bound/3"
                key = (workload, name)
                if key in firsts:
                    first = firsts[key]
                    worse = ((med - first) / first if m["better"] == "lower"
                             else (first - med) / first)
                    if worse > m["bound"]:
                        verdict += " MEDIAN-MOVED(%.3f)" % worse
                        ok = False
                else:
                    firsts[key] = med
                print("set %d %-8s %-14s median %-10.5g q1 %-10.5g q3 "
                      "%-10.5g spread %.4f bound %.2f  %s"
                      % (s, workload, name, med, q1, q3, spread,
                         m["bound"], verdict), flush=True)

    for workload in workloads:
        counts = []
        for _ in range(args.traced):
            rc, result, wall = run(workload, 1, seconds, 1)
            log["traced"].append({"workload": workload, "rc": rc,
                                  "wall_s": wall, "result": result})
            if rc != 0 or result is None or not result["correct"]:
                print("FAIL traced %s: rc=%d" % (workload, rc))
                ok = False
                continue
            counts.append({n: v["value"] for n, v in result["metrics"].items()
                           if v["unit"] == "count"
                           and n not in TIMING_DEPENDENT})
        same = len(counts) == args.traced and all(c == counts[0]
                                                  for c in counts)
        print("traced %-8s %d runs, %d counts identical: %s"
              % (workload, len(counts), len(counts[0]) if counts else 0,
                 "yes" if same else "NO"), flush=True)
        ok = ok and same

    # A directory with only BENCHMARK.json and the benchmark's paths.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in declared["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    rc, result, wall = run(workloads[0], 1, seconds, 0, cwd=bare,
                           timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = rc != 0 and result is None and wall < 180
    print("bare directory: rc=%d in %.1fs, result printed: %s -> %s"
          % (rc, wall, result is not None, "ok" if bare_ok else "FAIL"))
    ok = ok and bare_ok

    if args.out:
        with open(args.out, "w") as f:
            json.dump(log, f, indent=1)
    print("PROOF", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
