#!/usr/bin/env python3
"""The repository benchmark.

    python3 hhbench/run.py --workload campaign|matrix|sweep \\
        --seed N --seconds S --trace 0|1

Builds hhbench (the measuring binary, hhbench/CMakeLists.txt) from the
sources beside it, runs one workload, reduces the raw samples to the
metrics named in BENCHMARK.json and prints them: one "name value unit"
line per metric, then one JSON object as the last line of stdout.
With --trace 0 that object carries the end-to-end metrics, with
--trace 1 the per-layer ones. See hhbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("campaign", "matrix", "sweep")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"hhbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("the simulator sources (src/) are not beside "
                           "the benchmark; nothing to build")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs,
                    "--target", "hhbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "hhbench")


def run_binary(binary, args, out_dir):
    """Run the binary in its own process group; kill the group on
    timeout so no sweep worker outlives the run."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(HERE, "reference"),
           "--work-dir", os.path.join(out_dir, "work-%d" % os.getpid())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("the workload did not finish in %d s"
                           % BINARY_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("hhbench exited with status %d"
                           % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("hhbench printed no result")
    return json.loads(lines[-1])


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def end_to_end(raw):
    """Every end-to-end figure, plus per-workload aliases (trials_per_s,
    cells_per_s, trial_p50_ms, trial_tail_ms) and fail_rate."""
    units = raw["throughput_units"]
    seconds = raw["throughput_seconds"]
    tail, pct, n = stats.tail(raw["unit_ms"])
    m = {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "units_per_s": (units / seconds, "1/s"),
        "unit_p50_ms": (stats.median(raw["unit_ms"]), "ms"),
        "unit_tail_ms": (tail, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "fail_rate": (stats.fail_rate(raw["failed"], raw["attempted"]),
                      "ratio"),
        "trials_per_s": (raw["trials"] / seconds, "1/s"),
    }
    notes = {"unit_tail_ms": "p%.1f of %d %ss" % (pct, n, raw["unit"])}
    if raw["workload"] == "matrix":
        m["cells_per_s"] = m["units_per_s"]
    if raw["workload"] == "campaign":
        m["trial_p50_ms"] = m["unit_p50_ms"]
        m["trial_tail_ms"] = m["unit_tail_ms"]
        notes["trial_tail_ms"] = notes["unit_tail_ms"]
    return m, notes


def per_layer(raw):
    """Span means per call and deterministic counts, plus the trace's
    self-check figures."""
    m = {}
    for name, samples in raw["spans"].items():
        if samples:
            m[name] = (stats.mean(samples), unit_of(name))
    for name, value in raw["counts"].items():
        m[name] = (value, "count")
    spans = raw["spans"]
    if spans.get("trace.replay_ms") and spans.get("attack.trial_ms"):
        traced = stats.mean(spans["trace.replay_ms"])
        untraced = stats.mean(spans["attack.trial_ms"])
        m["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return m, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        out_dir = build_dir()
        binary = build(out_dir)
        raw = run_binary(binary, args, out_dir)
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as err:
        log(str(err))
        return 1

    computed, notes = (per_layer if args.trace else end_to_end)(raw)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    correct = raw["failed"] == 0 and not raw["errors"]
    if missing:
        log("workload %s measured no %s" % (args.workload,
                                             ", ".join(missing)))
        correct = False
    if args.trace and not correct:
        # A traced run whose checks failed (a replay that diverged from
        # the orchestrator, above all) timed another program: withdraw
        # its per-layer numbers.
        computed = {}

    for name in sorted(computed):
        value, unit = computed[name]
        note = "  (%s)" % notes[name] if name in notes else ""
        print("%-32s %.6g %s%s" % (name, value, unit, note))
    for error in raw["errors"]:
        print("error: %s" % error)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": computed[m["name"]][0],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in computed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
