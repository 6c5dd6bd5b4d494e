#!/usr/bin/env python3
"""End-to-end benchmark of the wbchan simulator.

    python3 perfbench/run.py --workload samecore|frontier|tenants \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the library sources
plus the driver in e2e.cc) into .bench_build/perfbench, then runs the
workload in PROCESSES separate processes one after another, each for an
equal share of --seconds. Each process repeats the workload's session
list on a 2-worker closed-loop pool (see README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
attempted/failed count sessions over every round of every process.
correct is true when no session failed and every round produced the
same simulated-output digest. Metric names and units are those of
BENCHMARK.json at the root. Build output and errors go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_e2e")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("samecore", "frontier", "tenants")

# Separate processes per run: set-up is measured once per process, and
# each process draws its own heap layout (ASLR), so medians over them
# keep a single unlucky layout out of the figures.
PROCESSES = 5
WORKERS = 2

def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    )
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            log(r.stdout)
            fail("build step %s exited with %d" % (cmd[:2], r.returncode))


def load_spec():
    """The metric lists of BENCHMARK.json: (end_to_end, per_layer)."""
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        return spec["end_to_end"], spec["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read metric lists from BENCHMARK.json: %s" % e)


def run_process(args, index, seconds):
    """Run one benchmark process; return its report."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workers", str(WORKERS)]
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS, "%s-seed%d-p%d.jsonl" % (args.workload, args.seed, index))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=seconds + 120)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark process failed: %s" % e)
    if r.returncode != 0:
        log(r.stderr)
        fail("benchmark process exited with %d" % r.returncode)
    try:
        report = json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(r.stdout, r.stderr)
        fail("benchmark process printed no report")
    return report


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    end_to_end, per_layer = load_spec()
    build()

    reports = [run_process(args, i, args.seconds / PROCESSES)
               for i in range(PROCESSES)]

    rounds = [r for rep in reports for r in rep["rounds"]]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    sessions = int(reports[0]["sessions"])
    attempted = sessions * len(rounds)
    failed = int(sum(rep["sessions_failed"] for rep in reports))
    digests = sorted({r["digest"] for r in rounds})
    correct = failed == 0 and len(digests) == 1

    first = reports[0]
    print("workload %s, seed %d: %d sessions per round, %d rounds in %d "
          "processes, closed loop on %d workers"
          % (args.workload, args.seed, sessions, len(rounds), PROCESSES,
             WORKERS))
    print("  session classes: " + ", ".join(
        "%s x%d" % kv for kv in first["classes"].items()))
    print("  sessions_failed: %d of %d sessions%s"
          % (failed, attempted,
             "" if failed == 0 else " (first: %s)" % next(
                 rep["first_error"] for rep in reports
                 if rep["sessions_failed"])))
    print("  digest: %s%s" % (" ".join(digests),
                              " (identical in every round)"
                              if len(digests) == 1 else " (MISMATCH)"))

    if not args.trace:
        spec = end_to_end
        values = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "session_ms_p50": median([r["session_ms_p50"] for r in plain]),
            "session_ms_tail": median([r["session_ms_tail"] for r in plain]),
            "setup_s": median([rep["setup_s"] for rep in reports]),
            "peak_rss_mb": median([rep["peak_rss_kb"] / 1024.0
                                   for rep in reports]),
        }
    else:
        spec = per_layer
        values = {name: median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values["pool.busy_frac"] = median([r["busy_frac"] for r in plain])
        values["pool.tail_idle_ms"] = median(
            [r["tail_idle_ms"] for r in plain])

    metrics = {}
    for m in spec:
        if m["name"] not in values:
            fail("BENCHMARK.json names metric %s, which the benchmark does "
                 "not measure" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = ""
        if m["name"] == "session_ms_tail":
            note = "  (p%g over %d sessions)" % (first["tail_percentile"],
                                                 sessions)
        print("  %-30s %14.6g %s%s" % (m["name"], values[m["name"]],
                                       m["unit"], note))

    if args.trace:
        # Host-time split of the traced sessions over the layers' self
        # times (the "<layer>.ms" metrics), from the spans.
        split = [k for k in traced[0]["layers"] if k.endswith(".ms")]
        total = sum(values[k] for k in split)
        print("  host-time split: " + ", ".join(
            "%s %.1f%%" % (k[:-3], 100.0 * values[k] / total)
            for k in split if total > 0))
        wall_plain = median([r["wall_s"] for r in plain])
        wall_traced = median([r["wall_s"] for r in traced])
        probe_s = median([r["probe_ms"] for r in traced]) * 1e-3
        print("  trace overhead: traced wall %.4f s vs untraced %.4f s "
              "(%+.1f%%); stage probes %.4f s of session time, "
              "%+.1f%% without them"
              % (wall_traced, wall_plain,
                 100.0 * (wall_traced / wall_plain - 1.0), probe_s,
                 100.0 * ((wall_traced - probe_s / WORKERS) / wall_plain
                          - 1.0)))
        print("  spans: " + os.path.relpath(SPANS, ROOT))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
