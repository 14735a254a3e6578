#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload batch_sweep|serve_mix|diff_fuzz \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds
perfbench/CMakeLists.txt (the repository's libraries, riscserved,
riscdiff and the harness) into .bench_build/perfbench; later runs only
re-check the build.  The run then:

  * starts the harness set-up-only SETUP_REPEATS - 1 times and once for
    the measured run, and reports the median set-up time as setup_s
    (process start to the first timed op), on batch_sweep and diff_fuzz
    scaled to the host's speed as the harness reports it;
  * checks the harness's correctness verdicts, the pinned digests of
    the default seed (expected.json), and for diff_fuzz the first
    400-seed block's digest against riscdiff's own summary line;
  * prints every metric of the run's kind (end_to_end with --trace 0,
    per_layer with --trace 1, as BENCHMARK.json lists them) and, as
    the last line, {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when the run is correct; 1 when a check failed or the
build failed (no result line is printed then); 2 on usage errors.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("batch_sweep", "serve_mix", "diff_fuzz")
SETUP_REPEATS = 25
DEFAULT_SEED = 1
DIFF_BLOCK_SEEDS = 400
HARNESS_TIMEOUT_S = 150

# The path-specific names of the generic end-to-end metrics, per
# workload (NOTES.md); printed beside them so each path reads in its own
# terms.
ALIASES = {
    "batch_sweep": {"ops_per_s": "sweep_jobs_per_s"},
    "serve_mix": {"op_p50_ms": "req_p50_ms", "op_p99_ms": "req_p99_ms",
                  "ops_per_s": "saturated_rps"},
    "diff_fuzz": {"ops_per_s": "diff_seeds_per_s"},
}


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure and build (a no-op once built); compiler output goes
    to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def harness(args, workdir, setup_only):
    """Run the harness once; return (setup seconds, report, exit code)."""
    out = os.path.join(workdir, "setup.json" if setup_only else "report.json")
    cmd = [os.path.join(BUILD, "perfbench-harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "riscserved"),
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                          text=True, timeout=HARNESS_TIMEOUT_S)
    if not setup_only:
        sys.stdout.write(proc.stdout)
    with open(out) as f:
        report = json.load(f)
    done = int(report["facts"]["setup_done_ns"])
    return (done - started) / 1e9, report, proc.returncode


def riscdiff_digest(first_seed, workdir):
    """riscdiff's own digest over the first block of the run's seeds."""
    cmd = [os.path.join(BUILD, "riscdiff"), "--seeds", str(DIFF_BLOCK_SEEDS),
           "--start-seed", str(first_seed),
           "--workers", str(len(os.sched_getaffinity(0))),
           "--repro-dir", os.path.join(workdir, "repro")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    match = re.search(r"digest 0x([0-9a-f]+)", proc.stdout)
    # riscdiff drops leading zeros; the harness prints eight digits.
    digest = "0x%08x" % int(match.group(1), 16) if match else None
    return digest, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = spec[kind]

    if not build():
        log("build failed; no result")
        return 1

    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    errors = []
    setups = []
    try:
        for _ in range(SETUP_REPEATS - 1):
            seconds, _, code = harness(args, workdir, True)
            if code != 0:
                errors.append("set-up-only run failed")
            setups.append(seconds)
        seconds, report, code = harness(args, workdir, False)
    except (OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("harness did not produce a report: %s; no result" % e)
        return 1
    setups.append(seconds)
    if code != 0:
        errors.append("harness reported failed checks")
    errors += report["errors"]

    facts = report["facts"]
    pinned = expected.get(args.workload, {})
    if args.workload == "batch_sweep" and args.seed == DEFAULT_SEED:
        if facts.get("stats_digest") != pinned["stats_digest"]:
            errors.append("batch_sweep stats digest %s != pinned %s" % (
                facts.get("stats_digest"), pinned["stats_digest"]))
    if args.workload == "diff_fuzz":
        ours = facts.get("first_block_digest")
        theirs, rc = riscdiff_digest(int(facts["first_seed"]), workdir)
        if rc != 0 or ours != theirs:
            errors.append("diff_fuzz block digest %s != riscdiff's %s" % (
                ours, theirs))
        if args.seed == DEFAULT_SEED and ours != pinned["first_block_digest"]:
            errors.append("diff_fuzz block digest %s != pinned %s" % (
                ours, pinned["first_block_digest"]))

    measured = dict(report["metrics"])
    # batch_sweep and diff_fuzz scale set-up time to the host's speed
    # during the measured run, as they scale their other times
    # (NOTES.md); serve_mix reports no scale.
    scale = float(facts.get("setup_scale", 1.0))
    measured["setup_s"] = {"value": statistics.median(setups) * scale,
                           "unit": "s"}
    metrics = {}
    print("%s %s metrics of BENCHMARK.json:" % (args.workload, kind))
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            errors.append("metric %s was not measured" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            errors.append("metric %s in %s, expected %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        count = (" (n=%d)" % got["samples"]) if "samples" in got else ""
        alias = ALIASES[args.workload].get(m["name"])
        name = "%s = %s" % (m["name"], alias) if alias else m["name"]
        print("%-10s %-32s %.6g %s%s" % (args.workload, name, got["value"],
                                         m["unit"], count))

    for e in errors:
        print("%s CHECK FAILED: %s" % (args.workload, e))
    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    print("%s ops attempted %d, failed %d (fail_ratio %.6f)" % (
        args.workload, attempted, failed, failed / attempted))
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
