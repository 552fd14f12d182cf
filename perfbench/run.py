#!/usr/bin/env python3
"""End-to-end benchmark for the cfd flow (see perfbench/NOTES.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

builds the library sources under src/ together with the benchmark into
.bench_build/ (CMake, Release), checks the seeded generator, runs one
workload and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1.

Steadiness mode runs each workload on seeds 1..10 and prints each
end-to-end metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py --steady [--workloads a,b] [--seconds 10]
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "run")
RUN_TIMEOUT_S = 170
STEADY_RUNS = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench", "cfdc", "test_generator"],
             [os.path.join(BUILD, "test_generator")]]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: step failed: " + " ".join(step))
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result or None)."""
    os.makedirs(WORK, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", WORK,
               "--cfdc", os.path.join(BUILD, "cfdc")]
    # A process group of its own, so a timeout also stops the daemon
    # the serve_mixed workload starts.
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               start_new_session=True, text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log("perfbench: %s timed out" % workload)
        return [], None
    lines = out.splitlines()
    if process.returncode != 0 or not lines:
        # A crashed run may leave its daemon behind.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        log("perfbench: %s exited with %d" % (workload, process.returncode))
        return lines, None
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: last line is not JSON: " + lines[-1])
        return lines, None


def check_metrics(result, spec, trace):
    """The printed metrics must be exactly the spec's, with its units."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in expected if n in got and got[n] != expected[n])
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, "
            "extra %s, unit mismatch %s" % (missing, extra, units))
        return False
    return True


def single(args):
    if not build():
        return 1
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload " + args.workload)
        return 2
    lines, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None or not check_metrics(result, spec, args.trace):
        return 1
    print(json.dumps(result), flush=True)
    return 0


def steady(args):
    """Runs each workload on seeds 1..STEADY_RUNS; reports spreads vs bounds."""
    if not build():
        return 1
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in names:
        values = {name: [] for name in bounds}
        header = ""
        started = time.time()
        for seed in range(1, STEADY_RUNS + 1):
            lines, result = run_once(workload, seed, seconds, 0)
            header = header or next((l for l in lines if l.startswith("# perfbench")), "")
            if result is None or not check_metrics(result, spec, 0):
                log("perfbench: %s seed %d failed" % (workload, seed))
                return 1
            if not result["correct"]:
                log("perfbench: %s seed %d: %d of %d ops failed" % (
                    workload, seed, result["failed"], result["attempted"]))
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d runs, %.0f s)" % (header, STEADY_RUNS, time.time() - started))
        print("  %-16s %14s %14s %14s %8s %8s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                status = 1
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %8.3f  %s" % (
                name, q1, med, q3, spread, bound, verdict))
        print("  values: " + json.dumps(values), flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    if args.steady:
        return steady(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        args.seconds = load_spec()["run_seconds"]
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
