#!/usr/bin/env python3
"""Repository benchmark for sitstats: SIT builds, shared-scan schedules and
mixed serving, end to end and layer by layer.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload chain_build --seed 1 --seconds 25 \
        --trace 0 [--out results/parent/chain_build-1.json]

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/; later calls rebuild incrementally. The last line of
stdout is the JSON result; `--trace 1` prints the per-layer metrics of the
traced run instead of the end-to-end ones and writes a Chrome trace to
.bench_build/traces/.

Compare two sets of saved results (files written with --out):

    python3 perfbench/run.py compare results/parent results/change

Workloads, metrics and bounds are listed in BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("sitstats sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def run(args):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    work = os.path.join(BUILD_DIR, "runs",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_out = os.path.join(BUILD_DIR, "traces",
                             "%s-%d.json" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    # Spill files of the temp store go inside the run directory.
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", "data", "--trace-out", trace_out]
    try:
        proc = subprocess.run(command, cwd=work, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("workload exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("workload printed no result line")
    environment = {}
    for line in lines:
        if line.startswith("# env "):
            environment = json.loads(line[len("# env "):])
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as out:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "env": environment,
                       "result": result}, out, indent=1)
    print(proc.stdout, end="")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(directory):
    """{(workload, trace): {seed: result}} of every result file under dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        with open(path) as handle:
            record = json.load(handle)
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = record["result"]
    return runs


def failures(results, seeds):
    """(failed, attempted) summed over the runs of `seeds`."""
    return (sum(results[s]["failed"] for s in seeds),
            sum(results[s]["attempted"] for s in seeds))


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_results(args.parent), load_results(args.change)
    header = ("%-15s %-34s %26s %26s %6s %12s  %s" %
              ("workload", "metric", "parent median [q1, q3]",
               "change median [q1, q3]", "won", "median delta", "verdict"))
    print(header)
    print("-" * len(header))
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            print("%-15s (no seed run on both sides)" % workload)
            continue
        p_failed, p_attempted = failures(parent[key], seeds)
        c_failed, c_attempted = failures(change[key], seeds)
        print("%-15s failed: parent %d of %d, change %d of %d" %
              (workload, p_failed, p_attempted, c_failed, c_attempted))
        # A change that fails output checks the parent passes wins nothing.
        more_failures = c_failed > p_failed
        p_metrics = {s: {n: m["value"]
                         for n, m in parent[key][s]["metrics"].items()}
                     for s in seeds}
        c_metrics = {s: {n: m["value"]
                         for n, m in change[key][s]["metrics"].items()}
                     for s in seeds}
        names = sorted(set().union(*(p_metrics[s] for s in seeds)))
        for name in names:
            pairs = [(p_metrics[s][name], c_metrics[s][name])
                     for s in seeds
                     if name in p_metrics[s] and name in c_metrics[s]]
            if not pairs:
                continue
            meta = declared.get(name, {})
            sign = 1.0 if meta.get("better", "lower") == "lower" else -1.0
            p_values = [p for p, _ in pairs]
            c_values = [c for _, c in pairs]
            p1, p_med, p3 = quartiles(p_values)
            c1, c_med, c3 = quartiles(c_values)
            won = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
            delta = statistics.median(c - p for p, c in pairs)
            bound = meta.get("bound")
            verdict = "-"
            if bound is not None and p_med != 0:
                spread = (p3 - p1) / abs(p_med)
                worse = sign * (c_med - p_med) / abs(p_med)
                if spread > bound:
                    verdict = "unresolved (parent spread %.1f%% > bound)" % (
                        100 * spread)
                elif worse > bound:
                    verdict = "REGRESSION (%.1f%% worse)" % (100 * worse)
                elif (won >= 0.9 and worse < 0
                      and abs(c_med - p_med) > (p3 - p1)):
                    verdict = ("no gain (change fails more operations)"
                               if more_failures else "gain")
                else:
                    verdict = "within bound"
            print("%-15s %-34s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
                  "%5.0f%% %12.4g  %s" %
                  (workload, name, p_med, p1, p3, c_med, c1, c3, 100 * won,
                   delta, verdict))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", help="directory of parent result files")
        parser.add_argument("change", help="directory of change result files")
        compare(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the result to this file")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
