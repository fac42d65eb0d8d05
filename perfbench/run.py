#!/usr/bin/env python3
"""Build and run the cbps performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload route --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest [--full]

The first call configures and builds perfbench/ (CMake) into
.bench_build/perfbench. A run prints a host fingerprint, progress lines
and, last, one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. --selftest runs every workload at a tiny
size and checks that each metric named in BENCHMARK.json is emitted with
its unit and direction and that the delivery oracle passes; --full also
makes the full-size traced runs and checks their layer split.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cbps_perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("src", os.path.join("include", "cbps")):
        if not os.path.isdir(os.path.join(ROOT, need)):
            fail(f"no {need}/ next to perfbench/: run from a cbps checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_binary(args):
    """Runs the benchmark binary; returns (stdout lines, result dict)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}: {' '.join(args)}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    return lines, result


def catalog():
    proc = subprocess.run([BINARY, "--catalog"], stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(result, specs):
    """Problems with a result's metrics against [{name, unit, ...}]."""
    problems = []
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            problems.append(f"missing metric {spec['name']}")
        elif m.get("unit") != spec["unit"] or not isinstance(
                m.get("value"), (int, float)):
            problems.append(f"bad metric {spec['name']}: {m}")
    extra = set(metrics) - {s["name"] for s in specs}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def selftest(full):
    bench = load_benchmark_json()
    cat = catalog()
    problems = []
    for key in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")}
                    for m in bench[key]]
        if declared != cat[key]:
            problems.append(f"BENCHMARK.json {key} differs from the "
                            "benchmark's metric catalog")
    workloads = [w["name"] for w in bench["workloads"]]
    for name in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"]
            _, result = run_binary(args)
            found = check_metrics(result, cat[key])
            if not result["correct"] or result["failed"]:
                found.append(f"oracle/determinism failed: correct="
                             f"{result['correct']} failed={result['failed']}")
            if result["attempted"] < 1:
                found.append("no delivery was checked")
            problems += [f"{name} trace={trace}: {p}" for p in found]
            print(f"selftest {name} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}")
    if full:
        for name in workloads:
            lines, result = run_binary(["--workload", name, "--seed", "1",
                                        "--seconds",
                                        str(bench["run_seconds"]),
                                        "--trace", "1"])
            split = [l for l in lines if l.startswith("layer split")]
            print(f"selftest {name} full traced: {split[-1]}")
            if not result["correct"] or not split[-1].endswith(": OK"):
                problems.append(f"{name} full traced run: {split[-1]}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--full", action="store_true",
                    help="selftest: also check full-size layer splits")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if args.selftest:
        return selftest(args.full)

    lines, result = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    bench = load_benchmark_json()
    problems = check_metrics(
        result, bench["per_layer" if args.trace else "end_to_end"])
    if problems:
        fail("; ".join(problems))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
