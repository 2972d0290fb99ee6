#!/usr/bin/env python3
"""Builds and runs the elasticore benchmark.

  python3 benchmark/run.py                     all six workloads, in order
  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
  python3 benchmark/run.py --repeat N          noise calibration
  python3 benchmark/run.py --check             harness self-checks

Run from the repository root. The benchmark binary is built from source into
benchmark/build/ on first use. Every metric is printed as
"workload metric value unit"; with --workload the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json names. The exit status is non-zero when a build, a run or a
correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "elasticore_bench"
GOLDEN = HERE / "golden" / "tpch_sf0.15.txt"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["htap_burst", "numa_islands", "contention_hot",
             "control_plane", "rt_ycsb", "tpch_scan"]
DEFAULT_SEED = 19920101
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds elasticore_bench (a no-op when up to date); False on
    failure."""
    env = dict(os.environ)
    # A compiler cache, where one is installed, must not write outside the
    # checkout.
    env["CCACHE_DIR"] = str(BUILD / "ccache")
    steps = [["cmake", "--build", str(BUILD), "--target", "elasticore_bench",
              "-j", "4"]]
    # Once configured (the Makefile is written last), the build step
    # reconfigures by itself when a CMake file changes.
    if not (BUILD / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def run_workload(workload, seed, seconds, trace=False, check=False):
    """Runs one workload in its own process; its JSON result, or None."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--golden", str(GOLDEN)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", str(OUT / f"{workload}-{seed}.trace.json")]
    if check:
        cmd.append("--check")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(proc.stderr[-4000:])
        log(f"{workload}: no result (exit status {proc.returncode})")
        return None


def derived(result):
    """Per-layer figures computed from the traced span table."""
    spans = {span["name"]: span for span in result.get("spans", [])}
    values = {name: v["value"] for name, v in result["values"].items()}
    out = []
    pages = values.get("numasim.page_accesses", 0)
    if "ossim.sched" in spans and pages > 0:
        sched_s = spans["ossim.step"]["self_s"] + spans["ossim.sched"]["self_s"]
        out.append(("ossim.ns_per_page",
                    sched_s * 1e9 / (pages * spans["pass"]["calls"]), "ns"))
    for span, name in (("exec.hooks_round", "exec.hooks_round_us_mean"),
                       ("exec.hooks", "exec.hooks_other_us_mean")):
        if span in spans and spans[span]["calls"] > 0:
            mean = spans[span]["total_s"] / spans[span]["calls"]
            out.append((name, mean * 1e6, "us"))
    return out


def print_result(result):
    workload = result["workload"]
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']} {metric['unit']}")
    for name, value in result["values"].items():
        if name not in result["metrics"]:
            print(f"{workload} {name} {value['value']} {value['unit']}")
    for name, value, unit in derived(result):
        print(f"{workload} {name} {value} {unit}")
    for span in result.get("spans", []):
        for key, unit in (("calls", "count"), ("self_s", "s"),
                          ("share", "fraction"), ("p50_us", "us"),
                          ("p99_us", "us")):
            print(f"{workload} span.{span['name']}.{key} "
                  f"{span[key]} {unit}")
    for name, metric in result.get("measured", {}).items():
        print(f"{workload} measured.{name} {metric['value']} {metric['unit']}")
    if "host_slowdown" in result:
        print(f"{workload} host.slowdown {result['host_slowdown']} ratio")
    print(f"{workload} passes {result['passes']} count")
    for key in ("setups", "ops", "slowdown_samples"):
        if key in result:
            print(f"{workload} {key} {result[key]} count")
    print(f"{workload} attempted {result['attempted']} count")
    print(f"{workload} failed {result['failed']} count")
    for problem in result["problems"]:
        print(f"{workload} problem: {problem}")


def spec_metrics(kind):
    """The metrics of one kind ("end_to_end" or "per_layer") that
    BENCHMARK.json defines; none without the file."""
    if not SPEC.exists():
        return []
    return json.loads(SPEC.read_text())[kind]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def calibrate(workloads, seed, seconds, repeat):
    """Runs each workload `repeat` times on consecutive seeds and prints
    the median, quartiles and quartile spread of each end-to-end metric, of
    the times as measured before the host's slowdown is divided out, and of
    the slowdown."""
    bounds = {m["name"]: m["bound"] for m in spec_metrics("end_to_end")}
    ok = True
    for workload in workloads:
        samples = {}
        for i in range(repeat):
            result = run_workload(workload, seed + i, seconds)
            if result is None or not result["correct"]:
                log(f"{workload}: run {i} failed")
                return False
            print(f"{workload} run seed {seed + i} slowdown "
                  f"{result['host_slowdown']:.4g} "
                  + " ".join(f"{name} {metric['value']:.6g}"
                             for name, metric in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            for name, metric in result["measured"].items():
                samples.setdefault("measured." + name, []).append(metric["value"])
            samples.setdefault("host.slowdown", []).append(result["host_slowdown"])
        for name, values in samples.items():
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else "WIDE"
                ok = ok and spread <= bound
            print(f"{workload} {name} median {median:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f}"
                  + (f" bound {bound} {verdict}" if bound is not None else ""),
                  flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="calibrate: N runs per workload, seeds S..S+N-1")
    parser.add_argument("--check", action="store_true",
                        help="run the harness self-checks")
    args = parser.parse_args()

    if not build():
        return 1
    workloads = [args.workload] if args.workload else WORKLOADS

    if args.repeat > 0:
        return 0 if calibrate(workloads, args.seed, args.seconds,
                              args.repeat) else 1

    if args.check:
        ok = True
        for workload in workloads:
            for trace, check in ((False, True), (True, False)):
                result = run_workload(workload, args.seed, 2, trace, check)
                good = result is not None and result["correct"]
                ok = ok and good
                what = "traced run" if trace else "self-check"
                problems = "; ".join(result["problems"]) if result else ""
                print(f"{workload} {what} {'ok' if good else 'FAILED'} "
                      f"{problems}".rstrip(), flush=True)
        return 0 if ok else 1

    correct = True
    result = None
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace == 1)
        if result is None:
            return 1
        print_result(result)
        correct = correct and result["correct"]
    if args.workload:
        # The binary reports every metric it has; the result line carries
        # those BENCHMARK.json defines.
        names = [m["name"] for m in
                 spec_metrics("per_layer" if args.trace else "end_to_end")]
        metrics = {name: result["metrics"][name] for name in names
                   if name in result["metrics"]} if names else result["metrics"]
        print(json.dumps({"correct": result["correct"],
                          "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]),
                          "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
