#!/usr/bin/env python3
"""Builds and runs the wdoc benchmark suite (BENCHMARK.json at the repo root).

One workload; the last stdout line is the JSON result:
  run.py --workload gateway --seed 7 --seconds 25 --trace 0

Every workload (or a few), printing `workload metric value unit` lines:
  run.py [--workloads a,b] [--seed N] [--seconds S] [--trace 1]
  run.py --repeat 5 --out runs.json   median, quartiles, spread vs bound
  run.py --smoke                      all workloads at 1/20 scale, checks only

Two saved --out files of --repeat runs, per-metric median deltas:
  run.py --compare parent.json change.json

setup_s is the median over SETUP_PROCESSES + 1 processes of each one's
median setup time: the measuring process and setup-only ones. The speed of
a short setup differs from process to process on a shared host (one
process builds the lecture cluster in 0.45 ms, the next in 0.8 ms), so the
median over builds of a single process does not settle it.

--trace 1 reports the per-layer metrics of a traced run, plus an untraced
run for the tracing overhead; each measures for half of --seconds. Chrome
trace-event files go to build-bench/trace/. The suite builds with CMake into
build-bench/ at the repo root, and the commit workload keeps its databases
in build-bench/work/. Exits nonzero when the build fails or an output check
does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "wdoc_suite"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
RUN_TIMEOUT_S = 160
SETUP_PROCESSES = 6
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 1.0


def build():
    """Configures once, then (re)builds the driver; build output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "wdoc_suite", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Configure again next time, in case the configure step failed.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            sys.exit("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, traced, scale=1.0, setup_only=False):
    """Runs the driver once; returns its JSON summary."""
    (BUILD / "work").mkdir(exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}", f"--workdir={BUILD / 'work'}"]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        (BUILD / "trace").mkdir(exist_ok=True)
        cmd.append(f"--trace={BUILD / 'trace'}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{workload}: driver exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, scale=1.0):
    """One contract run: end-to-end metrics, or with trace the per-layer ones."""
    if trace:
        seconds /= 2
    untraced = run_once(workload, seed, seconds, False, scale)
    if not trace:
        missing = set(END_TO_END) - set(untraced["metrics"])
        if missing:
            sys.exit(f"{workload}: driver reported no {sorted(missing)}")
        metrics = {n: untraced["metrics"][n]["value"] for n in END_TO_END}
        setups = [metrics["setup_s"]] + [
            run_once(workload, seed, seconds, False, scale, setup_only=True)
            ["metrics"]["setup_s"]["value"] for _ in range(SETUP_PROCESSES)]
        metrics["setup_s"] = statistics.median(setups)
        return untraced, metrics
    traced = run_once(workload, seed, seconds, True, scale)
    # A layer the workload does not touch did no work: it reads 0.
    metrics = {n: traced["layers"].get(n, {}).get("value", 0) for n in PER_LAYER}
    # Tracing overhead on the workload's wall-clock figure: the p50, or the
    # wall time of a repetition on the simulated lecture workloads. Both
    # runs are single runs of half the length, so host noise shows.
    kind = "layers" if workload.startswith("lecture") else "metrics"
    basis = "lecture.wall_s" if kind == "layers" else "p50_us"
    before, after = untraced[kind][basis]["value"], traced[kind][basis]["value"]
    metrics["trace_overhead_pct"] = (after / before - 1) * 100
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    traced["correct"] = traced["correct"] and untraced["correct"]
    return traced, metrics


def units(trace):
    return {n: m["unit"] for n, m in (PER_LAYER if trace else END_TO_END).items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def contract_mode(args):
    build()
    summary, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    unit = units(args.trace)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.10g} {unit[name]}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": v, "unit": unit[n]} for n, v in metrics.items()},
    }))
    return 0 if summary["correct"] else 1


def suite_mode(args):
    build()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        sys.exit(f"unknown workloads: {sorted(unknown)}")
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    unit = units(args.trace)
    results, ok = {}, True
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            summary, metrics = measure(workload, args.seed + i, seconds, args.trace, scale)
            ok = ok and summary["correct"]
            runs.append(metrics)
            if not summary["correct"]:
                print(f"{workload} seed {args.seed + i}: {summary['failed']} of "
                      f"{summary['attempted']} failed; checks: {summary.get('errors')}",
                      file=sys.stderr)
        results[workload] = {n: [r[n] for r in runs] for n in runs[0]}
        for name, values in results[workload].items():
            if args.repeat == 1:
                print(f"{workload} {name} {values[0]:.10g} {unit[name]}", flush=True)
                continue
            q1, med, q3 = quartiles(values)
            line = f"{workload} {name} {med:.10g} {unit[name]} q1={q1:.6g} q3={q3:.6g}"
            if name in END_TO_END and not args.trace:
                bound = END_TO_END[name]["bound"]
                line += f" spread={spread(values):.3f} bound={bound} " + (
                    "ok" if spread(values) <= bound / 3 else "NOISY")
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


def compare_mode(parent_path, change_path):
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    regressed = False
    for workload in parent:
        for name, spec in END_TO_END.items():
            if name not in parent[workload] or name not in change.get(workload, {}):
                continue
            before, after = parent[workload][name], change[workload][name]
            p, c = statistics.median(before), statistics.median(after)
            worse = (c - p) / p if spec["better"] == "lower" else (p - c) / p
            if spread(before) > spec["bound"] or spread(after) > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict, regressed = "REGRESSION", True
            else:
                verdict = "ok"
            print(f"{workload} {name} parent={p:.6g} change={c:.6g} "
                  f"worse_by={worse:+.3f} bound={spec['bound']} {verdict}")
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload and print the JSON result last")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..")
    ap.add_argument("--smoke", action="store_true", help="1/20 scale, correctness only")
    ap.add_argument("--out", help="write every run's metrics here (for --compare)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        return compare_mode(*args.compare)
    if args.workload:
        if args.workload not in WORKLOADS:
            sys.exit(f"unknown workload {args.workload}; one of {WORKLOADS}")
        return contract_mode(args)
    return suite_mode(args)


if __name__ == "__main__":
    sys.exit(main())
