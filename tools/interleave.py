#!/usr/bin/env python3
"""Interleaved runs of one benchmark workload from two checkouts.

  interleave.py PARENT_ROOT CHANGE_ROOT --workload gateway --pairs 10 --seed 4242

Runs `bench/suite/run.py --workload W --seed S` in each checkout in turn,
N pairs, alternating which side runs first so that a drift of the host
touches both alike. Each checkout builds its own suite into its own
build-bench/. For every end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither), and two verdicts:

  gain   the change won at least 9 of every 10 pairs, and its median is
         better than the parent's by more than the parent's interquartile
         range
  bound  the change's median is worse than the parent's by no more than the
         metric's bound (run.py --compare's rule)

It also prints failed/attempted per side. Exits 1 when a metric is worse
than its bound or a run fails its output checks. --out saves every run's
metrics as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def run_side(root, args):
    """One run.py contract run in `root`; returns its JSON result."""
    cmd = [sys.executable, "bench/suite/run.py", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{root}: run.py printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdicts(spec, parent, change):
    """(wins, gain, worse_by, within_bound) of `change` against `parent`."""
    lower = spec["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = (p_med - c_med) if lower else (c_med - p_med)
    gain = wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1
    worse_by = -gap / p_med if p_med else 0.0
    return wins, gain, worse_by, worse_by <= spec["bound"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--out", type=Path, help="write every run's metrics here")
    args = ap.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(getattr(args, side), args))
        line = " ".join(
            f"{side}={runs[side][-1]['metrics']['ops_per_s']['value']:.6g}"
            for side in ("parent", "change") if "ops_per_s" in runs[side][-1]["metrics"])
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first) ops_per_s {line}",
              file=sys.stderr, flush=True)

    ok = True
    print(f"{args.workload}: {args.pairs} pairs at seed {args.seed}")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        ok = ok and correct and failed == 0
        print(f"  {side}: {failed} of {attempted} failed, checks "
              f"{'held' if correct else 'FAILED'}")
    print(f"  {'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'won':>6} {'gain':>5} {'worse_by':>9} {'bound':>6} verdict")
    for m in spec:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins, gain, worse_by, within = verdicts(m, parent, change)
        ok = ok and within
        cols = []
        for values in (parent, change):
            q1, med, q3 = quartiles(values)
            cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {name:<12} {cols[0]:>30} {cols[1]:>30} {wins:>3}/{len(parent):<2}"
              f" {'yes' if gain else 'no':>5} {worse_by:>+9.3f} {m['bound']:>6}"
              f" {'ok' if within else 'WORSE'}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
