#!/usr/bin/env python3
"""Checks a bench --metrics-json dump against a checked-in baseline.

  bench_check.py <metrics.json> [<baseline.json>] [--zero <counter>]...

Every baseline counter, keyed by name plus sorted labels, must match the
dump exactly; a counter missing from the dump counts as drift. Counters the
baseline does not list may take any value. Each --zero names an unlabeled
counter that must be present in the dump and equal to 0 (e.g. the payload
copy counters of the zero-copy relay path). Exits nonzero on any drift.
"""

import argparse
import json
import sys


def counters(path):
    with open(path) as f:
        return {(c["name"], json.dumps(c["labels"], sort_keys=True)): c["value"]
                for c in json.load(f)["counters"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("metrics")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("--zero", action="append", default=[], metavar="COUNTER")
    args = parser.parse_args()

    got = counters(args.metrics)
    want = counters(args.baseline) if args.baseline else {}
    for name in args.zero:
        want[(name, json.dumps({}))] = 0
    drift = {k: (want[k], got.get(k)) for k in want if got.get(k) != want[k]}
    if drift:
        source = args.baseline or "--zero"
        print(f"counter drift vs {source} (want, got): {drift}", file=sys.stderr)
        return 1
    print(f"{len(want)} baseline counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
