#!/usr/bin/env python3
"""CI perf smoke: sanity-check benchmark JSON and print/gate deltas.

Usage: perf_smoke_delta.py [--fail-below PCT]
                           BENCH_hotpath.json NAME=RESULT.json [...]

Each RESULT.json is a google-benchmark --benchmark_format=json output;
NAME selects the matching section of BENCH_hotpath.json (the committed
reference numbers). The script fails if a result file is not valid JSON,
has no benchmarks, or reports a non-positive items_per_second -- i.e. the
bench did not actually run.

--fail-below PCT adds a soft perf gate: a benchmark whose items_per_second
falls more than PCT percent below its committed post_items_per_second
fails the run. The tolerance should stay generous (50+): CI machines
differ wildly from the machine that produced the committed numbers, so
the gate only catches order-of-magnitude collapses, not few-percent
drift. Without the flag, deltas are informational as before.
"""

import argparse
import json
import sys


def load_items(path):
    with open(path) as f:
        data = json.load(f)
    benches = data.get("benchmarks", [])
    items = {
        b["name"]: b["items_per_second"]
        for b in benches
        if "items_per_second" in b and not b["name"].endswith(("_mean", "_median", "_stddev", "_cv"))
    }
    if not items:
        sys.exit(f"{path}: no benchmarks with items_per_second -- bench did not run?")
    for name, rate in items.items():
        if not rate > 0:
            sys.exit(f"{path}: {name} reports items_per_second={rate}")
    return items


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--fail-below", type=float, default=None, metavar="PCT",
                        help="fail if a bench is more than PCT%% below its "
                             "committed reference (keep generous, e.g. 75)")
    parser.add_argument("reference", help="committed reference JSON (BENCH_hotpath.json)")
    parser.add_argument("specs", nargs="*", metavar="NAME=RESULT.json")
    args = parser.parse_args(argv[1:])

    with open(args.reference) as f:
        reference = json.load(f)

    failures = []
    for spec in args.specs:
        name, _, path = spec.partition("=")
        items = load_items(path)
        ref = reference.get(name, {})
        print(f"== {name} ({len(items)} benchmarks) vs committed reference ==")
        for bench, rate in items.items():
            committed = ref.get(bench, {}).get("post_items_per_second")
            if committed:
                delta = (rate / committed - 1) * 100
                print(f"  {bench}: {rate:.3e} items/s ({delta:+.1f}% vs reference {committed:.3e})")
                if args.fail_below is not None and delta < -args.fail_below:
                    failures.append(f"{name}/{bench}: {delta:+.1f}% "
                                    f"(limit -{args.fail_below:.0f}%)")
            else:
                print(f"  {bench}: {rate:.3e} items/s (no committed reference)")

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        sys.exit(f"perf smoke: {len(failures)} benchmark(s) below the "
                 f"--fail-below {args.fail_below:.0f}% tolerance")
    if args.fail_below is not None:
        print(f"perf smoke OK (all benches within {args.fail_below:.0f}% of reference)")
    else:
        print("perf smoke OK (deltas are informational; no threshold gate)")


if __name__ == "__main__":
    main(sys.argv)
