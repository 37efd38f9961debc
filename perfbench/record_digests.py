#!/usr/bin/env python3
"""Records the golden output digests perfbench/run.py checks against.

For each seed it runs one repro unit, one fleet unit and one query oracle
unit (every query answered by run_query_naive, the fold by the in-memory
renders) and stores their output digests in perfbench/digests.json. The
repro outputs that do not depend on the seed must come out identical at
every seed; the script fails otherwise.

Usage (from the checkout root; re-bless only with a reason in CHANGES.md):

    python3 perfbench/record_digests.py --seeds 0-31,42 [--workloads query]
"""

import argparse
import json
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,42")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS),
                        help="comma-separated subset of %(default)s")
    args = parser.parse_args()
    if not set(args.workloads.split(",")) <= set(run.WORKLOADS):
        parser.error("--workloads: not a subset of %s" %
                     ",".join(run.WORKLOADS))

    run.build()
    with open(run.DIGESTS) as handle:
        table = json.load(handle)
    for workload in run.WORKLOADS:
        table.setdefault(workload, {}).setdefault("seeds", {})
    table["repro"].setdefault("seed_free", {})

    for seed in parse_seeds(args.seeds):
        runner = run.Runner(seed, None)
        record = {
            "repro": lambda: runner.unit("repro"),
            "fleet": lambda: runner.unit("fleet"),
            "query": lambda: runner.unit("query", oracle=True,
                                         threads=run.ALL_THREADS),
        }
        try:
            units = {w: record[w]() for w in args.workloads.split(",")}
        finally:
            runner.close()
        for workload, unit in units.items():
            digests = {o["name"]: o["digest"] for o in unit["outputs"]}
            if workload == "repro":
                seed_free = {k: v for k, v in digests.items()
                             if k in run.SEED_FREE}
                known = table["repro"]["seed_free"]
                if known and known != seed_free:
                    sys.exit("seed %d: seed-free repro outputs differ" % seed)
                table["repro"]["seed_free"] = seed_free
                digests = {k: v for k, v in digests.items()
                           if k not in run.SEED_FREE}
            table[workload]["seeds"][str(seed)] = digests
        with open(run.DIGESTS, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("recorded seed %d" % seed, flush=True)


if __name__ == "__main__":
    main()
