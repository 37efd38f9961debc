#!/usr/bin/env python3
"""Benchmark runner for the IoTLS reproduction.

Builds perfbench_driver from the checkout's sources, runs one workload as a
series of fresh driver processes, checks every output, and prints one JSON
line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the checkout root):

    python3 perfbench/run.py --workload repro|fleet|query [--seed 42]
                             [--seconds 20] [--trace 0|1]

--trace 0 reports the end-to-end metrics of the workload. --trace 1 is the
traced run: spans around every layer call in all three workloads plus the
layer micro-probes, reported as per-layer metrics, and the tracing overhead
on the chosen workload. See perfbench/README.md.

The exit status is 0 only when the workload ran and every check passed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("repro", "fleet", "query")
# A run must end within 180 s; units are cut off before that.
RUN_DEADLINE_S = 170.0
MIN_UNITS = 3
MAX_UNITS = 12
QUERY_PROCESSES = 2
# The traced query loop must hold at least 100 queries, so that 10 or more
# lie beyond p90: 8 rounds of 14 queries (about 2 s a serial round).
TRACED_QUERY_ROUNDS = 8
# Measured units run every fan-out serially (the driver's default): on a few
# shared cores, a parallel fan-out's wall time measures the scheduler. The
# oracle and the traced run's pool unit use every hardware thread.
ALL_THREADS = 0

# Outputs whose digests do not depend on the workload seed.
SEED_FREE = {"table1", "table2", "table3", "table4", "table5", "table6",
             "table7", "table8", "fig5"}
EXPECTED_OUTPUTS = {
    "repro": ["table1", "table2", "table3", "table4", "table5", "table6",
              "table7", "table8", "table9", "fig1", "fig2", "fig3", "fig4",
              "fig5", "summary"],
    "fleet": ["shards", "campaign_tables"],
    "query": ["q%d" % i for i in range(14)] + ["fold"],
}


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and process control.
# --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no sources: %s/src/CMakeLists.txt is missing" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


class Runner:
    """Starts driver processes one at a time inside a per-run work dir."""

    def __init__(self, seed, flip):
        self.seed = seed
        self.flip = flip
        self.start = time.monotonic()
        self.work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
        self.count = 0
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def elapsed(self):
        return time.monotonic() - self.start

    def unit(self, workload, trace=False, budget_s=None, min_rounds=None,
             oracle=False, threads=None):
        self.count += 1
        tag = "%s-%d" % (workload, self.count)
        out = os.path.join(self.work, tag + ".json")
        spans = os.path.join(self.work, tag + ".spans")
        unit_dir = os.path.join(self.work, tag)
        os.makedirs(unit_dir)
        cmd = [DRIVER, "--workload", workload, "--seed", str(self.seed),
               "--out", out, "--run-id", "%s-%d" % (tag, self.seed),
               "--work-dir", unit_dir]
        if trace:
            cmd += ["--trace", "--spans", spans]
        if budget_s is not None:
            cmd += ["--budget-s", "%.3f" % budget_s]
        if min_rounds is not None:
            cmd += ["--min-rounds", str(min_rounds)]
        if oracle:
            cmd.append("--oracle")
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if self.flip is not None:
            cmd += ["--flip", str(self.flip)]
        remaining = RUN_DEADLINE_S - self.elapsed()
        if remaining <= 5:
            raise BenchError("out of time before %s" % tag)
        try:
            # subprocess.run kills and reaps the child on timeout.
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("%s did not finish within %.0f s" % (tag, remaining))
        if proc.returncode != 0:
            raise BenchError("%s exited with %d" % (tag, proc.returncode))
        with open(out) as handle:
            doc = json.load(handle)
        doc["spans"] = []
        if trace:
            with open(spans) as handle:
                doc["spans"] = [json.loads(line) for line in handle]
        shutil.rmtree(unit_dir, ignore_errors=True)
        return doc

    def repeated(self, workload, seconds):
        """Fresh-process units until `seconds` have passed (3 to 12)."""
        units = []
        begin = self.elapsed()
        while len(units) < MIN_UNITS or (
                self.elapsed() - begin < seconds and len(units) < MAX_UNITS):
            units.append(self.unit(workload))
        return units

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


# --------------------------------------------------------------------------
# Correctness.
# --------------------------------------------------------------------------

def committed_digests(workload, seed):
    with open(DIGESTS) as handle:
        table = json.load(handle)
    entry = table.get(workload, {})
    expected = dict(entry.get("seed_free", {}))
    expected.update(entry.get("seeds", {}).get(str(seed), {}))
    return expected


def check(workload, seed, units, oracle=None):
    """Returns (attempted, failed, problems) over every output of every unit.

    An output passes when the driver's own verdict (if any) holds, its
    digest equals the committed or oracle digest (where one exists), and it
    equals the same output of every other unit of the run.
    """
    expected = committed_digests(workload, seed)
    if oracle is not None:
        expected.update({o["name"]: o["digest"] for o in oracle["outputs"]})
    attempted = failed = 0
    problems = []
    reference = {}
    for unit in units:
        seen = {o["name"]: o for o in unit["outputs"]}
        for name in EXPECTED_OUTPUTS[workload]:
            attempted += 1
            output = seen.get(name)
            if output is None:
                failed += 1
                problems.append("%s: %s missing" % (unit["run_id"], name))
                continue
            ok = output["ok"] is not False
            if name in expected and output["digest"] != expected[name]:
                ok = False
            if reference.setdefault(name, output["digest"]) != output["digest"]:
                ok = False
            if not ok:
                failed += 1
                problems.append("%s: %s failed its check" % (unit["run_id"], name))
    return attempted, failed, problems


# --------------------------------------------------------------------------
# Metrics.
# --------------------------------------------------------------------------

def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    if len(values) < 2:
        return median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def query_round(units):
    """(wall s, cpu s) of one round of the query loop: for each of its 15
    operations, the median over every time the run executed it, summed."""
    by_op = {}
    for unit in units:
        for op in unit["ops"]:
            by_op.setdefault(op["op"], []).append(op)
    if len(by_op) != len(EXPECTED_OUTPUTS["query"]):
        raise BenchError("the query loop did not run every operation")
    return (sum(median(o["ms"] for o in ops) for ops in by_op.values()) / 1e3,
            sum(median(o["cpu_ms"] for o in ops)
                for ops in by_op.values()) / 1e3)


def end_to_end(workload, units):
    values = {
        "setup_s": median(u["values"]["setup_s"] for u in units),
        "peak_rss_mb": median(u["values"]["peak_rss_mb"] for u in units),
    }
    if workload == "query":
        values["work_s"], values["work_cpu_s"] = query_round(units)
    else:
        values["work_s"] = median(u["values"]["work_s"] for u in units)
        values["work_cpu_s"] = median(u["values"]["work_cpu_s"] for u in units)
    return values


E2E_UNITS = {"setup_s": "s", "work_s": "s", "work_cpu_s": "s",
             "peak_rss_mb": "MiB"}


def span_ms(units, name):
    return [(s["end_ns"] - s["start_ns"]) / 1e6
            for u in units for s in u["spans"] if s["name"] == name]


def counter(unit, family):
    for fam in unit.get("metrics", {}).get("families", []):
        if fam["name"] == family:
            return sum(v["value"] for v in fam["values"])
    return 0.0


def per_layer(workload, traced, base, pool, probes):
    """Per-layer metrics from the traced units (a dict: workload -> units);
    `pool` holds the chosen workload's traced unit on every hardware
    thread."""
    repro, fleet, query = traced["repro"], traced["fleet"], traced["query"]
    own = traced[workload]
    every = repro + fleet + query + probes
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def med_span(units, span, scale=1.0):
        return median(span_ms(units, span)) * scale

    for bits in (256, 1024, 2048):
        put("crypto.modexp_%d_us" % bits,
            med_span(probes, "crypto.modexp_%d" % bits, 1e3), "us")
    put("crypto.rsa_private_op_1024_us",
        med_span(probes, "crypto.rsa_private_op_1024", 1e3), "us")
    put("crypto.keygen_512_ms", med_span(probes, "crypto.keygen_512"), "ms")
    put("crypto.sha256_mib_per_s",
        1e3 / med_span(probes, "crypto.sha256_1mib"), "MiB/s")
    hits = median(counter(u, "iotls_crypto_cache_hits_total") for u in own)
    misses = median(counter(u, "iotls_crypto_cache_misses_total") for u in own)
    put("crypto.cache_hit_share", hits / max(hits + misses, 1.0), "fraction")

    put("pki.universe_ms", med_span(every, "pki.universe"), "ms")

    put("tls.full_handshake_us",
        med_span(probes, "tls.full_handshake", 1e3), "us")
    put("tls.resumed_handshake_us",
        med_span(probes, "tls.resumed_handshake", 1e3), "us")
    put("tls.handshakes",
        median(counter(u, "iotls_tls_handshakes_total") for u in own), "count")
    put("tls.handshakes_per_s",
        median(counter(u, "iotls_tls_handshakes_total") /
               u["values"]["process_s"] for u in own), "1/s")

    for span in ("testbed.construct", "testbed.passive", "core.table4",
                 "mitm.downgrade", "mitm.old_version", "mitm.interception",
                 "probe.root_store", "fingerprint.study", "analysis.render"):
        put(span + "_ms", med_span(repro, span), "ms")
    put("testbed.connections",
        median(counter(u, "iotls_testbed_connections_total") for u in repro),
        "count")
    put("probe.pairs",
        median(counter(u, "iotls_probe_pairs_total") for u in repro), "count")

    for span in ("analysis.fold_store_scan", "analysis.fold_store",
                 "analysis.fold_dataset"):
        put(span + "_ms", med_span(query, span), "ms")

    for span in ("fleet.synth", "fleet.campaign", "fleet.template_bank"):
        put(span + "_ms", med_span(fleet, span), "ms")
    for name, unit in (("fleet.template_handshakes", "count"),
                       ("fleet.probe_keys", "count"),
                       ("store.bytes_written", "bytes"),
                       ("store.write_mib_per_s", "MiB/s")):
        put(name, median(u["values"][name] for u in fleet), unit)
    put("store.validate_mib_per_s",
        median(u["values"]["store.validate_mib_per_s"] for u in query), "MiB/s")
    put("store.index_ms", med_span(query, "store.index"), "ms")

    ops = [op for u in query for op in u["ops"]]
    queries = [op for op in ops if op["class"] != "fold"]
    for cls in ("pushdown", "full_scan", "projected", "contains", "group_by"):
        put("query.%s_ms" % cls, med_span(query, "query." + cls), "ms")
    blocks_total = sum(op["blocks_total"] for op in queries)
    put("query.block_skip_share",
        1.0 - sum(op["blocks_scanned"] for op in queries) / max(blocks_total, 1),
        "fraction")
    put("query.rows_scanned_per_s",
        sum(op["rows_scanned"] for op in queries) /
        max(sum(op["ms"] for op in queries) / 1e3, 1e-9), "1/s")
    put("query.p50_ms", quantile([op["ms"] for op in queries], 0.50), "ms")
    put("query.p90_ms", quantile([op["ms"] for op in queries], 0.90), "ms")
    put("query.count", len(queries), "count")
    put("analysis.fold_p50_ms",
        quantile([op["ms"] for op in ops if op["class"] == "fold"], 0.50), "ms")

    threads = os.cpu_count() or 1
    put("pool.busy_share",
        median(u["values"]["process_cpu_s"] /
               (u["values"]["process_s"] * threads) for u in pool), "fraction")
    put("pool.steals",
        median(counter(u, "iotls_pool_steals_total") for u in pool), "count")

    traced_e2e = end_to_end(workload, own)
    base_e2e = end_to_end(workload, base)
    for name, unit in E2E_UNITS.items():
        put("trace.overhead." + name, traced_e2e[name] - base_e2e[name], unit)
    return metrics


# --------------------------------------------------------------------------
# Runs.
# --------------------------------------------------------------------------

def measure(runner, workload, seconds, trace):
    """Runs the units a run needs; returns (units by role, checks)."""
    checks = []
    oracle = None
    if (workload == "query" or trace) and not committed_digests("query",
                                                              runner.seed):
        # No committed answers for this seed: compute them with the naive
        # scan in a process of its own, outside every measurement.
        oracle = runner.unit("query", oracle=True, threads=ALL_THREADS)

    if not trace:
        if workload == "query":
            units = [runner.unit("query", budget_s=seconds / QUERY_PROCESSES)
                     for _ in range(QUERY_PROCESSES)]
        else:
            units = runner.repeated(workload, seconds)
        checks.append(check(workload, runner.seed, units, oracle))
        return {"base": units}, checks

    # The traced run: the chosen workload untraced and traced (for the
    # overhead) and traced once on every hardware thread (for the pool),
    # every other workload traced once, and the micro-probes.
    roles = {"base": [], "traced": {}}
    if workload == "query":
        half = TRACED_QUERY_ROUNDS // 2
        # The untraced units only give the overhead's baseline: fewer rounds.
        roles["base"] = [runner.unit("query", budget_s=0, min_rounds=2)
                         for _ in range(2)]
        roles["traced"]["query"] = [
            runner.unit("query", trace=True, budget_s=0, min_rounds=half)
            for _ in range(2)]
        roles["pool"] = [runner.unit("query", trace=True, budget_s=0,
                                     threads=ALL_THREADS)]
    else:
        roles["base"] = [runner.unit(workload) for _ in range(2)]
        roles["traced"][workload] = [runner.unit(workload, trace=True)
                                     for _ in range(2)]
        roles["pool"] = [runner.unit(workload, trace=True,
                                     threads=ALL_THREADS)]
    for name in WORKLOADS:
        if name not in roles["traced"]:
            rounds = TRACED_QUERY_ROUNDS if name == "query" else None
            roles["traced"][name] = [runner.unit(
                name, trace=True, budget_s=0 if rounds else None,
                min_rounds=rounds)]
    for name in WORKLOADS:
        units = roles["traced"][name]
        if name == workload:
            units = units + roles["base"] + roles["pool"]
        checks.append(check(name, runner.seed, units,
                            oracle if name == "query" else None))
    roles["probes"] = [runner.unit("probes", trace=True)]
    if roles["probes"][0]["values"]["probes.failures"] != 0:
        checks.append((1, 1, ["probes: a micro-probe handshake failed"]))
    return roles, checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Corrupts one byte of the K-th checked output of every unit; used by
    # perfbench/test_run.py to show that the checks count it.
    parser.add_argument("--flip", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # On SIGTERM, unwind: subprocess.run kills and reaps a running driver.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log("build failed: %s" % error)
        return 2

    runner = Runner(args.seed, args.flip)
    try:
        roles, checks = measure(runner, args.workload, args.seconds,
                                args.trace == 1)
        if args.trace:
            metrics = per_layer(args.workload, roles["traced"], roles["base"],
                                roles["pool"], roles["probes"])
        else:
            metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                       for name, value in
                       end_to_end(args.workload, roles["base"]).items()}
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("run failed: %s" % error)
        return 1
    finally:
        runner.close()

    attempted = sum(c[0] for c in checks)
    failed = sum(c[1] for c in checks)
    for problems in (c[2] for c in checks):
        for problem in problems:
            log(problem)
    for name, metric in sorted(metrics.items()):
        log("%-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    log("error_share %.6g (%d of %d checked outputs failed)" %
        (failed / max(attempted, 1), failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
