#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny] [--expect FILE]

Builds the simulator and p2pd from source (Release, into .bench_build or
$CARGO_TARGET_DIR), runs the workload, checks every simulated world or
served answer, and prints every metric BENCHMARK.json names for the mode —
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1 — by name with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it stamps the result with the host/build fingerprint; the
result is also appended to <build dir>/results.jsonl (see compare.py).
Exit status: 0 when every check passed, 1 on a wrong result, 2 when the
benchmark could not run at all (no result line is printed then).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

import common  # noqa: E402
import servework  # noqa: E402
import simwork  # noqa: E402


def parse_args(bench):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken models, for the self-test")
    p.add_argument("--expect",
                   default=os.path.join(common.BENCH_DIR, "expected.json"),
                   help="pinned counters (see pin.py)")
    return p.parse_args()


def print_table(workload, metrics, self_times):
    common.log("%s:" % workload)
    for name, m in metrics.items():
        common.log("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if self_times:
        common.log("  self time by span (traced run):")
        for name, (n, total, self_t) in sorted(self_times.items()):
            common.log("    %-20s n=%-6d total %9.4f s  self %9.4f s"
                       % (name, n, total, self_t))


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        os.chdir(common.ROOT)
        bench = common.load_benchmark()
    except (OSError, ValueError) as e:
        common.log("perfbench: %s" % e)
        return 2
    args = parse_args(bench)
    try:
        sim_bin, p2pd = common.build()
        with open(args.expect) as f:
            pins = json.load(f)["tiny" if args.tiny else "full"] \
                .get(args.workload, {}).get(str(args.seed))
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        common.log("perfbench: cannot set up: %s" % e)
        return 2

    trace_dir = os.path.join(common.build_dir(), "traces")
    try:
        if args.workload == "serve_mixed":
            attempted, failed, e2e, layer, st = servework.run(
                sim_bin, p2pd, args.seed, args.seconds, args.trace, args.tiny,
                pins, trace_dir)
        else:
            attempted, failed, e2e, layer, st = simwork.run(
                sim_bin, args.workload, args.seed, args.seconds, args.trace,
                args.tiny, pins, trace_dir)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        common.log("perfbench: %s failed: %s" % (args.workload, e))
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else e2e
    # A failed request's infinite latency is written as 1e12 (JSON has no
    # infinity); the result is marked incorrect anyway.
    metrics = {m["name"]: {"value": min(values.get(m["name"], 0.0), 1e12),
                           "unit": m["unit"]}
               for m in bench[section]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    fp = common.fingerprint()
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  tiny=args.tiny, fingerprint=fp, **result)
    with open(os.path.join(common.build_dir(), "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print_table(args.workload, metrics, st)
    print(json.dumps({"fingerprint": fp, "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
