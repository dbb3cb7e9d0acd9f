#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. the parent commit's and a
change's, by the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as run.py appends them to
<build dir>/results.jsonl (untraced, full-scale records are used). Refuses,
with exit status 2, to compare records whose host/build fingerprints differ
in anything but the code revision. For every workload and end-to-end
metric it prints both medians and quartiles, the change as a share of the
base median, and REGRESSION where the new median is worse by more than the
metric's bound; the exit status is 1 if any is.
"""

import json
import statistics
import sys

sys.dont_write_bytecode = True

import common  # noqa: E402


def load(path):
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return [r for r in recs if not r["trace"] and not r["tiny"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("no untraced full-scale records to compare", file=sys.stderr)
        return 2
    ref = base[0]["fingerprint"]
    for r in base + new:
        diff = common.comparable(ref, r["fingerprint"])
        if diff:
            print("refusing to compare: fingerprints differ in %s"
                  % ", ".join(diff), file=sys.stderr)
            return 2
    bench = common.load_benchmark()
    worse = 0
    print("%-12s %-16s %12s %12s %8s %6s" %
          ("workload", "metric", "base median", "new median", "change",
           "bound"))
    for wl in [w["name"] for w in bench["workloads"]]:
        b = [r for r in base if r["workload"] == wl]
        n = [r for r in new if r["workload"] == wl]
        if not b or not n:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            bq = quartiles([r["metrics"][name]["value"] for r in b])
            nq = quartiles([r["metrics"][name]["value"] for r in n])
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            bad = change > m["bound"] if m["better"] == "lower" \
                else change < -m["bound"]
            worse += bad
            print("%-12s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%%s" %
                  (wl, name, bq[1], nq[1], 100 * change, 100 * m["bound"],
                   "  REGRESSION" if bad else ""))
            print("%-12s %-16s   quartiles base [%.5g, %.5g] new [%.5g, %.5g]"
                  " (%d/%d runs)" % ("", "", bq[0], bq[2], nq[0], nq[2],
                                     len(b), len(n)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
