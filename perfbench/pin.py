#!/usr/bin/env python3
"""Regenerate perfbench/expected.json: the pinned counters of every
simulated world (and of serve_mixed's warm units) for the pinned and the
held-out seed, at full and at tiny scale.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the simulated model; a
speed-only change must leave expected.json as it is.
"""

import json
import os
import sys

sys.dont_write_bytecode = True

import common  # noqa: E402
import servework  # noqa: E402
import simwork  # noqa: E402


def main():
    os.chdir(common.ROOT)
    sim_bin, _ = common.build()
    out = {}
    for scale, tiny in (("full", False), ("tiny", True)):
        out[scale] = {}
        for workload in simwork.WORKLOADS:
            out[scale][workload] = {}
            for seed in (common.DEFAULT_SEED, common.HELDOUT_SEED):
                common.log("pinning %s %s seed %d" % (scale, workload, seed))
                records = simwork.run_sim(sim_bin, workload, seed, 0, None,
                                          tiny, timeout=600)
                iters = [r for r in records if r["type"] == "iter"]
                out[scale][workload][str(seed)] = simwork.pins_of(iters)
        out[scale]["serve_mixed"] = {
            str(seed): servework.pins_of(sim_bin, seed, tiny)
            for seed in (common.DEFAULT_SEED, common.HELDOUT_SEED)}
    path = os.path.join(common.BENCH_DIR, "expected.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    common.log("wrote " + path)


if __name__ == "__main__":
    main()
