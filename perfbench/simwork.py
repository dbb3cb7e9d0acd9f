"""The simulation workloads (paper150, churn500, mega10k): run perfbench_sim in
a fresh process, check every simulated world, and turn its measurements
into metrics."""

import json
import os
import subprocess

from common import ROOT, log, median, percentile, read_spans, self_times

WORKLOADS = ("paper150", "churn500", "mega10k")

# Model outputs a speed-only change must leave bit-identical; pinned per
# world for the pinned seeds in expected.json.
PINNED = ("events", "frames_tx", "frames_delivered", "queries", "answered",
          "answers", "connect_msgs", "ping_msgs", "query_msgs",
          "routing_control", "churn_deaths", "churn_recoveries",
          "connections_established", "connections_closed")


def run_sim(sim_bin, workload, seed, seconds, spans_path, tiny, timeout):
    cmd = [sim_bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if spans_path:
        cmd += ["--trace", spans_path]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_sim exited with %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def world_key(w):
    return "%s/%d" % (w["alg"], w["seed"])


def invariant_problems(workload, c):
    problems = []
    if c["events"] <= 0 or c["frames_delivered"] <= 0:
        problems.append("no events or no delivered frames")
    if c["queue_pops"] != c["events"]:
        problems.append("queue_pops != events")
    if c["answered"] > c["queries"] or c["answers"] < c["answered"]:
        problems.append("answered outside [0, queries] or above answers")
    if c["frames_lost"] > c["frames_tx"]:
        problems.append("more frames lost than sent")
    if (c["churn_deaths"] > 0) != (workload == "churn500"):
        problems.append("churn deaths on the wrong workload")
    return problems


def check(workload, iters, pins):
    """Count every simulated world and every failed one. A world fails if
    its counters differ from the same world's in the first iteration
    (traced runs included), break an invariant, or (for a pinned seed)
    differ from the pin."""
    first, attempted, failed = {}, 0, 0
    for it in iters:
        for w in it["worlds"]:
            attempted += 1
            key, c = world_key(w), w["counters"]
            problems = invariant_problems(workload, c)
            if key in first and c != first[key]:
                problems.append("counters differ from the first iteration"
                                + (" (traced run)" if it["traced"] else ""))
            first.setdefault(key, c)
            if pins is not None:
                pin = pins.get(key)
                if pin is None:
                    problems.append("no pinned counters")
                else:
                    problems += ["%s = %s, pinned %s" % (k, c.get(k), v)
                                 for k, v in pin.items() if c.get(k) != v]
            if problems:
                failed += 1
                log("FAIL %s %s: %s" % (workload, key, "; ".join(problems)))
    return attempted, failed


def pins_of(iters):
    """Pinned counters of every world of the first iteration."""
    return {world_key(w): {k: w["counters"][k] for k in PINNED}
            for w in iters[0]["worlds"]}


def end_to_end(records, iters):
    """A request is one iteration, the whole batch of worlds the workload's
    user waits for: requests_per_s is iterations per second of wall time
    and p50_ms/p99_ms are percentiles of iteration wall times (untraced
    iterations only)."""
    plain = [it for it in iters if not it["traced"]]
    walls_ms = [it["wall_s"] * 1e3 for it in plain]
    return {
        "events_per_s": median(sum(w["counters"]["events"]
                                   for w in it["worlds"]) / it["wall_s"]
                               for it in plain),
        "setup_s": median(r["s"] for r in records if r["type"] == "setup"),
        "peak_rss_mb": records[-1]["peak_rss_mb"],
        "requests_per_s": len(plain) * 1e3 / sum(walls_ms),
        "p50_ms": percentile(walls_ms, 50),
        "p99_ms": percentile(walls_ms, 99),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(iters, spans):
    """Per-layer metrics of a traced run: counts from one traced iteration
    (every iteration's are identical, as check() enforces), timings as the
    median over traced iterations, self times from the spans."""
    traced = [it for it in iters if it["traced"]]
    plain = [it for it in iters if not it["traced"]]
    worlds = traced[0]["worlds"]

    def total(key):
        return sum(w["counters"][key] for w in worlds)

    def peak_mb(key):
        return max(w["counters"][key] for w in worlds) / 2 ** 20

    events = total("events")
    simulate = median(sum(w["windows_s"] for w in it["worlds"])
                      for it in traced)
    window_cost = [(s["end_s"] - s["start_s"]) * 1e9 / s["attrs"]["events"]
                   for s in spans if s["name"] == "simulate.window"
                   and s["attrs"]["events"] >= 1000]
    m = {
        "scenario.build_s": median(sum(w["build_s"] for w in it["worlds"])
                                   for it in traced),
        "scenario.simulate_s": simulate,
        "scenario.ns_per_event": simulate * 1e9 / events,
        "scenario.window_ns_per_event_max": max(window_cost, default=0.0),
        "scenario.pool_busy_share": median(
            sum(w["wall_s"] for w in it["worlds"]) /
            (it["threads"] * it["wall_s"]) for it in traced),
        "scenario.threads": traced[0]["threads"],
        "scenario.wall_s": median(it["wall_s"] for it in traced),
        "scenario.cpu_s": median(it["cpu_s"] for it in traced),
        "scenario.worlds": len(worlds),
        "graph.collect_s": median(sum(w["run_s"] for w in it["worlds"])
                                  for it in traced),
        "sim.events": events,
        "sim.queue_pushes": total("queue_pushes"),
        "sim.queue_pops": total("queue_pops"),
        "sim.peak_queue": max(w["counters"]["peak_queue"] for w in worlds),
        "sim.queue_peak_raw": max(w["counters"]["queue_peak_raw"]
                                  for w in worlds),
        "sim.tombstones_purged": total("tombstones_purged"),
        "sim.cancel_ratio": _ratio(total("tombstones_purged"),
                                   total("queue_pushes")),
        "sim.queue_compactions": total("queue_compactions"),
        "net.frames_tx": total("frames_tx"),
        "net.frames_delivered": total("frames_delivered"),
        "net.frames_lost": total("frames_lost"),
        "net.fanout": _ratio(total("frames_delivered"), total("frames_tx")),
        "net.loss_ratio": _ratio(total("frames_lost"), total("frames_tx")),
        "net.adjacency_builds": total("adjacency_builds"),
        "net.payload_acquires": total("payload_acquires"),
        "net.payload_slab_allocs": total("payload_slab_allocs"),
        "net.alloc_ratio": _ratio(total("payload_slab_allocs"),
                                  total("payload_acquires")),
        "net.mem_mb": peak_mb("net_mem_bytes"),
        "routing.control_msgs": total("routing_control"),
        "routing.data_delivered": total("data_delivered"),
        "routing.data_dropped": total("data_dropped"),
        "routing.delivery_ratio": _ratio(
            total("data_delivered"),
            total("data_delivered") + total("data_dropped")),
        "routing.mem_mb": peak_mb("routing_mem_bytes"),
        "core.queries": total("queries"),
        "core.answered": total("answered"),
        "core.answers": total("answers"),
        "core.query_success": _ratio(total("answered"), total("queries")),
        "core.connect_msgs": total("connect_msgs"),
        "core.ping_msgs": total("ping_msgs"),
        "core.query_msgs": total("query_msgs"),
        "core.connections_established": total("connections_established"),
        "core.connections_closed": total("connections_closed"),
        "core.mem_mb": peak_mb("servent_mem_bytes"),
        "fault.deaths": total("churn_deaths"),
        "fault.recoveries": total("churn_recoveries"),
        "fault.overlay_repairs": total("overlay_repairs"),
        "fault.disrupted_s": total("overlay_disrupted_s"),
        "trace.overhead_share": median(it["wall_s"] for it in traced) /
        median(it["wall_s"] for it in plain) - 1.0,
        "trace.spans": len(spans),
    }
    st = self_times(spans)
    runs = len(traced)
    for name, metric in (("iteration", "self.iteration_s"),
                         ("experiment", "self.experiment_s"),
                         ("world", "self.world_s"), ("build", "self.build_s"),
                         ("simulate.window", "self.simulate_s"),
                         ("collect", "self.collect_s")):
        m[metric] = st.get(name, (0, 0.0, 0.0))[2] / runs
    return m, st


def run(sim_bin, workload, seed, seconds, trace, tiny, pins, trace_dir):
    """Returns (attempted, failed, end-to-end metrics, per-layer metrics or
    None, self-time table or None)."""
    spans_path = None
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
        spans_path = os.path.join(trace_dir, "%s-seed%d.jsonl"
                                  % (workload, seed))
    # perfbench_sim stops starting iterations at `seconds` but runs at least
    # one (two when traced), so allow twice that plus a margin.
    records = run_sim(sim_bin, workload, seed, seconds, spans_path, tiny,
                      timeout=2 * seconds + 120)
    iters = [r for r in records if r["type"] == "iter"]
    if not iters or records[-1]["type"] != "end":
        raise RuntimeError("perfbench_sim output is incomplete")
    attempted, failed = check(workload, iters, pins)
    e2e = end_to_end(records, iters)
    if not trace:
        return attempted, failed, e2e, None, None
    layer, st = per_layer(iters, read_spans(spans_path))
    return attempted, failed, e2e, layer, st
