"""The serve_mixed workload: the real p2pd daemon over its Unix socket,
driven closed-loop by this process over four connections with a seeded mix
of warm repeats, cold units, duplicate cold units sent on two connections
at once, and malformed lines. Every answer is checked.

Every run request asks for three seeds, the shape docs/serving.md shows.
The shares of the mix are assumptions (the repository holds no trace of
real traffic); perfbench/README.md gives the reason for each.
"""

import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import time

from common import ROOT, build_dir, log, median, percentile, self_times

CONNECTIONS = 4
WORKERS = 2
WARM_UNITS = 8
SEEDS_PER_REQUEST = 3
SETUP_LAUNCHES = 25
# Jobs per class in every deck of 1000, dealt in a seeded shuffle (fixed
# proportions, so a run's mix does not vary with the seed; the reasons are
# in perfbench/README.md); a dedup job sends one cold request on two
# connections at the same instant.
MIX = (("warm", 900), ("cold", 40), ("dedup", 5), ("bad_json", 18),
       ("bad_value", 18), ("unknown_key", 18), ("oversized", 1))
MALFORMED = {
    "bad_json": ('{"config":{"num_nodes":50', "bad_json"),
    "bad_value": ('{"config":{"num_nodes":"fifty"}}', "bad_config"),
    "unknown_key": ('{"config":{"no_such_key":1}}', "bad_config"),
    # Twice p2pd's 1 MiB line limit, as in tests/test_serve.cpp. (A line
    # less than one 4 KiB read past the limit can slip through when its
    # tail arrives with the newline: see perfbench/README.md.)
    "oversized": ('{"config":{"pad":"' + "x" * (2 << 20) + '"}}',
                  "too_large"),
}
# A daemon silent this long with requests outstanding (or at start-up) has
# hung.
STALL_S = 30
# Cold units checked byte for byte against the batch path after the run.
COLD_REFERENCE_SAMPLE = 4
# Seed-line fields pinned for the warm units of the pinned seeds.
PINNED = ("events", "frames_tx", "frames_rx", "queue_pushes")


def unit_overrides(tiny):
    """Scenario overrides of one unit: the paper's 50-node scenario (the
    default parameters), shortened at tiny scale."""
    return {"duration_s": "600" if tiny else "3600"}


# The trailer of a run request that was served in full.
DONE = ('{"type":"done","requested":%d,"served":%d,"errors":0}'
        % (SEEDS_PER_REQUEST, SEEDS_PER_REQUEST))


def request_line(overrides, seeds):
    return json.dumps({"config": overrides, "seeds": list(seeds)},
                      separators=(",", ":"))


def reference_lines(sim_bin, overrides, seeds):
    """Seed lines the batch path produces for `seeds` (in order)."""
    cmd = [sim_bin, "--serve-reference", "--seeds",
           ",".join(str(s) for s in seeds)]
    cmd += ["%s=%s" % kv for kv in sorted(overrides.items())]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=120).stdout.splitlines()
    return dict(zip(seeds, out))


class Daemon:
    """One p2pd process with a fresh cache directory, listening once the
    constructor returns (p2pd announces "serving on" on standard error after
    it listens); `launched` is the monotonic time just before the launch.
    stop() reaps it and returns its peak RSS in MB."""

    def __init__(self, p2pd, run_dir):
        # Relative to the working directory (the checkout root): sun_path
        # holds only about 107 bytes.
        self.sock_path = os.path.relpath(os.path.join(run_dir, "p.sock"))
        self.cache = os.path.join(run_dir, "cache")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(self.cache)
        env = dict(os.environ, P2P_BENCH_CACHE=self.cache)
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [p2pd, "--socket", self.sock_path, "--workers", str(WORKERS)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stderr, selectors.EVENT_READ)
            up = sel.select(timeout=STALL_S) and \
                b"serving on" in self.proc.stderr.readline()
        self.proc.stderr.close()
        if not up:
            self.stop()
            raise RuntimeError("p2pd did not come up")

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.sock_path)
        except OSError:
            s.close()
            raise
        return s

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = status
            return usage.ru_maxrss / 1024.0
        except ChildProcessError:
            self.proc.wait()
            return 0.0


def ask(sock, line):
    """Blocking request on a plain socket: send one line, read the answer
    up to and including its last line."""
    sock.sendall(line.encode() + b"\n")
    buf, lines = b"", []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError("p2pd closed the connection")
        buf += chunk
        while b"\n" in buf:
            raw, buf = buf.split(b"\n", 1)
            lines.append(raw.decode())
            if line == "STATS" or answer_complete(lines[-1]):
                return lines


def answer_complete(last):
    """Whether `last` ends the answer to a run request: the trailer, or a
    request-level error (a per-seed error names its seed). Plain string
    tests keep the client's share of the measured latency small."""
    return last.startswith('{"type":"done"') or (
        last.startswith('{"type":"error"') and '"seed":' not in last)


def jobs(seed, tiny):
    """The seeded job stream: (kind, seeds of a run request or None, the new
    unit of a cold or dedup request or None). Unit seeds are
    seed * 10**6 + k: k <= WARM_UNITS are the warm set, every cold or dedup
    job gets a fresh, larger k, so its new unit is its last seed."""
    rng = random.Random(seed)
    deck = [k for k, n in MIX for _ in range(n)]
    warm = warm_units(seed)
    fresh = seed * 10 ** 6 + WARM_UNITS
    while True:
        rng.shuffle(deck)
        for kind in deck:
            if kind == "oversized" and tiny:
                kind = "bad_json"
            if kind == "warm":
                yield kind, tuple(sorted(rng.sample(warm,
                                                    SEEDS_PER_REQUEST))), None
            elif kind in ("cold", "dedup"):
                fresh += 1
                cached = sorted(rng.sample(warm, SEEDS_PER_REQUEST - 1))
                yield kind, tuple(cached) + (fresh,), fresh
            else:
                yield kind, None, None


class Conn:
    def __init__(self, sock, index):
        self.sock, self.index = sock, index
        self.out, self.inbuf = b"", b""
        self.lines = []
        self.job = None


def closed_loop(daemon, seed, tiny, overrides, warm_ref, deadline=None,
                job_limit=None, spans=None):
    """Run jobs until `deadline` (monotonic) or `job_limit` jobs, then drain.
    Returns a dict of per-request samples and the answers in job order."""
    sel = selectors.DefaultSelector()
    conns = [Conn(daemon.connect(), i) for i in range(CONNECTIONS)]
    for c in conns:
        c.sock.setblocking(False)
        sel.register(c.sock, selectors.EVENT_READ, c)
    stream = jobs(seed, tiny)
    lines_of = {}     # seeds -> request line
    pending, issued = None, 0
    samples = []      # (kind, latency_s or inf, ok)
    answers = {}      # job index -> answer lines (a dedup job: both)
    cold_lines = {}   # unit seed -> seed line
    t0 = last_answer = time.monotonic()

    def send(c, job, index, line):
        c.job = (job, index, line, time.monotonic())
        c.out += line.encode() + b"\n"
        flush(c)

    def flush(c):
        try:
            n = c.sock.send(c.out)
        except BlockingIOError:
            n = 0
        c.out = c.out[n:]
        sel.modify(c.sock, selectors.EVENT_READ |
                   (selectors.EVENT_WRITE if c.out else 0), c)

    def finish(c, lines):
        (kind, seeds, unit), index, line, start = c.job
        end = time.monotonic()
        ok = validate(kind, seeds, unit, lines, warm_ref, cold_lines)
        if not ok:
            log("FAIL serve_mixed: %s request for seeds %s got %s"
                % (kind, seeds, " | ".join(lines)[:300]))
        samples.append((kind, end - start if ok else float("inf"), ok))
        answers.setdefault(index, []).append(lines)
        if spans is not None:
            spans.append({"name": "request", "id": len(spans) + 1,
                          "parent": 1, "start_s": start, "end_s": end,
                          "run": "serve_mixed/%d" % index,
                          "thread": c.index, "attrs": {"class": kind}})
        c.job = None

    while True:
        more = ((deadline is None or time.monotonic() < deadline) and
                (job_limit is None or issued < job_limit))
        while more:
            if pending is None:
                pending = next(stream)
            idle = [c for c in conns if c.job is None]
            need = 2 if pending[0] == "dedup" else 1
            if len(idle) < need:
                break
            kind, seeds = pending[:2]
            if kind in MALFORMED:
                line = MALFORMED[kind][0]
            else:
                line = lines_of.get(seeds) or \
                    lines_of.setdefault(seeds, request_line(overrides, seeds))
            for c in idle[:need]:
                send(c, pending, issued, line)
            pending, issued = None, issued + 1
            more = job_limit is None or issued < job_limit
        if all(c.job is None for c in conns) and not more:
            break
        ready = sel.select(timeout=0.5)
        if ready:
            last_answer = time.monotonic()
        elif time.monotonic() - last_answer > STALL_S:
            raise RuntimeError("p2pd stopped answering")
        for key, mask in ready:
            c = key.data
            if mask & selectors.EVENT_WRITE:
                flush(c)
            if mask & selectors.EVENT_READ:
                chunk = c.sock.recv(1 << 16)
                if not chunk:
                    raise RuntimeError("p2pd closed connection %d" % c.index)
                c.inbuf += chunk
                while b"\n" in c.inbuf and c.job is not None:
                    raw, c.inbuf = c.inbuf.split(b"\n", 1)
                    c.lines.append(raw.decode())
                    if answer_complete(c.lines[-1]):
                        finish(c, c.lines)
                        c.lines = []
    wall = time.monotonic() - t0
    # Every connection must still serve after the mix: one warm request each.
    survived = 0
    seeds = tuple(warm_units(seed)[:SEEDS_PER_REQUEST])
    for c in conns:
        sel.unregister(c.sock)
        c.sock.setblocking(True)
        if validate("warm", seeds, None,
                    ask(c.sock, request_line(overrides, seeds)), warm_ref, {}):
            survived += 1
        c.sock.close()
    return {"samples": samples, "answers": answers, "wall_s": wall,
            "jobs": issued, "cold_lines": cold_lines, "survived": survived,
            "t0": t0}


def validate(kind, seeds, unit, lines, warm_ref, cold_lines):
    """One answer against what its request must get back: a warm request
    the batch path's lines for its seeds and the trailer; a cold request
    the same for its cached seeds, then a seed line for its new unit."""
    if kind in MALFORMED:
        try:
            parsed = [json.loads(x) for x in lines]
        except ValueError:
            return False
        return (len(parsed) == 1 and parsed[0]["type"] == "error" and
                parsed[0].get("code") == MALFORMED[kind][1])
    cached = [warm_ref[s] for s in seeds if s != unit]
    if kind == "warm":
        return lines == cached + [DONE]
    if len(lines) != len(seeds) + 1 or lines[-1] != DONE or \
            lines[:len(cached)] != cached:
        return False
    try:
        new = json.loads(lines[-2])
    except ValueError:
        return False
    if new.get("type") != "seed" or new.get("seed") != unit or \
            new.get("events", 0) <= 0:
        return False
    # Both answers of a dedup pair (and any repeat) must be identical.
    return cold_lines.setdefault(unit, lines[-2]) == lines[-2]


def stats(daemon):
    s = daemon.connect()
    try:
        return json.loads(ask(s, "STATS")[0])
    finally:
        s.close()


def measure_setup(p2pd, run_dir):
    """Median time from daemon launch to its first answered request."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        d = Daemon(p2pd, run_dir)
        try:
            stats(d)
            times.append(time.monotonic() - d.launched)
        finally:
            d.stop()
    return median(times)


def phase(p2pd, run_dir, seed, tiny, overrides, warm_ref, **loop):
    """Fresh daemon, warm-up, closed loop, final STATS. Returns the loop
    result with "stats" and "peak_rss_mb" added."""
    d = Daemon(p2pd, run_dir)
    try:
        s = d.connect()
        warm = warm_units(seed)
        lines = ask(s, json.dumps({"config": overrides, "seeds": warm},
                                  separators=(",", ":")))
        s.close()
        if lines[:-1] != [warm_ref[u] for u in warm]:
            raise RuntimeError("warm-up answers differ from the batch path")
        result = closed_loop(d, seed, tiny, overrides, warm_ref, **loop)
        result["stats"] = stats(d)
    finally:
        result_rss = d.stop()
    result["peak_rss_mb"] = result_rss
    return result


def check(result, sim_bin, overrides):
    """(attempted, failed) over every request of a phase, plus the daemon
    counter checks, each counted as one more attempted operation."""
    samples, st = result["samples"], result["stats"]
    attempted = len(samples)
    failed = sum(1 for _, _, ok in samples if not ok)
    cold = result["cold_lines"]
    sample = sorted(cold)[:COLD_REFERENCE_SAMPLE]
    ref = reference_lines(sim_bin, overrides, sample) if sample else {}
    malformed = sum(1 for k, _, _ in samples if k in MALFORMED)
    checks = {
        "cold units match the batch path": all(cold[u] == ref[u]
                                               for u in sample),
        "cache_misses == distinct computed units":
            st["cache_misses"] == WARM_UNITS + len(cold),
        "request_errors == malformed requests":
            st["request_errors"] == malformed,
        "no overloads or worker crashes":
            st["overloads"] == 0 and st["worker_crashes"] == 0,
        "every connection survived": result["survived"] == CONNECTIONS,
    }
    for name, ok in checks.items():
        attempted += 1
        if not ok:
            failed += 1
            log("FAIL serve_mixed: " + name)
    if failed:
        log("FAIL serve_mixed: %d of %d answers wrong" %
            (sum(1 for _, _, ok in samples if not ok), len(samples)))
    return attempted, failed


def digest(result):
    h = hashlib.sha1()
    for index in sorted(result["answers"]):
        for a in sorted("\n".join(lines)
                        for lines in result["answers"][index]):
            h.update(("%d\n%s\n" % (index, a)).encode())
    return h.hexdigest()


def class_latencies(samples, kinds):
    return [lat * 1e3 for k, lat, _ in samples if k in kinds]


def end_to_end(result, setup_s):
    samples = result["samples"]
    lat = [lat * 1e3 for _, lat, _ in samples]
    events = sum(json.loads(line)["events"]
                 for line in result["cold_lines"].values())
    return {
        "events_per_s": events / result["wall_s"],
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "requests_per_s": len(samples) / result["wall_s"],
        "p50_ms": percentile(lat, 50),
        "p99_ms": percentile(lat, 99),
    }


def per_layer(plain, traced, spans):
    samples, st = traced["samples"], traced["stats"]
    warm = class_latencies(samples, ("warm",))
    cold = class_latencies(samples, ("cold", "dedup"))
    bad = class_latencies(samples, tuple(MALFORMED))
    lines = [json.loads(x) for x in traced["cold_lines"].values()]

    def total(key):
        return sum(x[key] for x in lines)

    hits, misses = st["cache_hits"], st["cache_misses"]
    m = {
        "serve.requests": len(samples),
        "serve.warm.samples": len(warm),
        "serve.warm.p50_ms": percentile(warm, 50),
        "serve.warm.p99_ms": percentile(warm, 99),
        "serve.cold.samples": len(cold),
        "serve.cold.p50_ms": percentile(cold, 50),
        "serve.cold.p99_ms": percentile(cold, 99),
        "serve.malformed.samples": len(bad),
        "serve.malformed.p99_ms": percentile(bad, 99),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.dedup_joins": st["dedup_joins"],
        "serve.overloads": st["overloads"],
        "serve.worker_crashes": st["worker_crashes"],
        "serve.request_errors": st["request_errors"],
        "sim.events": total("events"),
        "sim.queue_pushes": total("queue_pushes"),
        "sim.queue_pops": total("queue_pops"),
        "sim.peak_queue": max((x["peak_queue_depth"] for x in lines),
                              default=0),
        "sim.queue_peak_raw": max((x["queue_peak_raw"] for x in lines),
                                  default=0),
        "sim.tombstones_purged": total("queue_tombstones_purged"),
        "sim.queue_compactions": total("queue_compactions"),
        "net.frames_tx": total("frames_tx"),
        "net.frames_delivered": total("frames_rx"),
        "net.frames_lost": total("frames_lost"),
        "net.payload_acquires": total("payload_acquires"),
        "net.payload_slab_allocs": total("payload_slab_allocs"),
        "scenario.wall_s": traced["wall_s"],
        "trace.overhead_share": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.spans": len(spans),
    }
    if m["sim.queue_pushes"]:
        m["sim.cancel_ratio"] = m["sim.tombstones_purged"] / m["sim.queue_pushes"]
    if m["net.frames_tx"]:
        m["net.fanout"] = m["net.frames_delivered"] / m["net.frames_tx"]
        m["net.loss_ratio"] = m["net.frames_lost"] / m["net.frames_tx"]
    if m["net.payload_acquires"]:
        m["net.alloc_ratio"] = (m["net.payload_slab_allocs"] /
                                m["net.payload_acquires"])
    st_times = self_times(spans)
    m["self.iteration_s"] = st_times.get("iteration", (0, 0, 0.0))[2]
    m["self.request_s"] = st_times.get("request", (0, 0, 0.0))[2]
    return m, st_times


def pins_of(sim_bin, seed, tiny):
    """Pinned counters of the warm units of `seed` (see PINNED)."""
    ref = reference_lines(sim_bin, unit_overrides(tiny), warm_units(seed))
    return {str(u): {k: json.loads(line)[k] for k in PINNED}
            for u, line in ref.items()}


def warm_units(seed):
    return [seed * 10 ** 6 + k for k in range(1, WARM_UNITS + 1)]


def run(sim_bin, p2pd, seed, seconds, trace, tiny, pins, trace_dir):
    """Returns (attempted, failed, end-to-end metrics, per-layer metrics or
    None, self-time table or None)."""
    run_dir = os.path.join(build_dir(), "serve-%d" % os.getpid())
    overrides = unit_overrides(tiny)
    warm_ref = reference_lines(sim_bin, overrides, warm_units(seed))
    pin_failures = 0
    if pins is not None:
        for u, line in warm_ref.items():
            got, pin = json.loads(line), pins.get(str(u))
            if pin is None or any(got[k] != v for k, v in pin.items()):
                pin_failures += 1
                log("FAIL serve_mixed: unit %d differs from its pin" % u)
    try:
        setup_s = measure_setup(p2pd, run_dir)
        if not trace:
            res = phase(p2pd, run_dir, seed, tiny, overrides, warm_ref,
                        deadline=time.monotonic() + seconds)
            attempted, failed = check(res, sim_bin, overrides)
            return (attempted + len(warm_ref), failed + pin_failures,
                    end_to_end(res, setup_s), None, None)
        # Traced run: an untraced phase for half the time, then a traced
        # phase over exactly the same jobs, whose answers must match.
        plain = phase(p2pd, run_dir, seed, tiny, overrides, warm_ref,
                      deadline=time.monotonic() + seconds / 2)
        spans = [{"name": "iteration", "id": 1, "parent": 0}]
        traced = phase(p2pd, run_dir, seed, tiny, overrides, warm_ref,
                       job_limit=plain["jobs"], spans=spans)
        spans[0].update(start_s=traced["t0"],
                        end_s=traced["t0"] + traced["wall_s"],
                        run="serve_mixed", thread=0)
        attempted, failed = len(warm_ref), pin_failures
        for res in (plain, traced):
            a, f = check(res, sim_bin, overrides)
            attempted, failed = attempted + a, failed + f
        attempted += 1
        if digest(plain) != digest(traced) or \
                plain["stats"]["cache_misses"] != traced["stats"]["cache_misses"]:
            failed += 1
            log("FAIL serve_mixed: traced answers differ from untraced")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, "serve_mixed-seed%d.jsonl" % seed),
                  "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        layer, st = per_layer(plain, traced, spans)
        return (attempted, failed, end_to_end(plain, setup_s), layer, st)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
