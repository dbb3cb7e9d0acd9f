"""Shared pieces of the perfbench benchmark: building the programs, the
host/build fingerprint, statistics and the span summary."""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The pinned workload seed, and the held-out seed on which a claimed gain
# must also hold (it is never used while tuning a change).
DEFAULT_SEED = 1
HELDOUT_SEED = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build perfbench_sim and p2pd in Release mode (both
    steps are quick no-ops when nothing changed). Returns (perfbench_sim
    path, p2pd path). Raises CalledProcessError on failure."""
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    out = sys.stderr
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=out, stderr=out, env=env)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_sim", "p2pd"],
                   check=True, stdout=out, stderr=out, env=env)
    return (os.path.join(bdir, "perfbench_sim"),
            os.path.join(bdir, "p2pmanet", "tools", "p2pd"))


def _cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _compiler(bdir):
    files = os.path.join(bdir, "CMakeFiles")
    try:
        for sub in sorted(os.listdir(files)):
            path = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
            if os.path.exists(path):
                text = open(path).read()
                cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
                ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
                return "%s %s" % (cid.group(1) if cid else "?",
                                  ver.group(1) if ver else "?")
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tree_hash(paths, skip=()):
    """SHA-1 over the sorted relative paths and contents of the files under
    `paths` (relative to the repository root), leaving out directories
    named in `skip` and Markdown files."""
    h = hashlib.sha1()
    for top in paths:
        base = os.path.join(ROOT, top)
        found = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")
                           and d != "__pycache__" and d not in skip]
            found += [os.path.join(dirpath, n) for n in filenames
                      if not n.endswith(".md")]
        for path in sorted(found):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha1(f.read()).digest())
    return h.hexdigest()[:16]


def _revision():
    """The git commit when the checkout is a git work tree, else a hash of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "tree:" + _tree_hash(["CMakeLists.txt", "src", "tools"])


def fingerprint():
    """Host and build fingerprint stamped on every result. `revision` is
    the only field two results under comparison may differ in."""
    bdir = build_dir()
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "compiler": _compiler(bdir),
        "build_type": _cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "bench": _tree_hash(["BENCHMARK.json", "perfbench"], skip=("tests",)),
        "revision": _revision(),
    }


def comparable(a, b):
    """Fields of two fingerprints that must agree before their results may
    be compared (everything except the code revision under test)."""
    return [k for k in sorted(set(a) | set(b))
            if k != "revision" and a.get(k) != b.get(k)]


def median(values):
    v = sorted(values)
    if not v:
        return 0.0
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])


def percentile(values, q):
    """Percentile q (0..100) with linear interpolation between closest
    ranks; an infinite sample (a failed request) makes every percentile it
    takes part in infinite."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    if v[hi] == float("inf"):
        return float("inf") if pos > lo or v[lo] == float("inf") else v[lo]
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_times(spans):
    """Per span name: (count, total duration, self time), where self time is
    a span's duration minus the union of the intervals its children cover
    (children on parallel threads overlap, so the union, not the sum)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        dur = s["end_s"] - s["start_s"]
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_s"]):
            lo, hi = max(c["start_s"], s["start_s"]), min(c["end_s"], s["end_s"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        n, total, self_t = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (n + 1, total + dur, self_t + dur - covered)
    return out


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
