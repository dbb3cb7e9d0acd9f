#!/usr/bin/env sh
# bench_guard: assert the perf harness's fixed-seed counters are unchanged.
#
# Runs the smoke-scale bench suites and compares every deterministic
# counter (ops, queries, answers, events, frames_delivered, peak_queue —
# everything except wall time) against a checked-in expectations file. A
# mismatch means a hot-path edit changed observable behavior, not just
# speed; it must either be fixed or the expectations regenerated *and the
# drift justified in the PR* (see docs/performance.md).
#
# Usage:
#   tools/bench_guard.sh [--update] <expected-file> <bench-bin>...
#
# Each bench binary is run as `<bin> --smoke --label guard --out <tmp>`
# (every perf binary's default suite covers all its workloads, so no
# per-binary flags are needed). --update rewrites <expected-file> from the
# current binaries instead of comparing (for intentional, reviewed counter
# changes).
set -eu

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
if [ $# -lt 2 ]; then
  echo "usage: $0 [--update] <expected-file> <bench-bin>..." >&2
  exit 2
fi
expected="$1"
shift

tmpdir="${TMPDIR:-/tmp}"
raw="$tmpdir/bench_guard_$$.jsonl"
norm="$tmpdir/bench_guard_$$.norm"
trap 'rm -f "$raw" "$norm"' EXIT
: > "$raw"

for bin in "$@"; do
  "$bin" --smoke --label guard --out "$raw" > /dev/null
done

# Strip the timing fields: keep bench name + every deterministic counter,
# in emission order, one canonical line per bench.
awk '{
  line = $0
  out = ""
  while (match(line, /"(bench|ops|frames|queries|answers|connect_msgs|msgs|events|frames_delivered|peak_queue)":("[^"]*"|[0-9]+)/)) {
    pair = substr(line, RSTART, RLENGTH)
    out = (out == "") ? pair : out " " pair
    line = substr(line, RSTART + RLENGTH)
  }
  print out
}' "$raw" > "$norm"

if [ "$update" = 1 ]; then
  cp "$norm" "$expected"
  echo "bench_guard: wrote $(wc -l < "$expected" | tr -d ' ') expectation lines to $expected"
  exit 0
fi

if ! diff -u "$expected" "$norm"; then
  echo "bench_guard: FIXED-SEED COUNTER DRIFT (see diff above)." >&2
  echo "A hot-path change altered observable behavior. If intentional," >&2
  echo "regenerate with: tools/bench_guard.sh --update $expected <bins...>" >&2
  exit 1
fi
echo "bench_guard: all fixed-seed counters match $expected"
