#!/usr/bin/env sh
# Record a perf snapshot, or compare two recorded labels.
#
# Record mode: build the bench preset, run the harness suites (hotpath's
# kernel + wireless storms, the aodv_storm route-discovery storm, the
# overlay_storm full-stack tier, the megascale 10k-100k tier, and the
# serve_smoke daemon front-end tier), and append one JSON record per
# benchmark to BENCH_kernel.json, BENCH_hotpath.json, BENCH_overlay.json,
# BENCH_megascale.json and BENCH_serve.json at the repo root (JSON Lines;
# see docs/performance.md).
#
# Compare mode: read those JSONL files back and print per-bench throughput
# deltas between two labels, failing when anything regressed — so a perf
# regression is caught when the records land, not by a later PR's
# archaeology. Benches recorded under only one of the two labels (e.g. a
# freshly added tier with no older record) are reported as
# "(only in <label>)" instead of being silently skipped.
#
# Usage:
#   tools/bench.sh [label]
#       label  tag stored in each record (default: current git short hash)
#   tools/bench.sh --compare <label-a> <label-b> [--threshold PCT]
#       Compare the headline throughput (ops/frames/queries _per_sec) of
#       label-b against label-a for every bench that has records under both
#       labels (the most recent record per label wins). Historical records
#       of the since-deleted intra-run parallel executor carry a "threads"
#       field (absent = 1); it stays part of the comparison key so such a
#       record never pairs with a sequential one.
#       Exit 1 if any bench is more than PCT slower in label-b (default 5),
#       or if any paired bench's peak_queue counter differs between the
#       labels: peak_queue is a fixed-seed determinism counter, so drift
#       means the event history changed — a correctness failure, not a
#       perf delta.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "--compare" ]; then
  shift
  if [ $# -lt 2 ]; then
    echo "usage: tools/bench.sh --compare <label-a> <label-b> [--threshold PCT]" >&2
    exit 2
  fi
  label_a="$1"
  label_b="$2"
  shift 2
  threshold=5
  if [ "${1:-}" = "--threshold" ]; then
    if [ $# -lt 2 ]; then
      echo "--threshold needs a value" >&2
      exit 2
    fi
    threshold="$2"
  fi
  # Only feed awk the record files that exist (BENCH_overlay.json appears
  # the first time the overlay tier is recorded).
  set --
  for f in "$repo/BENCH_kernel.json" "$repo/BENCH_hotpath.json" \
           "$repo/BENCH_overlay.json" "$repo/BENCH_megascale.json" \
           "$repo/BENCH_serve.json"; do
    [ -f "$f" ] && set -- "$@" "$f"
  done
  if [ $# -eq 0 ]; then
    echo "no BENCH_*.json records found in $repo" >&2
    exit 2
  fi
  awk -v A="$label_a" -v B="$label_b" -v THR="$threshold" '
    {
      bench = ""; label = ""; rate = ""
      if (match($0, /"bench":"[^"]*"/)) {
        bench = substr($0, RSTART + 9, RLENGTH - 10)
      }
      if (match($0, /"label":"[^"]*"/)) {
        label = substr($0, RSTART + 9, RLENGTH - 10)
      }
      # Historical parallel-executor records ("threads" > 1) are different
      # experiments from sequential ones: suffixing the key keeps them
      # apart and reports them as one-sided records.
      if (match($0, /"threads":[0-9]+/)) {
        t = substr($0, RSTART + 10, RLENGTH - 10) + 0
        if (t > 1) bench = bench "@t" t
      }
      # Headline throughput: the suite-specific <unit>_per_sec field
      # (kernel: ops_per_sec, wireless storms: frames_per_sec, overlay
      # storms: queries_per_sec). Secondary rates (msgs_per_sec) are
      # deliberately not headline material.
      if (match($0, /"(ops|frames|queries)_per_sec":[0-9.]+/)) {
        pair = substr($0, RSTART, RLENGTH)
        sub(/^"[a-z]+_per_sec":/, "", pair)
        rate = pair + 0
      }
      # peak_queue is a fixed-seed counter (live high-water mark of the
      # event queue), not a throughput: identical workload => identical
      # value. Track it per (bench, label) so the END block can flag drift as determinism
      # breakage, not as a perf delta.
      pq = ""
      if (match($0, /"peak_queue":[0-9]+/)) {
        pq = substr($0, RSTART + 13, RLENGTH - 13) + 0
      }
      if (bench == "" || label == "" || rate == "") next
      # Later records override earlier ones: compare the freshest snapshot
      # recorded under each label.
      if (label == A) { a[bench] = rate; seen[bench] = 1
                        if (pq != "") { pa[bench] = pq } else { delete pa[bench] } }
      if (label == B) { b[bench] = rate; seen[bench] = 1
                        if (pq != "") { pb[bench] = pq } else { delete pb[bench] } }
    }
    END {
      n = 0; fail = 0
      printf "%-34s %14s %14s %9s\n", "bench", A, B, "delta"
      for (bench in seen) order[++n] = bench
      # Stable output order (asort is gawk-only; insertion sort is fine
      # at this scale).
      for (i = 2; i <= n; ++i) {
        for (j = i; j > 1 && order[j] < order[j-1]; --j) {
          t = order[j]; order[j] = order[j-1]; order[j-1] = t
        }
      }
      for (i = 1; i <= n; ++i) {
        bench = order[i]
        if (!(bench in a) || !(bench in b)) {
          # One-sided record: a bench only present under one label (new
          # tier, renamed bench, retired workload). Say so explicitly —
          # a silent skip would hide a bench that stopped being recorded.
          printf "%-34s %14s %14s  (only in %s)\n", bench,
                 (bench in a) ? sprintf("%.0f", a[bench]) : "-",
                 (bench in b) ? sprintf("%.0f", b[bench]) : "-",
                 (bench in a) ? A : B
          continue
        }
        if (a[bench] == 0 || b[bench] == 0) {
          # A zero headline rate (wall time too coarse to resolve, or a
          # workload that completed zero units) carries no signal — and
          # dividing by it would abort the whole comparison. Report, do
          # not fail: only a real measured regression may exit non-zero.
          printf "%-34s %14.0f %14.0f  (no data)\n", bench, a[bench],
                 b[bench]
          continue
        }
        delta = (b[bench] - a[bench]) / a[bench] * 100.0
        flag = ""
        if (delta < -THR) { flag = "  << REGRESSION"; fail = 1 }
        # peak_queue drift between labels of the same workload means the
        # event history itself changed — a determinism break (or an
        # unflagged model change), never a legitimate perf delta. Hard
        # failure: a pure speed change must reproduce the pending-set
        # high-water mark exactly.
        if ((bench in pa) && (bench in pb) && pa[bench] != pb[bench]) {
          flag = flag sprintf("  << PEAK_QUEUE DRIFT (%d -> %d)",
                              pa[bench], pb[bench])
          drift = 1
        }
        printf "%-34s %14.0f %14.0f %+8.1f%%%s\n", bench, a[bench], b[bench],
               delta, flag
      }
      if (n == 0) {
        printf "no records found for labels %s / %s\n", A, B
        exit 2
      }
      if (drift) {
        printf "FAIL: peak_queue drifted between %s and %s — same workload must\n", A, B
        printf "      reproduce the same pending-set high-water mark (determinism)\n"
      }
      if (fail) {
        printf "FAIL: at least one bench regressed more than %s%% (%s -> %s)\n",
               THR, A, B
      }
      if (fail || drift) exit 1
    }
  ' "$@"
  exit $?
fi

label="${1:-$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo dev)}"

cmake --preset bench -S "$repo" >/dev/null
cmake --build --preset bench -j --target hotpath --target aodv_storm \
  --target overlay_storm --target megascale --target serve_smoke >/dev/null

"$repo/build-bench/bench/hotpath" --suite kernel --label "$label" \
  --out "$repo/BENCH_kernel.json"
"$repo/build-bench/bench/hotpath" --suite hotpath --label "$label" \
  --out "$repo/BENCH_hotpath.json"
"$repo/build-bench/bench/aodv_storm" --label "$label" \
  --out "$repo/BENCH_hotpath.json"
"$repo/build-bench/bench/overlay_storm" --label "$label" \
  --out "$repo/BENCH_overlay.json"
"$repo/build-bench/bench/megascale" --label "$label" \
  --out "$repo/BENCH_megascale.json"
# Serving tier: requests/s through the daemon front end against a warm
# cache (a throwaway cache dir keeps the record independent of whatever
# the figure benches have cached).
serve_cache="$(mktemp -d)"
P2P_BENCH_CACHE="$serve_cache" "$repo/build-bench/bench/serve_smoke" \
  --label "$label" --out "$repo/BENCH_serve.json"
rm -rf "$serve_cache"
echo "appended records labeled '$label' to BENCH_kernel.json / BENCH_hotpath.json / BENCH_overlay.json / BENCH_megascale.json / BENCH_serve.json"
