#!/bin/sh
# Bench regression gate: re-runs the serve throughput bench, the
# batch-scoring micro benches (pointer walk and binned engine — every
# ScoreBatch key in the committed baseline is gated, so the
# binned-vs-pointer gap cannot silently erode), the paper-shaped
# random-forest fit on one worker (a multi-worker fit baseline would
# only hold on a box with that many cores) and SF 0.1 streamed datagen,
# then fails if any number drops more than 10% below the committed
# baselines in bench/baselines/ (latency keys: see compare_latency).
# Registered in ctest under the `slow` label, so it runs in the full
# suite and CI but stays out of `ctest -LE slow`.
#
# Usage: scripts/bench_check.sh [build-dir]
# Env:   TELCO_BENCH_TOLERANCE  minimum allowed new/baseline ratio
#                               (default 0.90 = fail beyond 10% loss).
set -eu

BUILD_DIR="${1:-build}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BASELINE_DIR="$REPO_DIR/bench/baselines"
TOLERANCE="${TELCO_BENCH_TOLERANCE:-0.90}"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT
FAIL_MARKER="$TMP_DIR/failed"

# Pin the serve load so every run is comparable with the committed
# baseline (which was generated with exactly this configuration).
export TELCO_BENCH_SERVE_CLIENTS="${TELCO_BENCH_SERVE_CLIENTS:-2}"
export TELCO_BENCH_SERVE_BATCH="${TELCO_BENCH_SERVE_BATCH:-32}"
export TELCO_BENCH_SERVE_ROUNDS="${TELCO_BENCH_SERVE_ROUNDS:-4}"
export TELCO_BENCH_SERVE_TCP_CLIENTS="${TELCO_BENCH_SERVE_TCP_CLIENTS:-4}"
export TELCO_BENCH_SERVE_READERS="${TELCO_BENCH_SERVE_READERS:-2}"

# compare NAME NEW BASELINE — record a failure when NEW < BASELINE*TOL.
compare() {
  name="$1"; new="$2"; base="$3"
  if [ -z "$new" ] || [ -z "$base" ]; then
    echo "FAIL $name: missing measurement (new='$new' baseline='$base')"
    : > "$FAIL_MARKER"
    return 0
  fi
  ok=$(awk -v n="$new" -v b="$base" -v t="$TOLERANCE" \
    'BEGIN { print (n + 0 >= b * t) ? "ok" : "regressed" }')
  ratio=$(awk -v n="$new" -v b="$base" \
    'BEGIN { printf "%.2f", (b > 0 ? n / b : 0) }')
  if [ "$ok" = ok ]; then
    echo "OK   $name: $new vs baseline $base (${ratio}x)"
  else
    echo "FAIL $name: $new vs baseline $base (${ratio}x < $TOLERANCE)"
    : > "$FAIL_MARKER"
  fi
}

# compare_latency NAME NEW BASELINE — latency gates run inverted
# (larger is worse): record a failure when NEW > BASELINE/TOL. Tail
# quantiles are far noisier than throughput means — back-to-back runs
# of the same binary on a quiet box spread >20% at p99 — so latency
# keys get their own, looser tolerance: the gate catches a real
# regression (stage instrumentation gone quadratic, a lock on the
# request path) without tripping on scheduler jitter.
LATENCY_TOLERANCE="${TELCO_BENCH_LATENCY_TOLERANCE:-0.75}"
compare_latency() {
  name="$1"; new="$2"; base="$3"
  if [ -z "$new" ] || [ -z "$base" ]; then
    echo "FAIL $name: missing measurement (new='$new' baseline='$base')"
    : > "$FAIL_MARKER"
    return 0
  fi
  ok=$(awk -v n="$new" -v b="$base" -v t="$LATENCY_TOLERANCE" \
    'BEGIN { print (n + 0 <= b / t) ? "ok" : "regressed" }')
  ratio=$(awk -v n="$new" -v b="$base" \
    'BEGIN { printf "%.2f", (b > 0 ? n / b : 0) }')
  if [ "$ok" = ok ]; then
    echo "OK   $name: ${new}ms vs baseline ${base}ms (${ratio}x)"
  else
    echo "FAIL $name: ${new}ms vs baseline ${base}ms" \
      "(${ratio}x > 1/$LATENCY_TOLERANCE)"
    : > "$FAIL_MARKER"
  fi
}

# Best-of-N runs: shared CI machines are noisy, and a regression gate
# must only trip on sustained slowdowns, not a background compile. The
# fastest of RUNS runs approximates unloaded throughput; for latency
# keys "best" is the minimum across runs for the same reason.
RUNS="${TELCO_BENCH_RUNS:-3}"

echo "== bench_serve (online scoring, best of $RUNS) =="
serve_best=""
tcp_best=""
total_p50_best=""
total_p99_best=""
i=0
while [ "$i" -lt "$RUNS" ]; do
  TELCO_BENCH_REPORT_DIR="$TMP_DIR" "$BUILD_DIR/bench/bench_serve" \
    > "$TMP_DIR/serve.out" 2>&1 || { cat "$TMP_DIR/serve.out"; exit 1; }
  tput=$(jq -r '.config.throughput_per_sec' "$TMP_DIR/BENCH_serve.json")
  tcp_tput=$(jq -r '.config.tcp_throughput_per_sec // empty' \
    "$TMP_DIR/BENCH_serve.json")
  total_p50=$(jq -r '.config.request_total_p50_ms // empty' \
    "$TMP_DIR/BENCH_serve.json")
  total_p99=$(jq -r '.config.request_total_p99_ms // empty' \
    "$TMP_DIR/BENCH_serve.json")
  echo "  run $((i + 1)): $tput/s stdio, ${tcp_tput:-n/a}/s tcp," \
    "request total p50 ${total_p50:-n/a}ms p99 ${total_p99:-n/a}ms"
  serve_best=$(awk -v a="${serve_best:-0}" -v b="$tput" \
    'BEGIN { print (b + 0 > a + 0) ? b : a }')
  tcp_best=$(awk -v a="${tcp_best:-0}" -v b="${tcp_tput:-0}" \
    'BEGIN { print (b + 0 > a + 0) ? b : a }')
  total_p50_best=$(awk -v a="${total_p50_best:-}" -v b="${total_p50:-}" \
    'BEGIN { if (b == "") { print a } else if (a == "" || b + 0 < a + 0) \
      { print b } else { print a } }')
  total_p99_best=$(awk -v a="${total_p99_best:-}" -v b="${total_p99:-}" \
    'BEGIN { if (b == "") { print a } else if (a == "" || b + 0 < a + 0) \
      { print b } else { print a } }')
  i=$((i + 1))
done
compare "serve.throughput_per_sec" "$serve_best" \
  "$(jq -r '.config.throughput_per_sec' "$BASELINE_DIR/BENCH_serve.json")"
compare "serve.tcp_throughput_per_sec" "$tcp_best" \
  "$(jq -r '.config.tcp_throughput_per_sec' "$BASELINE_DIR/BENCH_serve.json")"
compare_latency "serve.request_total_p50_ms" "$total_p50_best" \
  "$(jq -r '.config.request_total_p50_ms // empty' \
    "$BASELINE_DIR/BENCH_serve.json")"
compare_latency "serve.request_total_p99_ms" "$total_p99_best" \
  "$(jq -r '.config.request_total_p99_ms // empty' \
    "$BASELINE_DIR/BENCH_serve.json")"

echo "== bench_micro_ml (scoring engines and forest fit, best of $RUNS) =="
i=0
while [ "$i" -lt "$RUNS" ]; do
  "$BUILD_DIR/bench/bench_micro_ml" \
    --benchmark_filter='ScoreBatch|FitPaperShaped/1/' \
    --benchmark_format=json --benchmark_min_time=0.2 \
    > "$TMP_DIR/micro.$i.json" 2> "$TMP_DIR/micro.err" \
    || { cat "$TMP_DIR/micro.err"; exit 1; }
  i=$((i + 1))
done
for name in $(jq -r '.benchmarks[].name' "$BASELINE_DIR/BENCH_micro_ml.json"); do
  new_ips=$(jq -rs --arg n "$name" \
    '[.[].benchmarks[] | select(.name == $n) | .items_per_second] | max' \
    "$TMP_DIR"/micro.*.json)
  base_ips=$(jq -r --arg n "$name" \
    '.benchmarks[] | select(.name == $n) | .items_per_second' \
    "$BASELINE_DIR/BENCH_micro_ml.json")
  compare "$name" "$new_ips" "$base_ips"
done

echo "== bench_scale (SF 0.1 streamed datagen, best of $RUNS) =="
# Gen phase only: the pipeline walls are tracked in the committed
# baseline/EXPERIMENTS.md but are too slow (and too build-noise-prone)
# for a per-commit gate. Throughput of the streamed generator is the
# number the tentpole must not lose.
scale_best=""
i=0
while [ "$i" -lt "$RUNS" ]; do
  TELCO_BENCH_REPORT_DIR="$TMP_DIR" "$BUILD_DIR/bench/bench_scale" \
    --sf 0.1 --gen-only \
    > "$TMP_DIR/scale.out" 2>&1 || { cat "$TMP_DIR/scale.out"; exit 1; }
  gen_rps=$(jq -r '.config["sf0.1.gen_rows_per_sec"] // empty' \
    "$TMP_DIR/BENCH_scale.json")
  echo "  run $((i + 1)): ${gen_rps:-n/a} rows/s generated"
  scale_best=$(awk -v a="${scale_best:-0}" -v b="${gen_rps:-0}" \
    'BEGIN { print (b + 0 > a + 0) ? b : a }')
  i=$((i + 1))
done
compare "scale.sf0.1.gen_rows_per_sec" "$scale_best" \
  "$(jq -r '.config["sf0.1.gen_rows_per_sec"] // empty' \
    "$BASELINE_DIR/BENCH_scale.json")"

if [ -e "$FAIL_MARKER" ]; then
  echo "bench_check: throughput regression detected (>10% below baseline)"
  exit 1
fi
echo "bench_check: all throughput numbers within tolerance"
