#!/bin/sh
# End-to-end smoke test of the telcochurn CLI:
# simulate -> train -> predict -> evaluate over a CSV warehouse.
set -e

CLI="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"$CLI" simulate --out "$WORKDIR/wh" --customers 1500 --months 3 --seed 7 \
    2> /dev/null
test -f "$WORKDIR/wh/MANIFEST" || { echo "missing MANIFEST"; exit 1; }

"$CLI" train --warehouse "$WORKDIR/wh" --month 2 \
    --model "$WORKDIR/churn.model" --trees 20 2> /dev/null
test -s "$WORKDIR/churn.model" || { echo "missing model"; exit 1; }
test -s "$WORKDIR/churn.model.features" || { echo "missing sidecar"; exit 1; }

PREDICTION="$("$CLI" predict --warehouse "$WORKDIR/wh" \
    --model "$WORKDIR/churn.model" --month 3 --top 3 2> /dev/null)"
echo "$PREDICTION" | head -1 | grep -q "rank,imsi,likelihood" || {
  echo "bad prediction header"; exit 1; }
LINES=$(echo "$PREDICTION" | wc -l)
test "$LINES" -eq 4 || { echo "expected 3 prediction rows"; exit 1; }

"$CLI" evaluate --warehouse "$WORKDIR/wh" --month 3 --trees 20 --u 40 \
    2> /dev/null | grep -q "AUC=" || { echo "missing metrics"; exit 1; }

# Streamed datagen: same CLI surface, out-of-core writer, and the
# scale/customers resolution rules reject nonsense up front.
"$CLI" datagen --out "$WORKDIR/wh_dg" --customers 1500 --months 3 --seed 7 \
    2> /dev/null
cmp -s "$WORKDIR/wh/MANIFEST" "$WORKDIR/wh_dg/MANIFEST" || {
  echo "datagen MANIFEST differs from simulate"; exit 1; }
if "$CLI" datagen --out "$WORKDIR/wh_bad" --scale-factor -1 2> /dev/null; then
  echo "negative scale factor accepted"; exit 1
fi
if "$CLI" datagen --out "$WORKDIR/wh_bad" --scale-factor abc 2> /dev/null; then
  echo "non-numeric scale factor accepted"; exit 1
fi

# Integer flags must parse whole: "12k" is not 12 customers and "0x" is
# not 0 trees. Each must fail with a message naming the flag.
if "$CLI" simulate --out "$WORKDIR/wh_k" --customers 12k \
    2> "$WORKDIR/err.txt"; then
  echo "--customers 12k accepted"; exit 1
fi
grep -q -- "--customers" "$WORKDIR/err.txt" || {
  echo "--customers error does not name the flag"; cat "$WORKDIR/err.txt"
  exit 1; }
test ! -e "$WORKDIR/wh_k/MANIFEST" || { echo "wrote a warehouse"; exit 1; }
if "$CLI" evaluate --warehouse "$WORKDIR/wh" --month 3 --trees 0x \
    2> "$WORKDIR/err.txt"; then
  echo "--trees 0x accepted"; exit 1
fi
grep -q -- "--trees" "$WORKDIR/err.txt" || {
  echo "--trees error does not name the flag"; cat "$WORKDIR/err.txt"
  exit 1; }

# Float flags parse whole as well: "5x" is not a 5 s interval. The flag
# is checked before the model loads, so the error must name it.
if "$CLI" serve --model /nonexistent --stats-out "$WORKDIR/stats.jsonl" \
    --stats-interval-s 5x < /dev/null 2> "$WORKDIR/err.txt"; then
  echo "--stats-interval-s 5x accepted"; exit 1
fi
grep -q -- "--stats-interval-s" "$WORKDIR/err.txt" || {
  echo "--stats-interval-s error does not name the flag"
  cat "$WORKDIR/err.txt"; exit 1; }

# Error handling: unknown flag and missing warehouse must fail.
if "$CLI" evaluate --warehouse "$WORKDIR/wh" --month 3 --bogus 1 \
    2> /dev/null; then
  echo "unknown flag accepted"; exit 1
fi
if "$CLI" train --warehouse /nonexistent --month 2 --model /tmp/x \
    2> /dev/null; then
  echo "missing warehouse accepted"; exit 1
fi

echo "cli smoke ok"
