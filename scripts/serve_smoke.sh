#!/bin/sh
# Serving smoke: boots the edda-serve daemon, replays the corpus
# through concurrent clients, and asserts the served reports are
# byte-identical to fresh edda-cli runs — then kills the daemon,
# restarts it from its warm-start checkpoint and requires the re-query
# round to be answered (>= MIN_HIT_PCT) from the reloaded store.
# Finally it restarts the daemon from two corrupt checkpoints (an
# out-of-range decided-by, a truncated file): each must be refused
# whole, with a cold start and its warning, and the corpus answered as
# in the cold round.
#
# Usage: serve_smoke.sh [BUILD_DIR] [OUT_DIR] [MIN_HIT_PCT]
#
# OUT_DIR receives the daemon's per-request stats log plus the stats
# snapshots (the serve-smoke CI artifact). Normalizations applied
# before diffing, per docs/SERVING.md:
#   * " (cached)" markers are stripped from BOTH sides — hit patterns
#     legitimately differ between a warm daemon and a fresh CLI run
#     (the CLI memoizes within its own run too);
#   * "witness x = " lines are stripped from problem-mode diffs — the
#     store does not hold witnesses, so a served hit omits the line
#     while the answer itself stays exact.
set -eu

BUILD=${1:-build}
OUT=${2:-serve-smoke}
MIN_HIT=${3:-90}

SERVE="$BUILD/tools/edda-serve"
CLI="$BUILD/tools/edda-cli"
GEN="$BUILD/tools/edda-genperfect"
for bin in "$SERVE" "$CLI" "$GEN"; do
  if [ ! -x "$bin" ]; then
    echo "error: '$bin' is missing (build the tools targets)" >&2
    exit 2
  fi
done

SCRIPT_DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
REPO_ROOT=$(CDPATH= cd -- "$SCRIPT_DIR/.." && pwd)

tmp=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

mkdir -p "$OUT"
SOCK="$tmp/edda-serve.sock"
CACHE="$tmp/edda-serve.cache"
STATS_LOG="$OUT/request-stats.jsonl"
: > "$STATS_LOG"

mkdir "$tmp/corpus"
"$GEN" "$tmp/corpus" > /dev/null
cp "$REPO_ROOT/tests/inputs/demo.loop" "$tmp/corpus/"
cp "$REPO_ROOT"/tests/inputs/corpus/*.loop "$tmp/corpus/"

start_server() {
  "$SERVE" --socket "$SOCK" --cache "$CACHE" --threads 4 \
           --stats-log "$STATS_LOG" 2>> "$OUT/server-stderr.txt" &
  SERVER_PID=$!
  # Wait for the socket to accept pings (the daemon may still be
  # loading the warm-start file).
  i=0
  while ! "$SERVE" --client "$SOCK" --ping > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "error: server did not come up on $SOCK" >&2
      exit 1
    fi
    sleep 0.1
  done
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=
}

strip_cached() { sed 's/ (cached)//' "$1"; }
strip_problem() { sed -e 's/ (cached)//' -e '/^witness x = (/d' "$1"; }

# Waits for the pids in $client_pids (a bare `wait` would also wait
# on the server job, which never exits).
# shellcheck disable=SC2086  # pid-list splitting is the point
wait_clients() {
  for p in $client_pids; do
    wait "$p"
  done
  client_pids=
}

# Issues every corpus query through concurrent clients (one background
# client process per file, at most 8 in flight — the concurrency the
# daemon exists to serve), leaving one served report per input in
# $tmp/served.
query_round() {
  rm -rf "$tmp/served"
  mkdir "$tmp/served"
  client_pids=
  jobs=0
  for f in "$tmp/corpus"/*.loop; do
    "$SERVE" --client "$SOCK" --directions "$f" \
      > "$tmp/served/$(basename "$f").out" &
    client_pids="$client_pids $!"
    jobs=$((jobs + 1))
    [ $((jobs % 8)) -eq 0 ] && wait_clients
  done
  for f in "$REPO_ROOT"/tests/inputs/corpus/*.dep; do
    "$SERVE" --client "$SOCK" --problem --directions "$f" \
      > "$tmp/served/$(basename "$f").out" &
    client_pids="$client_pids $!"
    jobs=$((jobs + 1))
    [ $((jobs % 8)) -eq 0 ] && wait_clients
  done
  wait_clients
}

# Fresh-CLI reference reports, rendered once.
mkdir "$tmp/want"
for f in "$tmp/corpus"/*.loop; do
  "$CLI" --directions "$f" > "$tmp/want/$(basename "$f").out"
done
for f in "$REPO_ROOT"/tests/inputs/corpus/*.dep; do
  "$CLI" --problem --directions "$f" > "$tmp/want/$(basename "$f").out"
done

check_round() {
  round=$1
  fail=0
  for f in "$tmp/corpus"/*.loop; do
    name=$(basename "$f").out
    if ! strip_cached "$tmp/served/$name" > "$tmp/got.txt" ||
       ! strip_cached "$tmp/want/$name" > "$tmp/ref.txt" ||
       ! diff "$tmp/got.txt" "$tmp/ref.txt" > "$tmp/diff.txt"; then
      echo "FAIL($round): served report differs from edda-cli: $name"
      head -20 "$tmp/diff.txt"
      fail=1
    fi
  done
  for f in "$REPO_ROOT"/tests/inputs/corpus/*.dep; do
    name=$(basename "$f").out
    if ! strip_problem "$tmp/served/$name" > "$tmp/got.txt" ||
       ! strip_problem "$tmp/want/$name" > "$tmp/ref.txt" ||
       ! diff "$tmp/got.txt" "$tmp/ref.txt" > "$tmp/diff.txt"; then
      echo "FAIL($round): served problem differs from edda-cli: $name"
      head -20 "$tmp/diff.txt"
      fail=1
    fi
    if ! grep -q '^answer: ' "$tmp/served/$name"; then
      echo "FAIL($round): served problem has no answer line: $name"
      fail=1
    fi
  done
  [ "$fail" -eq 0 ]
}

echo "== cold round (fresh daemon, empty store) =="
start_server
query_round
check_round cold
"$SERVE" --client "$SOCK" --stats > "$OUT/stats-cold.json"
echo "== warm restart (SIGTERM, checkpoint reload, re-query) =="
stop_server
[ -s "$CACHE" ] || { echo "error: no checkpoint was written" >&2; exit 1; }

start_server
query_round
check_round warm
"$SERVE" --client "$SOCK" --stats > "$OUT/stats-warm.json"

echo "== edit round (incremental re-analysis over one connection) =="
# An ordered edit sequence on the demo program: the client applies all
# three versions through one connection's edit session, so versions 2
# and 3 splice unchanged pairs from their predecessor. The final
# served report + graph must be byte-identical to a fresh CLI run on
# the last version — the serving side of the incr fuzz invariant.
cp "$REPO_ROOT/tests/inputs/demo.loop" "$tmp/edit1.loop"
sed 's/a\[i + 1\] = a\[i\] + 3/a[i + 2] = a[i] + 3/' \
  "$tmp/edit1.loop" > "$tmp/edit2.loop"
sed 's/for i = 2 to 20 do/for i = 2 to 21 do/' \
  "$tmp/edit2.loop" > "$tmp/edit3.loop"
"$SERVE" --client "$SOCK" --edit --directions --no-cache-markers \
  "$tmp/edit1.loop" "$tmp/edit2.loop" "$tmp/edit3.loop" \
  > "$tmp/edited.txt" 2> "$tmp/edit-stats.txt"
cat "$tmp/edit-stats.txt" >> "$OUT/server-stderr.txt"
# The client prints one report+graph per version; keep the last one
# (everything from the final report header on).
awk '/ reference pairs, / { n = NR } { lines[NR] = $0 }
     END { for (i = n; i <= NR; i++) print lines[i] }' \
  "$tmp/edited.txt" > "$tmp/edit-got.txt"
"$CLI" --directions --graph "$tmp/edit3.loop" > "$tmp/edit-want-raw.txt"
strip_cached "$tmp/edit-want-raw.txt" > "$tmp/edit-want.txt"
if ! diff "$tmp/edit-got.txt" "$tmp/edit-want.txt" > "$tmp/diff.txt"; then
  echo "FAIL(edit): spliced report differs from fresh edda-cli"
  head -20 "$tmp/diff.txt"
  exit 1
fi
# Later versions must actually reuse pairs from the session.
REUSED=$(sed -n 's/.* \([0-9][0-9]*\) reused.*/\1/p' \
         "$tmp/edit-stats.txt" | tail -1)
if [ -z "$REUSED" ] || [ "$REUSED" -eq 0 ]; then
  echo "error: edit round reused no pairs (got '${REUSED:-none}')" >&2
  exit 1
fi
echo "edit round: final version reused $REUSED pairs, report matches"

"$SERVE" --client "$SOCK" --stats > "$OUT/stats-edit.json"
grep -q '"edit_requests":3' "$OUT/stats-edit.json" || {
  echo "error: stats do not show 3 edit requests" >&2; exit 1; }

echo "== features round (per-nest feature summaries) =="
# The features op returns one NDJSON object per file: the schema key,
# whole-program counters, and a per-nest array with direction and
# distance histograms (docs/SERVING.md).
"$SERVE" --client "$SOCK" --features "$REPO_ROOT/tests/inputs/demo.loop" \
  > "$OUT/features-demo.json"
[ "$(wc -l < "$OUT/features-demo.json")" -eq 1 ] || {
  echo "error: features response is not one NDJSON line" >&2; exit 1; }
grep -q '"schema":"edda-features-v1"' "$OUT/features-demo.json" || {
  echo "error: features response lacks the schema key" >&2; exit 1; }
grep -q '"nests":\[{' "$OUT/features-demo.json" || {
  echo "error: features response has an empty nests array" >&2; exit 1; }
"$SERVE" --client "$SOCK" --stats > "$OUT/stats-features.json"
grep -q '"features_requests":1' "$OUT/stats-features.json" || {
  echo "error: stats do not show 1 features request" >&2; exit 1; }
echo "features round: schema + nests present, stats counted"

"$SERVE" --client "$SOCK" --shutdown > /dev/null
stop_server 2>/dev/null || true

# The warm round must be served from the reloaded store.
HIT=$(sed -n 's/.*"hit_rate_pct":\([0-9.]*\).*/\1/p' "$OUT/stats-warm.json")
WARM=$(sed -n 's/.*"warm_loaded_entries":\([0-9]*\).*/\1/p' \
       "$OUT/stats-warm.json")
echo "warm restart: loaded $WARM entries, hit rate ${HIT}%"
if [ -z "$HIT" ] || [ -z "$WARM" ] || [ "$WARM" -eq 0 ]; then
  echo "error: warm restart loaded no checkpoint entries" >&2
  exit 1
fi
grep -q '"warm_failed_loads":0' "$OUT/stats-warm.json" || {
  echo "error: the good checkpoint counted as a failed load" >&2; exit 1; }
if ! awk -v h="$HIT" -v m="$MIN_HIT" 'BEGIN { exit !(h >= m) }'; then
  echo "error: warm hit rate ${HIT}% is below ${MIN_HIT}%" >&2
  exit 1
fi
[ -s "$STATS_LOG" ] || { echo "error: stats log is empty" >&2; exit 1; }

# The per-request log holds exactly one line per payload request
# (analyze, features, problem, edit). It spans both daemon lifetimes
# while the counters restart with the daemon, so the expected count
# sums the cold daemon's last snapshot and the warm daemon's final one.
stat_of() { sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$1"; }
payload_requests() {
  echo $(( $(stat_of "$1" analyze_requests) + $(stat_of "$1" features_requests) \
         + $(stat_of "$1" problem_requests) + $(stat_of "$1" edit_requests) ))
}
WANT_LINES=$(( $(payload_requests "$OUT/stats-cold.json") \
             + $(payload_requests "$OUT/stats-features.json") ))
GOT_LINES=$(wc -l < "$STATS_LOG")
if [ "$GOT_LINES" -ne "$WANT_LINES" ]; then
  echo "error: stats log has $GOT_LINES lines for $WANT_LINES payload requests" >&2
  exit 1
fi
BAD_LINES=$(grep -cv '"op":"[a-z]*".*"id":[0-9-]*' "$STATS_LOG" || true)
NO_WALL=$(grep -cv '"wall_ns":[0-9]' "$STATS_LOG" || true)
if [ "$BAD_LINES" -ne 0 ] || [ "$NO_WALL" -ne 0 ]; then
  echo "error: $BAD_LINES stats-log lines lack op/id, $NO_WALL lack wall_ns" >&2
  exit 1
fi
echo "stats log: $GOT_LINES lines, one per payload request, each with op, id and wall_ns"

echo "== corrupt checkpoints (out-of-range decided-by, truncated) =="
# The last checkpoint is good; each round restarts from a damaged copy
# of it. Requests go to their own stats log so the checked one above
# keeps one line per request of the first two daemons.
GOOD="$tmp/good.cache"
cp "$CACHE" "$GOOD"
STATS_LOG="$OUT/request-stats-corrupt.jsonl"
: > "$STATS_LOG"
# Sets the first direction entry's decided-by to 42 (the file holds a
# count per table, then its entries; a full entry is two lines).
awk 'NR == 1 { print; next }
     NR == 2 { skip = 2 * $1; print; next }
     skip > 0 { skip--; print; next }
     !counted { counted = 1; done = ($1 == 0); print; next }
     !done && !key { key = 1; print; next }
     !done { $2 = 42; done = 1; print; next }
     { print }' "$GOOD" > "$tmp/bad-decided-by.cache"
if cmp -s "$GOOD" "$tmp/bad-decided-by.cache"; then
  echo "error: the checkpoint has no direction entry to corrupt" >&2
  exit 1
fi
head -c 400 "$GOOD" > "$tmp/truncated.cache"
for bad in bad-decided-by truncated; do
  cp "$tmp/$bad.cache" "$CACHE"
  WARNINGS=$(grep -c 'bad format; cold-starting' "$OUT/server-stderr.txt" || true)
  start_server
  "$SERVE" --client "$SOCK" --stats > "$OUT/stats-$bad.json"
  if [ "$(grep -c 'bad format; cold-starting' "$OUT/server-stderr.txt")" \
       -ne $((WARNINGS + 1)) ]; then
    echo "error: no cold-start warning for the $bad checkpoint" >&2
    exit 1
  fi
  grep -q '"warm_loaded_entries":0' "$OUT/stats-$bad.json" || {
    echo "error: the $bad checkpoint was loaded" >&2; exit 1; }
  grep -q '"warm_failed_loads":1' "$OUT/stats-$bad.json" || {
    echo "error: the $bad checkpoint's failed load was not counted" >&2
    exit 1; }
  query_round
  check_round "$bad"
  "$SERVE" --client "$SOCK" --shutdown > /dev/null
  stop_server 2>/dev/null || true
  echo "$bad checkpoint: refused, cold start, reports match"
done

echo "serve smoke passed (stats + per-request log in $OUT/)"
