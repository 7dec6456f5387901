#!/bin/sh
# Runs every bench binary in order, as recorded in EXPERIMENTS.md.
#
# Usage: run_benches.sh [--json OUT.json] [BUILD_DIR] [EXTRA_ARGS...]
#
# The binary list is generated from the edda_add_bench() registrations
# in bench/CMakeLists.txt, so a newly added bench cannot silently drop
# out of the CI smoke run. EXTRA_ARGS are forwarded to every binary
# (benches ignore flags they do not understand).
#
# With --json, per-bench wall-clock timings plus the widening-ladder
# counters are also written to OUT.json (the BENCH_<n>.json artifact CI
# uploads): the synthetic suite must keep "Widened queries" at 0 (the
# 64-bit fast path), while the committed corpus flip case must decide
# only under widening. Timings are wall-clock milliseconds of each whole
# bench binary; compare them across CI runs, not within one.
set -e

JSON_OUT=
if [ "$1" = "--json" ]; then
  JSON_OUT=$2
  [ -n "$JSON_OUT" ] || { echo "error: --json needs a path" >&2; exit 2; }
  shift 2
fi
BUILD=${1:-build}
[ $# -gt 0 ] && shift

SCRIPT_DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
BENCH_CMAKE="$SCRIPT_DIR/../bench/CMakeLists.txt"
REPO_ROOT=$(CDPATH= cd -- "$SCRIPT_DIR/.." && pwd)

BENCHES=$(sed -n 's/^edda_add_bench(\([A-Za-z0-9_]*\)).*/\1/p' \
          "$BENCH_CMAKE")
if [ -z "$BENCHES" ]; then
  echo "error: no edda_add_bench() targets found in $BENCH_CMAKE" >&2
  exit 1
fi

now_ms() {
  # %N is GNU date; fall back to second granularity elsewhere.
  case $(date +%N) in
    *N*) echo $(( $(date +%s) * 1000 )) ;;
    *)   echo $(( $(date +%s%N) / 1000000 )) ;;
  esac
}

TIMINGS=
WIDENED_SUITE=
FM_T4= FM_T4_DARK= FM_T4_SPLIN= FM_T4_PRUNED= FM_T4_SHARE=
FM_T5= FM_T5_DARK= FM_T5_SPLIN= FM_T5_PRUNED= FM_T5_SHARE=
SEARCH_IMPROVED= SEARCH_GAINS=
SEARCH_REUSED= SEARCH_PAIRS= SEARCH_REUSE_PCT=
WIDTH_KERNELS= WIDTH_LOOPS= WIDTH_WPROBES= WIDTH_BPROBES=
WIDTH_SWEEP_HITS= WIDTH_SWEEP_TOTAL= WIDTH_SWEEP_PCT=
# shellcheck disable=SC2086  # word splitting of $BENCHES is the point
for b in $BENCHES; do
  if [ ! -x "$BUILD/bench/$b" ]; then
    echo "error: bench binary '$BUILD/bench/$b' is missing" >&2
    exit 1
  fi
  echo "===== $b ====="
  T0=$(now_ms)
  OUT=$("$BUILD/bench/$b" "$@")
  T1=$(now_ms)
  printf '%s\n\n' "$OUT"
  TIMINGS="$TIMINGS    \"$b\": $((T1 - T0)),\n"
  if [ "$b" = "table1_test_frequency" ]; then
    WIDENED_SUITE=$(printf '%s\n' "$OUT" |
                    sed -n 's/^Widened queries: \([0-9]*\).*/\1/p')
  fi
  if [ "$b" = "ext_transform_search" ]; then
    SEARCH_IMPROVED=$(printf '%s\n' "$OUT" |
      sed -n 's/^Transform search: [0-9]* programs, \([0-9]*\) improved.*/\1/p')
    SEARCH_GAINS=$(printf '%s\n' "$OUT" |
      sed -n 's/^Transform search: .*, \([0-9]*\) outer-parallel gains/\1/p')
    SEARCH_REUSED=$(printf '%s\n' "$OUT" |
      sed -n 's/^Combined search reuse: reused \([0-9]*\) of .*/\1/p')
    SEARCH_PAIRS=$(printf '%s\n' "$OUT" |
      sed -n 's/^Combined search reuse: reused [0-9]* of \([0-9]*\) pairs.*/\1/p')
    SEARCH_REUSE_PCT=$(printf '%s\n' "$OUT" |
      sed -n 's/^Combined search reuse: .*(\([0-9.]*\)%).*/\1/p')
  fi
  if [ "$b" = "ext_width_analysis" ]; then
    WIDTH_KERNELS=$(printf '%s\n' "$OUT" |
      sed -n 's/^Width suite: \([0-9]*\) kernels.*/\1/p')
    WIDTH_LOOPS=$(printf '%s\n' "$OUT" |
      sed -n 's/^Width suite: [0-9]* kernels, \([0-9]*\) loops.*/\1/p')
    WIDTH_WPROBES=$(printf '%s\n' "$OUT" |
      sed -n 's/.*us, \([0-9]*\) width probes.*/\1/p')
    WIDTH_BPROBES=$(printf '%s\n' "$OUT" |
      sed -n 's/.*cached), \([0-9]*\) boundary probes.*/\1/p')
    WIDTH_SWEEP_HITS=$(printf '%s\n' "$OUT" |
      sed -n 's/^Width sweep reuse: answered \([0-9]*\) of .*/\1/p')
    WIDTH_SWEEP_TOTAL=$(printf '%s\n' "$OUT" |
      sed -n 's/^Width sweep reuse: answered [0-9]* of \([0-9]*\) probes.*/\1/p')
    WIDTH_SWEEP_PCT=$(printf '%s\n' "$OUT" |
      sed -n 's/^Width sweep reuse: .*(\([0-9.]*\)%).*/\1/p')
  fi
  # The Omega-core FM counters both direction benches emit; CI compares
  # fm_work against the pre-Omega baselines pinned below.
  FM_LINE=$(printf '%s\n' "$OUT" | sed -n 's/^FM work: //p')
  if [ -n "$FM_LINE" ]; then
    FM_WORK=${FM_LINE%% *}
    FM_DARK=$(printf '%s\n' "$FM_LINE" |
              sed -n 's/.*dark-shadow decided: \([0-9]*\).*/\1/p')
    FM_SPLIN=$(printf '%s\n' "$FM_LINE" |
               sed -n 's/.*splinters: \([0-9]*\).*/\1/p')
    FM_PRUNED=$(printf '%s\n' "$FM_LINE" |
                sed -n 's/.*redundant pruned: \([0-9]*\).*/\1/p')
    FM_SHARE=$(printf '%s\n' "$FM_LINE" |
               sed -n 's/.*share hits: \([0-9]*\).*/\1/p')
    case $b in
      table4_*) FM_T4=$FM_WORK FM_T4_DARK=$FM_DARK FM_T4_SPLIN=$FM_SPLIN
                FM_T4_PRUNED=$FM_PRUNED FM_T4_SHARE=$FM_SHARE ;;
      table5_*) FM_T5=$FM_WORK FM_T5_DARK=$FM_DARK FM_T5_SPLIN=$FM_SPLIN
                FM_T5_PRUNED=$FM_PRUNED FM_T5_SHARE=$FM_SHARE ;;
    esac
  fi
done
echo "===== micro_test_cost ====="
"$BUILD/bench/micro_test_cost" --benchmark_min_time=0.2 "$@"

[ -n "$JSON_OUT" ] || exit 0

# Widening counters beyond the suite: the demo program exercises the
# fast path end to end, and the committed corpus case is the
# seed-Unanalyzable problem that must now decide (only) at 128 bits.
DEMO_STATS=$("$BUILD/tools/edda-cli" --stats \
             "$REPO_ROOT/tests/inputs/demo.loop" | sed -n '/^queries:/p')
DEMO_QUERIES=$(printf '%s\n' "$DEMO_STATS" |
               sed -n 's/^queries: \([0-9]*\),.*/\1/p')
DEMO_WIDENED=$(printf '%s\n' "$DEMO_STATS" |
               sed -n 's/.*widened: \([0-9]*\).*/\1/p')
FLIP=tests/inputs/corpus/widen_svpc_huge_bounds.dep
FLIP_ANSWER=$("$BUILD/tools/edda-cli" --problem "$REPO_ROOT/$FLIP" |
              sed -n 's/^answer: \([a-z]*\).*/\1/p')
FLIP_NOWIDEN=$("$BUILD/tools/edda-cli" --problem --no-widen \
               "$REPO_ROOT/$FLIP" |
               sed -n 's/^answer: \([a-z]*\).*/\1/p')

{
  printf '{\n'
  printf '  "schema": "edda-bench",\n'
  printf '  "timings_ms": {\n'
  printf '%b' "$TIMINGS" | sed '$s/,$//'
  printf '  },\n'
  printf '  "widening": {\n'
  printf '    "suite_widened_queries": %s,\n' "${WIDENED_SUITE:-null}"
  printf '    "demo_queries": %s,\n' "${DEMO_QUERIES:-null}"
  printf '    "demo_widened": %s,\n' "${DEMO_WIDENED:-null}"
  printf '    "flip_case": "%s",\n' "$FLIP"
  printf '    "flip_answer": "%s",\n' "$FLIP_ANSWER"
  printf '    "flip_answer_no_widen": "%s"\n' "$FLIP_NOWIDEN"
  printf '  },\n'
  # Omega-core FM accounting. The *_baseline_pre_omega values are the
  # pre-rewrite core's combine counts on the same suite (PR-7 era,
  # BENCH_7.json); the acceptance bar is a >= 10x drop in fm_work.
  printf '  "fm": {\n'
  printf '    "table4_fm_work": %s,\n' "${FM_T4:-null}"
  printf '    "table4_fm_work_baseline_pre_omega": 3968,\n'
  printf '    "table4_dark_shadow_decided": %s,\n' "${FM_T4_DARK:-null}"
  printf '    "table4_splinters": %s,\n' "${FM_T4_SPLIN:-null}"
  printf '    "table4_redundant_pruned": %s,\n' "${FM_T4_PRUNED:-null}"
  printf '    "table4_share_hits": %s,\n' "${FM_T4_SHARE:-null}"
  printf '    "table5_fm_work": %s,\n' "${FM_T5:-null}"
  printf '    "table5_fm_work_baseline_pre_omega": 1760,\n'
  printf '    "table5_dark_shadow_decided": %s,\n' "${FM_T5_DARK:-null}"
  printf '    "table5_splinters": %s,\n' "${FM_T5_SPLIN:-null}"
  printf '    "table5_redundant_pruned": %s,\n' "${FM_T5_PRUNED:-null}"
  printf '    "table5_share_hits": %s\n' "${FM_T5_SHARE:-null}"
  printf '  },\n'
  # Transformation-search extension (PR 9): the suite must keep at
  # least two outer-parallel gains, and the combined multi-nest search
  # must reuse a majority of re-analyzed pairs (the bench itself fails
  # below those bars; CI just records the numbers here).
  printf '  "search": {\n'
  printf '    "suite_improved": %s,\n' "${SEARCH_IMPROVED:-null}"
  printf '    "suite_outer_parallel_gains": %s,\n' "${SEARCH_GAINS:-null}"
  printf '    "combined_pairs_reused": %s,\n' "${SEARCH_REUSED:-null}"
  printf '    "combined_pairs_total": %s,\n' "${SEARCH_PAIRS:-null}"
  printf '    "combined_reuse_pct": %s\n' "${SEARCH_REUSE_PCT:-null}"
  printf '  },\n'
  # Width/coarsening client (PR 10): the kernel-suite width sweep must
  # answer a strict majority of its cascade probes from the shared
  # interval memo (the bench itself fails below that bar; CI just
  # records the numbers here).
  printf '  "width": {\n'
  printf '    "suite_kernels": %s,\n' "${WIDTH_KERNELS:-null}"
  printf '    "suite_loops": %s,\n' "${WIDTH_LOOPS:-null}"
  printf '    "width_probes": %s,\n' "${WIDTH_WPROBES:-null}"
  printf '    "boundary_probes": %s,\n' "${WIDTH_BPROBES:-null}"
  printf '    "sweep_probes_cached": %s,\n' "${WIDTH_SWEEP_HITS:-null}"
  printf '    "sweep_probes_total": %s,\n' "${WIDTH_SWEEP_TOTAL:-null}"
  printf '    "sweep_reuse_pct": %s\n' "${WIDTH_SWEEP_PCT:-null}"
  printf '  }\n'
  printf '}\n'
} > "$JSON_OUT"
echo "wrote $JSON_OUT"
