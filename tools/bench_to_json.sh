#!/usr/bin/env sh
# Runs the perf microbenchmarks with JSON output and writes the result to
# BENCH_PR7.json at the repository root (override with -o). The BM_ObsOverhead
# benchmark exports the engine's obs counters (obs.fsim.* per sweep) as
# benchmark user counters, so they land in the JSON artifact alongside the
# timings — compare the s5378_off/_on pair to check the <2% overhead contract.
# BM_ComboSweep/s420_w{1,2,4,8} is the speculative combo-sweep scaling curve
# (compare w1 vs w4 real_time for the PR-3 speedup headline).
# BM_CampaignCached/s298_{cold,warm} is the same campaign against an empty
# versus a populated artifact store — the cold/warm ratio is the PR-5
# caching headline. BM_PackedFsim and the *_packed rows of
# BM_SeqFaultSimEngines measure the bit-parallel PPSFP engine: compare
# s5378_packed gate_evals_per_sweep against s5378_conediff for the PR-6
# (>=5x) reduction headline. BM_ServeThroughput drives submit_batch
# through svc::CampaignService (cold / warm store / coalesced duplicates):
# compare cold vs warm real_time for the store payoff and the coalesced
# rows' requests/s + svc.coalesced_per_batch for the single-flight dedup
# headline (PR-7; generate with `-f ServeThroughput -o BENCH_PR7.json`).
# BM_StaPrune/s420t_{unpruned,pruned} is one bounded Procedure 2 pass over
# the full collapsed universe with and without the sta untestable mask:
# `detected` must match exactly while gate_evals_per_run drops (PR-9;
# generate with `-f StaPrune -o BENCH_PR9.json`).
# BM_NetThroughput is the BM_ServeThroughput workload pushed through the
# TCP loopback (NetClient -> NetServer -> CampaignService): compare
# against the matching ServeThroughput row for the transport tax, cold
# vs warm for the store payoff over the wire, and the coalesced row's
# requests/s for cross-connection single-flight dedup (PR-10; generate
# with `-f NetThroughput -o BENCH_PR10.json`).
#
# Usage:
#   tools/bench_to_json.sh [-b BUILD_DIR] [-o OUTPUT] [-f FILTER] [-m MIN_TIME]
#
# Examples:
#   tools/bench_to_json.sh                          # full suite
#   tools/bench_to_json.sh -f SeqFaultSimEngines    # engine head-to-head only
#   tools/bench_to_json.sh -f ObsOverhead           # obs overhead + counters
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
output="$repo_root/BENCH_PR7.json"
filter=""
min_time="0.2"

while getopts "b:o:f:m:h" opt; do
  case "$opt" in
    b) build_dir=$OPTARG ;;
    o) output=$OPTARG ;;
    f) filter=$OPTARG ;;
    m) min_time=$OPTARG ;;
    h | *)
      sed -n '2,9p' "$0"
      exit 0
      ;;
  esac
done

bench="$build_dir/bench/bench_perf"
if [ ! -x "$bench" ]; then
  echo "building bench_perf in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bench_perf -j >/dev/null
fi

set -- --benchmark_format=json --benchmark_out="$output" \
  --benchmark_out_format=json --benchmark_min_time="$min_time"
if [ -n "$filter" ]; then
  set -- "$@" --benchmark_filter="$filter"
fi

"$bench" "$@" >/dev/null
if [ ! -s "$output" ]; then
  echo "error: no benchmarks matched — $output is empty" >&2
  rm -f "$output"
  exit 1
fi
echo "wrote $output" >&2
