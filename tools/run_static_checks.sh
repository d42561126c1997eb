#!/usr/bin/env bash
# Static-analysis + sanitizer gate for the rls repo.
#
#   tools/run_static_checks.sh [--quick]
#
# Runs, in order:
#   1. clang-tidy (bugprone-*, concurrency-*, performance-* per .clang-tidy)
#      over src/ and tools/ — skipped with a notice when clang-tidy is not
#      installed (the CI container ships only g++);
#   2. `rls lint` over every registry circuit — structural diagnostics must
#      be clean (exit 0; resistance findings are Info and do not fail).
#      s420t is the one exception: its tied-input profile creates derived
#      constants by construction, so the sta pass must report exactly the
#      W107 dead-logic warnings (exit 2) — anything else fails the gate;
#   3. `rls analyze --untestable` over every registry circuit — the static
#      testability engine's machine-checked self-check (nonzero exit means
#      an internal inconsistency, never "untestable faults exist");
#   4. `rls fuzz` — a deterministic 500-seed differential-fuzz smoke (all
#      oracles; skipped with --quick) plus a replay of the committed
#      regression corpus under tests/fuzz_corpus/ (always runs) — zero
#      findings required for both;
#   5. a perfbench smoke: `perfbench/run.py --workload W --seed 1
#      --seconds 1 --trace T` for table6-warm at T=0 and T=1 and for
#      table6-cold at T=1 (the one workload whose timed phase generates
#      TS_0 and writes artifacts) must exit 0 and end with a JSON summary
#      line that says "correct": true and names exactly BENCHMARK.json's
#      end_to_end metrics (T=0) or per_layer metrics (T=1) (always runs) —
#      catches a renamed CMake target perfbench links, a changed src/
#      signature it compiles against, a counter it parses, or a metric
#      that goes missing, before a benchmark run does;
#   6. unless --quick: the ASan+UBSan preset build + the rls::store suites
#      (StoreSerde / StoreArtifact / StoreNegative / StoreCheckpoint /
#      StoreResume / ...) plus the PackedFsim and campaign-service (Svc*)
#      suites — the adversarial corruption tests must be clean under
#      AddressSanitizer (typed errors, never UB), and so must the packed
#      engine's word machinery and the service's admission/coalescing path —
#      plus the net suites (NetFrame / NetLoopback / NetDrain /
#      NetResources / NetSharedStore / NetStdin);
#   7. unless --quick: the TSan preset build + thread-heavy test suites
#      (ParallelFsim / PackedFsim / SweepEquiv / SweepAbort /
#      EngineCrossCheck / WorkerPool / StoreConcurrency / Svc* / Net* /
#      FuzzDeterminism) with suppressions from tools/tsan.supp.
#
# Exit code 0 means every gate that could run passed.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

fail=0

# ---- 1. clang-tidy (advisory: container may not have clang) -------------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # compile_commands.json from the release tree; generate if missing.
  if [[ ! -f build/compile_commands.json ]]; then
    cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t sources < <(find src tools -name '*.cpp' | sort)
  if ! clang-tidy -p build --quiet "${sources[@]}"; then
    echo "clang-tidy: FAILED" >&2
    fail=1
  fi
else
  echo "== clang-tidy: not installed, skipping (advisory gate) =="
fi

# ---- 2. rls lint over the circuit registry ------------------------------
echo "== rls lint (registry circuits) =="
# Configure only when there is no tree, but always build: the build is a
# no-op when rls is current, and lint, analyze and the fuzz smoke must
# never run a binary older than the sources.
if [[ ! -f build/CMakeCache.txt ]]; then
  cmake --preset release >/dev/null
fi
cmake --build build --target rls -j"$(nproc)" >/dev/null
while IFS= read -r circuit; do
  # Structural errors exit 1, warnings exit 2; both fail the gate — except
  # s420t, whose tied inputs synthesize dead logic on purpose, so the sta
  # pass's W107 warnings (exit 2) are the *expected* outcome there.
  rc=0
  build/tools/rls lint "$circuit" --no-resistance >/dev/null || rc=$?
  want=0
  [[ "$circuit" == "s420t" ]] && want=2
  if [[ "$rc" != "$want" ]]; then
    echo "rls lint $circuit: FAILED (exit $rc, expected $want)" >&2
    build/tools/rls lint "$circuit" --no-resistance || true
    fail=1
  fi
done < <(build/tools/rls list)
echo "lint: registry clean"

# ---- 3. rls analyze over the circuit registry ---------------------------
# The static testability engine re-derives its report per circuit and runs
# sta_self_check over it; a nonzero exit is an internal inconsistency
# (untestable faults merely existing is fine and exits 0).
echo "== rls analyze (registry circuits) =="
while IFS= read -r circuit; do
  if ! build/tools/rls analyze "$circuit" --untestable >/dev/null; then
    echo "rls analyze $circuit: FAILED (sta self-check)" >&2
    build/tools/rls analyze "$circuit" --untestable || true
    fail=1
  fi
done < <(build/tools/rls list)
echo "analyze: registry consistent"

# ---- 4. Differential fuzz smoke + corpus replay -------------------------
# Deterministic and bounded (~15 s of simulation): 500 seeds through every
# oracle, then the committed regression corpus. Any finding is a failure.
# --quick skips the seed smoke but still replays the corpus (cheap, and a
# regression there is always a real bug).
if [[ "$quick" == 0 ]]; then
  echo "== rls fuzz (500-seed smoke + corpus replay) =="
  if ! build/tools/rls fuzz --seeds 500 --findings - 2>/dev/null; then
    echo "rls fuzz smoke: FINDINGS (see above)" >&2
    fail=1
  fi
else
  echo "== rls fuzz smoke: skipped (--quick), corpus replay still runs =="
fi
if ! build/tools/rls fuzz --replay tests/fuzz_corpus --findings - 2>/dev/null; then
  echo "rls fuzz corpus replay: REGRESSION (see above)" >&2
  fail=1
fi
echo "fuzz: clean"

# ---- 5. perfbench smoke -------------------------------------------------
# Builds perfbench/ (its own Release tree under .bench_build/) from this
# checkout and runs short workloads, untraced and traced. The last stdout
# line of each run is the JSON summary; its metric names must be exactly
# the ones BENCHMARK.json declares for that pass.
perfbench_smoke() {
  local workload="$1" trace="$2" kind="$3" bench_err bench_out rc=0
  echo "== perfbench smoke ($workload, seed 1, 1 s, trace $trace) =="
  bench_err="$(mktemp)"
  bench_out="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 1 --trace "$trace" 2>"$bench_err")" || rc=$?
  if [[ "$rc" != 0 ]] || ! tail -n 1 <<<"$bench_out" | python3 -c '
import json, sys
try:
    summary = json.loads(sys.stdin.read())
    with open("BENCHMARK.json") as f:
        want = sorted(m["name"] for m in json.load(f)[sys.argv[1]])
    ok = summary["correct"] is True and sorted(summary["metrics"]) == want
except (ValueError, KeyError, TypeError):
    ok = False
sys.exit(0 if ok else 1)' "$kind"; then
    echo "perfbench smoke ($workload, trace $trace): FAILED (exit $rc, no" \
      "\"correct\": true summary, or metric names other than BENCHMARK.json" \
      "$kind)" >&2
    tail -n 20 "$bench_err" >&2
    printf '%s\n' "$bench_out" | tail -n 5 >&2
    fail=1
  else
    echo "perfbench smoke ($workload, trace $trace): ok"
  fi
  rm -f "$bench_err"
}
perfbench_smoke table6-warm 0 end_to_end
perfbench_smoke table6-warm 1 per_layer
perfbench_smoke table6-cold 1 per_layer

# ---- 6. ASan store suites -----------------------------------------------
if [[ "$quick" == 0 ]]; then
  echo "== ASan+UBSan (rls::store suites) =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$(nproc)" >/dev/null
  if ! ctest --test-dir build-asan -R "Store|PackedFsim|Svc|NetFrame|NetLoopback|NetDrain|NetResources|NetSharedStore|NetStdin|Fuzz" --output-on-failure; then
    echo "asan store suites: FAILED" >&2
    fail=1
  fi
else
  echo "== ASan store suites: skipped (--quick) =="
fi

# ---- 7. TSan suites -----------------------------------------------------
if [[ "$quick" == 0 ]]; then
  echo "== TSan (thread-heavy suites) =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$(nproc)" >/dev/null
  if ! ctest --preset tsan --output-on-failure; then
    echo "tsan suites: FAILED" >&2
    fail=1
  fi
else
  echo "== TSan: skipped (--quick) =="
fi

if [[ "$fail" != 0 ]]; then
  echo "static checks: FAILED" >&2
  exit 1
fi
echo "static checks: OK"
