// (L_A, L_B, N) parameter selection (Section 3, Tables 3-5).
//
// Combinations with L_A < L_B are enumerated and ordered by increasing
// N_cyc0 = (2N+1)N_SV + N(L_A+L_B); Procedure 2 is applied in that order
// and the first combination achieving complete coverage of the target
// faults is selected (the paper's Table 6 policy).
//
// The search supports *speculative parallelism* (combo_jobs = W > 1): a
// sliding window of W candidate combinations runs concurrently on a
// sim::WorkerPool, each attempt on its own FaultList / TS_0 / buffered
// trace context, while results are committed strictly in N_cyc0 order.
// When the earliest-ranked attempt that completes coverage is committed,
// every later speculative attempt is cancelled through the cooperative
// abort flag of run_procedure2 and its result (trace events, counters,
// ComboRun) is discarded. The winning combo, the committed ComboRun list
// and the trace stream are therefore identical at any W — speculation
// trades wasted cycles on cancelled attempts for wall-clock time.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/procedure2.hpp"
#include "core/ts0.hpp"
#include "fault/fault.hpp"
#include "sim/compiled.hpp"

namespace rls::core {

struct Combo {
  std::size_t l_a = 0;
  std::size_t l_b = 0;
  std::size_t n = 0;
  std::uint64_t ncyc0 = 0;
};

/// The paper's sweep grids.
inline const std::vector<std::size_t>& default_la_choices() {
  static const std::vector<std::size_t> v{8, 16, 32, 64, 128, 256};
  return v;
}
inline const std::vector<std::size_t>& default_lb_choices() {
  static const std::vector<std::size_t> v{16, 32, 64, 128, 256};
  return v;
}
inline const std::vector<std::size_t>& default_n_choices() {
  static const std::vector<std::size_t> v{64, 128, 256};
  return v;
}

/// Enumerates all combos with L_A < L_B, sorted by increasing N_cyc0
/// (ties broken by N, then L_B, then L_A — all ascending).
std::vector<Combo> enumerate_combos(std::size_t n_sv,
                                    const std::vector<std::size_t>& la,
                                    const std::vector<std::size_t>& lb,
                                    const std::vector<std::size_t>& n);

/// enumerate_combos over the paper's default grids.
std::vector<Combo> enumerate_default_combos(std::size_t n_sv);

/// Result of running Procedure 2 under one combination.
struct ComboRun {
  Combo combo;
  Procedure2Result result;
};

class RunContext;

/// Runs Procedure 2 for each combination in N_cyc0 order until the first
/// one reaches complete coverage of `target_faults`. Returns that run, or
/// nullopt if none achieves completeness within `max_attempts` tried
/// combinations (0 = unlimited). `runs_out`, when non-null, receives every
/// committed run (dash rows of Tables 3/4). `ctx`, when non-null, gets one
/// "combo_attempt" event per committed combination (with the attempt index
/// stamped into every nested Procedure 2 event) plus progress updates.
///
/// `combo_jobs` is the speculative window width W (1 = serial, 0 =
/// hardware concurrency). The committed results — winner, runs_out
/// contents, per-event trace bytes (timing pinned), "fsim.*" counter
/// totals — are identical at any W; only the "sweep.*" speculation
/// counters (dispatched / cancelled / discarded) and wall-clock vary.
std::optional<ComboRun> first_complete_combo(
    const sim::CompiledCircuit& cc,
    const std::vector<fault::Fault>& target_faults,
    const Procedure2Options& p2_opt, std::uint64_t ts0_seed,
    std::vector<ComboRun>* runs_out = nullptr,
    std::size_t max_attempts = 0, RunContext* ctx = nullptr,
    unsigned combo_jobs = 1);

/// Runs Procedure 2 for one specific combination against a fresh copy of
/// the target faults, on a TS_0 generated from `ts0_seed`. A non-zero
/// combo.ncyc0 is validated against the generated set's actual cycle
/// count (throws std::logic_error on mismatch — a combo ranked for
/// another circuit). `abort` is the cooperative cancellation flag
/// forwarded to run_procedure2.
ComboRun run_combo(const sim::CompiledCircuit& cc,
                   const std::vector<fault::Fault>& target_faults,
                   const Combo& combo, const Procedure2Options& p2_opt,
                   std::uint64_t ts0_seed, RunContext* ctx = nullptr,
                   const std::atomic<bool>* abort = nullptr);

}  // namespace rls::core
