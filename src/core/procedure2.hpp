// Procedure 2: selecting test sets TS(I, D_1).
//
// Starting from TS_0, iterate I = 1, 2, ... and sweep D_1 over a given
// order (the paper uses 1..10 ascending, and 10..1 descending in its
// Table 7 variant). Every TS(I, D_1) that detects at least one remaining
// fault joins ID1_PAIRS. The procedure stops when every target fault is
// detected, or after N_SAME_FC consecutive iterations without improvement
// (plus a hard iteration cap as an engineering safety net).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/procedure1.hpp"
#include "fault/fault.hpp"
#include "fault/seq_fsim.hpp"
#include "scan/test.hpp"
#include "sim/compiled.hpp"

namespace rls::store {
class P2Checkpoint;
}  // namespace rls::store

namespace rls::core {

struct Procedure2Options {
  /// D_1 sweep order; the paper's default is ascending 1..10.
  std::vector<std::uint32_t> d1_order = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  /// Stop after this many iterations with no new detection (N_SAME_FC;
  /// the paper does not publish its value — 3 is our default).
  std::uint32_t n_same_fc = 3;
  /// Hard cap on I (safety net; the paper has none).
  std::uint32_t max_iterations = 64;
  std::uint64_t base_seed = 0x11D1'5EEDull;
  bool reseed_per_test = true;
  /// Fault-simulation engine and worker-thread count. Every engine and
  /// any thread count select identical (I, D_1) pairs; these knobs only
  /// trade runtime (and let tests cross-check the engines end to end).
  /// kPacked, the campaign default, packs TS_0 once per run and builds
  /// each TS(I, D_1) as new limited-scan step words over those batches.
  fault::Engine engine = fault::Engine::kPacked;
  unsigned sim_threads = 0;
  /// Statically-proven-untestable mask over the target faults (1 = prune;
  /// see analysis::sta). When set, run_procedure2 applies it to `fl`
  /// before simulating: pruned faults stay in every denominator and in
  /// the completion criterion (so FC numbers and control flow are
  /// unchanged), but are never simulated. Shared so the combo sweep's
  /// speculative children reuse one mask without copies. Must be
  /// index-aligned with the target fault list (checked at run time).
  std::shared_ptr<const std::vector<std::uint8_t>> prune_mask;
};

/// One selected (I, D_1) pair with its bookkeeping.
struct AppliedSet {
  std::uint32_t iteration = 0;
  std::uint32_t d1 = 0;
  std::size_t detected = 0;          ///< faults newly detected by this set
  std::uint64_t cycles = 0;          ///< N_cyc(I, D_1)
  std::uint64_t limited_units = 0;   ///< #time units with shift > 0
  std::uint64_t total_vectors = 0;   ///< sum of test lengths

  friend bool operator==(const AppliedSet&, const AppliedSet&) = default;
};

struct Procedure2Result {
  std::size_t ts0_detected = 0;      ///< faults detected by TS_0
  std::uint64_t ncyc0 = 0;           ///< N_cyc of TS_0
  std::vector<AppliedSet> applied;   ///< ID1_PAIRS in selection order
  std::size_t total_detected = 0;    ///< including TS_0 detections
  bool complete = false;             ///< all target faults detected
  /// True when a cooperative abort stopped the iteration early (speculative
  /// sweep cancellation). An aborted result is partial and is never
  /// committed by the combo sweep.
  bool aborted = false;

  /// Number of limited-scan test-set applications (`app` in Table 6).
  [[nodiscard]] std::size_t num_applications() const noexcept {
    return applied.size();
  }
  /// Total clock cycles: N_cyc0 + sum of N_cyc(I, D_1) (`cycles`).
  [[nodiscard]] std::uint64_t total_cycles() const noexcept {
    std::uint64_t c = ncyc0;
    for (const AppliedSet& a : applied) c += a.cycles;
    return c;
  }
  /// Average number of limited scan time units over the applied sets
  /// (`ls` in Table 6; TS_0 excluded by definition).
  [[nodiscard]] double average_limited_scan_units() const noexcept {
    std::uint64_t units = 0, len = 0;
    for (const AppliedSet& a : applied) {
      units += a.limited_units;
      len += a.total_vectors;
    }
    return len == 0 ? 0.0
                    : static_cast<double>(units) / static_cast<double>(len);
  }
};

class RunContext;

/// Runs Procedure 2. `fl` carries the target faults (normally the
/// detectable collapsed universe) and is updated by fault dropping.
/// `ctx`, when non-null, receives the per-(I, D_1) event stream ("ts0",
/// "sweep", "id1_pair", "summary"), progress updates, and the engine's
/// "fsim.*" counters; a null context is the zero-overhead default.
/// `abort`, when non-null, is a cooperative cancellation flag polled at
/// the top of every outer I iteration: once it reads true the run returns
/// its partial state with `aborted = true` and emits no summary event (the
/// speculative combo sweep discards such results, so a cancelled attempt
/// leaves no trace-stream residue).
///
/// `ckpt`, when non-null, persists progress through the artifact store
/// (rls::store). A terminal snapshot short-circuits the whole run — the
/// stored result is restored into `fl` and returned without touching the
/// fault simulator (the warm-cache path, "cache_hit" event). A partial
/// snapshot (present only after an interrupted run, and honored only when
/// the store was opened with resume enabled) restores the exact loop
/// position and detection state, so the continued run replays nothing and
/// emits exactly the event suffix the uninterrupted run would have
/// emitted from that point. Partial snapshots are written after every
/// kept (I, D_1) pair; a terminal snapshot replaces them at every normal
/// exit. Aborted runs never checkpoint.
Procedure2Result run_procedure2(const sim::CompiledCircuit& cc,
                                const scan::TestSet& ts0,
                                fault::FaultList& fl,
                                const Procedure2Options& opt,
                                RunContext* ctx = nullptr,
                                const std::atomic<bool>* abort = nullptr,
                                const store::P2Checkpoint* ckpt = nullptr);

}  // namespace rls::core
