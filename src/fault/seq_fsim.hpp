// Scan-aware sequential fault simulation (parallel-fault, 64 faults/word).
//
// A scan test is serial in time, so the 64 bit-lanes carry 64 *faults*
// simulated against the same test. The fault-free reference trace is
// computed once per test and shared by all fault groups.
//
// Observation points (all three matter for the paper's method):
//   1. primary outputs at every at-speed time unit;
//   2. the bits shifted out of the chain during every limited scan
//      operation;
//   3. the complete scan-out at the end of the test.
//
// Fault injection semantics:
//   * output faults force the signal's value wherever it is read — for a
//     flip-flop Q this includes the scan path, so shifting through a stuck
//     Q corrupts scanned data (scan-in, limited scan and scan-out), exactly
//     as in a physical mux-scan chain;
//   * input-pin faults force the value seen by one consumer gate only; a
//     DFF D-pin fault corrupts functional capture but not scan shifting
//     (the scan-in path bypasses D through the scan mux).
//
// Three evaluation engines produce bit-identical results:
//   * kFullSweep re-evaluates every combinational gate at every time unit;
//   * kConeDiff (the class default) seeds the faulty machine from the
//     fault-free reference trace and re-evaluates only gates reachable
//     from a divergence source (fault sites and flip-flops whose state
//     differs from the reference), pruning propagation wherever a
//     recomputed word matches the reference. See DESIGN.md, "Engine".
//   * kPacked flips the lane convention: 64 *patterns* per word, one
//     fault per run (PPSFP). The fault-free reference is simulated once
//     per batch of up to 64 equal-length tests, then each remaining fault
//     replays the batch through the same cone-restricted frontier with
//     difference *words* (a frontier entry stays live while any lane
//     differs) and is dropped at the first observation point whose
//     difference word intersects the live-lane mask. It is the campaign
//     default (core::Procedure2Options), and run_batches() takes batches
//     packed once by the caller. See DESIGN.md, "Packed engine".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bist/misr.hpp"
#include "fault/fault.hpp"
#include "obs/counters.hpp"
#include "scan/test.hpp"
#include "sim/compiled.hpp"
#include "sim/packed_logic.hpp"
#include "sim/seq_sim.hpp"
#include "sim/worker_pool.hpp"

namespace rls::fault {

/// How test responses are observed.
enum class ObservationMode : std::uint8_t {
  /// Every observed value is compared against the fault-free response
  /// (ideal tester / per-cycle comparison).
  kPerCycle,
  /// Responses are compacted into a per-test MISR signature; a fault is
  /// detected only if its signature differs (real BIST; a nonzero response
  /// difference aliases with probability ~2^-degree).
  kSignature,
};

/// Faulty-machine evaluation strategy. All engines are exact; they trade
/// per-gate bookkeeping against skipped work.
enum class Engine : std::uint8_t {
  /// Full levelized sweep every time unit (the historical engine; right
  /// for tiny circuits or faults whose cones span the whole core).
  kFullSweep,
  /// Cone-restricted difference propagation off the reference trace
  /// (64 faults per word, one test at a time).
  kConeDiff,
  /// Bit-parallel pattern-parallel single-fault propagation (64 test
  /// patterns per word, one fault at a time).
  kPacked,
};

/// Canonical lowercase engine name, as accepted by parse_engine() and the
/// CLI --engine flag.
[[nodiscard]] const char* engine_name(Engine engine) noexcept;

/// Comma-separated list of valid engine names (for error messages and
/// help text).
[[nodiscard]] const char* engine_choices() noexcept;

/// Parses an engine name; nullopt for anything outside engine_choices().
[[nodiscard]] std::optional<Engine> parse_engine(std::string_view name) noexcept;

class SeqFaultSim {
 public:
  explicit SeqFaultSim(const sim::CompiledCircuit& cc);

  /// Simulates the test set against the undetected faults of `fl`,
  /// marking faults detected (fault dropping between tests).
  /// Returns the number of newly detected faults.
  std::size_t run_test_set(const scan::TestSet& ts, FaultList& fl);

  /// kPacked over pre-built batches (PackedBatch::make_batches of a test
  /// set, or PackedBatch::with_schedules): simulates them against the
  /// undetected faults of `fl` exactly as run_test_set simulates the set
  /// they pack, counters included. The batches are the packed engine's
  /// input, so this entry point runs kPacked whatever engine() says;
  /// run_test_set under kPacked is make_batches plus this call.
  std::size_t run_batches(std::span<const sim::PackedBatch> batches,
                          FaultList& fl);

  /// Simulates one test against an explicit group of <= 64 faults.
  /// Returns the lane mask of detected faults. The lanes of this entry
  /// point are faults, so under kPacked (whose lanes are patterns) it
  /// evaluates via kConeDiff — all engines are exact, so the mask is
  /// identical either way.
  sim::Word run_test(const scan::ScanTest& test, std::span<const Fault> group);

  /// Cumulative gate-evaluation count (one count per gate visit per word).
  [[nodiscard]] std::uint64_t gate_evals() const noexcept { return gate_evals_; }

  /// Engine-path split of gate_evals(): evaluations done through the
  /// kConeDiff level-bucket frontier vs. full levelized sweeps (the two
  /// always sum to gate_evals()).
  [[nodiscard]] std::uint64_t frontier_evals() const noexcept {
    return frontier_evals_;
  }
  [[nodiscard]] std::uint64_t sweep_evals() const noexcept {
    return sweep_evals_;
  }
  /// Fault groups the wide-cone guard demoted from kConeDiff to the full
  /// sweep (cumulative across run_test_set calls).
  [[nodiscard]] std::uint64_t fallback_groups() const noexcept {
    return fallback_groups_;
  }

  /// kPacked instrumentation: word-level gate visits done by the packed
  /// frontier (a subset of gate_evals(), each visit covering up to 64
  /// patterns), batches simulated, and the total live-lane population
  /// across those batches (lanes_active / (64 * packed_batches) is the
  /// packing occupancy).
  [[nodiscard]] std::uint64_t packed_words() const noexcept {
    return packed_words_;
  }
  [[nodiscard]] std::uint64_t packed_batches() const noexcept {
    return packed_batches_;
  }
  [[nodiscard]] std::uint64_t lanes_active() const noexcept {
    return lanes_active_;
  }

  /// Attaches a counter registry; every run_test_set call then adds its
  /// per-sweep deltas under "fsim.*" names (see DESIGN.md). Null detaches
  /// — the disabled path costs one branch per run_test_set call, nothing
  /// per gate. The registry must outlive the simulator or be detached.
  void set_counters(obs::CounterRegistry* counters) noexcept {
    counters_ = counters;
  }

  /// Additional signals observed at every at-speed time unit (e.g. the
  /// last flip-flop of each scan chain in a [5]/[6]-style BIST setup).
  void set_extra_observed(std::vector<netlist::SignalId> signals) {
    extra_observed_ = std::move(signals);
  }

  /// Worker threads for run_test_set (fault groups are simulated
  /// independently, so results are bit-identical at any thread count).
  /// 0 = use the hardware concurrency. Default: 0.
  void set_threads(unsigned n) { threads_ = n; }

  /// Selects per-cycle comparison (default) or MISR signature compaction.
  void set_observation_mode(ObservationMode mode, int misr_degree = 16);
  [[nodiscard]] ObservationMode observation_mode() const noexcept {
    return mode_;
  }

  /// Selects the evaluation engine. Default: kConeDiff.
  void set_engine(Engine engine) { engine_ = engine; }
  [[nodiscard]] Engine engine() const noexcept { return engine_; }

 private:
  struct PinFix {
    std::uint8_t lane;
    std::int16_t pin;
    std::uint8_t value;
  };
  struct ForceMask {
    sim::Word and_mask = sim::kAllOnes;
    sim::Word or_mask = 0;
  };
  /// Per-group injection plan.
  struct Overlay {
    std::vector<std::pair<netlist::SignalId, ForceMask>> out_force;
    std::unordered_map<netlist::SignalId, std::vector<PinFix>> pin_fix;
    std::vector<std::pair<std::size_t, PinFix>> dff_d_fix;  // ff position
    bool has_ff_force = false;
  };
  /// Fault-free reference trace of one test.
  struct Trace {
    std::vector<scan::BitVector> po_bits;            // per time unit
    std::vector<scan::BitVector> limited_out_bits;   // per time unit
    std::vector<scan::BitVector> extra_bits;         // per time unit
    scan::BitVector final_state;                     // state before scan-out
    std::uint64_t signature = 0;                     // kSignature mode only
    /// Post-eval machine snapshot, one bit per signal per time unit (the
    /// reference is lane-uniform, so one bit regenerates the 64-lane
    /// word). Flat [unit * snap_words + id/64] layout; feeds kConeDiff.
    std::vector<std::uint64_t> snap;
    std::size_t snap_words = 0;

    [[nodiscard]] const std::uint64_t* snap_unit(
        std::size_t unit) const noexcept {
      return snap.data() + unit * snap_words;
    }
  };

  /// kPacked: fault-free reference of one batch. `snap` holds the full
  /// lane-transposed machine per time unit (flat [unit * num_signals + id]
  /// layout — lanes are patterns, so no broadcast compression applies);
  /// `shift_out` is step-aligned with the batch's limited scan steps.
  struct PackedTrace {
    std::vector<sim::Word> snap;          // [length * num_signals]
    std::vector<sim::Word> shift_out;     // [batch.total_steps()]
    std::vector<sim::Word> final_state;   // [n_sv], post-clock of last unit
    std::vector<sim::Word> misr_stages;   // kSignature mode only

    [[nodiscard]] const sim::Word* snap_unit(
        std::size_t unit, std::size_t num_signals) const noexcept {
      return snap.data() + unit * num_signals;
    }
  };
  /// kPacked: one fault broadcast across the batch's live lanes. Force
  /// masks are pre-masked with live() so dead lanes never diverge from
  /// the reference.
  struct PackedOverlay {
    netlist::SignalId site = 0;
    ForceMask out;                    // pin < 0 (output fault)
    bool is_out = false;
    bool is_source = false;           // site is a PI or DFF (no frontier eval)
    bool has_ff_force = false;        // Q fault: corrupts the scan path
    std::size_t ff_pos = 0;           // chain position when has_ff_force
    int pin = -1;                     // >= 0: input-pin fault at `site`
    ForceMask pin_force;              // applied to the fanin word of `pin`
    bool is_dff_d = false;            // D-pin fault: capture only
    std::size_t dff_pos = 0;
  };

  Overlay build_overlay(std::span<const Fault> group) const;
  Trace compute_trace(const scan::ScanTest& test);
  sim::Word run_test_with_trace(const scan::ScanTest& test,
                                const Overlay& overlay, const Trace& trace,
                                Engine engine);

  // kPacked primitives.
  PackedOverlay build_packed_overlay(const Fault& f, sim::Word live) const;
  PackedTrace compute_packed_trace(const sim::PackedBatch& batch);
  bool run_packed_fault(const sim::PackedBatch& batch,
                        const PackedTrace& trace, const PackedOverlay& o);
  sim::Word packed_shift(sim::Word scan_in, sim::Word mask,
                         const PackedOverlay& o);
  void packed_unit_eval(const sim::PackedBatch& batch,
                        const PackedTrace& trace, const PackedOverlay& o,
                        std::size_t unit);

  // Faulty-machine primitives (operate on values_).
  void apply_out_forces(const Overlay& o);
  void eval_with_overlay(const Overlay& o);
  sim::Word shift_with_forces(sim::Word scan_in, const Overlay& o);
  void clock_with_fixes(const Overlay& o);

  // kConeDiff primitives.
  void cone_eval(const Overlay& o, const Trace& trace, std::size_t unit);
  void enqueue_fanout(netlist::SignalId id);
  void enqueue_gate(netlist::SignalId id);

  void mark_overlay(const Overlay& o);
  void unmark_overlay(const Overlay& o);
  void ensure_workers(unsigned n);

  const sim::CompiledCircuit* cc_;
  std::vector<sim::Word> values_;      // faulty machine
  std::vector<sim::Word> next_state_;  // clock scratch
  sim::SeqSim ref_;                    // fault-free reference machine
  std::uint64_t gate_evals_ = 0;
  std::uint64_t frontier_evals_ = 0;   // gate_evals_ done via cone_eval
  std::uint64_t sweep_evals_ = 0;      // gate_evals_ done via full sweeps
  std::uint64_t fallback_groups_ = 0;  // wide-cone demotions
  std::uint64_t packed_words_ = 0;     // kPacked word-level gate visits
  std::uint64_t packed_batches_ = 0;   // kPacked batches simulated
  std::uint64_t lanes_active_ = 0;     // sum of popcount(live) per batch
  obs::CounterRegistry* counters_ = nullptr;

  /// Per-signal overlay kind flags, rebuilt per group (0 none, 1 out-force,
  /// 2 pin-fix, 3 both). Kept as a member to avoid reallocation.
  std::vector<std::uint8_t> kind_;
  /// For kind_ & 1 signals: index of the signal's entry in
  /// Overlay::out_force, so force application is O(1) per forced gate.
  std::vector<std::uint32_t> force_slot_;

  // kConeDiff scratch. Each eval bulk-restores values_ from the packed
  // reference snapshot (cheap ALU) and re-evaluates only gates reachable
  // from a signal whose word was then changed back to a diverged value;
  // queued_epoch_ deduplicates frontier insertions per eval.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> queued_epoch_;
  std::vector<std::vector<netlist::SignalId>> level_queue_;
  std::vector<sim::Word> ff_scratch_;  // faulty state across the restore

  // kPacked scratch. The faulty machine is a sparse difference over the
  // packed reference snapshot: fv(id) = diff_val_[id] when diff_epoch_[id]
  // is current, else the snapshot word — no per-fault value array is ever
  // materialized or restored. Only the flip-flop state persists across
  // time units (pk_state_).
  std::vector<sim::Word> pk_state_;        // faulty packed FF state
  std::vector<sim::Word> diff_val_;        // per-signal diverged words
  std::vector<std::uint64_t> diff_epoch_;  // validity of diff_val_

  std::vector<netlist::SignalId> extra_observed_;
  unsigned threads_ = 0;
  ObservationMode mode_ = ObservationMode::kPerCycle;
  int misr_degree_ = 16;
  Engine engine_ = Engine::kConeDiff;
  std::unique_ptr<bist::LaneMisr> lane_misr_;  // kSignature mode scratch
  std::vector<sim::Word> misr_inputs_;         // absorb scratch

  // Persistent parallel machinery, built on first parallel run_test_set
  // and reused across calls (Procedure 2 issues many sweeps per second).
  std::unique_ptr<sim::WorkerPool> pool_;
  std::vector<std::unique_ptr<SeqFaultSim>> worker_sims_;
};

}  // namespace rls::fault
