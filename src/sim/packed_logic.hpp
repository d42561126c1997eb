// Packed two-valued logic layer for pattern-parallel (PPSFP) simulation.
//
// Here the 64 bit-lanes of a sim::Word carry 64 *test patterns* of the
// same fault, the dual of the parallel-fault convention in
// fault/seq_fsim. A PackedBatch freezes up to 64 equal-length scan tests
// into lane-transposed words: one word per scan-in position, one word per
// primary input per time unit, and per-shift-step words for the limited
// scan operations (tests in a batch may shift different amounts in the
// same time unit — step_mask() says which lanes move).
//
// Pattern counts not divisible by 64 leave a partial last batch whose
// high lanes are dead: live() is the tail mask, every packed stimulus
// word is zero in dead lanes, and consumers must mask observations with
// it so dead lanes can never report detections.
//
// A limited-scan set TS(I, D_1) differs from TS_0 only in its schedules,
// so with_schedules() builds its batches from TS_0's by moving the
// stimulus words and adding step words: the result equals make_batches()
// of the materialized set, word for word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "scan/test.hpp"
#include "sim/compiled.hpp"

namespace rls::sim {

/// All-ones in the low `n` lanes (n in [0, 64]); the live mask of a batch
/// holding `n` patterns.
constexpr Word tail_mask(std::size_t n) noexcept {
  return n >= static_cast<std::size_t>(kLanes) ? kAllOnes
                                               : (Word{1} << n) - 1;
}

/// Up to 64 equal-length scan tests, lane-transposed. Lane j of every
/// word belongs to test `first + j` of the source set.
class PackedBatch {
 public:
  [[nodiscard]] std::size_t first() const noexcept { return first_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] Word live() const noexcept { return live_; }
  /// Time units (uniform across the batch by construction).
  [[nodiscard]] std::size_t length() const noexcept { return length_; }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return n_pi_; }
  [[nodiscard]] std::size_t num_state_vars() const noexcept { return n_sv_; }
  [[nodiscard]] bool has_limited_scan() const noexcept {
    return !step_mask_.empty();
  }

  /// Packed scan-in state: word k is flip-flop k (k = 0 scan-in side).
  [[nodiscard]] const Word* scan_in() const noexcept {
    return scan_in_.data();
  }
  /// Packed input vector of time unit `u`: n_pi words.
  [[nodiscard]] const Word* pi_unit(std::size_t u) const noexcept {
    return pi_.data() + u * n_pi_;
  }

  /// Limited scan steps of time unit `u`: the batch shifts
  /// max-over-lanes(shift[u]) times; a lane sits out step j once its own
  /// shift count is exhausted.
  [[nodiscard]] std::uint32_t shifts(std::size_t u) const noexcept {
    return step_off_[u + 1] - step_off_[u];
  }
  /// Global index of step `j` of unit `u` (aligns reference shift-out
  /// storage with the batch).
  [[nodiscard]] std::size_t step_index(std::size_t u,
                                       std::uint32_t j) const noexcept {
    return step_off_[u] + j;
  }
  [[nodiscard]] std::size_t total_steps() const noexcept {
    return step_mask_.size();
  }
  /// Lanes shifting at this step (subset of live()).
  [[nodiscard]] Word step_mask(std::size_t step) const noexcept {
    return step_mask_[step];
  }
  /// Packed scan-in bits entering the chain at this step (zero outside
  /// step_mask()).
  [[nodiscard]] Word step_in(std::size_t step) const noexcept {
    return step_in_[step];
  }

  /// Packs a test set into batches of up to 64 consecutive equal-length
  /// tests. Tests are never reordered, so lane j of batch b is always
  /// test `first + j`; a length change starts a new batch (the packed
  /// reference machine needs every lane alive at every time unit).
  static std::vector<PackedBatch> make_batches(const scan::TestSet& ts);

  /// The batches make_batches() builds for a limited-scan copy of the set
  /// that `base` packs (make_batches of a set without limited scan),
  /// keeping only the copies that shift: test i of that set takes
  /// `schedules[of_test[i]]`, a test whose schedule never shifts is
  /// dropped, and the rest are re-packed in order. The scan-in and input
  /// words are moved over from `base` in runs of lanes, never
  /// re-transposed from bits; only the step words are new.
  static std::vector<PackedBatch> with_schedules(
      std::span<const PackedBatch> base,
      std::span<const scan::ScanSchedule> schedules,
      std::span<const std::uint32_t> of_test);

  friend bool operator==(const PackedBatch&, const PackedBatch&) = default;

 private:
  std::size_t first_ = 0;
  std::size_t count_ = 0;
  Word live_ = 0;
  std::size_t length_ = 0;
  std::size_t n_pi_ = 0;
  std::size_t n_sv_ = 0;
  std::vector<Word> scan_in_;              // [n_sv]
  std::vector<Word> pi_;                   // [length * n_pi]
  std::vector<std::uint32_t> step_off_;    // [length + 1]
  std::vector<Word> step_mask_;            // [total_steps]
  std::vector<Word> step_in_;              // [total_steps]
};

/// Evaluates one combinational gate over the CompiledCircuit CSR arrays
/// with a caller-supplied fanin accessor: `in(k)` returns the packed word
/// of fanin pin k. This is the packed dual of CompiledCircuit::eval_gate
/// — the accessor lets the faulty evaluator read through its sparse
/// difference map and apply pin forces without materializing a value
/// array.
template <class FaninWord>
Word eval_gate_with(const CompiledCircuit& cc, netlist::SignalId id,
                    FaninWord&& in) {
  using netlist::GateType;
  const auto fi = cc.fanin(id);
  switch (cc.type(id)) {
    case GateType::kBuf:
      return in(0);
    case GateType::kNot:
      return ~in(0);
    case GateType::kAnd: {
      Word v = kAllOnes;
      for (std::size_t k = 0; k < fi.size(); ++k) v &= in(k);
      return v;
    }
    case GateType::kNand: {
      Word v = kAllOnes;
      for (std::size_t k = 0; k < fi.size(); ++k) v &= in(k);
      return ~v;
    }
    case GateType::kOr: {
      Word v = 0;
      for (std::size_t k = 0; k < fi.size(); ++k) v |= in(k);
      return v;
    }
    case GateType::kNor: {
      Word v = 0;
      for (std::size_t k = 0; k < fi.size(); ++k) v |= in(k);
      return ~v;
    }
    case GateType::kXor: {
      Word v = 0;
      for (std::size_t k = 0; k < fi.size(); ++k) v ^= in(k);
      return v;
    }
    case GateType::kXnor: {
      Word v = 0;
      for (std::size_t k = 0; k < fi.size(); ++k) v ^= in(k);
      return ~v;
    }
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return kAllOnes;
    case GateType::kInput:
    case GateType::kDff:
      return 0;  // sources are never frontier-evaluated
  }
  return 0;
}

}  // namespace rls::sim
