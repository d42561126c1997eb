// Scan test and test-set containers.
//
// A test is tau = (SI, T) in the paper's notation: a full scan-in of state
// SI, then a sequence T of primary-input vectors applied at speed, then a
// full scan-out (which in practice overlaps the next test's scan-in).
//
// Limited scan operations are attached as a per-time-unit schedule:
// `shift[u]` is the number of scan positions the state is shifted by
// *before* the vector of time unit u is applied ("the test vector of time
// unit u is delayed by shift(u) time units"), and `scan_bits[u]` holds the
// shift[u] bits scanned into the leftmost position, in shift order.
// Procedure 1 never inserts a shift at u = 0 (the state was just scanned
// in), which the schedule generator maintains.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

namespace rls::scan {

using BitVector = std::vector<std::uint8_t>;

struct ScanTest {
  BitVector scan_in;                     ///< N_SV bits; index 0 = leftmost FF
  std::vector<BitVector> vectors;        ///< L_i input vectors (N_PI bits each)
  std::vector<std::uint32_t> shift;      ///< per-unit shift counts (may be empty)
  std::vector<BitVector> scan_bits;      ///< bits scanned in at each unit

  /// Test length L_i = number of primary input vectors.
  [[nodiscard]] std::size_t length() const noexcept { return vectors.size(); }

  /// True if any limited scan operation is scheduled.
  [[nodiscard]] bool has_limited_scan() const noexcept {
    for (std::uint32_t s : shift) {
      if (s > 0) return true;
    }
    return false;
  }

  /// Total scan-chain shifts of all limited scan operations in this test.
  [[nodiscard]] std::uint64_t total_shift() const noexcept {
    std::uint64_t n = 0;
    for (std::uint32_t s : shift) n += s;
    return n;
  }

  /// Number of time units u with shift(u) > 0.
  [[nodiscard]] std::size_t limited_scan_units() const noexcept {
    std::size_t n = 0;
    for (std::uint32_t s : shift) n += (s > 0);
    return n;
  }
};

/// A limited-scan schedule without the test it applies to: shift(u) for
/// every time unit, as in ScanTest::shift, and the bits of all shifts in
/// time order (unit u's shift(u) bits follow those of the units before
/// it). Procedure 1 draws one per test, or one per test length when it
/// re-seeds every test alike.
struct ScanSchedule {
  std::vector<std::uint32_t> shift;  ///< per-unit shift counts
  BitVector bits;                    ///< sum(shift) scanned-in bits

  /// True if any limited scan operation is scheduled.
  [[nodiscard]] bool has_limited_scan() const noexcept {
    return !bits.empty();
  }
  [[nodiscard]] std::uint64_t total_shift() const noexcept {
    return bits.size();
  }
  [[nodiscard]] std::size_t limited_scan_units() const noexcept {
    std::size_t n = 0;
    for (std::uint32_t s : shift) n += (s > 0);
    return n;
  }
};

struct TestSet {
  std::vector<ScanTest> tests;

  [[nodiscard]] std::size_t size() const noexcept { return tests.size(); }

  /// Sum of test lengths (number of at-speed vectors over the set).
  [[nodiscard]] std::uint64_t total_vectors() const noexcept {
    std::uint64_t n = 0;
    for (const ScanTest& t : tests) n += t.length();
    return n;
  }

  /// N_SH: total limited-scan shifts over the set.
  [[nodiscard]] std::uint64_t total_shift() const noexcept {
    std::uint64_t n = 0;
    for (const ScanTest& t : tests) n += t.total_shift();
    return n;
  }

  /// Number of time units with shift > 0 over the set.
  [[nodiscard]] std::uint64_t limited_scan_units() const noexcept {
    std::uint64_t n = 0;
    for (const ScanTest& t : tests) n += t.limited_scan_units();
    return n;
  }
};

}  // namespace rls::scan
