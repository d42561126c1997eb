// Procedure 1: defining the test set TS(I, D_1).
//
// For every test tau_i of TS_0 and every time unit 0 < u < L_i, a limited
// scan operation is inserted with probability 1/D_1 (the paper's
// `r_1 mod D_1 == 0` draw); its shift count is `r_2 mod D_2` with
// D_2 = N_SV + 1, allowing anything from "no shift" up to a complete scan
// operation. The bits scanned in during the shifts come from the same
// generator stream.
//
// The random number generator is re-initialized with seed(I) "for every
// test tau_i" (the paper's literal pseudocode) — so within one TS(I,D_1)
// all tests share the same shift schedule prefix; set
// `reseed_per_test = false` to seed once per test set instead. Both modes
// are deterministic and repeatable, as the hardware implementation
// requires.
//
// A TS(I, D_1) is TS_0 plus a schedule per test, so Procedure 1 draws the
// schedules on their own (plan_limited_scan) and attaches them to copies
// of the tests only on request (make_limited_scan_set). The packed
// fault-sim path of Procedure 2 never copies a test: it packs TS_0 once
// and adds each plan's schedules as new limited-scan step words.
#pragma once

#include <cstdint>
#include <vector>

#include "scan/test.hpp"

namespace rls::core {

struct LimitedScanParams {
  std::uint32_t iteration = 1;  ///< the paper's I
  std::uint32_t d1 = 1;         ///< insertion period parameter (>= 1)
  std::uint32_t d2 = 0;         ///< 0 means "use N_SV + 1" (the paper's value)
  std::uint64_t base_seed = 0x11D1'5EEDull;
  bool reseed_per_test = true;  ///< literal Procedure 1 reading
};

/// The per-(I) seed: seed(I) in the paper.
std::uint64_t seed_of_iteration(const LimitedScanParams& p);

/// TS(I, D_1) as schedules only: test i of TS_0 takes
/// `schedules[of_test[i]]`. Under reseed_per_test a test's draws depend on
/// its length alone, so there is one schedule per distinct length;
/// otherwise there is one per test.
struct LimitedScanPlan {
  std::vector<scan::ScanSchedule> schedules;
  std::vector<std::uint32_t> of_test;

  [[nodiscard]] const scan::ScanSchedule& of(std::size_t test) const {
    return schedules[of_test[test]];
  }
  /// Tests that shift at least once: the ones a sweep fault-simulates.
  [[nodiscard]] std::size_t shifted_tests() const noexcept;
  /// N_SH and the limited-scan time units of the whole set.
  [[nodiscard]] std::uint64_t total_shift() const noexcept;
  [[nodiscard]] std::uint64_t limited_scan_units() const noexcept;
};

/// Draws the schedules of TS(I, D_1) in the generator order of
/// make_limited_scan_set. `n_sv` is the number of state variables of the
/// target circuit.
LimitedScanPlan plan_limited_scan(const scan::TestSet& ts0, std::size_t n_sv,
                                  const LimitedScanParams& p);

/// Builds TS(I, D_1): same tests as ts0, with the plan's limited scan
/// schedules attached.
scan::TestSet make_limited_scan_set(const scan::TestSet& ts0,
                                    const LimitedScanPlan& plan);

/// Builds TS(I, D_1) from scratch (plan, then attach).
scan::TestSet make_limited_scan_set(const scan::TestSet& ts0, std::size_t n_sv,
                                    const LimitedScanParams& p);

}  // namespace rls::core
