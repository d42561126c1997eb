// Test-application cost model (clock-cycle accounting), Section 3 of the
// paper. Assumes the scan clock and the functional clock have the same
// cycle time, as the paper does.
#pragma once

#include <cstdint>

#include "scan/test.hpp"

namespace rls::scan {

/// N_cyc0 for the *initial* test set TS_0: 2N tests of lengths L_A / L_B
/// (N each) need 2N+1 complete scan operations of N_SV cycles plus one
/// cycle per primary-input vector:
///   N_cyc0 = (2N+1) * N_SV + N * (L_A + L_B).
std::uint64_t n_cyc0(std::uint64_t n_sv, std::uint64_t l_a, std::uint64_t l_b,
                     std::uint64_t n);

/// Cycle count for applying an arbitrary test set with a single full-scan
/// chain: (|TS|+1) * N_SV complete-scan cycles + total vectors + N_SH.
std::uint64_t n_cyc(const TestSet& ts, std::uint64_t n_sv);

/// The same count from a set's totals: `num_tests` tests of
/// `total_vectors` vectors with `n_sh` limited-scan shifts.
std::uint64_t n_cyc(std::uint64_t num_tests, std::uint64_t total_vectors,
                    std::uint64_t n_sh, std::uint64_t n_sv);

/// N_SH(TS): limited-scan shift cycles only.
inline std::uint64_t n_sh(const TestSet& ts) { return ts.total_shift(); }

/// Average number of limited scan time units, the paper's `ls` column:
/// (#time units with shift > 0) / (total test length), computed over the
/// union of the applied limited-scan test sets (TS_0 excluded by the
/// caller). Returns 0 for an empty set.
double average_limited_scan_units(const TestSet& ts);

/// Cost for a multiple-scan-chain configuration ([5]/[6] style): a complete
/// scan operation takes only ceil(N_SV / num_chains) cycles, and a limited
/// scan operation of s shifts takes ceil(s / num_chains) cycles (chains
/// shift in parallel in both cases). Used by the baseline comparison.
/// Throws std::invalid_argument when num_chains == 0.
std::uint64_t n_cyc_multi_chain(const TestSet& ts, std::uint64_t n_sv,
                                std::uint64_t num_chains);

}  // namespace rls::scan
