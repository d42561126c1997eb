#include "scan/cost.hpp"

#include <stdexcept>

namespace rls::scan {

std::uint64_t n_cyc0(std::uint64_t n_sv, std::uint64_t l_a, std::uint64_t l_b,
                     std::uint64_t n) {
  return (2 * n + 1) * n_sv + n * (l_a + l_b);
}

std::uint64_t n_cyc(const TestSet& ts, std::uint64_t n_sv) {
  return n_cyc(ts.size(), ts.total_vectors(), ts.total_shift(), n_sv);
}

std::uint64_t n_cyc(std::uint64_t num_tests, std::uint64_t total_vectors,
                    std::uint64_t n_sh, std::uint64_t n_sv) {
  return (num_tests + 1) * n_sv + total_vectors + n_sh;
}

double average_limited_scan_units(const TestSet& ts) {
  const std::uint64_t len = ts.total_vectors();
  if (len == 0) return 0.0;
  return static_cast<double>(ts.limited_scan_units()) / static_cast<double>(len);
}

std::uint64_t n_cyc_multi_chain(const TestSet& ts, std::uint64_t n_sv,
                                std::uint64_t num_chains) {
  if (num_chains == 0) {
    throw std::invalid_argument("n_cyc_multi_chain: num_chains must be > 0");
  }
  const std::uint64_t scan_cycles = (n_sv + num_chains - 1) / num_chains;
  // Limited-scan shifts move through the chains in parallel too: a unit
  // shifting `s` positions costs ceil(s / num_chains) cycles, not s.
  std::uint64_t shift_cycles = 0;
  for (const ScanTest& t : ts.tests) {
    for (std::uint64_t s : t.shift) {
      shift_cycles += (s + num_chains - 1) / num_chains;
    }
  }
  return (ts.size() + 1) * scan_cycles + ts.total_vectors() + shift_cycles;
}

}  // namespace rls::scan
