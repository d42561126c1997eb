// TS_0: the initial random test set (Section 3 of the paper).
//
// TS_0 = {tau_1..tau_N of length L_A, tau_{N+1}..tau_{2N} of length L_B}.
// Scan-in states and input vectors are drawn from a dedicated seeded
// generator so that the same TS_0 can be regenerated at will (the paper's
// "always using the same seed to initialize it" requirement) — test sets
// TS(I,D_1) re-apply exactly these tests with limited scan inserted.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"
#include "scan/test.hpp"

namespace rls::core {

struct Ts0Config {
  std::size_t l_a = 8;
  std::size_t l_b = 16;
  std::size_t n = 64;
  std::uint64_t seed = 0x7507507507ull;
};

/// Generates TS_0 for the circuit: 2N tests, no limited scan operations.
/// Pure function of (circuit interface sizes, config), so callers
/// regenerate it rather than cache it: generating a set costs less than
/// reading one back from disk.
scan::TestSet make_ts0(const netlist::Netlist& nl, const Ts0Config& cfg);

}  // namespace rls::core
