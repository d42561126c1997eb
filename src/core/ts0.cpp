#include "core/ts0.hpp"

#include "rand/rng.hpp"

namespace rls::core {

scan::TestSet make_ts0(const netlist::Netlist& nl, const Ts0Config& cfg) {
  rls::rand::Rng rng(cfg.seed);
  const std::size_t n_sv = nl.num_state_vars();
  const std::size_t n_pi = nl.num_inputs();

  scan::TestSet ts;
  ts.tests.reserve(2 * cfg.n);
  auto make_test = [&](std::size_t length) {
    scan::ScanTest t;
    t.scan_in.resize(n_sv);
    for (std::uint8_t& b : t.scan_in) b = rng.next_bit() ? 1 : 0;
    t.vectors.resize(length);
    for (auto& v : t.vectors) {
      v.resize(n_pi);
      for (std::uint8_t& b : v) b = rng.next_bit() ? 1 : 0;
    }
    return t;
  };
  for (std::size_t i = 0; i < cfg.n; ++i) ts.tests.push_back(make_test(cfg.l_a));
  for (std::size_t i = 0; i < cfg.n; ++i) ts.tests.push_back(make_test(cfg.l_b));
  return ts;
}

}  // namespace rls::core
