// TS_0 generation tests.
#include <gtest/gtest.h>

#include "core/ts0.hpp"
#include "gen/registry.hpp"
#include "gen/s27.hpp"
#include "scan/cost.hpp"

namespace rls::core {
namespace {

TEST(Ts0, ShapeMatchesConfig) {
  const netlist::Netlist nl = gen::make_s27();
  Ts0Config cfg;
  cfg.l_a = 8;
  cfg.l_b = 16;
  cfg.n = 5;
  const scan::TestSet ts = make_ts0(nl, cfg);
  ASSERT_EQ(ts.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ts.tests[i].length(), 8u);
    EXPECT_EQ(ts.tests[i].scan_in.size(), 3u);
    EXPECT_FALSE(ts.tests[i].has_limited_scan());
    for (const auto& v : ts.tests[i].vectors) EXPECT_EQ(v.size(), 4u);
  }
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(ts.tests[i].length(), 16u);
  }
}

TEST(Ts0, CostMatchesClosedForm) {
  const netlist::Netlist nl = gen::make_s27();
  Ts0Config cfg;
  cfg.l_a = 8;
  cfg.l_b = 16;
  cfg.n = 64;
  const scan::TestSet ts = make_ts0(nl, cfg);
  EXPECT_EQ(scan::n_cyc(ts, nl.num_state_vars()),
            scan::n_cyc0(nl.num_state_vars(), cfg.l_a, cfg.l_b, cfg.n));
}

TEST(Ts0, SameSeedSameSet) {
  const netlist::Netlist nl = gen::make_s27();
  Ts0Config cfg;
  cfg.seed = 777;
  const scan::TestSet a = make_ts0(nl, cfg);
  const scan::TestSet b = make_ts0(nl, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tests[i].scan_in, b.tests[i].scan_in);
    EXPECT_EQ(a.tests[i].vectors, b.tests[i].vectors);
  }
}

TEST(Ts0, DifferentSeedDifferentSet) {
  const netlist::Netlist nl = gen::make_s27();
  Ts0Config ca, cb;
  ca.seed = 1;
  cb.seed = 2;
  const scan::TestSet a = make_ts0(nl, ca);
  const scan::TestSet b = make_ts0(nl, cb);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.tests[i].scan_in != b.tests[i].scan_in ||
               a.tests[i].vectors != b.tests[i].vectors;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Ts0, BitsAreBalanced) {
  const netlist::Netlist nl = gen::make_s27();
  Ts0Config cfg;
  cfg.n = 256;
  const scan::TestSet ts = make_ts0(nl, cfg);
  std::size_t ones = 0, total = 0;
  for (const auto& t : ts.tests) {
    for (const auto& v : t.vectors) {
      for (std::uint8_t b : v) {
        ones += b;
        ++total;
      }
    }
  }
  const double p = static_cast<double>(ones) / static_cast<double>(total);
  EXPECT_NEAR(p, 0.5, 0.02);
}

TEST(Ts0, ShapeFollowsTheCircuit) {
  // TS_0 is regenerated from the circuit and the config alone: each circuit
  // gets scan-ins and vectors of its own width, and a separately built copy
  // of the same circuit regenerates the identical set.
  Ts0Config cfg;
  cfg.n = 4;
  const scan::TestSet s27 = make_ts0(gen::make_s27(), cfg);
  EXPECT_EQ(s27.tests.front().scan_in.size(), 3u);
  EXPECT_EQ(s27.tests.front().vectors.front().size(), 4u);

  const scan::TestSet a = make_ts0(gen::make_circuit("s298"), cfg);
  const scan::TestSet b = make_ts0(gen::make_circuit("s298"), cfg);
  EXPECT_EQ(a.tests.front().scan_in.size(), 14u);
  EXPECT_EQ(a.tests.front().vectors.front().size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tests[i].scan_in, b.tests[i].scan_in);
    EXPECT_EQ(a.tests[i].vectors, b.tests[i].vectors);
  }
}

}  // namespace
}  // namespace rls::core
