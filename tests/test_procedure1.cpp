// Procedure 1 tests: insertion probability, shift range, determinism,
// and the cost bookkeeping of the derived sets.
#include <gtest/gtest.h>

#include "core/procedure1.hpp"
#include "core/ts0.hpp"
#include "gen/registry.hpp"
#include "scan/cost.hpp"
#include "sim/packed_logic.hpp"

namespace rls::core {
namespace {

scan::TestSet base_set(const netlist::Netlist& nl, std::size_t n = 64) {
  Ts0Config cfg;
  cfg.l_a = 16;
  cfg.l_b = 32;
  cfg.n = n;
  return make_ts0(nl, cfg);
}

TEST(Procedure1, TestsPreserveScanInAndVectors) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.iteration = 1;
  p.d1 = 2;
  const scan::TestSet ts = make_limited_scan_set(ts0, nl.num_state_vars(), p);
  ASSERT_EQ(ts.size(), ts0.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.tests[i].scan_in, ts0.tests[i].scan_in);
    EXPECT_EQ(ts.tests[i].vectors, ts0.tests[i].vectors);
  }
}

TEST(Procedure1, NoShiftAtTimeUnitZero) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.d1 = 1;  // maximal insertion
  const scan::TestSet ts = make_limited_scan_set(ts0, nl.num_state_vars(), p);
  for (const auto& t : ts.tests) {
    ASSERT_FALSE(t.shift.empty());
    EXPECT_EQ(t.shift[0], 0u);
  }
}

TEST(Procedure1, ShiftsBoundedByD2) {
  const netlist::Netlist nl = gen::make_circuit("s298");  // N_SV = 14
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.d1 = 1;
  const std::size_t n_sv = nl.num_state_vars();
  const scan::TestSet ts = make_limited_scan_set(ts0, n_sv, p);
  bool saw_full = false;
  for (const auto& t : ts.tests) {
    for (std::uint32_t s : t.shift) {
      EXPECT_LE(s, n_sv);  // D2 = N_SV+1 -> shift in [0, N_SV]
      if (s == n_sv) saw_full = true;
    }
  }
  // With D1=1 every unit draws a shift; over 64*(16+32) units a complete
  // scan (shift == N_SV) must occur.
  EXPECT_TRUE(saw_full);
}

TEST(Procedure1, InsertionProbabilityTracksD1) {
  const netlist::Netlist nl = gen::make_circuit("s298");
  Ts0Config cfg;
  cfg.l_a = 64;
  cfg.l_b = 128;
  cfg.n = 64;
  const scan::TestSet ts0 = make_ts0(nl, cfg);
  for (std::uint32_t d1 : {2u, 5u, 10u}) {
    LimitedScanParams p;
    p.d1 = d1;
    p.reseed_per_test = false;  // independent draws per unit
    const scan::TestSet ts = make_limited_scan_set(ts0, nl.num_state_vars(), p);
    std::size_t drawn = 0, units = 0;
    for (const auto& t : ts.tests) {
      for (std::size_t u = 1; u < t.length(); ++u) {
        ++units;
        // A draw happened iff shift was set or a zero-shift draw occurred.
        // Count scheduled operations (shift recorded even when 0 means the
        // slot was drawn) — distinguish via scan_bits sizing: zero-shift
        // draws leave empty scan_bits like non-draws, so instead count
        // shift>0 and compare against (1/d1)*(1 - 1/D2).
        if (t.shift[u] > 0) ++drawn;
      }
    }
    const double d2 = static_cast<double>(nl.num_state_vars() + 1);
    const double expect = (1.0 / d1) * (1.0 - 1.0 / d2);
    const double got = static_cast<double>(drawn) / static_cast<double>(units);
    EXPECT_NEAR(got, expect, 0.02) << "d1=" << d1;
  }
}

TEST(Procedure1, SeedOfIterationDistinguishesIterations) {
  LimitedScanParams a, b;
  a.iteration = 1;
  b.iteration = 2;
  EXPECT_NE(seed_of_iteration(a), seed_of_iteration(b));
  LimitedScanParams c = a;
  EXPECT_EQ(seed_of_iteration(a), seed_of_iteration(c));
}

TEST(Procedure1, SameParamsSameSchedule) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.iteration = 3;
  p.d1 = 4;
  const scan::TestSet a = make_limited_scan_set(ts0, 3, p);
  const scan::TestSet b = make_limited_scan_set(ts0, 3, p);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tests[i].shift, b.tests[i].shift);
    EXPECT_EQ(a.tests[i].scan_bits, b.tests[i].scan_bits);
  }
}

TEST(Procedure1, DifferentIterationsDifferentSchedules) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams pa, pb;
  pa.iteration = 1;
  pb.iteration = 2;
  pa.d1 = pb.d1 = 2;
  const scan::TestSet a = make_limited_scan_set(ts0, 3, pa);
  const scan::TestSet b = make_limited_scan_set(ts0, 3, pb);
  bool differ = false;
  for (std::size_t i = 0; i < a.size() && !differ; ++i) {
    differ = a.tests[i].shift != b.tests[i].shift;
  }
  EXPECT_TRUE(differ);
}

TEST(Procedure1, ReseedPerTestRepeatsSchedulesAcrossEqualLengthTests) {
  // The literal pseudocode re-initializes the generator per test, so two
  // tests of the same length get identical schedules.
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.d1 = 3;
  p.reseed_per_test = true;
  const scan::TestSet ts = make_limited_scan_set(ts0, 3, p);
  EXPECT_EQ(ts.tests[0].shift, ts.tests[1].shift);  // both length L_A
  // Without reseeding they diverge.
  p.reseed_per_test = false;
  const scan::TestSet ts2 = make_limited_scan_set(ts0, 3, p);
  bool differ = false;
  for (std::size_t i = 1; i < ts2.size() && !differ; ++i) {
    differ = ts2.tests[i].shift != ts2.tests[0].shift;
  }
  EXPECT_TRUE(differ);
}

TEST(Procedure1, HigherD1MeansFewerOperations) {
  const netlist::Netlist nl = gen::make_circuit("s298");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p1, p10;
  p1.d1 = 1;
  p10.d1 = 10;
  const auto t1 = make_limited_scan_set(ts0, nl.num_state_vars(), p1);
  const auto t10 = make_limited_scan_set(ts0, nl.num_state_vars(), p10);
  EXPECT_GT(t1.limited_scan_units(), t10.limited_scan_units());
  EXPECT_GT(t1.total_shift(), t10.total_shift());
}

TEST(Procedure1, ScanBitsMatchShifts) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.d1 = 1;
  const scan::TestSet ts = make_limited_scan_set(ts0, 3, p);
  for (const auto& t : ts.tests) {
    ASSERT_EQ(t.scan_bits.size(), t.shift.size());
    for (std::size_t u = 0; u < t.shift.size(); ++u) {
      EXPECT_EQ(t.scan_bits[u].size(), t.shift[u]);
    }
  }
}

TEST(Procedure1, PlanMatchesMaterializedSet) {
  // A plan is the set minus the copied tests: attaching its schedules
  // gives make_limited_scan_set's output, and its totals are the set's.
  const netlist::Netlist nl = gen::make_circuit("s298");
  const scan::TestSet ts0 = base_set(nl, 40);
  const std::size_t n_sv = nl.num_state_vars();
  for (const bool reseed : {true, false}) {
    LimitedScanParams p;
    p.iteration = 2;
    p.d1 = 3;
    p.reseed_per_test = reseed;
    const LimitedScanPlan plan = plan_limited_scan(ts0, n_sv, p);
    const scan::TestSet ts = make_limited_scan_set(ts0, n_sv, p);
    ASSERT_EQ(plan.of_test.size(), ts.size());
    // One schedule per distinct length when re-seeding, else per test.
    EXPECT_EQ(plan.schedules.size(), reseed ? 2u : ts.size());
    std::size_t shifted = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const scan::ScanSchedule& s = plan.of(i);
      EXPECT_EQ(s.shift, ts.tests[i].shift);
      scan::BitVector bits;
      for (const scan::BitVector& b : ts.tests[i].scan_bits) {
        bits.insert(bits.end(), b.begin(), b.end());
      }
      EXPECT_EQ(s.bits, bits);
      shifted += ts.tests[i].has_limited_scan();
    }
    EXPECT_EQ(plan.shifted_tests(), shifted);
    EXPECT_EQ(plan.total_shift(), ts.total_shift());
    EXPECT_EQ(plan.limited_scan_units(), ts.limited_scan_units());
    EXPECT_EQ(scan::n_cyc(ts0.size(), ts0.total_vectors(), plan.total_shift(),
                          n_sv),
              scan::n_cyc(ts, n_sv));
  }
}

/// The shifting tests of a materialized TS(I, D_1): what a sweep simulates.
scan::TestSet shifted_only(const scan::TestSet& ts) {
  scan::TestSet out;
  for (const scan::ScanTest& t : ts.tests) {
    if (t.has_limited_scan()) out.tests.push_back(t);
  }
  return out;
}

TEST(SweepBatches, ScheduledTs0BatchesEqualPackedShiftedSet) {
  // The packed sweep input (TS_0 packed once, plus each plan's step words)
  // must equal make_batches of the filtered materialized set word for
  // word, across partial and multi-batch lengths, L_A == L_B, and lanes
  // compacted where per-test schedules drop single tests.
  const netlist::Netlist nl = gen::make_circuit("s298");
  const std::size_t n_sv = nl.num_state_vars();
  std::size_t whole_length_free = 0;
  std::size_t compacted = 0;
  for (const auto& [la, lb] : {std::pair<std::size_t, std::size_t>{4, 12},
                               {8, 8},
                               {2, 16}}) {
    for (const std::size_t n : {1u, 33u, 64u, 100u, 128u}) {
      Ts0Config cfg;
      cfg.l_a = la;
      cfg.l_b = lb;
      cfg.n = n;
      const scan::TestSet ts0 = make_ts0(nl, cfg);
      const std::vector<sim::PackedBatch> base =
          sim::PackedBatch::make_batches(ts0);
      for (const bool reseed : {true, false}) {
        for (std::uint32_t iteration = 1; iteration <= 4; ++iteration) {
          for (std::uint32_t d1 = 1; d1 <= 10; ++d1) {
            LimitedScanParams p;
            p.iteration = iteration;
            p.d1 = d1;
            p.reseed_per_test = reseed;
            const LimitedScanPlan plan = plan_limited_scan(ts0, n_sv, p);
            const scan::TestSet sim_ts =
                shifted_only(make_limited_scan_set(ts0, n_sv, p));
            const std::vector<sim::PackedBatch> got =
                sim::PackedBatch::with_schedules(base, plan.schedules,
                                                 plan.of_test);
            const std::vector<sim::PackedBatch> want =
                sim::PackedBatch::make_batches(sim_ts);
            ASSERT_EQ(got.size(), want.size())
                << "la=" << la << " lb=" << lb << " n=" << n
                << " reseed=" << reseed << " I=" << iteration << " d1=" << d1;
            for (std::size_t b = 0; b < got.size(); ++b) {
              ASSERT_TRUE(got[b] == want[b])
                  << "batch " << b << " la=" << la << " lb=" << lb
                  << " n=" << n << " reseed=" << reseed << " I=" << iteration
                  << " d1=" << d1;
            }
            EXPECT_EQ(plan.shifted_tests(), sim_ts.size());
            if (reseed && la != lb && sim_ts.size() == n) ++whole_length_free;
            if (!reseed && sim_ts.size() < ts0.size()) ++compacted;
          }
        }
      }
    }
  }
  // The grid must reach the cases it exists for.
  EXPECT_GT(whole_length_free, 0u);
  EXPECT_GT(compacted, 0u);
}

TEST(Procedure1, D1ZeroThrows) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const scan::TestSet ts0 = base_set(nl);
  LimitedScanParams p;
  p.d1 = 0;
  EXPECT_THROW(make_limited_scan_set(ts0, 3, p), std::invalid_argument);
}

}  // namespace
}  // namespace rls::core
