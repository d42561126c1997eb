// Procedure 2 tests: fault-coverage improvement, bookkeeping invariants,
// termination behavior.
#include <gtest/gtest.h>

#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "gen/registry.hpp"
#include "obs/trace.hpp"
#include "scan/cost.hpp"

namespace rls::core {
namespace {

struct P2Fixture {
  netlist::Netlist nl;
  std::unique_ptr<sim::CompiledCircuit> cc;
  scan::TestSet ts0;
  fault::FaultList fl;
};

P2Fixture make_setup(const char* name, std::size_t la, std::size_t lb,
                 std::size_t n) {
  P2Fixture s{gen::make_circuit(name), nullptr, {}, {}};
  s.cc = std::make_unique<sim::CompiledCircuit>(s.nl);
  Ts0Config cfg;
  cfg.l_a = la;
  cfg.l_b = lb;
  cfg.n = n;
  s.ts0 = make_ts0(s.nl, cfg);
  s.fl = fault::FaultList(fault::collapsed_universe(s.nl));
  return s;
}

TEST(Procedure2, S27ReachesCompleteCoverage) {
  P2Fixture s = make_setup("s27", 8, 16, 16);
  Procedure2Options opt;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(s.fl.all_detected());
  EXPECT_EQ(res.total_detected, s.fl.size());
  EXPECT_EQ(res.ncyc0,
            scan::n_cyc0(s.nl.num_state_vars(), 8, 16, 16));
}

TEST(Procedure2, DetectionBookkeepingIsConsistent) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.max_iterations = 8;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  std::size_t sum = res.ts0_detected;
  for (const AppliedSet& a : res.applied) {
    EXPECT_GT(a.detected, 0u);  // only improving pairs are kept
    EXPECT_GE(a.d1, 1u);
    EXPECT_LE(a.d1, 10u);
    EXPECT_GE(a.iteration, 1u);
    sum += a.detected;
  }
  EXPECT_EQ(sum, res.total_detected);
  EXPECT_EQ(res.total_detected, s.fl.num_detected());
}

TEST(Procedure2, TotalCyclesIncludesEveryAppliedSet) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.max_iterations = 6;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  std::uint64_t total = res.ncyc0;
  for (const AppliedSet& a : res.applied) {
    EXPECT_GE(a.cycles, res.ncyc0);  // every TS(I,D1) re-applies TS_0
    total += a.cycles;
  }
  EXPECT_EQ(res.total_cycles(), total);
}

TEST(Procedure2, LimitedScanImprovesOverTs0) {
  // The headline claim: on a random-resistant circuit, TS_0 alone leaves
  // faults undetected and limited scan detects more.
  P2Fixture s = make_setup("s208", 8, 16, 64);
  Procedure2Options opt;
  opt.max_iterations = 12;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  EXPECT_LT(res.ts0_detected, s.fl.size());  // TS_0 incomplete
  EXPECT_GT(res.total_detected, res.ts0_detected);  // limited scan helps
  EXPECT_FALSE(res.applied.empty());
}

TEST(Procedure2, AverageLimitedScanUnitsInUnitInterval) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.max_iterations = 6;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  if (!res.applied.empty()) {
    const double ls = res.average_limited_scan_units();
    EXPECT_GT(ls, 0.0);
    EXPECT_LE(ls, 1.0);
  }
}

TEST(Procedure2, StopsAfterNSameFc) {
  // With an empty-but-impossible target (fault list containing an
  // undetectable fault), the procedure must terminate via N_SAME_FC.
  netlist::Netlist nl("red");
  const auto x = nl.add_input("x");
  const auto nx = nl.add_gate(netlist::GateType::kNot, "nx", {x});
  const auto y = nl.add_gate(netlist::GateType::kOr, "y", {x, nx});
  nl.mark_output(y);
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  Ts0Config cfg;
  cfg.n = 4;
  const scan::TestSet ts0 = make_ts0(nl, cfg);
  fault::FaultList fl(std::vector<fault::Fault>{{y, -1, 1}});
  Procedure2Options opt;
  opt.n_same_fc = 2;
  const Procedure2Result res = run_procedure2(cc, ts0, fl, opt);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.total_detected, 0u);
  EXPECT_TRUE(res.applied.empty());
}

TEST(Procedure2, D1OrderIsRespected) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.d1_order = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  opt.max_iterations = 4;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  // Within each iteration, applied d1 values must be non-increasing.
  for (std::size_t k = 1; k < res.applied.size(); ++k) {
    if (res.applied[k].iteration == res.applied[k - 1].iteration) {
      EXPECT_LE(res.applied[k].d1, res.applied[k - 1].d1);
    } else {
      EXPECT_GT(res.applied[k].iteration, res.applied[k - 1].iteration);
    }
  }
}

TEST(Procedure2, DecreasingD1OrderLowersAverageLs) {
  // Table 7's observation: sweeping D1 = 10..1 yields a lower average
  // number of limited-scan units than 1..10.
  P2Fixture inc = make_setup("s208", 8, 16, 64);
  P2Fixture dec = make_setup("s208", 8, 16, 64);
  Procedure2Options oi, od;
  oi.max_iterations = od.max_iterations = 10;
  od.d1_order = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  const Procedure2Result ri = run_procedure2(*inc.cc, inc.ts0, inc.fl, oi);
  const Procedure2Result rd = run_procedure2(*dec.cc, dec.ts0, dec.fl, od);
  if (!ri.applied.empty() && !rd.applied.empty()) {
    EXPECT_LT(rd.average_limited_scan_units(),
              ri.average_limited_scan_units());
  }
}

class P2EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, unsigned>> {};

TEST_P(P2EngineEquivalence, EnginesSelectIdenticalId1Pairs) {
  const auto [name, threads] = GetParam();
  P2Fixture sweep = make_setup(name, 8, 16, 8);
  P2Fixture cone = make_setup(name, 8, 16, 8);
  Procedure2Options os, oc;
  os.max_iterations = oc.max_iterations = 3;
  os.engine = fault::Engine::kFullSweep;
  oc.engine = fault::Engine::kConeDiff;
  os.sim_threads = oc.sim_threads = threads;
  const Procedure2Result rs = run_procedure2(*sweep.cc, sweep.ts0, sweep.fl, os);
  const Procedure2Result rc = run_procedure2(*cone.cc, cone.ts0, cone.fl, oc);
  EXPECT_EQ(rc.ts0_detected, rs.ts0_detected);
  EXPECT_EQ(rc.total_detected, rs.total_detected);
  ASSERT_EQ(rc.applied.size(), rs.applied.size());
  for (std::size_t k = 0; k < rc.applied.size(); ++k) {
    EXPECT_EQ(rc.applied[k].iteration, rs.applied[k].iteration);
    EXPECT_EQ(rc.applied[k].d1, rs.applied[k].d1);
    EXPECT_EQ(rc.applied[k].detected, rs.applied[k].detected);
  }
  for (std::size_t i = 0; i < sweep.fl.size(); ++i) {
    ASSERT_EQ(cone.fl.detected(i), sweep.fl.detected(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndThreads, P2EngineEquivalence,
    ::testing::Combine(::testing::Values("s298", "s953", "s5378"),
                       ::testing::Values(1u, 4u)));

TEST(Procedure2, PackedMatchesFullSweepWithoutReseeding) {
  // P2EngineEquivalence runs the default reseed mode. Seeding once per set
  // gives every test its own schedule, so the packed sweeps compact lanes
  // (N = 100 leaves partial and multi-batch lengths): the committed pairs,
  // detections and costs must still equal the fullsweep reference's.
  for (const char* name : {"s298", "s953"}) {
    P2Fixture full = make_setup(name, 8, 16, 100);
    P2Fixture packed = make_setup(name, 8, 16, 100);
    Procedure2Options of, op;
    of.max_iterations = op.max_iterations = 3;
    of.reseed_per_test = op.reseed_per_test = false;
    of.sim_threads = op.sim_threads = 1;
    of.engine = fault::Engine::kFullSweep;
    op.engine = fault::Engine::kPacked;
    const Procedure2Result rf = run_procedure2(*full.cc, full.ts0, full.fl, of);
    const Procedure2Result rp =
        run_procedure2(*packed.cc, packed.ts0, packed.fl, op);
    EXPECT_EQ(rp.ts0_detected, rf.ts0_detected) << name;
    EXPECT_EQ(rp.total_detected, rf.total_detected) << name;
    EXPECT_EQ(rp.complete, rf.complete) << name;
    EXPECT_EQ(rp.total_cycles(), rf.total_cycles()) << name;
    ASSERT_FALSE(rp.applied.empty()) << name;
    EXPECT_TRUE(rp.applied == rf.applied) << name;
    for (std::size_t i = 0; i < full.fl.size(); ++i) {
      ASSERT_EQ(packed.fl.detected(i), full.fl.detected(i)) << name;
    }
  }
}

/// Value of an unsigned event field (0 when absent).
std::uint64_t field_u64(const obs::TraceEvent& ev, const char* key) {
  for (const auto& [k, v] : ev.fields) {
    if (k == key) return std::get<std::uint64_t>(v);
  }
  return 0;
}

TEST(Procedure2, SweepCostsMatchMaterializedSets) {
  // Procedure 2 costs each TS(I, D_1) from its schedules alone; every
  // sweep's sim_tests and every committed pair's cycles, limited units
  // and vectors must equal those of the materialized set.
  for (const bool reseed : {true, false}) {
    P2Fixture s = make_setup("s208", 4, 12, 33);
    Procedure2Options opt;
    opt.max_iterations = 4;
    opt.reseed_per_test = reseed;
    obs::VectorSink sink;
    RunContext ctx;
    ctx.set_timing(false);
    ctx.set_sink(&sink);
    const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt, &ctx);
    const std::size_t n_sv = s.nl.num_state_vars();
    const auto materialize = [&](std::uint64_t iteration, std::uint64_t d1) {
      LimitedScanParams p;
      p.iteration = static_cast<std::uint32_t>(iteration);
      p.d1 = static_cast<std::uint32_t>(d1);
      p.base_seed = opt.base_seed;
      p.reseed_per_test = reseed;
      return make_limited_scan_set(s.ts0, n_sv, p);
    };
    std::size_t sweeps = 0;
    for (const obs::TraceEvent& ev : sink.events()) {
      if (ev.type != "sweep") continue;
      ++sweeps;
      const scan::TestSet ts =
          materialize(field_u64(ev, "iter"), field_u64(ev, "d1"));
      std::size_t shifted = 0;
      for (const scan::ScanTest& t : ts.tests) shifted += t.has_limited_scan();
      EXPECT_EQ(field_u64(ev, "sim_tests"), shifted) << "reseed=" << reseed;
    }
    EXPECT_GT(sweeps, 0u);
    ASSERT_FALSE(res.applied.empty());
    for (const AppliedSet& a : res.applied) {
      const scan::TestSet ts = materialize(a.iteration, a.d1);
      EXPECT_EQ(a.cycles, scan::n_cyc(ts, n_sv)) << "reseed=" << reseed;
      EXPECT_EQ(a.limited_units, ts.limited_scan_units());
      EXPECT_EQ(a.total_vectors, ts.total_vectors());
    }
  }
}

TEST(Procedure2, Deterministic) {
  P2Fixture a = make_setup("s27", 8, 16, 16);
  P2Fixture b = make_setup("s27", 8, 16, 16);
  Procedure2Options opt;
  const Procedure2Result ra = run_procedure2(*a.cc, a.ts0, a.fl, opt);
  const Procedure2Result rb = run_procedure2(*b.cc, b.ts0, b.fl, opt);
  EXPECT_EQ(ra.total_detected, rb.total_detected);
  EXPECT_EQ(ra.total_cycles(), rb.total_cycles());
  ASSERT_EQ(ra.applied.size(), rb.applied.size());
  for (std::size_t k = 0; k < ra.applied.size(); ++k) {
    EXPECT_EQ(ra.applied[k].iteration, rb.applied[k].iteration);
    EXPECT_EQ(ra.applied[k].d1, rb.applied[k].d1);
    EXPECT_EQ(ra.applied[k].detected, rb.applied[k].detected);
  }
}

}  // namespace
}  // namespace rls::core
