// Parameter-selection tests (combination search policy).
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/param_select.hpp"
#include "core/procedure2.hpp"
#include "core/ts0.hpp"
#include "fault/fault.hpp"
#include "scan/cost.hpp"
#include "store/serde.hpp"

namespace rls::core {
namespace {

TEST(ParamSelect, RunComboIsSelfContained) {
  const Workbench wb("s27");
  Combo c{8, 16, 16, 0};
  c.ncyc0 = scan::n_cyc0(3, 8, 16, 16);
  Procedure2Options opt;
  const ComboRun a = run_combo(wb.cc(), wb.target_faults(), c, opt, wb.ts0_seed());
  const ComboRun b = run_combo(wb.cc(), wb.target_faults(), c, opt, wb.ts0_seed());
  EXPECT_EQ(a.result.total_detected, b.result.total_detected);
  EXPECT_EQ(a.combo.l_a, 8u);
}

TEST(ParamSelect, FirstCompleteStopsAtFirstHit) {
  const Workbench wb("s27");
  Procedure2Options opt;
  std::vector<ComboRun> runs;
  const auto hit = first_complete_combo(wb.cc(), wb.target_faults(), opt,
                                        wb.ts0_seed(), &runs);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->result.complete);
  ASSERT_FALSE(runs.empty());
  // Every earlier attempt failed; the last attempt is the hit.
  for (std::size_t k = 0; k + 1 < runs.size(); ++k) {
    EXPECT_FALSE(runs[k].result.complete);
  }
  EXPECT_TRUE(runs.back().result.complete);
  // s27 is tiny: the very first combination should already succeed.
  EXPECT_EQ(runs.size(), 1u);
  EXPECT_EQ(hit->combo.l_a, 8u);
  EXPECT_EQ(hit->combo.l_b, 16u);
  EXPECT_EQ(hit->combo.n, 64u);
}

TEST(ParamSelect, WorkbenchExposesConsistentState) {
  const Workbench wb("s27");
  EXPECT_EQ(wb.name(), "s27");
  EXPECT_EQ(wb.nl().num_state_vars(), 3u);
  EXPECT_FALSE(wb.universe().empty());
  EXPECT_LE(wb.target_faults().size(), wb.universe().size());
  EXPECT_EQ(wb.detectability().num_faults(), wb.universe().size());
  // s27: every collapsed fault is detectable.
  EXPECT_EQ(wb.target_faults().size(), wb.universe().size());
}

TEST(ParamSelect, RunFirstCompleteProducesRow) {
  const Workbench wb("s27");
  RunContext ctx;
  const ExperimentRow row = run_first_complete(wb, ctx);
  EXPECT_TRUE(row.found_complete);
  EXPECT_EQ(row.circuit, "s27");
  EXPECT_EQ(row.result.total_detected, row.target_faults);
  EXPECT_GT(row.result.total_cycles(), 0u);
}

TEST(ParamSelect, RunSingleComboFillsNcyc0) {
  const Workbench wb("s27");
  RunContext ctx;
  const ExperimentRow row = run_single_combo(wb, Combo{8, 32, 16, 0}, ctx);
  EXPECT_EQ(row.combo.ncyc0, scan::n_cyc0(3, 8, 32, 16));
}

TEST(ParamSelect, RunComboValidatesNcyc0AgainstGeneratedSet) {
  const Workbench wb("s27");
  Procedure2Options opt;
  Combo bad{8, 16, 16, 0};
  bad.ncyc0 = scan::n_cyc0(3, 8, 16, 16) + 1;  // deliberately mis-ranked
  EXPECT_THROW(run_combo(wb.cc(), wb.target_faults(), bad, opt, wb.ts0_seed()),
               std::logic_error);
}

TEST(ParamSelect, RunComboAppliesTheRegeneratedTs0) {
  // run_combo regenerates TS_0 from the combo and the seed on every call:
  // its result is Procedure 2 over exactly make_ts0 of that config.
  const Workbench wb("s298");
  const Combo c{8, 16, 16, 0};
  Procedure2Options opt;
  opt.max_iterations = 2;
  const ComboRun run =
      run_combo(wb.cc(), wb.target_faults(), c, opt, wb.ts0_seed());

  Ts0Config cfg;
  cfg.l_a = c.l_a;
  cfg.l_b = c.l_b;
  cfg.n = c.n;
  cfg.seed = wb.ts0_seed();
  fault::FaultList fl(wb.target_faults());
  const Procedure2Result direct =
      run_procedure2(wb.cc(), make_ts0(wb.nl(), cfg), fl, opt);

  store::ByteWriter a, b;
  store::write_procedure2_result(a, run.result);
  store::write_procedure2_result(b, direct);
  EXPECT_EQ(a.buffer(), b.buffer());
  EXPECT_GT(run.result.ts0_detected, 0u);
}

namespace {

ComboRun make_attempt(std::size_t detected, std::uint64_t cycles) {
  ComboRun r;
  r.result.total_detected = detected;
  r.result.ncyc0 = cycles;
  return r;
}

}  // namespace

TEST(Fallback, EmptyOrZeroCapYieldsNoAttempt) {
  EXPECT_FALSE(best_fallback_attempt({}, 6).has_value());
  const std::vector<ComboRun> attempts{make_attempt(10, 100)};
  EXPECT_FALSE(best_fallback_attempt(attempts, 0).has_value());
}

TEST(Fallback, PicksHighestCoverageWithinCap) {
  const std::vector<ComboRun> attempts{
      make_attempt(10, 100), make_attempt(30, 200), make_attempt(20, 50)};
  EXPECT_EQ(best_fallback_attempt(attempts, 6).value(), 1u);
  // Capping at 1 hides the better later attempts.
  EXPECT_EQ(best_fallback_attempt(attempts, 1).value(), 0u);
}

TEST(Fallback, BreaksCoverageTiesByLowerCycles) {
  const std::vector<ComboRun> attempts{
      make_attempt(30, 300), make_attempt(30, 120), make_attempt(30, 240)};
  EXPECT_EQ(best_fallback_attempt(attempts, 6).value(), 1u);
}

TEST(Fallback, ZeroCapLeavesRowEmptyOnFailure) {
  // s420 is random-resistant: with Procedure 2 reduced to TS_0 plus one
  // D_1 = 1 sweep, no small combination completes, so the failure path is
  // exercised deterministically.
  CampaignOptions opts;
  opts.p2.d1_order = {1};
  opts.p2.max_iterations = 1;
  opts.p2.n_same_fc = 1;
  opts.p2.sim_threads = 1;
  opts.max_attempts = 1;
  opts.max_combos_on_failure = 0;
  const Workbench wb("s420", opts);
  RunContext ctx(opts);
  const ExperimentRow row = run_first_complete(wb, ctx);
  ASSERT_FALSE(row.found_complete);
  EXPECT_EQ(row.attempts, 1u);
  // The pre-fix code reported attempt 0 here despite the cap of 0.
  EXPECT_EQ(row.combo.n, 0u);
  EXPECT_EQ(row.combo.ncyc0, 0u);
  EXPECT_EQ(row.result.total_detected, 0u);

  // With a non-zero cap the same failing sweep reports a real attempt.
  RunContext ctx2(opts);
  ctx2.options.max_combos_on_failure = 6;
  const ExperimentRow row2 = run_first_complete(wb, ctx2);
  ASSERT_FALSE(row2.found_complete);
  EXPECT_GT(row2.combo.n, 0u);
  EXPECT_GT(row2.result.total_detected, 0u);
}

}  // namespace
}  // namespace rls::core
