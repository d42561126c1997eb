// Checkpoint / resume end-to-end tests: a killed Procedure 2 run and a
// killed campaign sweep must, after resume in a fresh scope, reproduce the
// uninterrupted run byte-for-byte — same result encoding, same winner,
// and a trace stream that is a pure suffix of the uninterrupted stream.
// Also covers the warm-cache path (second run serves results from disk
// with zero fault simulation).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/param_select.hpp"
#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "store/serde.hpp"

namespace fs = std::filesystem;

namespace rls {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("rls-resume-") + tag + "-XXXXXX"))
                .string();
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + path_);
    }
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Serialized JSONL lines of the events whose type is in `keep` — the
/// deterministic comparison form (timing must be pinned by the caller).
std::vector<std::string> filtered_jsonl(
    const std::vector<obs::TraceEvent>& events,
    std::initializer_list<const char*> keep) {
  std::vector<std::string> out;
  for (const obs::TraceEvent& ev : events) {
    for (const char* k : keep) {
      if (ev.type == k) {
        out.push_back(obs::to_jsonl(ev));
        break;
      }
    }
  }
  return out;
}

/// True when `suffix` equals the tail of `full`.
bool is_suffix(const std::vector<std::string>& suffix,
               const std::vector<std::string>& full) {
  if (suffix.size() > full.size()) return false;
  return std::equal(suffix.begin(), suffix.end(),
                    full.end() - static_cast<std::ptrdiff_t>(suffix.size()));
}

std::vector<std::uint8_t> result_bytes(const core::Procedure2Result& r) {
  store::ByteWriter w;
  store::write_procedure2_result(w, r);
  return w.take();
}

/// Forwards events and flips the abort flag when the first kept (I, D_1)
/// pair is announced — the simulated "kill" point. run_procedure2 polls
/// the flag at the top of the next outer iteration, so the run dies
/// mid-campaign with a partial checkpoint on disk, exactly like a process
/// kill between two checkpoint writes.
class KillAfterFirstPairSink final : public obs::TraceSink {
 public:
  KillAfterFirstPairSink(obs::TraceSink* inner, std::atomic<bool>* abort)
      : inner_(inner), abort_(abort) {}
  void write(const obs::TraceEvent& ev) override {
    inner_->write(ev);
    if (ev.type == "id1_pair") abort_->store(true);
  }

 private:
  obs::TraceSink* inner_;
  std::atomic<bool>* abort_;
};

/// Weak-combo Procedure 2 options: a single-D_1 sweep per iteration so the
/// run needs many iterations (guaranteeing a mid-run kill point exists).
core::Procedure2Options weak_p2() {
  core::Procedure2Options opt;
  opt.d1_order = {1};
  opt.n_same_fc = 2;
  opt.sim_threads = 1;
  return opt;
}

/// Reduced campaign options keeping the s298 sweeps fast while still
/// committing several attempts.
core::CampaignOptions small_campaign() {
  core::CampaignOptions opts;
  opts.p2.d1_order = {1, 2, 3};
  opts.p2.max_iterations = 3;
  opts.p2.n_same_fc = 2;
  opts.p2.sim_threads = 1;
  opts.max_attempts = 4;
  opts.max_combos_on_failure = 4;
  return opts;
}

// ---- StoreResume: Procedure 2 granularity --------------------------------

TEST(StoreResume, KilledProcedure2ResumesByteIdentically) {
  const core::Workbench wb("s27");
  const core::Procedure2Options opt = weak_p2();
  core::Ts0Config cfg;
  cfg.l_a = 2;
  cfg.l_b = 3;
  cfg.n = 1;
  cfg.seed = wb.ts0_seed();
  const scan::TestSet ts0 = core::make_ts0(wb.nl(), cfg);
  const core::Combo combo{cfg.l_a, cfg.l_b, cfg.n, 0};

  // Uninterrupted baseline (no store attached).
  obs::VectorSink base_sink;
  core::RunContext base_ctx;
  base_ctx.set_sink(&base_sink);
  base_ctx.set_timing(false);
  fault::FaultList base_fl(wb.target_faults());
  const core::Procedure2Result base =
      run_procedure2(wb.cc(), ts0, base_fl, opt, &base_ctx);
  // The kill point must fall strictly inside the run.
  ASSERT_GE(base.applied.size(), 2u);
  ASSERT_GE(base.applied.back().iteration, 2u);

  const ScratchDir dir("p2");
  store::ArtifactStore astore(dir.path());

  // Interrupted run: plain --store-dir session killed after the first
  // kept pair.
  {
    const store::CampaignStore cs(astore, wb.nl(), wb.target_faults(),
                                  /*resume=*/false);
    const store::P2Checkpoint ckpt(cs, cs.p2_key(combo, opt, cfg.seed));
    obs::VectorSink inner;
    std::atomic<bool> abort{false};
    KillAfterFirstPairSink killer(&inner, &abort);
    core::RunContext ctx;
    ctx.set_sink(&killer);
    ctx.set_timing(false);
    fault::FaultList fl(wb.target_faults());
    const core::Procedure2Result res =
        run_procedure2(wb.cc(), ts0, fl, opt, &ctx, &abort, &ckpt);
    ASSERT_TRUE(res.aborted);
    EXPECT_GE(ctx.counters().value("store.checkpoint_saves"), 1u);
    EXPECT_EQ(astore.size(), 1u);  // the partial snapshot
  }

  // Resume in a fresh process scope: new store binding, new fault list,
  // new context. Must finish exactly where the uninterrupted run did.
  obs::VectorSink resume_sink;
  core::RunContext resume_ctx;
  resume_ctx.set_sink(&resume_sink);
  resume_ctx.set_timing(false);
  fault::FaultList resume_fl(wb.target_faults());
  {
    const store::CampaignStore cs(astore, wb.nl(), wb.target_faults(),
                                  /*resume=*/true);
    const store::P2Checkpoint ckpt(cs, cs.p2_key(combo, opt, cfg.seed));
    const core::Procedure2Result res =
        run_procedure2(wb.cc(), ts0, resume_fl, opt, &resume_ctx, nullptr,
                       &ckpt);
    EXPECT_EQ(result_bytes(res), result_bytes(base));
  }
  EXPECT_EQ(resume_fl.detected_flags(), base_fl.detected_flags());
  EXPECT_EQ(resume_ctx.counters().value("store.resumes"), 1u);

  // The resumed event stream is a strict suffix of the uninterrupted one:
  // the adopted prefix is replayed silently (no ts0 event, no repeated
  // pairs), the continuation is bytewise identical.
  const auto keep = {"ts0", "sweep", "id1_pair", "summary"};
  const auto base_lines = filtered_jsonl(base_sink.events(), keep);
  const auto resume_lines = filtered_jsonl(resume_sink.events(), keep);
  EXPECT_LT(resume_lines.size(), base_lines.size());
  EXPECT_TRUE(is_suffix(resume_lines, base_lines));
  for (const std::string& line : resume_lines) {
    EXPECT_EQ(line.find("\"ev\":\"ts0\""), std::string::npos);
  }

  // The resume wrote a terminal snapshot: a third (non-resume) session now
  // gets the finished result with zero fault simulation.
  const store::CampaignStore cs(astore, wb.nl(), wb.target_faults(), false);
  const store::P2Checkpoint ckpt(cs, cs.p2_key(combo, opt, cfg.seed));
  core::RunContext warm_ctx;
  warm_ctx.set_timing(false);
  fault::FaultList warm_fl(wb.target_faults());
  const core::Procedure2Result warm =
      run_procedure2(wb.cc(), ts0, warm_fl, opt, &warm_ctx, nullptr, &ckpt);
  EXPECT_EQ(result_bytes(warm), result_bytes(base));
  EXPECT_EQ(warm_fl.detected_flags(), base_fl.detected_flags());
  EXPECT_EQ(warm_ctx.counters().value("store.cache_hit"), 1u);
  EXPECT_EQ(warm_ctx.counters().value("fsim.sweeps"), 0u);
  EXPECT_EQ(warm_ctx.counters().value("fsim.gate_evals"), 0u);
}

// ---- StoreResume: campaign granularity -----------------------------------

TEST(StoreResume, InterruptedCampaignResumesToIdenticalRow) {
  // s420 is random-resistant: with Procedure 2 reduced to one D_1 = 1
  // sweep no combination completes, so the cap-2 session deterministically
  // stops with a partial campaign (a winner inside the prefix would be a
  // plain cache hit, not a resume).
  core::CampaignOptions full_opts;
  full_opts.p2.d1_order = {1};
  full_opts.p2.max_iterations = 1;
  full_opts.p2.n_same_fc = 1;
  full_opts.p2.sim_threads = 1;
  full_opts.max_attempts = 4;
  full_opts.max_combos_on_failure = 4;
  const core::Workbench wb("s420", full_opts);

  // Uninterrupted cap-4 baseline.
  obs::VectorSink base_sink;
  core::RunContext base_ctx(full_opts);
  base_ctx.set_sink(&base_sink);
  base_ctx.set_timing(false);
  const core::ExperimentRow base = run_first_complete(wb, base_ctx);
  ASSERT_FALSE(base.found_complete);
  ASSERT_EQ(base.attempts, 4u);

  const ScratchDir dir("campaign");
  store::ArtifactStore astore(dir.path());

  // Interrupted session: same campaign stopped after two committed
  // attempts (the attempt cap stands in for a kill at the commit
  // boundary; max_attempts is deliberately not part of the campaign key).
  {
    core::CampaignOptions cut = full_opts;
    cut.max_attempts = 2;
    store::CampaignStore cs(astore, wb.nl(), wb.target_faults(), false);
    core::RunContext ctx(cut);
    ctx.set_timing(false);
    ctx.set_store(&cs);
    const core::ExperimentRow cut_row = run_first_complete(wb, ctx);
    ASSERT_FALSE(cut_row.found_complete);
    EXPECT_GE(ctx.counters().value("store.checkpoint_saves"), 2u);
  }

  // Resume with the full cap: the two committed attempts are adopted from
  // disk, attempts 2..3 run live.
  store::CampaignStore cs(astore, wb.nl(), wb.target_faults(), true);
  obs::VectorSink resume_sink;
  core::RunContext resume_ctx(full_opts);
  resume_ctx.set_sink(&resume_sink);
  resume_ctx.set_timing(false);
  resume_ctx.set_store(&cs);
  const core::ExperimentRow resumed = run_first_complete(wb, resume_ctx);

  EXPECT_EQ(resumed.circuit, base.circuit);
  EXPECT_EQ(resumed.combo.l_a, base.combo.l_a);
  EXPECT_EQ(resumed.combo.l_b, base.combo.l_b);
  EXPECT_EQ(resumed.combo.n, base.combo.n);
  EXPECT_EQ(resumed.combo.ncyc0, base.combo.ncyc0);
  EXPECT_EQ(resumed.found_complete, base.found_complete);
  EXPECT_EQ(resumed.attempts, base.attempts);
  EXPECT_EQ(result_bytes(resumed.result), result_bytes(base.result));
  EXPECT_GE(resume_ctx.counters().value("store.resumes"), 1u);
  // The adopted prefix was not re-simulated.
  EXPECT_LT(resume_ctx.counters().value("fsim.gate_evals"),
            base_ctx.counters().value("fsim.gate_evals"));

  const auto keep = {"ts0",     "sweep",         "id1_pair",
                     "summary", "combo_attempt", "result"};
  const auto base_lines = filtered_jsonl(base_sink.events(), keep);
  const auto resume_lines = filtered_jsonl(resume_sink.events(), keep);
  EXPECT_LT(resume_lines.size(), base_lines.size());
  EXPECT_TRUE(is_suffix(resume_lines, base_lines));
}

// ---- StoreWarmCache ------------------------------------------------------

TEST(StoreWarmCache, SecondIdenticalRunSkipsAllFaultSimulation) {
  core::CampaignOptions opts;
  opts.p2.sim_threads = 1;
  const core::Workbench wb("s27", opts);
  const ScratchDir dir("warm");
  store::ArtifactStore astore(dir.path());

  store::CampaignStore cold_cs(astore, wb.nl(), wb.target_faults(), false);
  core::RunContext cold(opts);
  cold.set_timing(false);
  cold.set_store(&cold_cs);
  const core::ExperimentRow first = run_first_complete(wb, cold);
  ASSERT_TRUE(first.found_complete);
  EXPECT_GT(cold.counters().value("fsim.sweeps"), 0u);
  EXPECT_GT(cold.counters().value("store.bytes_written"), 0u);

  // Fresh binding, resume NOT enabled: warm cache must work with
  // --store-dir alone.
  store::CampaignStore warm_cs(astore, wb.nl(), wb.target_faults(), false);
  core::RunContext warm(opts);
  warm.set_timing(false);
  warm.set_store(&warm_cs);
  const core::ExperimentRow second = run_first_complete(wb, warm);

  EXPECT_EQ(result_bytes(second.result), result_bytes(first.result));
  EXPECT_EQ(second.combo.ncyc0, first.combo.ncyc0);
  EXPECT_EQ(second.attempts, first.attempts);
  EXPECT_GE(warm.counters().value("store.cache_hit"), 1u);
  // The whole point: no fault simulation at all on the warm path.
  EXPECT_EQ(warm.counters().value("fsim.sweeps"), 0u);
  EXPECT_EQ(warm.counters().value("fsim.tests"), 0u);
  EXPECT_EQ(warm.counters().value("fsim.gate_evals"), 0u);
}

// ---- StoreConcurrency ----------------------------------------------------

TEST(StoreConcurrency, SpeculativeSweepWithStoreMatchesSerial) {
  core::CampaignOptions opts = small_campaign();
  opts.max_attempts = 3;
  opts.max_combos_on_failure = 3;
  const core::Workbench wb("s298", opts);

  const ScratchDir serial_dir("serial");
  store::ArtifactStore serial_store(serial_dir.path());
  store::CampaignStore serial_cs(serial_store, wb.nl(), wb.target_faults(),
                                 false);
  core::RunContext serial_ctx(opts);
  serial_ctx.set_timing(false);
  serial_ctx.set_store(&serial_cs);
  const core::ExperimentRow serial = run_first_complete(wb, serial_ctx);

  // Cold speculative run against its own store: four workers race to
  // write p2 artifacts concurrently (the TSan target).
  core::CampaignOptions spec_opts = opts;
  spec_opts.combo_jobs = 4;
  const ScratchDir spec_dir("spec");
  store::ArtifactStore spec_store(spec_dir.path());
  store::CampaignStore spec_cs(spec_store, wb.nl(), wb.target_faults(), false);
  core::RunContext spec_ctx(spec_opts);
  spec_ctx.set_timing(false);
  spec_ctx.set_store(&spec_cs);
  const core::ExperimentRow spec = run_first_complete(wb, spec_ctx);

  EXPECT_EQ(result_bytes(spec.result), result_bytes(serial.result));
  EXPECT_EQ(spec.combo.ncyc0, serial.combo.ncyc0);
  EXPECT_EQ(spec.attempts, serial.attempts);
}

}  // namespace
}  // namespace rls
