#include "core/procedure2.hpp"

#include <cstdio>

#include "core/run_context.hpp"
#include "scan/cost.hpp"
#include "store/checkpoint.hpp"

namespace rls::core {

namespace {

/// Progress line for one milestone (reused buffer-free formatting).
void report_progress(RunContext* ctx, const char* phase, std::string detail,
                     const fault::FaultList& fl, std::uint64_t cycles) {
  obs::Progress p;
  p.phase = phase;
  p.detail = std::move(detail);
  p.detected = fl.num_detected();
  p.targets = fl.size();
  p.cycles = cycles;
  ctx->update_progress(p);
}

}  // namespace

Procedure2Result run_procedure2(const sim::CompiledCircuit& cc,
                                const scan::TestSet& ts0,
                                fault::FaultList& fl,
                                const Procedure2Options& opt,
                                RunContext* ctx,
                                const std::atomic<bool>* abort,
                                const store::P2Checkpoint* ckpt) {
  Procedure2Result res;
  const std::size_t n_sv = cc.flip_flops().size();

  // Warm cache: a terminal snapshot *is* the finished run. Restore the
  // fault list and return before the simulator is even constructed, so a
  // fully cached campaign reports fsim.* == 0.
  if (ckpt) {
    if (std::optional<store::P2Snapshot> snap = ckpt->load_terminal(ctx)) {
      fl.restore_detected(snap->detected);
      res = std::move(snap->result);
      ckpt->note_cache_hit(ctx);
      if (ctx && ctx->observed()) {
        ctx->emit_summary(res, fl.size(), ctx->elapsed_ms());
        report_progress(ctx, "p2", "cached result", fl, res.total_cycles());
      }
      return res;
    }
  }

  // Static pruning: mark provably-untestable targets so the engines skip
  // them. Every denominator (fl.size()) and the completion criterion are
  // untouched, so the emitted FC rows are identical to an unpruned run.
  if (opt.prune_mask) fl.prune(*opt.prune_mask);

  fault::SeqFaultSim fsim(cc);
  fsim.set_engine(opt.engine);
  fsim.set_threads(opt.sim_threads);
  if (ctx) fsim.set_counters(&ctx->counters());

  const auto finish = [&]() {
    if (ctx && ctx->observed()) {
      ctx->emit_summary(res, fl.size(), ctx->elapsed_ms());
    }
  };
  const auto save_terminal = [&]() {
    if (!ckpt) return;
    store::P2Snapshot snap;
    snap.terminal = true;
    snap.result = res;
    snap.detected = fl.detected_flags();
    ckpt->save(snap, ctx);
  };

  // Crash resume: a partial snapshot restores the exact loop position;
  // TS_0 simulation and every already-swept (I, D_1) are skipped, and the
  // event stream continues exactly where the interrupted run stopped.
  std::uint32_t start_iter = 1;
  std::size_t start_d1 = 0;
  bool resumed = false;
  bool resume_improve = false;
  std::uint32_t n_same_fc = 0;
  std::uint64_t cum_cycles = 0;
  if (ckpt) {
    if (std::optional<store::P2Snapshot> snap = ckpt->load_partial(ctx)) {
      fl.restore_detected(snap->detected);
      res = std::move(snap->result);
      start_iter = snap->iteration;
      start_d1 = snap->d1_index;
      resume_improve = snap->improve;
      n_same_fc = snap->n_same_fc;
      cum_cycles = snap->cum_cycles;
      resumed = true;
      ckpt->note_resume(ctx);
    }
  }

  // Under kPacked, TS_0 is packed once: its batches serve the TS_0
  // simulation and, with each TS(I, D_1)'s schedules added as step words,
  // every sweep, so no test is copied and no vector re-transposed.
  const bool packed = opt.engine == fault::Engine::kPacked;
  const std::vector<sim::PackedBatch> ts0_batches =
      packed ? sim::PackedBatch::make_batches(ts0)
             : std::vector<sim::PackedBatch>{};
  const std::uint64_t ts0_vectors = ts0.total_vectors();

  if (!resumed) {
    // Step 2: simulate TS_0 and drop detected faults.
    const double t_ts0 = ctx ? ctx->elapsed_ms() : 0.0;
    res.ts0_detected = packed ? fsim.run_batches(ts0_batches, fl)
                              : fsim.run_test_set(ts0, fl);
    res.ncyc0 = scan::n_cyc(ts0, n_sv);
    res.total_detected = fl.num_detected();
    if (ctx && ctx->observed()) {
      ctx->emit_ts0(res.ts0_detected, fl.size(), res.ncyc0,
                    ctx->elapsed_ms() - t_ts0);
      report_progress(ctx, "ts0", "TS_0 applied", fl, res.ncyc0);
    }
    if (fl.all_detected()) {
      res.complete = true;
      save_terminal();
      finish();
      return res;
    }
    cum_cycles = res.ncyc0;
  }

  // Steps 3-6: iterate I, sweep D_1.
  for (std::uint32_t iteration = start_iter;
       iteration <= opt.max_iterations && n_same_fc < opt.n_same_fc;
       ++iteration) {
    // Cooperative cancellation point for speculative sweep attempts: an
    // aborted result is partial by construction, so no summary is emitted
    // and no checkpoint is written (the caller discards the run entirely).
    if (abort && abort->load(std::memory_order_relaxed)) {
      res.total_detected = fl.num_detected();
      res.aborted = true;
      return res;
    }
    const bool continuing = resumed && iteration == start_iter;
    bool improve = continuing && resume_improve;
    for (std::size_t di = continuing ? start_d1 : 0;
         di < opt.d1_order.size(); ++di) {
      const std::uint32_t d1 = opt.d1_order[di];
      LimitedScanParams p;
      p.iteration = iteration;
      p.d1 = d1;
      p.base_seed = opt.base_seed;
      p.reseed_per_test = opt.reseed_per_test;
      const LimitedScanPlan plan = plan_limited_scan(ts0, n_sv, p);
      // Only tests that actually contain limited scan operations need to
      // be fault-simulated: a shift-free test is byte-identical to its
      // TS_0 original, which every remaining fault already survived.
      // (The cost accounting below still charges the full set — the
      // hardware applies every test.)
      const std::size_t sim_tests = plan.shifted_tests();
      const double t_sweep = ctx ? ctx->elapsed_ms() : 0.0;
      const std::uint64_t ge_sweep = fsim.gate_evals();
      std::size_t newly = 0;
      if (packed) {
        newly = fsim.run_batches(
            sim::PackedBatch::with_schedules(ts0_batches, plan.schedules,
                                             plan.of_test),
            fl);
      } else {
        scan::TestSet ts = make_limited_scan_set(ts0, plan);
        scan::TestSet sim_ts;
        sim_ts.tests.reserve(sim_tests);
        for (scan::ScanTest& t : ts.tests) {
          if (t.has_limited_scan()) sim_ts.tests.push_back(std::move(t));
        }
        newly = fsim.run_test_set(sim_ts, fl);
      }
      if (ctx && ctx->observed()) {
        ctx->emit_sweep(iteration, d1, sim_tests, newly,
                        fsim.gate_evals() - ge_sweep,
                        ctx->elapsed_ms() - t_sweep);
      }
      if (newly > 0) {
        AppliedSet a;
        a.iteration = iteration;
        a.d1 = d1;
        a.detected = newly;
        a.cycles =
            scan::n_cyc(ts0.size(), ts0_vectors, plan.total_shift(), n_sv);
        a.limited_units = plan.limited_scan_units();
        a.total_vectors = ts0_vectors;
        res.applied.push_back(a);
        improve = true;
        cum_cycles += a.cycles;
        if (ctx && ctx->observed()) {
          // N_SH(I, D_1) = N_cyc(I, D_1) - N_cyc0 (the cost model of
          // DESIGN.md §1): the limited-scan shifts are exactly the cycles
          // this set costs beyond a plain TS_0 application.
          ctx->emit_id1_pair(iteration, d1, newly, a.cycles - res.ncyc0,
                             a.cycles, cum_cycles, fl.num_detected(),
                             fl.size(), ctx->elapsed_ms() - t_sweep);
          char detail[64];
          std::snprintf(detail, sizeof detail, "I=%u D1=%u +%zu", iteration,
                        d1, newly);
          report_progress(ctx, "p2", detail, fl, cum_cycles);
        }
        // Committed-pair checkpoint: resuming here re-enters the loop at
        // (iteration, di + 1) with the current detection state, replaying
        // nothing. The final pair skips straight to the terminal save.
        if (ckpt && !fl.all_detected()) {
          store::P2Snapshot snap;
          snap.iteration = iteration;
          snap.d1_index = static_cast<std::uint32_t>(di + 1);
          snap.improve = true;
          snap.n_same_fc = n_same_fc;
          snap.cum_cycles = cum_cycles;
          snap.result = res;
          snap.result.total_detected = fl.num_detected();
          snap.detected = fl.detected_flags();
          ckpt->save(snap, ctx);
        }
      }
      if (fl.all_detected()) break;
    }
    res.total_detected = fl.num_detected();
    if (fl.all_detected()) {
      res.complete = true;
      save_terminal();
      finish();
      return res;
    }
    n_same_fc = improve ? 0 : n_same_fc + 1;
  }
  res.total_detected = fl.num_detected();
  res.complete = fl.all_detected();
  save_terminal();
  finish();
  return res;
}

}  // namespace rls::core
