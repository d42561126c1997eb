#include "core/param_select.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/run_context.hpp"
#include "scan/cost.hpp"
#include "sim/worker_pool.hpp"
#include "store/checkpoint.hpp"

namespace rls::core {

std::vector<Combo> enumerate_combos(std::size_t n_sv,
                                    const std::vector<std::size_t>& la,
                                    const std::vector<std::size_t>& lb,
                                    const std::vector<std::size_t>& n) {
  std::vector<Combo> out;
  for (std::size_t a : la) {
    for (std::size_t b : lb) {
      if (a >= b) continue;
      for (std::size_t cnt : n) {
        out.push_back({a, b, cnt, scan::n_cyc0(n_sv, a, b, cnt)});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Combo& x, const Combo& y) {
    if (x.ncyc0 != y.ncyc0) return x.ncyc0 < y.ncyc0;
    if (x.n != y.n) return x.n < y.n;
    if (x.l_b != y.l_b) return x.l_b < y.l_b;
    return x.l_a < y.l_a;
  });
  return out;
}

std::vector<Combo> enumerate_default_combos(std::size_t n_sv) {
  return enumerate_combos(n_sv, default_la_choices(), default_lb_choices(),
                          default_n_choices());
}

ComboRun run_combo(const sim::CompiledCircuit& cc,
                   const std::vector<fault::Fault>& target_faults,
                   const Combo& combo, const Procedure2Options& p2_opt,
                   std::uint64_t ts0_seed, RunContext* ctx,
                   const std::atomic<bool>* abort) {
  Ts0Config cfg;
  cfg.l_a = combo.l_a;
  cfg.l_b = combo.l_b;
  cfg.n = combo.n;
  cfg.seed = ts0_seed;
  const scan::TestSet ts0 = make_ts0(cc.nl(), cfg);
  if (combo.ncyc0 != 0) {
    // A TS_0-shaped set must cost exactly the closed-form N_cyc0 the combo
    // was ranked by; a mismatch means a combo built against a different
    // circuit.
    const std::uint64_t actual = scan::n_cyc(ts0, cc.flip_flops().size());
    if (actual != combo.ncyc0) {
      throw std::logic_error(
          "run_combo: TS_0 cycle count " + std::to_string(actual) +
          " does not match combo.ncyc0 " + std::to_string(combo.ncyc0));
    }
  }
  fault::FaultList fl(target_faults);
  ComboRun run;
  run.combo = combo;
  if (store::CampaignStore* cs = ctx ? ctx->store() : nullptr) {
    const store::P2Checkpoint ckpt(*cs, cs->p2_key(combo, p2_opt, ts0_seed));
    run.result = run_procedure2(cc, ts0, fl, p2_opt, ctx, abort, &ckpt);
  } else {
    run.result = run_procedure2(cc, ts0, fl, p2_opt, ctx, abort);
  }
  return run;
}

namespace {

/// Combo-level progress milestone (serial path and commit path).
void report_combo_progress(RunContext* ctx, const Combo& c,
                           const ComboRun& run, std::size_t targets) {
  obs::Progress p;
  p.phase = "combo";
  char detail[96];
  std::snprintf(detail, sizeof detail, "LA=%zu LB=%zu N=%zu %s", c.l_a, c.l_b,
                c.n, run.result.complete ? "complete" : "incomplete");
  p.detail = detail;
  p.detected = run.result.total_detected;
  p.targets = targets;
  p.cycles = run.result.total_cycles();
  ctx->update_progress(p);
}

/// Sweep-level checkpoint scope: the campaign snapshot (committed prefix,
/// adopted from a previous run when resuming) plus the fixed key it is
/// saved under after every commit.
struct CampaignCkpt {
  store::CampaignStore* cs = nullptr;
  store::ArtifactKey key;
  store::CampaignSnapshot snap;

  /// Appends a freshly committed run and persists the snapshot. A
  /// complete run is the winner and makes the snapshot terminal.
  void commit(const ComboRun& run, std::size_t global_attempt,
              RunContext* ctx) {
    snap.committed.push_back(run);
    snap.next_attempt = global_attempt + 1;
    if (run.result.complete) {
      snap.winner = static_cast<std::int64_t>(snap.committed.size()) - 1;
      snap.terminal = true;
    }
    cs->save_campaign(key, snap, ctx);
  }
  /// Marks the natural end of a winnerless sweep (every combo committed).
  void finish(RunContext* ctx) {
    if (snap.terminal) return;
    snap.terminal = true;
    cs->save_campaign(key, snap, ctx);
  }
};

/// Serial sweep (W = 1): attempts run and commit in the same order, so
/// events stream straight through the parent context — byte-identical to
/// the speculative path's buffered commit by construction (pinned by the
/// sweep-equivalence test). `combos` is the not-yet-committed tail of the
/// rank order; `attempt_base` is how many attempts a resumed campaign
/// already committed (0 on a fresh run).
std::optional<ComboRun> sweep_serial(
    const sim::CompiledCircuit& cc,
    const std::vector<fault::Fault>& target_faults,
    const std::vector<Combo>& combos, const Procedure2Options& p2_opt,
    std::uint64_t ts0_seed, std::vector<ComboRun>* runs_out, RunContext* ctx,
    std::size_t attempt_base, CampaignCkpt* camp) {
  std::uint64_t attempt = 0;
  for (const Combo& c : combos) {
    if (ctx) ctx->set_attempt(attempt_base + attempt);
    const double t_combo = ctx ? ctx->elapsed_ms() : 0.0;
    ComboRun run = run_combo(cc, target_faults, c, p2_opt, ts0_seed, ctx);
    const bool complete = run.result.complete;
    if (runs_out) runs_out->push_back(run);
    if (ctx && ctx->observed()) {
      ctx->emit_combo_attempt(c.l_a, c.l_b, c.n, c.ncyc0,
                              run.result.total_detected, target_faults.size(),
                              complete, ctx->elapsed_ms() - t_combo);
      report_combo_progress(ctx, c, run, target_faults.size());
    }
    if (camp) camp->commit(run, attempt_base + attempt, ctx);
    ++attempt;
    if (complete) {
      if (ctx) {
        ctx->counters().add("sweep.attempts", attempt);
        ctx->counters().add("sweep.dispatched", attempt);
        ctx->set_attempt(0);
      }
      return run;
    }
  }
  if (camp) camp->finish(ctx);
  if (ctx) {
    ctx->counters().add("sweep.attempts", attempt);
    ctx->counters().add("sweep.dispatched", attempt);
    ctx->set_attempt(0);
  }
  return std::nullopt;
}

/// Speculative sweep (W > 1). Invariant that makes commit-in-order exact:
/// attempts are claimed in ascending rank, and attempt j is only ever
/// cancelled when some complete attempt i < j is already known — so every
/// attempt up to and including the final winner k ran to natural
/// completion, and the committed prefix [0, k] is exactly what the serial
/// sweep would have produced.
std::optional<ComboRun> sweep_speculative(
    const sim::CompiledCircuit& cc,
    const std::vector<fault::Fault>& target_faults,
    const std::vector<Combo>& combos, const Procedure2Options& p2_opt,
    std::uint64_t ts0_seed, std::vector<ComboRun>* runs_out, RunContext* ctx,
    unsigned workers, std::size_t attempt_base, CampaignCkpt* camp) {
  struct Slot {
    std::atomic<bool> cancel{false};
    bool claimed = false;
    bool done = false;
    ComboRun run;
    obs::CounterRegistry counters;
    obs::VectorSink buf;
    double wall_ms = 0.0;
  };
  std::deque<Slot> slots(combos.size());
  std::atomic<std::size_t> next{0};
  // Attempts ranked at or beyond the earliest known-complete attempt are
  // doomed speculation: never claim them.
  std::atomic<std::size_t> stop_before{combos.size()};
  std::mutex mu;

  const bool buffer_events = ctx && ctx->sink() != nullptr;
  const bool timing = ctx && ctx->timing_enabled();

  auto step = [&](unsigned) -> bool {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= combos.size() || i >= stop_before.load(std::memory_order_relaxed))
      return false;
    Slot& s = slots[i];
    s.claimed = true;
    RunContext child;
    child.set_timing(timing);
    child.set_attempt(attempt_base + i);
    // The store travels into workers: terminal p2 artifacts are shared
    // reads, and each attempt checkpoints under its own combo key. A
    // doomed attempt may leave a partial p2 artifact behind — harmless,
    // because checkpoints are deterministic prefixes of the same run a
    // future resume would redo anyway.
    if (ctx) child.set_store(ctx->store());
    if (buffer_events) child.set_sink(&s.buf);
    ComboRun run = run_combo(cc, target_faults, combos[i], p2_opt, ts0_seed,
                             ctx ? &child : nullptr, &s.cancel);
    const double wall = ctx ? child.elapsed_ms() : 0.0;
    std::lock_guard lk(mu);
    s.run = std::move(run);
    if (ctx) s.counters = child.counters();
    s.wall_ms = wall;
    s.done = true;
    if (s.run.result.complete && !s.run.result.aborted) {
      std::size_t cur = stop_before.load(std::memory_order_relaxed);
      while (i < cur && !stop_before.compare_exchange_weak(cur, i)) {
      }
      for (std::size_t j = i + 1; j < combos.size(); ++j) {
        slots[j].cancel.store(true, std::memory_order_relaxed);
      }
    }
    return true;
  };

  sim::WorkerPool pool;
  pool.run_tasks(workers, step);

  // Commit strictly in N_cyc0 rank order; stop at the first complete
  // attempt. Everything past it (including cancelled partial runs) is
  // discarded — counters, buffered events and all.
  std::optional<ComboRun> winner;
  std::size_t committed = 0;
  for (std::size_t k = 0; k < combos.size(); ++k) {
    Slot& s = slots[k];
    if (!s.claimed || !s.done) break;
    if (s.run.result.aborted) break;  // unreachable before the winner
    if (ctx) {
      ctx->counters().merge(s.counters);
      ctx->set_attempt(attempt_base + k);
      if (buffer_events) {
        for (const obs::TraceEvent& ev : s.buf.events()) ctx->emit(ev);
      }
      if (ctx->observed()) {
        const Combo& c = combos[k];
        ctx->emit_combo_attempt(c.l_a, c.l_b, c.n, c.ncyc0,
                                s.run.result.total_detected,
                                target_faults.size(), s.run.result.complete,
                                s.wall_ms);
        report_combo_progress(ctx, c, s.run, target_faults.size());
      }
    }
    if (runs_out) runs_out->push_back(s.run);
    if (camp) camp->commit(s.run, attempt_base + k, ctx);
    ++committed;
    if (s.run.result.complete) {
      winner = std::move(s.run);
      break;
    }
  }
  if (camp && !winner) camp->finish(ctx);
  if (ctx) {
    std::size_t dispatched = 0;
    std::size_t cancelled = 0;
    for (std::size_t k = 0; k < combos.size(); ++k) {
      if (!slots[k].claimed) continue;
      ++dispatched;
      if (slots[k].done && slots[k].run.result.aborted) ++cancelled;
    }
    ctx->counters().add("sweep.attempts", committed);
    ctx->counters().add("sweep.dispatched", dispatched);
    ctx->counters().add("sweep.cancelled", cancelled);
    ctx->counters().add("sweep.discarded", dispatched - committed - cancelled);
    ctx->set_attempt(0);
  }
  return winner;
}

}  // namespace

std::optional<ComboRun> first_complete_combo(
    const sim::CompiledCircuit& cc,
    const std::vector<fault::Fault>& target_faults,
    const Procedure2Options& p2_opt, std::uint64_t ts0_seed,
    std::vector<ComboRun>* runs_out, std::size_t max_attempts,
    RunContext* ctx, unsigned combo_jobs) {
  std::vector<Combo> combos =
      enumerate_default_combos(cc.flip_flops().size());
  if (max_attempts > 0 && combos.size() > max_attempts) {
    combos.resize(max_attempts);
  }

  // Campaign-level persistence. A stored snapshot is consulted before any
  // sweeping: a winner inside the current cap (or a terminal winnerless
  // sweep at least as deep) is a full cache hit; anything shorter is a
  // resume point when resume is enabled, and ignored (recomputed and
  // overwritten) otherwise. max_attempts is not part of the key, so a
  // snapshot taken under one cap serves any other.
  CampaignCkpt camp_storage;
  CampaignCkpt* camp = nullptr;
  std::size_t attempt_base = 0;
  if (store::CampaignStore* cs = ctx ? ctx->store() : nullptr) {
    camp_storage.cs = cs;
    camp_storage.key = cs->campaign_key(p2_opt, ts0_seed);
    camp = &camp_storage;
    if (std::optional<store::CampaignSnapshot> loaded =
            cs->load_campaign(camp->key, ctx)) {
      const std::size_t prefix =
          std::min(loaded->committed.size(), combos.size());
      const bool full_hit =
          loaded->winner >= 0 &&
          static_cast<std::size_t>(loaded->winner) < prefix;
      const bool exhausted = loaded->terminal && loaded->winner < 0 &&
                             loaded->committed.size() >= combos.size();
      if (full_hit || exhausted) {
        const std::size_t replay =
            full_hit ? static_cast<std::size_t>(loaded->winner) + 1 : prefix;
        cs->note_cache_hit(ctx, camp->key);
        if (runs_out) {
          runs_out->insert(runs_out->end(), loaded->committed.begin(),
                           loaded->committed.begin() +
                               static_cast<std::ptrdiff_t>(replay));
        }
        if (ctx) ctx->counters().add("sweep.attempts", replay);
        if (full_hit) {
          return loaded->committed[static_cast<std::size_t>(loaded->winner)];
        }
        return std::nullopt;
      }
      if (cs->resume_enabled() && prefix > 0) {
        // Adopt the committed prefix silently (its events were already
        // emitted by the interrupted run — the continued stream is a pure
        // suffix) and sweep only the remaining tail.
        attempt_base = prefix;
        camp->snap.committed.assign(
            loaded->committed.begin(),
            loaded->committed.begin() + static_cast<std::ptrdiff_t>(prefix));
        camp->snap.next_attempt = prefix;
        if (runs_out) {
          runs_out->insert(runs_out->end(), camp->snap.committed.begin(),
                           camp->snap.committed.end());
        }
        if (ctx) ctx->counters().add("sweep.attempts", prefix);
        cs->note_resume(ctx, camp->key);
      }
    }
  }

  const std::vector<Combo> rest(
      combos.begin() + static_cast<std::ptrdiff_t>(attempt_base),
      combos.end());
  unsigned w = combo_jobs == 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : combo_jobs;
  w = static_cast<unsigned>(std::min<std::size_t>(w, rest.size()));
  return w <= 1 ? sweep_serial(cc, target_faults, rest, p2_opt, ts0_seed,
                               runs_out, ctx, attempt_base, camp)
                : sweep_speculative(cc, target_faults, rest, p2_opt, ts0_seed,
                                    runs_out, ctx, w, attempt_base, camp);
}

}  // namespace rls::core
