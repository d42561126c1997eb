// Microbenchmarks (google-benchmark): simulator and generator throughput.
// Not a paper table — engineering baselines for the library itself.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/sta.hpp"
#include "core/campaign.hpp"
#include "core/param_select.hpp"
#include "core/procedure1.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/counters.hpp"
#include "rand/lfsr.hpp"
#include "rand/rng.hpp"
#include "sim/compiled.hpp"
#include "sim/seq_sim.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace {

using namespace rls;

struct Fixture {
  netlist::Netlist nl;
  sim::CompiledCircuit cc;
  explicit Fixture(const char* name) : nl(gen::make_circuit(name)), cc(nl) {}
};

Fixture& fixture(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[name];
  if (!slot) slot = std::make_unique<Fixture>(name.c_str());
  return *slot;
}

void BM_CombEval(benchmark::State& state, const char* name) {
  Fixture& f = fixture(name);
  sim::SeqSim sim(f.cc);
  rls::rand::Rng rng(1);
  for (std::size_t k = 0; k < f.cc.inputs().size(); ++k) {
    sim.set_input(k, rng.next_u64());
  }
  std::uint64_t evals = 0;
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.values().data());
    evals += f.cc.order().size();
  }
  state.counters["gate_evals/s"] = benchmark::Counter(
      static_cast<double>(evals), benchmark::Counter::kIsRate);
  state.counters["lanes"] = sim::kLanes;
}
BENCHMARK_CAPTURE(BM_CombEval, s298, "s298");
BENCHMARK_CAPTURE(BM_CombEval, s1423, "s1423");
BENCHMARK_CAPTURE(BM_CombEval, s5378, "s5378");

void BM_SeqFaultSimTs0(benchmark::State& state, const char* name) {
  Fixture& f = fixture(name);
  core::Ts0Config cfg;
  cfg.n = 8;
  const scan::TestSet ts0 = core::make_ts0(f.nl, cfg);
  const auto faults = fault::collapsed_universe(f.nl);
  // The simulator lives across iterations so its worker pool and worker
  // machines are reused — the steady-state Procedure 2 regime. Setup cost
  // is measured separately by BM_SeqFaultSimSetup.
  fault::SeqFaultSim fsim(f.cc);
  for (auto _ : state) {
    fault::FaultList fl(faults);
    fsim.run_test_set(ts0, fl);
    benchmark::DoNotOptimize(fl.num_detected());
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["gate_evals/s"] = benchmark::Counter(
      static_cast<double>(fsim.gate_evals()), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_SeqFaultSimTs0, s298, "s298");
BENCHMARK_CAPTURE(BM_SeqFaultSimTs0, s953, "s953");
BENCHMARK_CAPTURE(BM_SeqFaultSimTs0, s5378, "s5378");

// Circuit compilation + simulator construction (cone closure, fanout CSR,
// thread-pool-free setup) — the cost BM_SeqFaultSimTs0 amortizes away.
void BM_SeqFaultSimSetup(benchmark::State& state, const char* name) {
  Fixture& f = fixture(name);
  for (auto _ : state) {
    sim::CompiledCircuit cc(f.nl);
    fault::SeqFaultSim fsim(cc);
    benchmark::DoNotOptimize(fsim.gate_evals());
  }
}
BENCHMARK_CAPTURE(BM_SeqFaultSimSetup, s953, "s953");
BENCHMARK_CAPTURE(BM_SeqFaultSimSetup, s5378, "s5378");

// Head-to-head engine comparison on one TS_0 sweep. gate_evals_per_sweep
// is the per-call evaluation count — the cone-restricted engine's ratio
// versus the full sweep is the headline reduction (BENCH_PR1.json).
void BM_SeqFaultSimEngines(benchmark::State& state, const char* name,
                           fault::Engine engine) {
  Fixture& f = fixture(name);
  core::Ts0Config cfg;
  cfg.n = 8;
  const scan::TestSet ts0 = core::make_ts0(f.nl, cfg);
  const auto faults = fault::collapsed_universe(f.nl);
  fault::SeqFaultSim fsim(f.cc);
  fsim.set_engine(engine);
  std::uint64_t evals_per_sweep = 0;
  for (auto _ : state) {
    fault::FaultList fl(faults);
    const std::uint64_t before = fsim.gate_evals();
    fsim.run_test_set(ts0, fl);
    evals_per_sweep = fsim.gate_evals() - before;
    benchmark::DoNotOptimize(fl.num_detected());
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["gate_evals/s"] = benchmark::Counter(
      static_cast<double>(fsim.gate_evals()), benchmark::Counter::kIsRate);
  state.counters["gate_evals_per_sweep"] =
      static_cast<double>(evals_per_sweep);
}
BENCHMARK_CAPTURE(BM_SeqFaultSimEngines, s953_fullsweep, "s953",
                  fault::Engine::kFullSweep);
BENCHMARK_CAPTURE(BM_SeqFaultSimEngines, s953_conediff, "s953",
                  fault::Engine::kConeDiff);
BENCHMARK_CAPTURE(BM_SeqFaultSimEngines, s953_packed, "s953",
                  fault::Engine::kPacked);
BENCHMARK_CAPTURE(BM_SeqFaultSimEngines, s5378_fullsweep, "s5378",
                  fault::Engine::kFullSweep);
BENCHMARK_CAPTURE(BM_SeqFaultSimEngines, s5378_conediff, "s5378",
                  fault::Engine::kConeDiff);
BENCHMARK_CAPTURE(BM_SeqFaultSimEngines, s5378_packed, "s5378",
                  fault::Engine::kPacked);

// Packed (PPSFP) engine detail: one TS_0 sweep with the 64-pattern word
// engine, exporting the packed-specific work counters. gate_evals_per_sweep
// here counts word evaluations (64 patterns each) — the ratio against the
// conediff row of BM_SeqFaultSimEngines is the PR-6 headline.
void BM_PackedFsim(benchmark::State& state, const char* name) {
  Fixture& f = fixture(name);
  core::Ts0Config cfg;
  cfg.n = 8;
  const scan::TestSet ts0 = core::make_ts0(f.nl, cfg);
  const auto faults = fault::collapsed_universe(f.nl);
  fault::SeqFaultSim fsim(f.cc);
  fsim.set_engine(fault::Engine::kPacked);
  std::uint64_t evals_per_sweep = 0;
  std::uint64_t words_per_sweep = 0;
  std::uint64_t batches_per_sweep = 0;
  std::uint64_t lanes_per_sweep = 0;
  for (auto _ : state) {
    fault::FaultList fl(faults);
    const std::uint64_t evals0 = fsim.gate_evals();
    const std::uint64_t words0 = fsim.packed_words();
    const std::uint64_t batches0 = fsim.packed_batches();
    const std::uint64_t lanes0 = fsim.lanes_active();
    fsim.run_test_set(ts0, fl);
    evals_per_sweep = fsim.gate_evals() - evals0;
    words_per_sweep = fsim.packed_words() - words0;
    batches_per_sweep = fsim.packed_batches() - batches0;
    lanes_per_sweep = fsim.lanes_active() - lanes0;
    benchmark::DoNotOptimize(fl.num_detected());
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["gate_evals_per_sweep"] =
      static_cast<double>(evals_per_sweep);
  state.counters["packed_words_per_sweep"] =
      static_cast<double>(words_per_sweep);
  state.counters["packed_batches_per_sweep"] =
      static_cast<double>(batches_per_sweep);
  state.counters["lanes_active_per_sweep"] =
      static_cast<double>(lanes_per_sweep);
  state.counters["gate_evals/s"] = benchmark::Counter(
      static_cast<double>(fsim.gate_evals()), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_PackedFsim, s953, "s953");
BENCHMARK_CAPTURE(BM_PackedFsim, s5378, "s5378");

// Static-prune payoff: one bounded Procedure 2 pass over the FULL collapsed
// fault universe of the tied-input s420t profile, with and without the sta
// prune mask (rls::analysis::sta proves 39 of its 832 collapsed faults
// untestable). Pruning only skips simulation of provably-undetectable
// faults, so `detected` is identical across the pair; the
// gate_evals_per_run drop at equal detections is the PR-9 headline
// (BENCH_PR9.json).
void BM_StaPrune(benchmark::State& state, const char* name, bool prune) {
  Fixture& f = fixture(name);
  core::Ts0Config cfg;
  cfg.n = 16;
  const scan::TestSet ts0 = core::make_ts0(f.nl, cfg);
  const auto faults = fault::collapsed_universe(f.nl);
  core::Procedure2Options p2;
  p2.sim_threads = 1;
  p2.d1_order = {1, 2};
  p2.max_iterations = 2;
  p2.n_same_fc = 1;
  std::size_t num_pruned = 0;
  if (prune) {
    const analysis::StaReport r = analysis::analyze(f.cc);
    const analysis::StaFaultClasses cls =
        analysis::classify_faults(r, f.cc, faults);
    num_pruned = cls.num_untestable;
    p2.prune_mask = std::make_shared<const std::vector<std::uint8_t>>(
        cls.untestable_mask());
  }
  std::uint64_t evals_per_run = 0;
  std::size_t detected = 0;
  for (auto _ : state) {
    core::RunContext ctx;
    ctx.set_timing(false);
    fault::FaultList fl(faults);
    const core::Procedure2Result res =
        core::run_procedure2(f.cc, ts0, fl, p2, &ctx);
    evals_per_run = ctx.counters().value("fsim.gate_evals");
    detected = res.total_detected;
    benchmark::DoNotOptimize(detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["pruned"] = static_cast<double>(num_pruned);
  state.counters["gate_evals_per_run"] = static_cast<double>(evals_per_run);
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK_CAPTURE(BM_StaPrune, s420t_unpruned, "s420t", false);
BENCHMARK_CAPTURE(BM_StaPrune, s420t_pruned, "s420t", true);

// Observability overhead contract: with no sink and no counter registry
// attached, instrumentation must cost <2% versus the PR-1 engine. Run the
// _off and _on variants and compare wall time; the _on variant also exports
// the per-sweep obs counters so bench_to_json.sh can fold them into the
// BENCH_PR2.json artifact.
void BM_ObsOverhead(benchmark::State& state, const char* name,
                    bool counters_attached) {
  Fixture& f = fixture(name);
  core::Ts0Config cfg;
  cfg.n = 8;
  const scan::TestSet ts0 = core::make_ts0(f.nl, cfg);
  const auto faults = fault::collapsed_universe(f.nl);
  fault::SeqFaultSim fsim(f.cc);
  obs::CounterRegistry reg;
  if (counters_attached) fsim.set_counters(&reg);
  for (auto _ : state) {
    fault::FaultList fl(faults);
    fsim.run_test_set(ts0, fl);
    benchmark::DoNotOptimize(fl.num_detected());
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["gate_evals/s"] = benchmark::Counter(
      static_cast<double>(fsim.gate_evals()), benchmark::Counter::kIsRate);
  if (counters_attached) {
    const double sweeps = static_cast<double>(reg.value("fsim.sweeps"));
    for (const auto& [key, value] : reg.snapshot()) {
      state.counters["obs." + key + "_per_sweep"] =
          static_cast<double>(value) / sweeps;
    }
  }
}
BENCHMARK_CAPTURE(BM_ObsOverhead, s5378_off, "s5378", false);
BENCHMARK_CAPTURE(BM_ObsOverhead, s5378_on, "s5378", true);

// Speculative (L_A, L_B, N) combo sweep: serial vs a W-wide speculative
// window on s420, whose first small combinations fail under a bounded
// Procedure 2, so the window overlaps real (not wasted) work. Result
// equivalence across W is asserted by test_sweep_equiv; this measures the
// wall-clock payoff (BENCH_PR3.json headline).
void BM_ComboSweep(benchmark::State& state, const char* name, unsigned jobs) {
  static std::map<std::string, std::unique_ptr<core::Workbench>> wbs;
  auto& wb = wbs[name];
  if (!wb) wb = std::make_unique<core::Workbench>(name);
  core::Procedure2Options p2;
  p2.sim_threads = 1;  // all parallelism comes from the combo window
  p2.max_iterations = 2;
  p2.n_same_fc = 1;
  p2.d1_order = {1, 2};
  std::size_t attempts = 0;
  for (auto _ : state) {
    std::vector<core::ComboRun> runs;
    const auto hit =
        core::first_complete_combo(wb->cc(), wb->target_faults(), p2,
                                   wb->ts0_seed(), &runs, 4, nullptr, jobs);
    attempts = runs.size();
    benchmark::DoNotOptimize(hit.has_value());
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["attempts"] = static_cast<double>(attempts);
}
BENCHMARK_CAPTURE(BM_ComboSweep, s420_w1, "s420", 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ComboSweep, s420_w2, "s420", 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ComboSweep, s420_w4, "s420", 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ComboSweep, s420_w8, "s420", 8)
    ->Unit(benchmark::kMillisecond);

/// Fresh scratch directory for the store benchmarks, removed on scope exit.
struct BenchScratch {
  std::string path;
  explicit BenchScratch(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("rls-bench-") + tag + "-XXXXXX"))
               .string();
    if (::mkdtemp(path.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + path);
    }
  }
  ~BenchScratch() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// Cold-versus-warm campaign: the same bounded first-complete sweep against
// an empty store (every iteration wipes it) and against a populated one
// (the second-run path — served entirely from artifacts, zero fault
// simulation). The cold/warm wall-time ratio is the PR-5 headline.
void BM_CampaignCached(benchmark::State& state, const char* name, bool warm) {
  static std::map<std::string, std::unique_ptr<core::Workbench>> wbs;
  auto& wb = wbs[name];
  if (!wb) wb = std::make_unique<core::Workbench>(name);
  core::CampaignOptions opts;
  opts.p2.sim_threads = 1;
  opts.p2.d1_order = {1, 2};
  opts.p2.max_iterations = 2;
  opts.p2.n_same_fc = 1;
  opts.max_attempts = 3;
  opts.max_combos_on_failure = 3;
  const BenchScratch scratch(warm ? "warm" : "cold");
  if (warm) {
    store::ArtifactStore astore(scratch.path);
    store::CampaignStore cs(astore, wb->nl(), wb->target_faults(), false);
    core::RunContext ctx(opts);
    ctx.set_store(&cs);
    (void)core::run_first_complete(*wb, ctx);
  }
  std::size_t attempts = 0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      std::error_code ec;
      std::filesystem::remove_all(scratch.path, ec);
      state.ResumeTiming();
    }
    store::ArtifactStore astore(scratch.path);
    store::CampaignStore cs(astore, wb->nl(), wb->target_faults(), false);
    core::RunContext ctx(opts);
    ctx.set_store(&cs);
    const core::ExperimentRow row = core::run_first_complete(*wb, ctx);
    attempts = row.attempts;
    benchmark::DoNotOptimize(row.result.total_detected);
  }
  state.counters["attempts"] = static_cast<double>(attempts);
}
BENCHMARK_CAPTURE(BM_CampaignCached, s298_cold, "s298", false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignCached, s298_warm, "s298", true)
    ->Unit(benchmark::kMillisecond);

// Campaign-service throughput: one submit_batch of pinned-combo requests
// driven through svc::CampaignService against a shared sharded store.
// Modes: "cold" (store wiped before each batch — every leader runs a full
// bounded campaign), "warm" (store pre-populated — executions are pure
// artifact reads), "coalesced" (warm + every distinct request duplicated
// 4x — single-flight dedup serves 3 of every 4 responses from the
// leader's run without re-executing). requests/s is the headline; the
// svc.coalesced_per_batch counter proves the dedup (BENCH_PR7.json).
void BM_ServeThroughput(benchmark::State& state, const char* name,
                        const char* mode_str, unsigned workers) {
  const std::string_view mode(mode_str);
  const bool cold = mode == "cold";
  const unsigned dups = mode == "coalesced" ? 4 : 1;
  // Four distinct pinned (L_A, L_B, N) combos; bounded Procedure 2 and
  // classification so an execution measures the service + store
  // machinery, not open-ended ATPG.
  static constexpr std::uint64_t kPins[4][3] = {
      {8, 16, 16}, {8, 16, 64}, {8, 32, 16}, {8, 32, 64}};
  const auto make_request = [&](std::size_t combo, unsigned dup) {
    svc::CampaignRequest req;
    req.id = "b" + std::to_string(combo) + "d" + std::to_string(dup);
    req.circuit = name;
    req.la = kPins[combo][0];
    req.lb = kPins[combo][1];
    req.n = kPins[combo][2];
    req.options.p2.sim_threads = 1;
    req.options.p2.max_iterations = 4;
    req.options.p2.n_same_fc = 1;
    req.options.detect.random_rounds = 8;
    req.options.detect.backtrack_limit = 100;
    return req;
  };
  const auto make_batch = [&] {
    std::vector<svc::CampaignRequest> batch;
    for (std::size_t combo = 0; combo < 4; ++combo) {
      for (unsigned dup = 0; dup < dups; ++dup) {
        batch.push_back(make_request(combo, dup));
      }
    }
    return batch;
  };
  const BenchScratch scratch("serve");
  svc::ServiceConfig cfg;
  cfg.store_dir = scratch.path;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  if (!cold) {  // pre-populate the store so timed executions are reads
    svc::CampaignService warmup(cfg);
    for (auto& fu : warmup.submit_batch(make_batch())) fu.get();
  }
  std::uint64_t requests = 0;
  double coalesced_per_batch = 0.0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      std::error_code ec;
      std::filesystem::remove_all(scratch.path, ec);
      state.ResumeTiming();
    }
    svc::CampaignService service(cfg);
    auto futures = service.submit_batch(make_batch());
    std::size_t ok = 0;
    for (auto& fu : futures) ok += fu.get().ok ? 1 : 0;
    service.shutdown();
    requests += futures.size();
    coalesced_per_batch =
        static_cast<double>(service.counters().value("svc.coalesced"));
    if (ok != futures.size()) {
      state.SkipWithError("campaign request failed");
      break;
    }
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["batch_requests"] = static_cast<double>(4 * dups);
  state.counters["svc.coalesced_per_batch"] = coalesced_per_batch;
  state.counters["requests/s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
}
// MeasureProcessCPUTime so the rate counters see the scheduler/worker
// threads' work, not just the submitting thread's.
BENCHMARK_CAPTURE(BM_ServeThroughput, s298_cold_w1, "s298", "cold", 1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeThroughput, s298_warm_w1, "s298", "warm", 1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeThroughput, s298_warm_w4, "s298", "warm", 4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeThroughput, s298_coalesced_w4, "s298", "coalesced",
                  4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeThroughput, s5378_warm_w1, "s5378", "warm", 1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeThroughput, s5378_coalesced_w4, "s5378",
                  "coalesced", 4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

/// The BM_ServeThroughput workload pushed through the full TCP loopback
/// path (NetClient -> NetServer -> CampaignService): NDJSON framing,
/// the server's poll loop, and envelope serialization on top of the
/// service. Compare against the matching BM_ServeThroughput
/// row for the transport tax, and warm_w1 vs warm_w4 for how requests/s
/// scales with --workers when the wire is the same.
void BM_NetThroughput(benchmark::State& state, const char* name,
                      const char* mode_str, unsigned workers) {
  const std::string_view mode(mode_str);
  const bool cold = mode == "cold";
  const unsigned dups = mode == "coalesced" ? 4 : 1;
  static constexpr std::uint64_t kPins[4][3] = {
      {8, 16, 16}, {8, 16, 64}, {8, 32, 16}, {8, 32, 64}};
  const auto make_request = [&](std::size_t combo, unsigned dup) {
    svc::CampaignRequest req;
    req.id = "b" + std::to_string(combo) + "d" + std::to_string(dup);
    req.circuit = name;
    req.la = kPins[combo][0];
    req.lb = kPins[combo][1];
    req.n = kPins[combo][2];
    req.options.p2.sim_threads = 1;
    req.options.p2.max_iterations = 4;
    req.options.p2.n_same_fc = 1;
    req.options.detect.random_rounds = 8;
    req.options.detect.backtrack_limit = 100;
    return req;
  };
  const auto make_batch = [&] {
    std::vector<svc::CampaignRequest> batch;
    for (std::size_t combo = 0; combo < 4; ++combo) {
      for (unsigned dup = 0; dup < dups; ++dup) {
        batch.push_back(make_request(combo, dup));
      }
    }
    return batch;
  };
  const BenchScratch scratch("net");
  svc::ServiceConfig cfg;
  cfg.store_dir = scratch.path;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  if (!cold) {
    svc::CampaignService warmup(cfg);
    for (auto& fu : warmup.submit_batch(make_batch())) fu.get();
  }
  std::uint64_t requests = 0;
  double coalesced_per_batch = 0.0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      std::error_code ec;
      std::filesystem::remove_all(scratch.path, ec);
      state.ResumeTiming();
    }
    svc::CampaignService service(cfg);
    net::NetServer server(service, net::NetConfig{});
    net::NetClient client("127.0.0.1", server.port());
    const std::vector<svc::CampaignRequest> batch = make_batch();
    for (const svc::CampaignRequest& req : batch) {
      client.send_line(req.canonical_json());
    }
    client.shutdown_write();
    std::size_t ok = 0;
    while (const auto line = client.recv_line()) {
      ok += line->find("\"ok\":true") != std::string::npos;
    }
    server.shutdown();
    service.shutdown();
    requests += batch.size();
    coalesced_per_batch =
        static_cast<double>(service.counters().value("svc.coalesced"));
    if (ok != batch.size()) {
      state.SkipWithError("campaign request failed over loopback");
      break;
    }
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["batch_requests"] = static_cast<double>(4 * dups);
  state.counters["svc.coalesced_per_batch"] = coalesced_per_batch;
  state.counters["requests/s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_NetThroughput, s298_cold_w1, "s298", "cold", 1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_NetThroughput, s298_warm_w1, "s298", "warm", 1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_NetThroughput, s298_warm_w4, "s298", "warm", 4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK_CAPTURE(BM_NetThroughput, s298_coalesced_w4, "s298", "coalesced", 4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_CombFaultSimRound(benchmark::State& state, const char* name) {
  Fixture& f = fixture(name);
  fault::CombFaultSim fsim(f.cc);
  rls::rand::Rng rng(2);
  std::vector<sim::Word> pi(f.cc.inputs().size()), ppi(f.cc.flip_flops().size());
  const auto faults = fault::collapsed_universe(f.nl);
  for (auto _ : state) {
    for (auto& w : pi) w = rng.next_u64();
    for (auto& w : ppi) w = rng.next_u64();
    fsim.set_patterns(pi, ppi);
    std::size_t det = 0;
    for (const auto& flt : faults) det += fsim.detect_mask(flt) != 0;
    benchmark::DoNotOptimize(det);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK_CAPTURE(BM_CombFaultSimRound, s1423, "s1423");
BENCHMARK_CAPTURE(BM_CombFaultSimRound, s5378, "s5378");

void BM_Lfsr(benchmark::State& state) {
  rls::rand::GaloisLfsr lfsr(32, 0xACE1);
  std::uint64_t bits = 0;
  for (auto _ : state) {
    bits += lfsr.next_bits(32);
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_Lfsr);

void BM_SynthesizeCircuit(benchmark::State& state, const char* name) {
  for (auto _ : state) {
    const netlist::Netlist nl = gen::make_circuit(name);
    benchmark::DoNotOptimize(nl.num_gates());
  }
}
BENCHMARK_CAPTURE(BM_SynthesizeCircuit, s1423, "s1423");
BENCHMARK_CAPTURE(BM_SynthesizeCircuit, s5378, "s5378");

void BM_Procedure1Schedule(benchmark::State& state) {
  Fixture& f = fixture("s953");
  core::Ts0Config cfg;
  const scan::TestSet ts0 = core::make_ts0(f.nl, cfg);
  core::LimitedScanParams p;
  p.d1 = 3;
  for (auto _ : state) {
    const scan::TestSet ts =
        core::make_limited_scan_set(ts0, f.nl.num_state_vars(), p);
    benchmark::DoNotOptimize(ts.total_shift());
  }
}
BENCHMARK(BM_Procedure1Schedule);

}  // namespace

BENCHMARK_MAIN();
