// Campaign service tests: the typed request schema, single-flight dedup
// (N identical concurrent requests -> one execution, N byte-identical
// streams), bounded admission (queue-full is a typed error, never a
// hang), killed-session resume via the resume flag, the acceptance
// batch (8 distinct x 4 duplicates -> 8 executions, 24 coalesced
// responses), and the per-service Workbench cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/run_context.hpp"
#include "fault/seq_fsim.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "store/serde.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace fs = std::filesystem;

namespace rls {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("rls-svc-") + tag + "-XXXXXX"))
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

/// A cheap, deterministic pinned-combo request. Explicit sim_threads=1 so
/// the service's oversubscription pin never changes the request.
svc::CampaignRequest s27_request(std::uint64_t n = 16) {
  svc::CampaignRequest req;
  req.circuit = "s27";
  req.la = 8;
  req.lb = 16;
  req.n = n;
  req.options.p2.sim_threads = 1;
  return req;
}

struct Solo {
  core::ExperimentRow row;
  std::string stream;
  std::uint64_t gate_evals = 0;
};

/// Executes `req` exactly the way CampaignService::execute does, but
/// inline and on a freshly built Workbench — the byte-identity oracle for
/// response streams.
Solo solo_run(const svc::CampaignRequest& req,
              store::ArtifactStore* astore = nullptr, bool resume = false) {
  Solo out;
  core::RunContext ctx(req.options);
  ctx.set_timing(req.timing);
  obs::VectorSink sink;
  ctx.set_sink(&sink);
  const core::Workbench wb =
      gen::is_known_circuit(req.circuit)
          ? core::Workbench(req.circuit, ctx.options)
          : core::Workbench(netlist::load_bench_file(req.circuit),
                            ctx.options);
  std::unique_ptr<store::CampaignStore> cs;
  if (astore != nullptr) {
    cs = std::make_unique<store::CampaignStore>(*astore, wb.nl(),
                                                wb.target_faults(), resume);
    ctx.set_store(cs.get());
  }
  out.row =
      (req.la != 0 && req.lb != 0 && req.n != 0)
          ? run_single_combo(wb,
                             core::Combo{static_cast<std::size_t>(req.la),
                                         static_cast<std::size_t>(req.lb),
                                         static_cast<std::size_t>(req.n), 0},
                             ctx)
          : run_first_complete(wb, ctx);
  ctx.emit_counters();
  for (const obs::TraceEvent& ev : sink.events()) {
    out.stream += obs::to_jsonl(ev);
    out.stream.push_back('\n');
  }
  out.gate_evals = ctx.counters().value("fsim.gate_evals");
  return out;
}

/// JSONL lines of `stream` whose event type is in `keep`.
std::vector<std::string> filter_lines(const std::string& stream,
                                      std::initializer_list<const char*> keep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t end = stream.find('\n', pos);
    if (end == std::string::npos) end = stream.size();
    const std::string line = stream.substr(pos, end - pos);
    for (const char* k : keep) {
      if (line.rfind(std::string("{\"ev\":\"") + k + "\"", 0) == 0) {
        out.push_back(line);
        break;
      }
    }
    pos = end + 1;
  }
  return out;
}

bool is_suffix(const std::vector<std::string>& suffix,
               const std::vector<std::string>& full) {
  if (suffix.size() > full.size()) return false;
  return std::equal(suffix.begin(), suffix.end(),
                    full.end() - static_cast<std::ptrdiff_t>(suffix.size()));
}

// ---- SvcRequest: wire schema ---------------------------------------------

TEST(SvcRequest, CanonicalJsonRoundTrips) {
  svc::CampaignRequest req;
  req.id = "alpha";
  req.circuit = "s298";
  req.la = 8;
  req.lb = 32;
  req.n = 64;
  req.options.p2.d1_order = {10, 9, 8};
  req.options.p2.max_iterations = 12;
  req.options.p2.base_seed = 42;
  req.options.p2.reseed_per_test = false;
  req.options.p2.sim_threads = 2;
  req.options.combo_jobs = 3;
  req.options.max_attempts = 5;
  req.options.detect.seed = 7;
  req.timing = true;

  const std::string canon = req.canonical_json();
  const svc::CampaignRequest back = svc::parse_request(canon, "test");
  EXPECT_EQ(back.canonical_json(), canon);
  EXPECT_EQ(back.id, "alpha");
  EXPECT_EQ(back.options.p2.d1_order,
            (std::vector<std::uint32_t>{10, 9, 8}));
  EXPECT_TRUE(back.timing);
}

TEST(SvcRequest, DefaultsRoundTripAndParseBack) {
  svc::CampaignRequest req;
  req.circuit = "s27";
  const svc::CampaignRequest back =
      svc::parse_request(req.canonical_json(), "test");
  EXPECT_EQ(back.canonical_json(), req.canonical_json());
  // Absent optional fields mean defaults.
  const svc::CampaignRequest sparse =
      svc::parse_request(R"({"schema":1,"circuit":"s27"})", "test");
  EXPECT_EQ(sparse.canonical_json(), req.canonical_json());
}

TEST(SvcRequest, StrictParsingRejectsBadInput) {
  // schema is required and version-gated.
  EXPECT_THROW(svc::parse_request(R"({"circuit":"s27"})", "t"),
               svc::RequestError);
  EXPECT_THROW(svc::parse_request(R"({"schema":3,"circuit":"s27"})", "t"),
               svc::RequestError);
  // Unknown fields are a hard error (typo'd knobs must not default).
  EXPECT_THROW(
      svc::parse_request(R"({"schema":1,"circuit":"s27","sead":1})", "t"),
      svc::RequestError);
  // circuit is required; la/lb/n are all-or-none; engine is validated.
  EXPECT_THROW(svc::parse_request(R"({"schema":1})", "t"), svc::RequestError);
  EXPECT_THROW(
      svc::parse_request(R"({"schema":1,"circuit":"s27","la":8})", "t"),
      svc::RequestError);
  EXPECT_THROW(svc::parse_request(
                   R"({"schema":1,"circuit":"s27","engine":"warp"})", "t"),
               svc::RequestError);
  EXPECT_THROW(svc::parse_request(
                   R"({"schema":1,"circuit":"s27","d1_order":[]})", "t"),
               svc::RequestError);
}

TEST(SvcRequest, ScheduleFieldsAreScheduleOnly) {
  // priority / deadline_ms (schema 2) round-trip through the canonical
  // form but never change the execution identity: a high-priority
  // deadline-bearing request coalesces with its plain twin.
  svc::CampaignRequest req;
  req.circuit = "s298";
  req.priority = 9;
  req.deadline_ms = 1500;
  const svc::CampaignRequest back =
      svc::parse_request(req.canonical_json(), "test");
  EXPECT_EQ(back.priority, 9u);
  EXPECT_EQ(back.deadline_ms, 1500u);
  EXPECT_EQ(back.canonical_json(), req.canonical_json());

  svc::CampaignRequest plain;
  plain.circuit = "s298";
  EXPECT_EQ(svc::coalesce_key(req), svc::coalesce_key(plain));
}

TEST(SvcRequest, ParseLineDispatchesCancelStrictly) {
  const svc::ParsedLine req =
      svc::parse_line(R"({"schema":1,"circuit":"s27"})", "t");
  ASSERT_TRUE(req.request.has_value());
  EXPECT_FALSE(req.cancel.has_value());

  const svc::ParsedLine cancel =
      svc::parse_line(R"({"cancel":"q7"})", "t");
  ASSERT_TRUE(cancel.cancel.has_value());
  EXPECT_EQ(cancel.cancel->target, "q7");
  // The canonical form round-trips (the fuzz fixpoint contract).
  const svc::ParsedLine canon =
      svc::parse_line(cancel.cancel->canonical_json(), "t");
  ASSERT_TRUE(canon.cancel.has_value());
  EXPECT_EQ(canon.cancel->target, "q7");

  // Strict: no extra fields, a named target, version-gated schema.
  EXPECT_THROW(svc::parse_line(R"({"cancel":"q7","circuit":"s27"})", "t"),
               svc::RequestError);
  EXPECT_THROW(svc::parse_line(R"({"cancel":""})", "t"), svc::RequestError);
  EXPECT_THROW(svc::parse_line(R"({"schema":3,"cancel":"q7"})", "t"),
               svc::RequestError);
}

TEST(SvcRequest, CoalesceKeyNeutralizesScheduleOnlyFields) {
  const svc::CampaignRequest base = s27_request();
  const std::uint64_t key = svc::coalesce_key(base);

  svc::CampaignRequest same = base;
  same.id = "other-name";
  same.options.p2.sim_threads = 7;
  same.options.combo_jobs = 4;
  EXPECT_EQ(svc::coalesce_key(same), key);

  svc::CampaignRequest seed = base;
  seed.options.p2.base_seed ^= 1;
  EXPECT_NE(svc::coalesce_key(seed), key);
  svc::CampaignRequest combo = base;
  combo.n = 64;
  EXPECT_NE(svc::coalesce_key(combo), key);
  svc::CampaignRequest timing = base;
  timing.timing = true;  // timing changes stream bytes: never coalesce
  EXPECT_NE(svc::coalesce_key(timing), key);
}

TEST(SvcRequest, CoalesceKeyKeepsTheEngine) {
  // Every engine shares one store identity (same p2 options digest), but a
  // stream's fsim.* counters differ by engine, so requests that differ in
  // engine never share one execution.
  const svc::CampaignRequest base = s27_request();
  std::vector<std::uint64_t> keys;
  for (const fault::Engine engine :
       {fault::Engine::kConeDiff, fault::Engine::kFullSweep,
        fault::Engine::kPacked}) {
    svc::CampaignRequest req = base;
    req.options.p2.engine = engine;
    EXPECT_EQ(store::digest_p2_options(req.options.p2),
              store::digest_p2_options(base.options.p2));
    keys.push_back(svc::coalesce_key(req));
  }
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[0], keys[2]);
  EXPECT_NE(keys[1], keys[2]);
}

TEST(SvcRequest, DuplicateFieldCheckIsLinear) {
  // The first repeated key by position is the one reported.
  try {
    svc::parse_line(R"({"schema":1,"b":1,"a":1,"a":2,"b":2})", "t");
    FAIL() << "expected JsonError";
  } catch (const svc::JsonError& e) {
    EXPECT_STREQ(e.what(), "t: offset 27: duplicate field \"a\"");
  }
  // ~870 KB of distinct fields, under the default 1 MiB line cap: a
  // pairwise duplicate check costs tens of seconds of CPU here, a linear
  // one tens of milliseconds (sanitizers slow every allocation ~10x).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr auto kBudget = std::chrono::seconds(10);
#else
  constexpr auto kBudget = std::chrono::seconds(1);
#endif
  std::string line = R"({"schema":2)";
  for (int k = 0; k < 80000; ++k) {
    line += ",\"f" + std::to_string(k) + "\":1";
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(svc::parse_line(line + "}", "t"), svc::RequestError);
  try {
    svc::parse_line(line + R"(,"f0":2})", "t");
    FAIL() << "expected JsonError";
  } catch (const svc::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate field \"f0\""),
              std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, kBudget);
}

// ---- SvcSingleFlight -----------------------------------------------------

TEST(SvcSingleFlight, IdenticalRequestsShareOneExecution) {
  svc::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.autostart = false;  // queue everything first: coalescing is certain
  svc::CampaignService service(std::move(cfg));

  const svc::CampaignRequest req = s27_request();
  std::vector<std::shared_future<svc::CampaignResponse>> futures;
  for (int k = 0; k < 4; ++k) futures.push_back(service.submit(req));
  service.start();

  const Solo solo = solo_run(req);
  int leaders = 0;
  std::vector<std::string> ids;
  for (auto& f : futures) {
    const svc::CampaignResponse resp = f.get();
    ASSERT_TRUE(resp.ok) << resp.error;
    if (!resp.coalesced) ++leaders;
    ids.push_back(resp.id);
    // Every subscriber gets the same byte-exact stream a solo run makes.
    EXPECT_EQ(resp.stream, solo.stream);
    EXPECT_EQ(resp.detected, solo.row.result.total_detected);
    EXPECT_EQ(resp.total_cycles, solo.row.result.total_cycles());
    EXPECT_EQ(resp.complete, solo.row.found_complete);
  }
  EXPECT_EQ(leaders, 1);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"r0", "r1", "r2", "r3"}));

  const obs::CounterRegistry c = service.counters();
  EXPECT_EQ(c.value("svc.queued"), 1u);
  EXPECT_EQ(c.value("svc.admitted"), 1u);
  EXPECT_EQ(c.value("svc.coalesced"), 3u);
  EXPECT_EQ(c.value("svc.rejected"), 0u);
  // The fsim counters prove exactly one execution ran for all four.
  EXPECT_EQ(c.value("fsim.gate_evals"), solo.gate_evals);
}

// ---- SvcQueueFull --------------------------------------------------------

TEST(SvcQueueFull, AdmissionRejectsWithTypedErrorNeverHangs) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.autostart = false;
  svc::CampaignService service(std::move(cfg));

  auto first = service.submit(s27_request(16));  // occupies the only slot
  try {
    service.submit(s27_request(64));  // different key: needs a slot
    FAIL() << "expected QueueFullError";
  } catch (const svc::QueueFullError& e) {
    EXPECT_EQ(e.id, "r1");
    EXPECT_NE(std::string(e.what()).find("queue is full"), std::string::npos);
  }
  // A duplicate of the queued request still coalesces — subscribers do
  // not occupy queue slots.
  auto dup = service.submit(s27_request(16));
  EXPECT_EQ(service.counters().value("svc.rejected"), 1u);
  EXPECT_EQ(service.counters().value("svc.coalesced"), 1u);

  // The batch path converts the rejection into an immediate error
  // response future instead of throwing.
  auto futures = service.submit_batch({s27_request(64)});
  ASSERT_EQ(futures.size(), 1u);
  ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const svc::CampaignResponse rejected = futures[0].get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("queue is full"), std::string::npos);

  service.start();
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(dup.get().ok);
}

TEST(SvcQueueFull, ShutdownResolvesQueuedRequestsWithError) {
  svc::ServiceConfig cfg;
  cfg.autostart = false;  // never started: the request can never run
  svc::CampaignService service(std::move(cfg));
  auto f = service.submit(s27_request());
  service.shutdown();
  const svc::CampaignResponse resp = f.get();
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("stopped"), std::string::npos);
  EXPECT_THROW(service.submit(s27_request()), svc::ServiceStoppedError);
}

// ---- SvcResume -----------------------------------------------------------

TEST(SvcResume, KilledSessionResumesViaResumeFlag) {
  // s420 is random-resistant: with Procedure 2 cut to one D_1 = 1 sweep
  // no combination completes, so the cut session deterministically leaves
  // a partial campaign checkpoint behind (stands in for a killed serve).
  svc::CampaignRequest full_req;
  full_req.circuit = "s420";
  full_req.options.p2.d1_order = {1};
  full_req.options.p2.max_iterations = 1;
  full_req.options.p2.n_same_fc = 1;
  full_req.options.p2.sim_threads = 1;
  full_req.options.max_attempts = 4;
  full_req.options.max_combos_on_failure = 4;

  const Solo base = solo_run(full_req);
  ASSERT_FALSE(base.row.found_complete);
  ASSERT_EQ(base.row.attempts, 4u);

  const ScratchDir dir("resume");
  {
    // "Killed" serve session: two committed attempts, then gone.
    svc::ServiceConfig cfg;
    cfg.store_dir = dir.path();
    svc::CampaignService service(std::move(cfg));
    svc::CampaignRequest cut = full_req;
    cut.options.max_attempts = 2;
    const svc::CampaignResponse resp = service.run(cut);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.complete);
  }
  {
    // Restarted with resume: adopts the two attempts, runs the rest.
    svc::ServiceConfig cfg;
    cfg.store_dir = dir.path();
    cfg.resume = true;
    svc::CampaignService service(std::move(cfg));
    const svc::CampaignResponse resp = service.run(full_req);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.circuit, base.row.circuit);
    EXPECT_EQ(resp.la, base.row.combo.l_a);
    EXPECT_EQ(resp.lb, base.row.combo.l_b);
    EXPECT_EQ(resp.n, base.row.combo.n);
    EXPECT_EQ(resp.complete, base.row.found_complete);
    EXPECT_EQ(resp.attempts, base.row.attempts);
    EXPECT_EQ(resp.detected, base.row.result.total_detected);
    EXPECT_EQ(resp.total_cycles, base.row.result.total_cycles());

    const obs::CounterRegistry c = service.counters();
    EXPECT_GE(c.value("store.resumes"), 1u);
    // The adopted prefix was not re-simulated.
    EXPECT_LT(c.value("fsim.gate_evals"), base.gate_evals);

    // The resumed stream is a strict suffix of the uninterrupted one:
    // adopted attempts replay silently, the continuation is bytewise
    // identical.
    const auto keep = {"ts0",     "sweep",         "id1_pair",
                       "summary", "combo_attempt", "result"};
    const auto base_lines = filter_lines(base.stream, keep);
    const auto resume_lines = filter_lines(resp.stream, keep);
    EXPECT_LT(resume_lines.size(), base_lines.size());
    EXPECT_TRUE(is_suffix(resume_lines, base_lines));
  }
}

// ---- SvcStore: one artifact identity for every engine --------------------

TEST(SvcStore, AnyEngineRerunIsAFullCacheHit) {
  const ScratchDir dir("engines");
  svc::ServiceConfig cfg;
  cfg.store_dir = dir.path();
  svc::CampaignService service(std::move(cfg));
  svc::CampaignRequest req;
  req.id = "e";
  req.circuit = "s27";
  req.options.p2.sim_threads = 1;
  req.options.p2.engine = fault::Engine::kConeDiff;
  const svc::CampaignResponse cold = service.run(req);
  ASSERT_TRUE(cold.ok) << cold.error;

  const auto counter = [](const svc::CampaignResponse& resp,
                          const std::string& name) {
    for (const auto& [k, v] : resp.counters) {
      if (k == name) return v;
    }
    return std::uint64_t{0};
  };
  EXPECT_GT(counter(cold, "fsim.gate_evals"), 0u);
  for (const fault::Engine engine :
       {fault::Engine::kFullSweep, fault::Engine::kPacked}) {
    req.options.p2.engine = engine;
    const svc::CampaignResponse warm = service.run(req);
    ASSERT_TRUE(warm.ok) << warm.error;
    const char* name = fault::engine_name(engine);
    EXPECT_EQ(counter(warm, "fsim.gate_evals"), 0u) << name;
    EXPECT_EQ(counter(warm, "store.cache_hit"), 1u) << name;
    EXPECT_EQ(warm.to_json(), cold.to_json()) << name;
    ASSERT_EQ(warm.applied.size(), cold.applied.size()) << name;
    for (std::size_t k = 0; k < cold.applied.size(); ++k) {
      EXPECT_EQ(warm.applied[k].d1, cold.applied[k].d1) << name;
      EXPECT_EQ(warm.applied[k].detected, cold.applied[k].detected) << name;
      EXPECT_EQ(warm.applied[k].cycles, cold.applied[k].cycles) << name;
    }
  }
  // TS_0 is regenerated from its seed, never stored.
  for (const auto& ent : fs::recursive_directory_iterator(dir.path())) {
    EXPECT_NE(ent.path().filename().string().rfind("ts0-", 0), 0u)
        << ent.path();
  }
}

// ---- SvcAcceptance -------------------------------------------------------

TEST(SvcAcceptance, BatchOf32CoalescesToEightExecutions) {
  // 8 distinct requests (4 cheap s27 pins, 4 bounded s298 pins)...
  std::vector<svc::CampaignRequest> distinct;
  for (const auto [la, lb, n] :
       {std::array<std::uint64_t, 3>{8, 16, 16}, {8, 16, 64},
        {8, 32, 16}, {8, 32, 64}}) {
    svc::CampaignRequest req = s27_request();
    req.la = la;
    req.lb = lb;
    req.n = n;
    distinct.push_back(std::move(req));
  }
  for (const auto [la, lb, n] :
       {std::array<std::uint64_t, 3>{8, 16, 64}, {8, 32, 64},
        {16, 16, 64}, {8, 16, 128}}) {
    svc::CampaignRequest req;
    req.circuit = "s298";
    req.la = la;
    req.lb = lb;
    req.n = n;
    req.options.p2.sim_threads = 1;
    req.options.p2.max_iterations = 6;  // bounded: incomplete rows are fine
    distinct.push_back(std::move(req));
  }

  // ...against a warm sharded store.
  const ScratchDir dir("accept");
  {
    store::ArtifactStore warmup(dir.path());
    for (const svc::CampaignRequest& req : distinct) {
      solo_run(req, &warmup);
    }
  }
  // Solo oracle streams against the warm store (pure cache reads).
  std::vector<Solo> solos;
  {
    store::ArtifactStore warm(dir.path());
    for (const svc::CampaignRequest& req : distinct) {
      solos.push_back(solo_run(req, &warm));
      EXPECT_EQ(solos.back().gate_evals, 0u) << "store should be warm";
    }
  }

  // 32 requests: 8 distinct x 4 duplicates, interleaved.
  std::vector<svc::CampaignRequest> batch;
  for (int dup = 0; dup < 4; ++dup) {
    for (const svc::CampaignRequest& req : distinct) batch.push_back(req);
  }
  svc::ServiceConfig cfg;
  cfg.store_dir = dir.path();
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.autostart = false;
  svc::CampaignService service(std::move(cfg));
  auto futures = service.submit_batch(std::move(batch));
  service.start();

  ASSERT_EQ(futures.size(), 32u);
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const svc::CampaignResponse resp = futures[k].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    // Byte-identical to the solo run of the same request.
    EXPECT_EQ(resp.stream, solos[k % 8].stream) << "request " << k;
    EXPECT_EQ(resp.detected, solos[k % 8].row.result.total_detected);
  }
  const obs::CounterRegistry c = service.counters();
  EXPECT_EQ(c.value("svc.queued"), 8u);     // one leader per distinct key
  EXPECT_LE(c.value("svc.admitted"), 8u);   // <= 8 executions
  EXPECT_EQ(c.value("svc.coalesced"), 24u);
  EXPECT_EQ(c.value("svc.rejected"), 0u);
  EXPECT_EQ(c.value("fsim.gate_evals"), 0u);  // warm: no simulation at all
}

// ---- SvcWorkbenchCache ---------------------------------------------------

/// True when no svc.workbench_* counter leaked into the response: its
/// stream, envelope and counters must not depend on whether its
/// Workbench was built or borrowed.
bool free_of_cache_counters(const svc::CampaignResponse& resp) {
  return resp.stream.find("workbench") == std::string::npos &&
         resp.to_json().find("workbench") == std::string::npos &&
         std::none_of(resp.counters.begin(), resp.counters.end(),
                      [](const auto& c) {
                        return c.first.find("workbench") != std::string::npos;
                      });
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::trunc) << text;
}

/// Holds an execution at its first progress update (Workbench in hand)
/// until release().
class Gate final : public obs::ProgressObserver {
 public:
  void update(const obs::Progress& /*p*/) override {
    std::unique_lock<std::mutex> lk(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return released_; });
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// Releases a Gate on scope exit; declared after the service, so a failed
/// assertion cannot leave the service's destructor waiting on the gate.
struct GateRelease {
  Gate& gate;
  ~GateRelease() { gate.release(); }
};

TEST(SvcWorkbenchCache, DistinctSeedsShareOneBuild) {
  // 8 campaigns on one circuit that differ only in base_seed; 4 workers
  // claim the first 4 at once, so the misses race on one key.
  std::vector<svc::CampaignRequest> reqs;
  for (std::uint64_t k = 0; k < 8; ++k) {
    svc::CampaignRequest req;
    req.circuit = "s298";
    req.la = 8;
    req.lb = 16;
    req.n = 64;
    req.options.p2.sim_threads = 1;
    req.options.p2.max_iterations = 6;
    req.options.p2.base_seed = 1000 + k;
    reqs.push_back(std::move(req));
  }
  svc::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.autostart = false;
  svc::CampaignService service(std::move(cfg));
  auto futures = service.submit_batch(reqs);
  service.start();

  for (std::size_t k = 0; k < futures.size(); ++k) {
    const svc::CampaignResponse resp = futures[k].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.coalesced);
    // Same bytes as a solo run on a Workbench of its own.
    const Solo solo = solo_run(reqs[k]);
    EXPECT_EQ(resp.stream, solo.stream) << "request " << k;
    EXPECT_EQ(resp.detected, solo.row.result.total_detected);
    EXPECT_EQ(resp.total_cycles, solo.row.result.total_cycles());
    EXPECT_TRUE(free_of_cache_counters(resp)) << "request " << k;
  }
  const obs::CounterRegistry c = service.counters();
  EXPECT_EQ(c.value("svc.workbench_builds"), 1u);
  EXPECT_EQ(c.value("svc.workbench_hits"), 7u);
  EXPECT_EQ(c.value("svc.workbench_evictions"), 0u);
}

TEST(SvcWorkbenchCache, EveryKeyFieldGetsItsOwnBuild) {
  svc::CampaignService service(svc::ServiceConfig{});
  const svc::CampaignRequest base = s27_request();
  std::vector<svc::CampaignRequest> variants(6, base);
  variants[1].circuit = "s208";
  variants[2].options.detect.random_rounds = 8;
  variants[3].options.detect.seed ^= 1;
  variants[4].options.detect.backtrack_limit = 100;
  variants[5].options.prune_untestable = true;
  for (const svc::CampaignRequest& req : variants) {
    const svc::CampaignResponse resp = service.run(req);
    ASSERT_TRUE(resp.ok) << resp.error;
  }
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), 6u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 0u);

  // Fields the Workbench never reads share the base entry.
  svc::CampaignRequest other = base;
  other.n = 64;
  other.options.p2.base_seed ^= 1;
  other.options.p2.engine = fault::Engine::kPacked;
  other.options.max_attempts = 3;
  const svc::CampaignResponse resp = service.run(other);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.stream, solo_run(other).stream);
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), 6u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 1u);
}

TEST(SvcWorkbenchCache, RewrittenBenchFileIsRebuilt) {
  // Same path, same name, same interface, one gate changed.
  const std::string original =
      netlist::write_bench(gen::make_circuit("s27"));
  std::string edited = original;
  const std::string gate = "G9 = NAND(G16, G15)";
  const std::size_t at = edited.find(gate);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, gate.size(), "G9 = AND(G16, G15)");

  const ScratchDir dir("bench");
  svc::CampaignRequest req = s27_request();
  req.circuit = dir.path() + "/edited.bench";
  svc::CampaignService service(svc::ServiceConfig{});
  write_file(req.circuit, original);
  ASSERT_TRUE(service.run(req).ok);
  write_file(req.circuit, edited);
  const svc::CampaignResponse resp = service.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;

  const Solo solo = solo_run(req);  // of the edited file
  EXPECT_EQ(resp.stream, solo.stream);
  EXPECT_EQ(resp.targets, solo.row.target_faults);
  EXPECT_EQ(resp.detected, solo.row.result.total_detected);
  EXPECT_EQ(resp.total_cycles, solo.row.result.total_cycles());
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), 2u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 0u);

  // Unchanged content is a hit.
  ASSERT_TRUE(service.run(req).ok);
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), 2u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 1u);
}

TEST(SvcWorkbenchCache, FailuresAreNeverCached) {
  svc::CampaignService service(svc::ServiceConfig{});
  svc::CampaignRequest unknown = s27_request();
  unknown.circuit = "no-such-circuit";
  for (int k = 0; k < 2; ++k) {
    const svc::CampaignResponse resp = service.run(unknown);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, svc::error_code::kRequest);
  }
  // Rejected before any cache lookup: no entry, no build.
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), 0u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 0u);

  // A .bench file that parses but cannot compile: the build itself
  // throws and is not cached, so the retry builds (and fails) again.
  const ScratchDir dir("loop");
  svc::CampaignRequest loop = s27_request();
  loop.circuit = dir.path() + "/loop.bench";
  write_file(loop.circuit,
             "INPUT(a)\nOUTPUT(z)\nx = AND(a, y)\ny = OR(x, a)\n"
             "z = NOT(y)\n");
  for (int k = 0; k < 2; ++k) {
    const svc::CampaignResponse resp = service.run(loop);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, svc::error_code::kRun);
    EXPECT_NE(resp.error.find("combinational cycle"), std::string::npos)
        << resp.error;
  }
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), 2u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 0u);
}

TEST(SvcWorkbenchCache, FailedBuildReachesEveryWaiter) {
  const ScratchDir dir("waiters");
  const std::string path = dir.path() + "/loop.bench";
  write_file(path, "INPUT(a)\nOUTPUT(z)\nx = AND(a, y)\ny = OR(x, a)\n"
                   "z = NOT(y)\n");
  std::vector<svc::CampaignRequest> reqs;
  for (std::uint64_t k = 0; k < 4; ++k) {
    svc::CampaignRequest req = s27_request();
    req.circuit = path;
    req.options.p2.base_seed = 1000 + k;
    reqs.push_back(std::move(req));
  }
  svc::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.autostart = false;
  svc::CampaignService service(std::move(cfg));
  auto futures = service.submit_batch(std::move(reqs));
  service.start();
  for (auto& f : futures) {
    const svc::CampaignResponse resp = f.get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, svc::error_code::kRun);
    EXPECT_NE(resp.error.find("combinational cycle"), std::string::npos)
        << resp.error;
  }
  // Whether a request waited on another's build or started its own, it
  // got the error.
  const std::uint64_t builds = service.counters().value("svc.workbench_builds");
  const std::uint64_t hits = service.counters().value("svc.workbench_hits");
  EXPECT_GE(builds, 1u);
  EXPECT_EQ(builds + hits, 4u);
  // Nothing stayed cached: the next request builds again.
  svc::CampaignRequest retry = s27_request();
  retry.circuit = path;
  EXPECT_FALSE(service.run(retry).ok);
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), builds + 1);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), hits);
}

TEST(SvcWorkbenchCache, EvictsLeastRecentlyUsedBeyondCap) {
  constexpr std::size_t kCap = svc::CampaignService::kMaxCachedWorkbenches;
  const auto seeded = [](std::uint64_t k) {
    svc::CampaignRequest req = s27_request();
    req.options.detect.seed = 100 + k;
    return req;
  };
  svc::ServiceConfig cfg;
  cfg.workers = 2;
  svc::CampaignService service(std::move(cfg));
  Gate gate;
  const GateRelease release{gate};

  // Key 0 is built first and then held mid-run, so it is both the least
  // recently used entry and still in use when key kCap arrives.
  auto held = service.submit(seeded(0), &gate);
  gate.wait_entered();
  std::vector<std::shared_future<svc::CampaignResponse>> rest;
  for (std::uint64_t k = 1; k <= kCap; ++k) {
    rest.push_back(service.submit(seeded(k)));
  }
  for (auto& f : rest) ASSERT_TRUE(f.get().ok);
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), kCap + 1);
  EXPECT_EQ(service.counters().value("svc.workbench_evictions"), 1u);

  gate.release();
  const svc::CampaignResponse resp = held.get();
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.stream, solo_run(seeded(0)).stream);

  // The evicted key is rebuilt, pushing out the next-oldest.
  ASSERT_TRUE(service.run(seeded(0)).ok);
  EXPECT_EQ(service.counters().value("svc.workbench_builds"), kCap + 2);
  EXPECT_EQ(service.counters().value("svc.workbench_evictions"), 2u);
  EXPECT_EQ(service.counters().value("svc.workbench_hits"), 0u);
}

}  // namespace
}  // namespace rls
