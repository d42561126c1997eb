#include "svc/service.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>

#include "core/campaign.hpp"
#include "core/run_context.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "store/checkpoint.hpp"
#include "store/serde.hpp"

namespace rls::svc {

namespace {

/// Accumulates the deterministic JSONL stream in memory, byte-identical
/// to what obs::JsonlSink writes to a file for the same events.
class StringSink final : public obs::TraceSink {
 public:
  void write(const obs::TraceEvent& ev) override {
    out_ += obs::to_jsonl(ev);
    out_.push_back('\n');
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

netlist::Netlist load_bench(const std::string& path) {
  if (!std::ifstream(path).good()) {
    throw RequestError(
        "'" + path +
        "' is neither a known circuit (see `rls list`) nor a readable "
        ".bench file");
  }
  return netlist::load_bench_file(path);
}

CampaignResponse error_response(RequestId id, std::string what,
                                const char* code = error_code::kRun,
                                std::uint64_t retry_hint = 0) {
  CampaignResponse resp;
  resp.id = std::move(id);
  resp.ok = false;
  resp.error = std::move(what);
  resp.error_code = code;
  resp.retry_after_hint = retry_hint;
  return resp;
}

/// Deterministic client back-off suggestion: scales with how deep the
/// queue was when the request bounced, so herds thin out instead of
/// hammering a full service in lockstep.
std::uint64_t retry_hint_ms(std::size_t queue_depth) {
  return 25 * (static_cast<std::uint64_t>(queue_depth) + 1);
}

}  // namespace

CampaignService::CampaignService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.queue_capacity == 0) {
    throw std::invalid_argument(
        "campaign service queue capacity must be nonzero (a service that "
        "can admit nothing rejects every request)");
  }
  if (cfg_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.workers = hw > 0 ? hw : 1;
  }
  if (!cfg_.store_dir.empty()) {
    astore_ = std::make_unique<store::ArtifactStore>(cfg_.store_dir);
  }
  if (cfg_.autostart) start();
}

CampaignService::~CampaignService() { shutdown(); }

void CampaignService::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  scheduler_ = std::thread([this] {
    // step() never throws (every execution is fenced), but the pool's
    // first-exception rethrow must not escape a detached-context thread.
    try {
      pool_.run_tasks(cfg_.workers, [this](unsigned w) { return step(w); });
    } catch (...) {
    }
  });
}

std::shared_future<CampaignResponse> CampaignService::submit_locked(
    CampaignRequest&& req, obs::ProgressObserver* progress,
    CompletionHook on_complete) {
  if (stopping_) throw ServiceStoppedError();
  if (req.id.empty()) req.id = "r" + std::to_string(next_id_++);

  Subscriber sub;
  sub.id = req.id;
  if (req.deadline_ms > 0) {
    sub.has_deadline = true;
    sub.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(req.deadline_ms);
  }
  sub.promise = std::make_shared<std::promise<CampaignResponse>>();
  sub.future = sub.promise->get_future().share();
  sub.on_complete = std::move(on_complete);

  const std::uint64_t key = coalesce_key(req);
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    sub.coalesced = true;
    const std::uint64_t priority = req.priority;
    it->second->subscribers.push_back(sub);
    // A higher-priority subscriber promotes the whole queued execution
    // (a no-op when it is already running or already higher).
    if (priority > it->second->priority) promote_locked(it->second, priority);
    counters_.add("svc.coalesced", 1);
    return sub.future;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    counters_.add("svc.rejected", 1);
    throw QueueFullError(sub.id, retry_hint_ms(queue_.size()));
  }
  std::shared_future<CampaignResponse> future = sub.future;
  auto ex = std::make_shared<Execution>();
  ex->key = key;
  ex->leader_id = req.id;
  ex->priority = req.priority;
  ex->seq = next_seq_++;
  ex->progress = progress;
  ex->req = std::move(req);
  ex->subscribers.push_back(std::move(sub));
  inflight_.emplace(key, ex);
  enqueue_locked(std::move(ex));
  counters_.add("svc.queued", 1);
  cv_.notify_one();
  return future;
}

void CampaignService::enqueue_locked(std::shared_ptr<Execution> ex) {
  // Stable priority order: higher priority first, admission sequence
  // within a priority. upper_bound keeps equal-priority FIFO.
  const auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), ex,
      [](const std::shared_ptr<Execution>& a,
         const std::shared_ptr<Execution>& b) {
        if (a->priority != b->priority) return a->priority > b->priority;
        return a->seq < b->seq;
      });
  queue_.insert(pos, std::move(ex));
}

void CampaignService::promote_locked(const std::shared_ptr<Execution>& ex,
                                     std::uint64_t priority) {
  const auto it = std::find(queue_.begin(), queue_.end(), ex);
  ex->priority = priority;
  if (it == queue_.end()) return;  // already claimed by a worker
  queue_.erase(it);
  enqueue_locked(ex);
}

std::shared_future<CampaignResponse> CampaignService::submit(
    CampaignRequest req, obs::ProgressObserver* progress,
    CompletionHook on_complete) {
  std::lock_guard<std::mutex> lk(mu_);
  return submit_locked(std::move(req), progress, std::move(on_complete));
}

std::vector<std::shared_future<CampaignResponse>>
CampaignService::submit_batch(std::vector<CampaignRequest> reqs) {
  std::vector<std::shared_future<CampaignResponse>> futures;
  futures.reserve(reqs.size());
  std::lock_guard<std::mutex> lk(mu_);
  for (CampaignRequest& req : reqs) {
    try {
      futures.push_back(submit_locked(std::move(req), nullptr, nullptr));
    } catch (const QueueFullError& e) {
      auto p = std::make_shared<std::promise<CampaignResponse>>();
      auto f = p->get_future().share();
      p->set_value(error_response(e.id, e.what(), error_code::kQueueFull,
                                  e.retry_after_hint));
      futures.push_back(std::move(f));
    } catch (const std::exception& e) {
      auto p = std::make_shared<std::promise<CampaignResponse>>();
      auto f = p->get_future().share();
      p->set_value(
          error_response(req.id, e.what(), error_code::kStopped));
      futures.push_back(std::move(f));
    }
  }
  cv_.notify_all();
  return futures;
}

CampaignResponse CampaignService::run(CampaignRequest req,
                                      obs::ProgressObserver* progress) {
  start();
  return submit(std::move(req), progress).get();
}

bool CampaignService::step(unsigned /*worker*/) {
  std::shared_ptr<Execution> ex;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // stopping and drained: park
    ex = queue_.front();
    queue_.pop_front();
    // Claim-time deadline check: subscribers whose queue deadline has
    // already passed get a typed error instead of a late result. If
    // nobody is left the campaign is not worth running at all.
    std::vector<Subscriber> expired;
    const auto now = std::chrono::steady_clock::now();
    auto& subs = ex->subscribers;
    for (auto it = subs.begin(); it != subs.end();) {
      if (it->has_deadline && it->deadline < now) {
        expired.push_back(std::move(*it));
        it = subs.erase(it);
      } else {
        ++it;
      }
    }
    if (!expired.empty()) {
      counters_.add("svc.deadline_expired", expired.size());
    }
    if (subs.empty()) {
      inflight_.erase(ex->key);
      ex.reset();
    } else {
      counters_.add("svc.admitted", 1);
    }
    lk.unlock();
    for (Subscriber& sub : expired) {
      resolve(sub, error_response(sub.id,
                                  "queue deadline exceeded before a worker "
                                  "claimed the request",
                                  error_code::kDeadline));
    }
    if (!ex) return true;
  }
  CampaignResponse base;
  try {
    base = execute(*ex);
  } catch (const std::exception& e) {
    base = error_response(ex->leader_id, e.what());
  } catch (...) {
    base = error_response(ex->leader_id, "unknown execution error");
  }
  finish(ex, std::move(base));
  return true;
}

CampaignService::WorkbenchPtr CampaignService::workbench(
    const CampaignRequest& req) {
  // A registry circuit is a pure function of its name. A .bench file is
  // keyed by the content of this request's fresh parse, so an edited file
  // never hits a stale entry.
  std::optional<netlist::Netlist> parsed;
  std::uint64_t digest = 0;
  if (!gen::is_known_circuit(req.circuit)) {
    parsed.emplace(load_bench(req.circuit));
    digest = store::digest_circuit(*parsed);
  }
  const atpg::DetectabilityOptions& det = req.options.detect;
  const WorkbenchKey key{parsed ? std::string() : req.circuit,
                         digest,
                         det.random_rounds,
                         det.seed,
                         det.backtrack_limit,
                         req.options.prune_untestable};
  std::promise<WorkbenchBuild> built;
  std::uint64_t build = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    const auto [it, inserted] = workbenches_.try_emplace(key);
    it->second.last_use = ++workbench_clock_;
    if (!inserted) {
      counters_.add("svc.workbench_hits", 1);
      const std::shared_future<WorkbenchBuild> borrowed = it->second.built;
      lk.unlock();
      // Waits on an in-flight build. A failed build hands its waiters its
      // error text rather than one exception object that several worker
      // threads would rethrow and release at once.
      const WorkbenchBuild& b = borrowed.get();
      if (!b.workbench) throw std::runtime_error(b.error);
      return b.workbench;
    }
    it->second.built = built.get_future().share();
    it->second.build = build = workbench_clock_;
    counters_.add("svc.workbench_builds", 1);
    if (workbenches_.size() > kMaxCachedWorkbenches) {
      const auto lru = std::min_element(
          workbenches_.begin(), workbenches_.end(),
          [](const auto& a, const auto& b) {
            return a.second.last_use < b.second.last_use;
          });
      workbenches_.erase(lru);
      counters_.add("svc.workbench_evictions", 1);
    }
  }
  const auto fail = [&](std::string error) {
    {
      // Uncache before waking the waiters, so a retry builds afresh; an
      // entry with another build tick replaced this one after eviction.
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = workbenches_.find(key);
      if (it != workbenches_.end() && it->second.build == build) {
        workbenches_.erase(it);
      }
    }
    built.set_value({nullptr, std::move(error)});
  };
  try {
    WorkbenchPtr wb =
        parsed ? std::make_shared<const core::Workbench>(std::move(*parsed),
                                                         req.options)
               : std::make_shared<const core::Workbench>(req.circuit,
                                                         req.options);
    built.set_value({wb, {}});
    return wb;
  } catch (const std::exception& e) {
    fail(e.what());
    throw;
  } catch (...) {
    fail("unknown Workbench build error");
    throw;
  }
}

CampaignResponse CampaignService::execute(const Execution& ex) {
  CampaignResponse resp;
  try {
    core::RunContext ctx(ex.req.options);
    // Service workers multiply: without an explicit thread count, keep
    // each execution's inner fault simulation serial so workers x
    // sim_threads does not oversubscribe the machine. (Thread counts
    // never change results or stream bytes.)
    if (ctx.options.p2.sim_threads == 0 &&
        (cfg_.workers > 1 || ctx.options.combo_jobs != 1)) {
      ctx.options.p2.sim_threads = 1;
    }
    ctx.set_timing(ex.req.timing);
    ctx.set_request_id(ex.leader_id);
    if (ex.progress != nullptr) ctx.set_progress(ex.progress);
    StringSink sink;
    ctx.set_sink(&sink);

    const WorkbenchPtr borrowed = workbench(ex.req);
    const core::Workbench& wb = *borrowed;
    if (ctx.options.prune_untestable && wb.sta_report() != nullptr) {
      // Thread the sta prune mask into every Procedure 2 invocation (the
      // speculative sweep's children share the same Procedure2Options),
      // and surface the analysis in the stream and counters. When the
      // flag is off none of this runs, so the stream stays byte-identical
      // to pre-sta builds.
      ctx.options.p2.prune_mask = wb.target_prune_mask();
      ctx.emit(analysis::sta_trace_event(*wb.sta_report(), *wb.sta_classes(),
                                         wb.universe().size()));
      analysis::add_sta_counters(ctx.counters(), *wb.sta_report(),
                                 *wb.sta_classes());
    }
    std::unique_ptr<store::CampaignStore> cstore;
    if (astore_) {
      cstore = std::make_unique<store::CampaignStore>(
          *astore_, wb.nl(), wb.target_faults(), cfg_.resume);
      ctx.set_store(cstore.get());
    }
    const core::ExperimentRow row =
        (ex.req.la != 0 && ex.req.lb != 0 && ex.req.n != 0)
            ? core::run_single_combo(
                  wb,
                  core::Combo{static_cast<std::size_t>(ex.req.la),
                              static_cast<std::size_t>(ex.req.lb),
                              static_cast<std::size_t>(ex.req.n), 0},
                  ctx)
            : core::run_first_complete(wb, ctx);
    ctx.emit_counters();

    resp.ok = true;
    resp.circuit = row.circuit;
    resp.la = row.combo.l_a;
    resp.lb = row.combo.l_b;
    resp.n = row.combo.n;
    resp.ncyc0 = row.combo.ncyc0;
    resp.complete = row.found_complete;
    resp.detected = row.result.total_detected;
    resp.targets = row.target_faults;
    resp.attempts = row.attempts;
    resp.applications = row.result.num_applications();
    resp.total_cycles = row.result.total_cycles();
    resp.ts0_detected = row.result.ts0_detected;
    resp.ls = row.result.average_limited_scan_units();
    resp.applied.reserve(row.result.applied.size());
    for (const core::AppliedSet& a : row.result.applied) {
      resp.applied.push_back({a.iteration, a.d1, a.detected, a.cycles});
    }
    resp.stream = sink.take();
    resp.counters = ctx.counters().snapshot();
    {
      std::lock_guard<std::mutex> lk(mu_);
      counters_.merge(ctx.counters());
    }
  } catch (const RequestError& e) {
    resp = error_response(ex.leader_id, e.what(), error_code::kRequest);
  } catch (const std::exception& e) {
    resp = error_response(ex.leader_id, e.what());
  }
  return resp;
}

CampaignService::CancelResult CampaignService::cancel(const RequestId& id) {
  Subscriber cancelled;
  bool found_queued = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto qit = queue_.begin(); qit != queue_.end() && !found_queued;
         ++qit) {
      auto& subs = (*qit)->subscribers;
      for (auto sit = subs.begin(); sit != subs.end(); ++sit) {
        if (sit->id != id) continue;
        cancelled = std::move(*sit);
        subs.erase(sit);
        found_queued = true;
        if (subs.empty()) {
          // Last subscriber gone: the campaign has no audience, drop the
          // execution entirely (frees its queue slot).
          inflight_.erase((*qit)->key);
          queue_.erase(qit);
        }
        break;
      }
    }
    if (found_queued) {
      counters_.add("svc.cancelled", 1);
    } else {
      // Claimed or finished executions still sit in inflight_ until
      // finish(); a subscriber there is running, not cancellable.
      for (const auto& [key, ex] : inflight_) {
        for (const Subscriber& sub : ex->subscribers) {
          if (sub.id == id) return CancelResult::kRunning;
        }
      }
      return CancelResult::kNotFound;
    }
  }
  resolve(cancelled, error_response(cancelled.id,
                                    "request cancelled while queued",
                                    error_code::kCancelled));
  return CancelResult::kCancelled;
}

std::vector<RequestId> CampaignService::queued_order() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<RequestId> ids;
  ids.reserve(queue_.size());
  for (const std::shared_ptr<Execution>& ex : queue_) {
    ids.push_back(ex->leader_id);
  }
  return ids;
}

void CampaignService::finish(const std::shared_ptr<Execution>& ex,
                             CampaignResponse base) {
  std::vector<Subscriber> subs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    inflight_.erase(ex->key);
    subs = std::move(ex->subscribers);
  }
  for (Subscriber& sub : subs) {
    CampaignResponse resp = base;
    resp.id = sub.id;
    resp.coalesced = sub.coalesced;
    resolve(sub, std::move(resp));
  }
  if (astore_ && cfg_.gc_shard_bytes > 0) collect_one_shard();
}

void CampaignService::resolve(Subscriber& sub, CampaignResponse resp) {
  try {
    sub.promise->set_value(std::move(resp));
  } catch (const std::future_error&) {
    return;  // already satisfied (double shutdown): nothing to deliver
  }
  if (sub.on_complete) sub.on_complete();
}

void CampaignService::collect_one_shard() {
  unsigned shard = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    shard = gc_cursor_++ % store::ArtifactStore::kNumShards;
  }
  const store::ArtifactStore::GcStats stats =
      astore_->gc_shard(shard, cfg_.gc_shard_bytes);
  if (stats.removed_files > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    counters_.add("svc.gc_evictions", stats.removed_files);
  }
}

void CampaignService::stop(const char* code) {
  // Unclaimed executions come off the queue first: a worker that wakes
  // up sees an empty queue and parks, while the executions it already
  // claimed run to completion (and reach their terminal checkpoints —
  // the restart-with-resume contract).
  std::deque<std::shared_ptr<Execution>> unclaimed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    unclaimed.swap(queue_);
    for (const std::shared_ptr<Execution>& ex : unclaimed) {
      inflight_.erase(ex->key);
    }
    if (!unclaimed.empty()) {
      counters_.add("svc.drained", unclaimed.size());
    }
  }
  cv_.notify_all();
  const bool draining = std::strcmp(code, error_code::kDrained) == 0;
  const char* what = draining
                         ? "campaign service drained before execution "
                           "(server shutting down; resubmit after restart)"
                         : "campaign service stopped before execution";
  for (const std::shared_ptr<Execution>& ex : unclaimed) {
    for (Subscriber& sub : ex->subscribers) {
      resolve(sub, error_response(sub.id, what, code,
                                  draining ? retry_hint_ms(0) : 0));
    }
  }
  // drain() and the destructor's shutdown() run sequentially on the
  // owner's thread; join is a no-op the second time.
  if (scheduler_.joinable()) scheduler_.join();
}

void CampaignService::drain() { stop(error_code::kDrained); }

void CampaignService::shutdown() { stop(error_code::kStopped); }

obs::CounterRegistry CampaignService::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

}  // namespace rls::svc
