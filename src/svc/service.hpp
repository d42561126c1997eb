// CampaignService — queued concurrent campaign execution over a shared
// sharded artifact store (DESIGN.md §12).
//
// The service owns three pieces:
//   * a bounded admission queue — submit() returns a future, or throws
//     the typed QueueFullError when the queue is at capacity (callers
//     never hang on admission);
//   * an execution scheduler — a dedicated thread drives
//     sim::WorkerPool::run_tasks(workers, step), each worker claiming
//     queued executions until shutdown;
//   * a shared store::ArtifactStore (sharded layout) + per-execution
//     store::CampaignStore bindings, with an optional round-robin
//     per-shard gc byte budget applied after each execution.
//
// Single-flight dedup: requests whose coalesce_key() matches an
// execution that is queued or in flight attach as subscribers instead of
// occupying a queue slot — one campaign runs, every subscriber receives
// the same result row and the same byte-exact JSONL stream. Counters
// (svc.queued / svc.admitted / svc.coalesced / svc.rejected /
// svc.cancelled / svc.deadline_expired / svc.gc_evictions, plus the
// merged per-execution fsim.*/store.* registries) make the dedup
// observable and testable.
//
// Scheduling (schema 2, PR 10): the admission queue is a *stable
// priority queue* — executions sorted by descending priority, admission
// order within a priority (a coalescing subscriber with a higher
// priority promotes the queued execution). Cancellation and deadlines
// are queue-level: cancel(id) aborts a still-queued subscriber with a
// typed "cancelled" response, and a subscriber whose deadline_ms has
// passed when a worker claims its execution gets a typed
// "deadline_exceeded" response; once a worker claims an execution it
// always runs to completion (coalescing semantics stay intact, and a
// claimed run always reaches its terminal checkpoint).
//
// Workbench cache: an execution borrows its circuit's core::Workbench
// (netlist, compiled circuit, classified target faults) from a
// per-service LRU cache of immutable Workbenches instead of re-running the
// random PPSFP + PODEM classification for every request. Builds are
// single-flight; see workbench() below. svc.workbench_builds / _hits /
// _evictions count it on counters() only, never on a request's own
// registry, so a stream and its envelope are the same bytes whether the
// Workbench was built or borrowed.
//
// Determinism: executions run with wall-clock stamping off unless the
// request opts in, so a response stream is byte-identical to a solo
// `rls run` of the same options against the same store state.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "sim/worker_pool.hpp"
#include "store/artifact_store.hpp"
#include "svc/request.hpp"

namespace rls::core {
class Workbench;
}  // namespace rls::core

namespace rls::svc {

struct ServiceConfig {
  /// Artifact store directory; empty disables persistence entirely.
  std::string store_dir;
  /// Concurrent campaign executions (0 = hardware concurrency).
  unsigned workers = 1;
  /// Admission queue capacity (leaders only; coalesced subscribers do
  /// not occupy slots). Must be nonzero — a service that can admit
  /// nothing is a misconfiguration, rejected in the constructor.
  std::size_t queue_capacity = 64;
  /// Adopt partial checkpoints from the store (killed-serve recovery).
  bool resume = false;
  /// Per-shard gc byte budget, applied round-robin one shard after each
  /// execution (0 = never collect).
  std::uint64_t gc_shard_bytes = 0;
  /// Spawn the scheduler in the constructor. Tests set false, enqueue a
  /// deterministic backlog, then call start().
  bool autostart = true;
};

/// Typed admission rejection: the queue was full at submit() time.
/// Carries a deterministic back-off hint (proportional to the queue
/// depth at rejection) that the service surfaces as the envelope's
/// `retry_after_hint` field.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError(RequestId request_id, std::uint64_t retry_hint_ms)
      : std::runtime_error("campaign service queue is full (request \"" +
                           request_id + "\" rejected)"),
        id(std::move(request_id)),
        retry_after_hint(retry_hint_ms) {}
  const RequestId id;
  const std::uint64_t retry_after_hint;  ///< suggested back-off (ms)
};

/// Submitting to a service that is shutting down.
class ServiceStoppedError : public std::runtime_error {
 public:
  ServiceStoppedError()
      : std::runtime_error("campaign service is shutting down") {}
};

class CampaignService {
 public:
  /// Workbench cache capacity; the least recently used entry beyond it is
  /// evicted. The registry has 25 circuits and the largest Workbench
  /// (s35932) is 6.8 MB of heap, so one entry per circuit under default
  /// options always fits.
  static constexpr std::size_t kMaxCachedWorkbenches = 32;

  explicit CampaignService(ServiceConfig cfg);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Spawns the scheduler (idempotent; no-op after shutdown()).
  void start();

  /// Runs once, right after a subscriber's future becomes ready, on the
  /// thread that resolved it: a worker (result, claim-time deadline), or
  /// the caller of cancel() / drain() / shutdown(). It must be cheap and
  /// must not call back into the service.
  using CompletionHook = std::function<void()>;

  /// Admits one request (assigning an id if empty) and returns the future
  /// response. Coalesces with a queued/in-flight execution of the same
  /// coalesce_key() when possible. Throws QueueFullError /
  /// ServiceStoppedError; never blocks on admission. The optional
  /// progress observer is leader-only and best-effort (it must outlive
  /// the execution); the optional hook announces this request's
  /// completion (an event loop uses it to wake instead of polling).
  std::shared_future<CampaignResponse> submit(
      CampaignRequest req, obs::ProgressObserver* progress = nullptr,
      CompletionHook on_complete = nullptr);

  /// Admits a whole batch under one admission lock — duplicate keys
  /// inside the batch coalesce deterministically regardless of worker
  /// timing. A rejected request yields an immediate error response
  /// future instead of throwing.
  std::vector<std::shared_future<CampaignResponse>> submit_batch(
      std::vector<CampaignRequest> reqs);

  /// submit() + wait: the synchronous path `rls run` uses.
  CampaignResponse run(CampaignRequest req,
                       obs::ProgressObserver* progress = nullptr);

  /// Outcome of cancel(): the subscriber was still queued and is now
  /// resolved with a typed "cancelled" response; already claimed by a
  /// worker (it will finish normally); or unknown.
  enum class CancelResult { kCancelled, kRunning, kNotFound };

  /// Queue-level cancellation by request id. Removes the subscriber from
  /// its queued execution (the execution itself is dequeued when it has
  /// no subscribers left) and resolves its future with a typed
  /// "cancelled" error envelope.
  CancelResult cancel(const RequestId& id);

  /// Graceful drain: stop admitting, resolve every queued-but-unclaimed
  /// request with a typed "drained" error (retry_after_hint set), let
  /// claimed executions finish (terminal checkpoints land in the store,
  /// so a restart with resume=true replays them), then park the workers
  /// and join the scheduler. Idempotent.
  void drain();

  /// drain() with the "stopped" error code — the destructor path.
  void shutdown();

  /// Leader ids of the queued (unclaimed) executions, in the order a
  /// worker would claim them. Introspection for tests and ops tooling.
  [[nodiscard]] std::vector<RequestId> queued_order() const;

  /// Snapshot of the service counters (svc.* + merged execution
  /// registries).
  [[nodiscard]] obs::CounterRegistry counters() const;

  /// The shared store (null when store_dir is empty).
  [[nodiscard]] store::ArtifactStore* artifact_store() noexcept {
    return astore_.get();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Subscriber {
    RequestId id;
    bool coalesced = false;
    obs::ProgressObserver* progress = nullptr;
    /// Queue-level deadline (admission time + deadline_ms); checked when
    /// a worker claims the execution. No deadline when !has_deadline.
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    std::shared_ptr<std::promise<CampaignResponse>> promise;
    std::shared_future<CampaignResponse> future;
    CompletionHook on_complete;
  };
  struct Execution {
    std::uint64_t key = 0;
    CampaignRequest req;      ///< the leader's request defines the run
    RequestId leader_id;      ///< fixed at creation (RunContext scope)
    std::uint64_t priority = 0;  ///< max over subscribers (promotion)
    std::uint64_t seq = 0;       ///< admission order (stability tie-break)
    obs::ProgressObserver* progress = nullptr;  ///< leader-only
    std::vector<Subscriber> subscribers;        ///< guarded by mu_
  };
  using WorkbenchPtr = std::shared_ptr<const core::Workbench>;
  /// Circuit identity (registry name, or "" plus the digest_circuit() of a
  /// parsed .bench file) and every CampaignOptions field the Workbench
  /// constructor reads: detect.random_rounds, detect.seed,
  /// detect.backtrack_limit, prune_untestable.
  using WorkbenchKey = std::tuple<std::string, std::uint64_t, std::size_t,
                                  std::uint64_t, int, bool>;
  /// A finished build: the Workbench, or the error text of a build that
  /// threw (null workbench).
  struct WorkbenchBuild {
    WorkbenchPtr workbench;
    std::string error;
  };
  struct WorkbenchEntry {
    std::shared_future<WorkbenchBuild> built;
    std::uint64_t build = 0;     ///< tick the build began (entry identity)
    std::uint64_t last_use = 0;  ///< LRU tick
  };

  std::shared_future<CampaignResponse> submit_locked(
      CampaignRequest&& req, obs::ProgressObserver* progress,
      CompletionHook on_complete);
  /// Sets a subscriber's response and fires its completion hook. Every
  /// path that answers a subscriber (finish, cancel, the claim-time
  /// deadline, stop) goes through here, outside mu_.
  static void resolve(Subscriber& sub, CampaignResponse resp);
  /// Inserts into queue_ keeping (priority desc, seq asc) order.
  void enqueue_locked(std::shared_ptr<Execution> ex);
  /// Re-sorts a queued execution after a priority promotion.
  void promote_locked(const std::shared_ptr<Execution>& ex,
                      std::uint64_t priority);
  bool step(unsigned worker);
  /// Borrows the request's Workbench, building it on a miss. Concurrent
  /// misses on one key wait on a single build; a build that throws is
  /// not cached, and every waiter throws its error text. Inserting beyond
  /// kMaxCachedWorkbenches evicts the least recently used entry
  /// (executions holding it keep their shared_ptr).
  WorkbenchPtr workbench(const CampaignRequest& req);
  CampaignResponse execute(const Execution& ex);
  void finish(const std::shared_ptr<Execution>& ex, CampaignResponse base);
  void collect_one_shard();
  /// Shared drain/shutdown: `code` becomes the error_code of every
  /// queued-but-unclaimed subscriber's typed response.
  void stop(const char* code);

  ServiceConfig cfg_;
  std::unique_ptr<store::ArtifactStore> astore_;
  sim::WorkerPool pool_;
  std::thread scheduler_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Stable priority queue: sorted by (priority desc, seq asc).
  std::deque<std::shared_ptr<Execution>> queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Execution>> inflight_;
  std::map<WorkbenchKey, WorkbenchEntry> workbenches_;
  std::uint64_t workbench_clock_ = 0;
  obs::CounterRegistry counters_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_seq_ = 0;
  unsigned gc_cursor_ = 0;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace rls::svc
