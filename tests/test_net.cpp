// rls::net tests (DESIGN.md §16): NDJSON framing invariants, the TCP
// loopback determinism suite (concurrent clients, the PR 7 acceptance
// mix byte-identical to solo runs, slow-reader overflow disconnects,
// queue-level cancel/deadline/priority over the wire), graceful drain,
// the one-loop resource bound (no thread or fd per idle connection),
// cross-process store locking, process-level SIGTERM-drain + --resume
// against the real `rls` binary, and `rls serve` on stdin/stdout.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/run_context.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "store/lock.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace fs = std::filesystem;

namespace rls {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("rls-net-") + tag + "-XXXXXX"))
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

/// The cheap deterministic request family shared with test_svc.cpp.
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
};

/// Inline oracle: executes `req` exactly like CampaignService::execute.
Solo solo_run(const svc::CampaignRequest& req,
              store::ArtifactStore* astore = nullptr) {
  Solo out;
  core::RunContext ctx(req.options);
  ctx.set_timing(req.timing);
  obs::VectorSink sink;
  ctx.set_sink(&sink);
  core::Workbench wb(req.circuit, ctx.options);
  std::unique_ptr<store::CampaignStore> cs;
  if (astore != nullptr) {
    cs = std::make_unique<store::CampaignStore>(*astore, wb.nl(),
                                                wb.target_faults(), false);
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
  return out;
}

/// The 8-distinct-request PR 7 acceptance mix (4 cheap s27 pins, 4
/// bounded s298 pins).
std::vector<svc::CampaignRequest> acceptance_mix() {
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
    req.options.p2.max_iterations = 6;
    distinct.push_back(std::move(req));
  }
  return distinct;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

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

/// Spins until `cond` holds (1 ms cadence) or ~10 s pass.
template <typename Cond>
bool wait_until(Cond cond) {
  for (int i = 0; i < 10000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// ---- NetFrame: NDJSON line splitter --------------------------------------

/// Splits `bytes` into lines via feed()ing `chunk`-sized pieces.
std::vector<std::string> split_chunked(const std::string& bytes,
                                       std::size_t chunk,
                                       std::size_t max_line = 1 << 20) {
  net::LineSplitter splitter(max_line);
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < bytes.size(); pos += chunk) {
    splitter.feed(std::string_view(bytes).substr(pos, chunk),
                  [&](std::string_view line) { lines.emplace_back(line); });
  }
  if (const auto last = splitter.finish()) lines.push_back(*last);
  return lines;
}

TEST(NetFrame, ChunkBoundariesNeverChangeTheLineSequence) {
  const std::string bytes =
      "{\"a\":1}\n\n{\"b\":2}\r\nlong line with spaces\n{\"c\":3}";
  const std::vector<std::string> whole = split_chunked(bytes, bytes.size());
  ASSERT_EQ(whole.size(), 5u);
  EXPECT_EQ(whole[0], "{\"a\":1}");
  EXPECT_EQ(whole[1], "");           // empty lines are emitted
  EXPECT_EQ(whole[2], "{\"b\":2}");  // CR stripped
  EXPECT_EQ(whole[4], "{\"c\":3}");  // unterminated tail via finish()
  for (std::size_t chunk = 1; chunk <= bytes.size(); ++chunk) {
    EXPECT_EQ(split_chunked(bytes, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(NetFrame, NulByteIsATypedError) {
  net::LineSplitter splitter(64);
  try {
    splitter.feed(std::string("ok\nbad\0line\n", 12),
                  [](std::string_view) {});
    FAIL() << "NUL should throw";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind, net::FrameError::Kind::kNul);
  }
}

TEST(NetFrame, OversizeLineIsCutOffAtTheCapNotAtOom) {
  net::LineSplitter splitter(8);
  std::size_t delivered = 0;
  // The oversize line is detected while buffered — no '\n' required —
  // and regardless of how the bytes were chunked.
  try {
    splitter.feed("tiny\n012345678",
                  [&](std::string_view) { ++delivered; });
    FAIL() << "oversize should throw";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind, net::FrameError::Kind::kOversize);
  }
  EXPECT_EQ(delivered, 1u) << "lines before the bad one still arrive";
}

// ---- NetLoopback: TCP determinism suite ----------------------------------

TEST(NetLoopback, ConcurrentClientsMatchSoloRunsAndCoalesce) {
  const std::vector<svc::CampaignRequest> distinct = acceptance_mix();
  const ScratchDir dir("accept");
  const std::string stream_dir = dir.path() + "/streams";

  // Warm the store, then capture solo oracle streams (pure cache reads).
  {
    store::ArtifactStore warmup(dir.path() + "/store");
    for (const svc::CampaignRequest& req : distinct) solo_run(req, &warmup);
  }
  std::vector<Solo> solos;
  {
    store::ArtifactStore warm(dir.path() + "/store");
    for (const svc::CampaignRequest& req : distinct) {
      solos.push_back(solo_run(req, &warm));
    }
  }

  svc::ServiceConfig scfg;
  scfg.store_dir = dir.path() + "/store";
  scfg.workers = 2;
  scfg.queue_capacity = 16;
  scfg.autostart = false;  // hold execution until all 32 are admitted
  svc::CampaignService service(std::move(scfg));

  net::NetConfig ncfg;
  ncfg.stream_dir = stream_dir;
  net::NetServer server(service, ncfg);

  // 4 clients x 8 distinct requests = 32 = the 8 x 4 acceptance batch,
  // now arriving over 4 independent sockets instead of one stdin.
  std::vector<std::thread> clients;
  std::atomic<int> client_failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::NetClient client("127.0.0.1", server.port());
        for (std::size_t k = 0; k < distinct.size(); ++k) {
          svc::CampaignRequest req = distinct[k];
          req.id = "c" + std::to_string(c) + "r" + std::to_string(k);
          client.send_line(req.canonical_json());
        }
        client.shutdown_write();
        for (std::size_t k = 0; k < distinct.size(); ++k) {
          const auto line = client.recv_line();
          if (!line) throw std::runtime_error("early EOF");
          // Responses come back in per-connection admission order.
          const std::string want =
              "\"id\":\"c" + std::to_string(c) + "r" + std::to_string(k) +
              "\"";
          if (line->find(want) == std::string::npos ||
              line->find("\"ok\":true") == std::string::npos) {
            throw std::runtime_error("bad envelope: " + *line);
          }
        }
        if (client.recv_line()) throw std::runtime_error("extra line");
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
        client_failures.fetch_add(1);
      }
    });
  }

  // All 32 admitted (8 leaders + 24 coalesced) before anything runs.
  ASSERT_TRUE(wait_until([&] {
    const obs::CounterRegistry c = service.counters();
    return c.value("svc.queued") + c.value("svc.coalesced") == 32u;
  }));
  service.start();
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(client_failures.load(), 0);

  // Every response's stream file is byte-identical to the solo oracle.
  for (int c = 0; c < 4; ++c) {
    for (std::size_t k = 0; k < distinct.size(); ++k) {
      const std::string path = stream_dir + "/c" + std::to_string(c) + "r" +
                               std::to_string(k) + ".jsonl";
      EXPECT_EQ(read_file(path), solos[k].stream) << path;
    }
  }
  const obs::CounterRegistry sc = service.counters();
  EXPECT_EQ(sc.value("svc.queued"), 8u);
  EXPECT_EQ(sc.value("svc.coalesced"), 24u);
  EXPECT_EQ(sc.value("svc.rejected"), 0u);
  const obs::CounterRegistry nc = server.counters();
  EXPECT_EQ(nc.value("net.accepted"), 4u);
  EXPECT_EQ(nc.value("net.requests"), 32u);
  EXPECT_EQ(nc.value("net.responses"), 32u);
  EXPECT_EQ(nc.value("net.overflow_disconnects"), 0u);
}

TEST(NetLoopback, SlowReaderGetsBoundedBufferThenTypedDisconnect) {
  svc::ServiceConfig scfg;
  scfg.workers = 1;
  svc::CampaignService service(std::move(scfg));

  net::NetConfig ncfg;
  ncfg.send_buffer_bytes = 4096;   // tiny kernel buffer: back-pressure fast
  ncfg.max_write_buffer = 8192;    // overflow after ~8 KiB of un-acked bytes
  net::NetServer server(service, ncfg);

  // 256 identical requests coalesce into one cheap execution but yield
  // 256 envelopes (~50 KiB) that the client refuses to read.
  net::NetClient client("127.0.0.1", server.port(), /*recv_buffer_bytes=*/4096);
  const svc::CampaignRequest req = s27_request();
  std::size_t sent = 0;
  try {
    for (int k = 0; k < 256; ++k) {
      svc::CampaignRequest r = req;
      r.id = "slow" + std::to_string(k);
      client.send_line(r.canonical_json());
      ++sent;
    }
    client.shutdown_write();
  } catch (const net::NetError&) {
    // The server may hang up (overflow) while we are still sending.
  }
  ASSERT_GT(sent, 0u);

  ASSERT_TRUE(wait_until([&] {
    return server.counters().value("net.overflow_disconnects") == 1u;
  })) << "slow reader should be disconnected, not buffered without bound";

  // The client sees a hard EOF; whatever arrived before the disconnect
  // is a strict prefix of the response sequence.
  std::size_t received = 0;
  while (client.recv_line()) ++received;
  EXPECT_LT(received, sent);
  EXPECT_EQ(server.counters().value("net.disconnects"), 1u);
}

TEST(NetLoopback, CancelQueuedRequestGetsTypedEnvelope) {
  svc::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.autostart = false;  // nothing executes: the target stays queued
  svc::CampaignService service(std::move(scfg));
  net::NetServer server(service, net::NetConfig{});

  net::NetClient client("127.0.0.1", server.port());
  svc::CampaignRequest req = s27_request();
  req.id = "victim";
  client.send_line(req.canonical_json());
  ASSERT_TRUE(wait_until([&] { return service.queued_order().size() == 1; }));

  client.send_line("{\"schema\":2,\"cancel\":\"victim\"}");
  client.shutdown_write();
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"id\":\"victim\""), std::string::npos);
  EXPECT_NE(line->find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line->find("\"error_code\":\"cancelled\""), std::string::npos);
  EXPECT_FALSE(client.recv_line()) << "cancel lines consume no response slot";
  EXPECT_EQ(service.counters().value("svc.cancelled"), 1u);
  EXPECT_EQ(server.counters().value("net.cancels"), 1u);
  service.start();  // normal teardown path
}

TEST(NetLoopback, ExpiredDeadlineResolvesTypedAtClaimTime) {
  svc::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.autostart = false;
  svc::CampaignService service(std::move(scfg));
  net::NetServer server(service, net::NetConfig{});

  net::NetClient client("127.0.0.1", server.port());
  svc::CampaignRequest req = s27_request();
  req.id = "tardy";
  req.deadline_ms = 30;
  client.send_line(req.canonical_json());
  client.shutdown_write();
  ASSERT_TRUE(wait_until([&] { return service.queued_order().size() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service.start();  // the worker claims it only now — past its deadline

  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"id\":\"tardy\""), std::string::npos);
  EXPECT_NE(line->find("\"error_code\":\"deadline_exceeded\""),
            std::string::npos);
  EXPECT_EQ(service.counters().value("svc.deadline_expired"), 1u);
}

TEST(NetLoopback, PriorityReordersTheQueueStably) {
  svc::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.autostart = false;
  svc::CampaignService service(std::move(scfg));
  net::NetServer server(service, net::NetConfig{});

  net::NetClient client("127.0.0.1", server.port());
  svc::CampaignRequest low = s27_request(16);
  low.id = "low";
  svc::CampaignRequest mid = s27_request(32);
  mid.id = "mid";
  mid.priority = 3;
  svc::CampaignRequest high = s27_request(64);
  high.id = "high";
  high.priority = 7;
  // Admission order low, mid, high; execution order must be by priority.
  client.send_line(low.canonical_json());
  client.send_line(mid.canonical_json());
  client.send_line(high.canonical_json());
  client.shutdown_write();
  ASSERT_TRUE(wait_until([&] { return service.queued_order().size() == 3; }));

  const std::vector<svc::RequestId> order = service.queued_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "low");

  service.start();
  // Responses still stream in per-connection *admission* order.
  for (const char* want : {"low", "mid", "high"}) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find(std::string("\"id\":\"") + want + "\""),
              std::string::npos);
    EXPECT_NE(line->find("\"ok\":true"), std::string::npos);
  }
}

// ---- NetDrain ------------------------------------------------------------

TEST(NetDrain, QueuedRequestsResolveWithTypedDrainedEnvelopes) {
  svc::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.autostart = false;  // everything stays queued-unclaimed
  svc::CampaignService service(std::move(scfg));
  net::NetServer server(service, net::NetConfig{});

  net::NetClient client("127.0.0.1", server.port());
  for (int k = 0; k < 2; ++k) {
    svc::CampaignRequest req = s27_request(16u << k);
    req.id = "d" + std::to_string(k);
    client.send_line(req.canonical_json());
  }
  client.shutdown_write();
  ASSERT_TRUE(wait_until([&] { return service.queued_order().size() == 2; }));

  // The CLI's SIGTERM sequence: drain the service, then the transport.
  service.drain();
  for (int k = 0; k < 2; ++k) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"id\":\"d" + std::to_string(k) + "\""),
              std::string::npos);
    EXPECT_NE(line->find("\"error_code\":\"drained\""), std::string::npos);
    EXPECT_NE(line->find("\"retry_after_hint\":"), std::string::npos);
  }
  EXPECT_FALSE(client.recv_line());
  server.shutdown();
  EXPECT_EQ(server.counters().value("net.responses"), 2u);
}

// ---- NetResources: one loop, however many connections ---------------------

std::size_t count_entries(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(NetResources, IdleConnectionsAddNoThreadsAndLeakNoFds) {
  if (!fs::exists("/proc/self/task")) GTEST_SKIP() << "needs /proc";
  svc::ServiceConfig scfg;
  scfg.autostart = false;  // no workers: only the server could add threads
  svc::CampaignService service(std::move(scfg));
  net::NetServer server(service, net::NetConfig{});
  const std::size_t threads = count_entries("/proc/self/task");
  const std::size_t fds = count_entries("/proc/self/fd");
  {
    std::vector<std::unique_ptr<net::NetClient>> clients;
    for (int k = 0; k < 32; ++k) {
      clients.push_back(
          std::make_unique<net::NetClient>("127.0.0.1", server.port()));
    }
    ASSERT_TRUE(wait_until(
        [&] { return server.counters().value("net.accepted") == 32u; }));
    EXPECT_EQ(count_entries("/proc/self/task"), threads)
        << "32 open connections must not start threads";
  }
  // The clients closed their sockets: the loop reads each EOF and closes
  // its end at once.
  EXPECT_TRUE(
      wait_until([&] { return count_entries("/proc/self/fd") == fds; }));
  EXPECT_EQ(server.counters().value("net.disconnects"), 32u);
}

// ---- NetSharedStore: cross-instance store locking ------------------------

TEST(NetSharedStore, TwoServicesOneStoreWithInterleavedGc) {
  const std::vector<svc::CampaignRequest> distinct = acceptance_mix();
  const ScratchDir dir("shared");
  {
    store::ArtifactStore warmup(dir.path());
    for (const svc::CampaignRequest& req : distinct) solo_run(req, &warmup);
  }
  // Oracle streams against the warm store (pure cache reads).
  std::vector<Solo> solos;
  {
    store::ArtifactStore warm(dir.path());
    for (const svc::CampaignRequest& req : distinct) {
      solos.push_back(solo_run(req, &warm));
    }
  }

  // Two independent service instances (separate ArtifactStore handles,
  // separate flock fds — the same contention shape as two processes)
  // run the full mix concurrently while a third actor gc's the store.
  auto make = [&] {
    svc::ServiceConfig cfg;
    cfg.store_dir = dir.path();
    cfg.workers = 2;
    return std::make_unique<svc::CampaignService>(std::move(cfg));
  };
  auto a = make();
  auto b = make();

  std::atomic<bool> gc_done{false};
  std::thread gc([&] {
    store::ArtifactStore third(dir.path());
    for (int k = 0; k < 8; ++k) {
      third.gc(1ull << 40);  // huge budget: prunes orphans, keeps data
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    gc_done.store(true);
  });

  std::vector<std::shared_future<svc::CampaignResponse>> fa, fb;
  for (const svc::CampaignRequest& req : distinct) {
    fa.push_back(a->submit(req));
    fb.push_back(b->submit(req));
  }
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    const svc::CampaignResponse ra = fa[k].get();
    const svc::CampaignResponse rb = fb[k].get();
    ASSERT_TRUE(ra.ok) << ra.error;
    ASSERT_TRUE(rb.ok) << rb.error;
    // Results are deterministic regardless of which instance's artifacts
    // were hit: the shared store never serves a torn read.
    EXPECT_EQ(ra.detected, solos[k].row.result.total_detected);
    EXPECT_EQ(rb.detected, solos[k].row.result.total_detected);
  }
  gc.join();
  EXPECT_TRUE(gc_done.load());

  // Nothing was lost: a fresh instance still replays everything warm.
  store::ArtifactStore warm(dir.path());
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    EXPECT_EQ(solo_run(distinct[k], &warm).stream, solos[k].stream);
  }
}

TEST(NetSharedStore, FlockIsHeldAcrossProcesses) {
  const ScratchDir dir("flock");
  store::StoreLock probe(dir.path());
  {
    // Skip (trivially pass) on filesystems without flock support.
    const store::StoreLock::Guard g = probe.exclusive();
    if (!g.locked()) GTEST_SKIP() << "flock unsupported here (degraded mode)";
  }

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: hold the exclusive lock for 200 ms. Single-threaded, exits
    // via _exit — safe post-fork even under sanitizers.
    store::StoreLock lock(dir.path());
    const store::StoreLock::Guard g = lock.exclusive();
    (void)!::write(ready[1], "r", 1);
    ::usleep(200 * 1000);
    ::_exit(g.locked() ? 0 : 7);
  }
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ::close(ready[1]);

  const auto t0 = std::chrono::steady_clock::now();
  const store::StoreLock::Guard g = probe.shared();
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(g.locked());
  // The parent's shared acquisition blocked on the child's exclusive
  // hold — the lock is kernel-side, not per-process state.
  EXPECT_GE(waited.count(), 100);

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// ---- NetProcess: the real `rls` binary end to end ------------------------

#ifdef RLS_CLI_PATH

struct ServeProc {
  pid_t pid = -1;
  int out = -1;  // server's stdout
  std::uint16_t port = 0;
};

/// Spawns `rls serve --listen=0 <extra...>` and reads the bound port
/// from its announcement line.
ServeProc spawn_serve(const std::vector<std::string>& extra) {
  int outpipe[2];
  if (::pipe(outpipe) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(outpipe[1], STDOUT_FILENO);
    ::close(outpipe[0]);
    ::close(outpipe[1]);
    std::vector<std::string> args = {RLS_CLI_PATH, "serve", "--listen=0"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(outpipe[1]);
  ServeProc proc;
  proc.pid = pid;
  proc.out = outpipe[0];
  // "rls serve: listening on 127.0.0.1:PORT\n"
  std::string line;
  char c = 0;
  while (::read(proc.out, &c, 1) == 1 && c != '\n') line.push_back(c);
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("no port announcement, got '" + line + "'");
  }
  proc.port = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
  return proc;
}

int terminate_and_wait(ServeProc& proc) {
  ::kill(proc.pid, SIGTERM);
  int status = 0;
  ::waitpid(proc.pid, &status, 0);
  ::close(proc.out);
  proc.pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

TEST(NetProcess, TwoServersOneStoreCompleteTheMix) {
  const std::vector<svc::CampaignRequest> distinct = acceptance_mix();
  std::vector<Solo> oracle;
  for (const svc::CampaignRequest& req : distinct) {
    oracle.push_back(solo_run(req));
  }

  const ScratchDir dir("twoproc");
  const std::string store = dir.path() + "/store";
  // --gc-shard-bytes makes each finished run gc a shard: two processes
  // interleave shared put/get with exclusive gc on one store.
  const std::vector<std::string> flags = {
      "--store-dir=" + store, "--workers=2",
      "--gc-shard-bytes=1099511627776"};
  ServeProc s1 = spawn_serve(flags);
  ServeProc s2 = spawn_serve(flags);

  auto drive = [&](std::uint16_t port, const char* tag,
                   std::vector<std::string>& out) {
    net::NetClient client("127.0.0.1", port);
    for (std::size_t k = 0; k < distinct.size(); ++k) {
      svc::CampaignRequest req = distinct[k];
      req.id = std::string(tag) + std::to_string(k);
      client.send_line(req.canonical_json());
    }
    client.shutdown_write();
    while (const auto line = client.recv_line()) out.push_back(*line);
  };
  std::vector<std::string> got1, got2;
  std::thread t1([&] { drive(s1.port, "p1r", got1); });
  std::thread t2([&] { drive(s2.port, "p2r", got2); });
  t1.join();
  t2.join();

  ASSERT_EQ(got1.size(), distinct.size());
  ASSERT_EQ(got2.size(), distinct.size());
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    const std::string detected =
        "\"detected\":" +
        std::to_string(oracle[k].row.result.total_detected);
    for (const std::string* line : {&got1[k], &got2[k]}) {
      EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
      EXPECT_EQ(line->find("store"), std::string::npos)
          << "store error leaked into an envelope: " << *line;
      EXPECT_NE(line->find(detected), std::string::npos) << *line;
    }
  }
  EXPECT_EQ(terminate_and_wait(s1), 0);
  EXPECT_EQ(terminate_and_wait(s2), 0);
}

TEST(NetProcess, SigtermDrainThenResumeReproducesTheSuffix) {
  // The PR 5 resume fixture: s420 with a single cut-down sweep never
  // completes, so a session stopped after 2 of 4 attempts leaves a
  // partial campaign checkpoint that --resume must adopt bit-for-bit.
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

  const ScratchDir dir("resume");
  const std::string store = dir.path() + "/store";

  {
    // Session 1: with one worker, "cut" (2 attempts) is claimed and
    // "queued" (a distinct key) waits behind it. SIGTERM mid-run must
    // let "cut" finish (its committed attempts are what session 2
    // adopts) and resolve "queued" with a typed envelope — a response
    // per admitted request, none dropped.
    ServeProc s1 = spawn_serve({"--store-dir=" + store, "--workers=1"});
    net::NetClient client("127.0.0.1", s1.port);
    svc::CampaignRequest cut = full_req;
    cut.id = "cut";
    cut.options.max_attempts = 2;
    svc::CampaignRequest queued = s27_request();
    queued.id = "queued";  // distinct key, cheap if the race runs it
    client.send_line(cut.canonical_json());
    client.send_line(queued.canonical_json());
    client.shutdown_write();
    // "mid-batch": wait for cut's first committed artifact (the store
    // starts with only the .lock file), give admission of the second
    // line a generous margin, then SIGTERM.
    ASSERT_TRUE(wait_until([&] {
      std::size_t files = 0;
      for (const auto& ent : fs::recursive_directory_iterator(store)) {
        if (ent.is_regular_file() && ent.path().filename() != ".lock") {
          ++files;
        }
      }
      return files > 0;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(terminate_and_wait(s1), 0);

    const auto first = client.recv_line();
    ASSERT_TRUE(first.has_value());
    EXPECT_NE(first->find("\"id\":\"cut\""), std::string::npos);
    EXPECT_NE(first->find("\"ok\":true"), std::string::npos) << *first;
    // The worker usually still holds "cut" when the signal lands, so
    // "queued" drains; if the race went the other way it ran to
    // completion. Either way its envelope arrived before EOF.
    const auto second = client.recv_line();
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(second->find("\"id\":\"queued\""), std::string::npos) << *second;
    EXPECT_FALSE(client.recv_line());
  }
  {
    // Session 2: restart against the same store with --resume; the full
    // request adopts the two committed attempts and runs only the rest.
    ServeProc s2 = spawn_serve({"--store-dir=" + store, "--resume",
                                "--workers=1",
                                "--stream-dir=" + dir.path() + "/streams"});
    net::NetClient client("127.0.0.1", s2.port);
    svc::CampaignRequest full = full_req;
    full.id = "full";
    client.send_line(full.canonical_json());
    client.shutdown_write();
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    ASSERT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
    EXPECT_NE(line->find("\"attempts\":4"), std::string::npos) << *line;
    EXPECT_EQ(terminate_and_wait(s2), 0);

    // Byte-exact suffix: the resumed stream replays nothing.
    const auto keep = {"ts0",     "sweep",         "id1_pair",
                       "summary", "combo_attempt", "result"};
    const auto base_lines = filter_lines(base.stream, keep);
    const auto resume_lines = filter_lines(
        read_file(dir.path() + "/streams/full.jsonl"), keep);
    ASSERT_FALSE(resume_lines.empty());
    EXPECT_LT(resume_lines.size(), base_lines.size());
    EXPECT_TRUE(is_suffix(resume_lines, base_lines));
  }
}

// ---- NetStdin: `rls serve` on stdin/stdout -------------------------------

/// `rls serve <extra...>` over pipes: request bytes go to `in`, envelopes
/// come back on `out`. A process still running at destruction is killed.
class StdinServe {
 public:
  explicit StdinServe(const std::vector<std::string>& extra,
                      bool nonblocking_stdout = false) {
    int inpipe[2];
    int outpipe[2];
    if (::pipe2(inpipe, O_CLOEXEC) != 0 || ::pipe2(outpipe, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    // File status flags belong to the open file description, so the
    // server's stdout inherits O_NONBLOCK through dup2.
    if (nonblocking_stdout) ::fcntl(outpipe[1], F_SETFL, O_NONBLOCK);
    std::vector<std::string> args = {RLS_CLI_PATH, "serve"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {  // only async-signal-safe calls until exec
      ::dup2(inpipe[0], STDIN_FILENO);
      ::dup2(outpipe[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(inpipe[0]);
    ::close(outpipe[1]);
    in_ = inpipe[1];
    out_ = outpipe[0];
  }
  ~StdinServe() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
    (void)exit_code();
  }
  StdinServe(const StdinServe&) = delete;
  StdinServe& operator=(const StdinServe&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  void send(const std::string& bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(in_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) throw std::runtime_error("write to rls serve failed");
      off += static_cast<std::size_t>(n);
    }
  }

  void close_stdin() {
    if (in_ >= 0) ::close(in_);
    in_ = -1;
  }

  /// The next stdout line, or nullopt at EOF or after `timeout_ms`
  /// without one.
  std::optional<std::string> read_line(int timeout_ms = 60000) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    while (out_ >= 0) {
      const std::size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        std::string line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd pfd{out_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    return std::nullopt;
  }

  /// Closes stdin, reaps the process and returns its exit code.
  int exit_code() {
    close_stdin();
    if (out_ >= 0) ::close(out_);
    out_ = -1;
    if (pid_ <= 0) return exit_code_;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    return exit_code_;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  int exit_code_ = -1;
  std::string pending_;  ///< read from `out_`, not yet returned as a line
};

bool has(const std::optional<std::string>& line, const std::string& part) {
  return line && line->find(part) != std::string::npos;
}

TEST(NetStdin, EnvelopeArrivesWhileStdinStaysOpen) {
  StdinServe proc({"--workers=1"});
  svc::CampaignRequest req = s27_request();
  req.id = "open";
  proc.send(req.canonical_json() + "\n");
  // No more input and no EOF: the finished envelope must not wait for
  // either.
  const auto line = proc.read_line(5000);
  ASSERT_TRUE(line.has_value()) << "no envelope within 5 s";
  EXPECT_TRUE(has(line, "\"id\":\"open\"")) << *line;
  EXPECT_TRUE(has(line, "\"ok\":true")) << *line;
  EXPECT_EQ(proc.exit_code(), 0);
}

TEST(NetStdin, MixedInputAnswersInInputOrderWithTypedCodes) {
  StdinServe proc({"--workers=2"});
  svc::CampaignRequest a = s27_request(16);
  a.id = "a";
  svc::CampaignRequest b = s27_request(32);
  b.id = "b";
  svc::CampaignRequest c = s27_request(64);
  c.id = "c";
  proc.send(a.canonical_json() + "\n" + b.canonical_json() + "\n" +
            "{\"schema\":2,\"cancel\":\"ghost\"}\n" +
            "{\"schema\":1,\"circuit\":\n" +  // line 4: malformed
            " \r \t\n" +                       // line 5: blank
            c.canonical_json() + "\r\n");
  proc.close_stdin();
  const auto first = proc.read_line();
  const auto second = proc.read_line();
  const auto third = proc.read_line();
  const auto fourth = proc.read_line();
  EXPECT_TRUE(has(first, "\"id\":\"a\",\"ok\":true")) << first.value_or("");
  EXPECT_TRUE(has(second, "\"id\":\"b\",\"ok\":true")) << second.value_or("");
  // The cancel line and the blank line take no slot; the malformed line
  // answers in its own place, named after its line number.
  EXPECT_TRUE(has(third, "\"id\":\"line4\",\"ok\":false"))
      << third.value_or("");
  EXPECT_TRUE(has(third, "\"error\":\"stdin:4: ")) << third.value_or("");
  EXPECT_TRUE(has(third, "\"error_code\":\"request\"")) << third.value_or("");
  EXPECT_TRUE(has(fourth, "\"id\":\"c\",\"ok\":true")) << fourth.value_or("");
  EXPECT_FALSE(proc.read_line().has_value());
  EXPECT_EQ(proc.exit_code(), 1) << "one envelope failed";
}

TEST(NetStdin, ExitCodeIsOneIffAnEnvelopeFailed) {
  svc::CampaignRequest good = s27_request();
  good.id = "good";
  svc::CampaignRequest unknown = s27_request();
  unknown.id = "unknown";
  unknown.circuit = "s27x";  // fails at execution, typed "request"
  for (const bool fail : {false, true}) {
    StdinServe proc({"--workers=1"});
    proc.send(good.canonical_json() + "\n");
    if (fail) proc.send(unknown.canonical_json() + "\n");
    proc.close_stdin();
    EXPECT_TRUE(has(proc.read_line(), "\"id\":\"good\",\"ok\":true"));
    if (fail) {
      const auto line = proc.read_line();
      EXPECT_TRUE(has(line, "\"id\":\"unknown\",\"ok\":false"));
      EXPECT_TRUE(has(line, "\"error_code\":\"request\""));
    }
    EXPECT_FALSE(proc.read_line().has_value());
    EXPECT_EQ(proc.exit_code(), fail ? 1 : 0);
  }
}

TEST(NetStdin, FrameErrorEndsTheInputWithAnEmptyIdLikeTcp) {
  StdinServe proc({"--workers=1", "--max-line-bytes=32"});
  svc::CampaignRequest req = s27_request();
  req.id = "long";
  // An oversize line without its '\n': the frame error must be the only
  // answer, and the buffered line must never run.
  proc.send(req.canonical_json());
  const auto line = proc.read_line();
  EXPECT_TRUE(has(line, "\"id\":\"\",\"ok\":false")) << line.value_or("");
  EXPECT_TRUE(has(line, "\"error_code\":\"frame\"")) << line.value_or("");
  proc.close_stdin();
  EXPECT_FALSE(proc.read_line().has_value());
  EXPECT_EQ(proc.exit_code(), 1);
}

TEST(NetStdin, NonBlockingStdoutLosesNoEnvelope) {
  // stdout shares its file description with whoever spawned the server,
  // and that process may have made it non-blocking. 400 coalesced
  // envelopes (~80 KB) overflow a 64 KB pipe that nobody reads yet.
  StdinServe proc({"--workers=1"}, /*nonblocking_stdout=*/true);
  std::string input;
  for (int k = 0; k < 400; ++k) {
    svc::CampaignRequest req = s27_request();
    req.id = "nb" + std::to_string(k);
    input += req.canonical_json() + "\n";
  }
  proc.send(input);
  proc.close_stdin();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (int k = 0; k < 400; ++k) {
    const auto line = proc.read_line();
    ASSERT_TRUE(has(line, "\"id\":\"nb" + std::to_string(k) + "\",\"ok\":true"))
        << "envelope " << k << ": " << line.value_or("<none>");
  }
  EXPECT_FALSE(proc.read_line().has_value());
  EXPECT_EQ(proc.exit_code(), 0);
}

TEST(NetStdin, SigtermDrainsQueuedRequestsAndExitsZero) {
  const ScratchDir dir("stdin-drain");
  const std::string store = dir.path() + "/store";
  StdinServe proc({"--store-dir=" + store, "--workers=1"});
  // "slow" holds the only worker for seconds after its first committed
  // artifact; q1 and q2 (distinct keys) queue behind it.
  svc::CampaignRequest slow;
  slow.id = "slow";
  slow.circuit = "s420";
  slow.options.p2.d1_order = {1};
  slow.options.p2.max_iterations = 1;
  slow.options.p2.n_same_fc = 1;
  slow.options.p2.sim_threads = 1;
  slow.options.max_attempts = 8;
  slow.options.max_combos_on_failure = 8;
  svc::CampaignRequest q1 = s27_request(16);
  q1.id = "q1";
  svc::CampaignRequest q2 = s27_request(32);
  q2.id = "q2";
  proc.send(slow.canonical_json() + "\n" + q1.canonical_json() + "\n" +
            q2.canonical_json() + "\n");
  ASSERT_TRUE(wait_until([&] {
    if (!fs::exists(store)) return false;  // the service creates it
    for (const auto& ent : fs::recursive_directory_iterator(store)) {
      if (ent.is_regular_file() && ent.path().filename() != ".lock") {
        return true;
      }
    }
    return false;
  }));
  ::kill(proc.pid(), SIGTERM);  // stdin stays open
  const auto first = proc.read_line();
  EXPECT_TRUE(has(first, "\"id\":\"slow\",\"ok\":true")) << first.value_or("");
  for (const char* id : {"q1", "q2"}) {
    const auto line = proc.read_line();
    EXPECT_TRUE(has(line, std::string("\"id\":\"") + id + "\",\"ok\":false"))
        << line.value_or("");
    EXPECT_TRUE(has(line, "\"error_code\":\"drained\"")) << line.value_or("");
    EXPECT_TRUE(has(line, "\"retry_after_hint\":25")) << line.value_or("");
  }
  EXPECT_FALSE(proc.read_line().has_value());
  EXPECT_EQ(proc.exit_code(), 0);
}

TEST(NetStdin, TraceFileRecordsTheStdinConnection) {
  const ScratchDir dir("stdin-trace");
  const std::string trace = dir.path() + "/net.jsonl";
  StdinServe proc({"--workers=1", "--trace=" + trace});
  svc::CampaignRequest req = s27_request();
  req.id = "traced";
  proc.send(req.canonical_json() + "\n");
  proc.close_stdin();
  EXPECT_TRUE(has(proc.read_line(), "\"id\":\"traced\",\"ok\":true"));
  EXPECT_FALSE(proc.read_line().has_value());
  ASSERT_EQ(proc.exit_code(), 0);

  std::ifstream in(trace);
  ASSERT_TRUE(in.good()) << "no trace file at " << trace;
  std::vector<std::optional<std::string>> lines;
  for (std::string line; std::getline(in, line);) lines.emplace_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(has(lines[0], "\"ev\":\"net_conn\"")) << *lines[0];
  EXPECT_TRUE(has(lines[0], "\"action\":\"open\"")) << *lines[0];
  EXPECT_TRUE(has(lines[1], "\"ev\":\"net_rr\"")) << *lines[1];
  EXPECT_TRUE(has(lines[1], "\"id\":\"traced\",\"ok\":true")) << *lines[1];
  EXPECT_TRUE(has(lines[2], "\"ev\":\"net_conn\"")) << *lines[2];
  EXPECT_TRUE(has(lines[2], "\"action\":\"close\",\"reason\":\"eof\""))
      << *lines[2];
}

TEST(NetStdin, TraceToStdoutNeedsListen) {
  // stdout carries the envelopes: events there would interleave with them.
  StdinServe proc({"--workers=1", "--trace=-"});
  EXPECT_FALSE(proc.read_line().has_value());
  EXPECT_EQ(proc.exit_code(), 64);
}

#endif  // RLS_CLI_PATH

}  // namespace
}  // namespace rls
