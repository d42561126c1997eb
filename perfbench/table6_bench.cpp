// Table 6 serving benchmark (see README.md for the workloads and
// every metric's definition).
//
//   table6_bench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--commit ID]
//
// Spawns the Release `rls serve --listen=0` built beside it on a fresh
// store under DIR, drives it through net::NetClient closed loops, checks
// every envelope against an in-process core::run_first_complete of the
// same request line, and prints the metrics. The last stdout line is the
// JSON summary; a failed check makes it say "correct": false and the
// exit code 1.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "fault/seq_fsim.hpp"
#include "net/client.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  unsigned connections;
  const char* workers;  ///< rls serve --workers value; nullptr = default
  /// The percentile reported as latency_tail_ms. A run's sample count
  /// (at least 60 / 108 / 54 requests) must leave ten samples beyond it.
  /// table6-warm could afford p99, but its 15 slowest hits are whichever
  /// met a host stall, so p99 spread 33% across runs.
  double tail_q;
  bool warm;
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"table6-cold", 2, "2", 0.80, false},
    {"table6-warm", 2, "2", 0.90, true},
    {"table6-solo", 1, nullptr, 0.80, false},
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// No pass runs longer than this; a pass cut short fails the tail rule.
constexpr double kPassCapSeconds = 75.0;

// ---- the server process ----

class Server {
 public:
  Server(const std::string& store_dir, const Workload& wl,
         const std::string& stream_dir) {
    std::vector<std::string> args = {PERFBENCH_RLS_BIN, "serve",
                                     "--listen=0",
                                     "--store-dir=" + store_dir};
    if (wl.workers != nullptr) {
      args.push_back(std::string("--workers=") + wl.workers);
    }
    if (!stream_dir.empty()) args.push_back("--stream-dir=" + stream_dir);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // The server dies with the benchmark, even if the benchmark crashes.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    try {
      port_ = read_port();
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// SIGTERM (a graceful drain), then wait for the exit; SIGKILL after 30 s.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const Clock::time_point t0 = Clock::now();
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (seconds_since(t0) > 30.0) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  /// Parses "rls serve: listening on HOST:PORT" from the server's stdout.
  std::uint16_t read_port() {
    std::string out;
    const Clock::time_point t0 = Clock::now();
    while (out.find('\n') == std::string::npos) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (seconds_since(t0) > 60.0 || ::poll(&pfd, 1, 1000) < 0) {
        throw std::runtime_error("rls serve did not announce its port");
      }
      char buf[256];
      const ssize_t n = (pfd.revents != 0) ? ::read(out_fd_, buf, sizeof buf)
                                           : ssize_t{-1};
      if (n == 0) throw std::runtime_error("rls serve exited at start-up");
      if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = out.rfind(':');
    if (out.rfind("rls serve: listening on ", 0) != 0 ||
        colon == std::string::npos) {
      throw std::runtime_error("unexpected rls serve banner: " + out);
    }
    return static_cast<std::uint16_t>(std::stoul(out.substr(colon + 1)));
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---- request plans ----

/// The campaign of circuit kCircuits[i] that table6-warm's connection
/// `conn` owns (hit cost depends on the circuit only, so one per circuit).
Request warm_campaign(std::uint64_t seed, unsigned conn, std::size_t i,
                      std::string id, bool timing) {
  return make_request(std::move(id), kCircuits[i],
                      base_seed(seed, conn * kCircuits.size() + i), timing);
}

/// Request k of connection `conn` in the timed phase. Connections take
/// alternate whole rotations of the global list (so table6-solo's list is
/// table6-cold's two lists interleaved); table6-warm's connections replay
/// their own populated campaigns in rotation order.
Request planned(const Workload& wl, std::uint64_t seed, unsigned conn,
                std::size_t k, bool timing) {
  std::string id = (timing ? "x" : "t") + std::to_string(conn) + "-" +
                   std::to_string(k);
  const std::size_t len = kRotation.size();
  if (wl.warm) {
    const char* circuit = kRotation[k % len];
    std::size_t i = 0;
    while (kCircuits[i] != circuit) ++i;
    return warm_campaign(seed, conn, i, std::move(id), timing);
  }
  const std::uint64_t g = (wl.connections * (k / len) + conn) * len + k % len;
  return global_request(seed, g, id, timing);
}

/// Untimed set-up requests: table6-warm populates every campaign of the
/// timed phase; the others run one warm-up campaign per circuit with a
/// base seed outside every run's timed set.
std::vector<Request> setup_requests(const Workload& wl, std::uint64_t seed,
                                    bool timing) {
  std::vector<Request> out;
  if (wl.warm) {
    for (unsigned conn = 0; conn < wl.connections; ++conn) {
      for (std::size_t i = 0; i < kCircuits.size(); ++i) {
        out.push_back(warm_campaign(
            seed, conn, i, "p" + std::to_string(conn) + "-" + std::to_string(i),
            timing));
      }
    }
  } else {
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      out.push_back(make_request("w" + std::to_string(c), kCircuits[c],
                                 warmup_seed(c), timing));
    }
  }
  return out;
}

// ---- driving the server ----

/// Set-up traffic: every request pipelined on one connection, so the
/// server schedules them over its workers.
std::vector<Sent> pipelined(const Server& srv,
                            const std::vector<Request>& reqs) {
  rls::net::NetClient client("127.0.0.1", srv.port());
  for (const Request& r : reqs) client.send_line(r.line);
  client.shutdown_write();
  std::vector<Sent> out;
  for (const Request& r : reqs) {
    Sent s;
    s.req = r;
    if (std::optional<std::string> env = client.recv_line()) {
      s.envelope = std::move(*env);
      s.answered = true;
    }
    out.push_back(std::move(s));
  }
  return out;
}

struct StopRule {
  double seconds = 0.0;          ///< run at least this long,
  std::size_t min_per_conn = 0;  ///< and send at least this many per conn,
  std::vector<std::size_t> exact;  ///< or (replay) exactly these counts
};

struct Pass {
  std::vector<std::vector<Sent>> conns;
  Window window;
  std::size_t server_threads = 0;
  std::vector<std::string> errors;  ///< transport errors, one per conn
};

/// One closed loop per connection: send a request, wait for its envelope,
/// send the next. Loops stop only at whole rotations, so every circuit
/// keeps an equal share of the samples.
Pass closed_loops(const Server& srv, const Workload& wl, std::uint64_t seed,
                  bool timing, const StopRule& rule) {
  std::vector<std::unique_ptr<rls::net::NetClient>> clients;
  for (unsigned c = 0; c < wl.connections; ++c) {
    clients.push_back(
        std::make_unique<rls::net::NetClient>("127.0.0.1", srv.port()));
  }
  Pass pass;
  pass.conns.resize(wl.connections);
  pass.errors.resize(wl.connections);
  std::latch start(1);
  Clock::time_point t_start{};
  bool aborted = false;  // written before start.count_down()
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < wl.connections; ++c) {
    threads.emplace_back([&, c] {
      start.wait();
      if (aborted) return;
      try {
        for (std::size_t k = 0;; ++k) {
          if (!rule.exact.empty()) {
            if (k == rule.exact[c]) break;
          } else if (k % kRotation.size() == 0) {
            const double el = seconds_since(t_start);
            if ((el >= rule.seconds && k >= rule.min_per_conn) ||
                el >= kPassCapSeconds) {
              break;
            }
          }
          Sent s;
          s.req = planned(wl, seed, c, k, timing);
          const Clock::time_point t0 = Clock::now();
          s.start_ms =
              std::chrono::duration<double, std::milli>(t0 - t_start).count();
          clients[c]->send_line(s.req.line);
          std::optional<std::string> env = clients[c]->recv_line();
          s.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
          s.answered = env.has_value();
          if (env) s.envelope = std::move(*env);
          pass.conns[c].push_back(std::move(s));
          if (!env) {
            pass.errors[c] = "server closed the connection";
            break;
          }
        }
      } catch (const std::exception& e) {
        pass.errors[c] = e.what();
      }
    });
  }
  try {
    pass.window.open(srv.pid());
  } catch (...) {
    aborted = true;
    start.count_down();
    for (std::thread& t : threads) t.join();
    throw;
  }
  t_start = Clock::now();
  start.count_down();
  for (std::thread& t : threads) t.join();
  pass.window.close();
  pass.server_threads = proc_threads(srv.pid());
  for (unsigned c = 0; c < wl.connections; ++c) {
    clients[c]->shutdown_write();
    if (clients[c]->recv_line() && pass.errors[c].empty()) {
      pass.errors[c] = "an envelope arrived that no request asked for";
    }
  }
  return pass;
}

std::vector<Sent> flatten(const Pass& pass) {
  std::vector<Sent> out;
  for (const auto& conn : pass.conns) out.insert(out.end(), conn.begin(), conn.end());
  return out;
}

std::vector<double> latencies(const std::vector<Sent>& sent) {
  std::vector<double> out;
  for (const Sent& s : sent) {
    if (s.answered) out.push_back(s.latency_ms);
  }
  return out;
}

/// Committed artifacts (path -> inode). A put renames a new file into
/// place and a get only reads, so an unchanged map across the timed phase
/// proves the phase wrote nothing: every warm request was a store hit.
std::map<std::string, ino_t> store_snapshot(const std::string& store_dir) {
  std::map<std::string, ino_t> out;
  for (const auto& e : fs::recursive_directory_iterator(store_dir)) {
    if (e.is_regular_file() && e.path().extension() == ".rlsa") {
      struct stat st {};
      if (::stat(e.path().c_str(), &st) == 0) out[e.path().string()] = st.st_ino;
    }
  }
  return out;
}

// ---- correctness ----

/// The result row of an envelope: every field except id and coalesced.
struct Row {
  std::uint64_t la = 0, lb = 0, n = 0, ncyc0 = 0, detected = 0, targets = 0,
                attempts = 0, applications = 0, total_cycles = 0;
  bool complete = false;
};

/// Expected rows from solo in-process runs of the same request lines,
/// keyed by base seed. The reference runs use the packed engine on one
/// thread: every engine is exact, so the rows equal the default engine's,
/// and the check stays an independent cross-engine one.
std::map<std::uint64_t, Row> reference_rows(const std::vector<Sent>& sent) {
  std::map<std::uint64_t, const Request*> distinct;
  for (const Sent& s : sent) distinct.emplace(s.req.base_seed, &s.req);
  std::vector<rls::svc::CampaignRequest> reqs;
  std::map<std::string, std::unique_ptr<rls::core::Workbench>> benches;
  for (const auto& [seed, r] : distinct) {
    reqs.push_back(rls::svc::parse_request(r->line, r->id));
    auto& wb = benches[reqs.back().circuit];
    if (!wb) {
      wb = std::make_unique<rls::core::Workbench>(reqs.back().circuit,
                                                  reqs.back().options);
    }
  }
  std::vector<Row> rows(reqs.size());
  std::vector<std::string> errors(reqs.size());
  std::atomic<std::size_t> next{0};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::min(hw, 4u); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < reqs.size();) {
        try {
          rls::core::RunContext ctx(reqs[i].options);
          if (const auto packed = rls::fault::parse_engine("packed")) {
            ctx.options.p2.engine = *packed;
          }
          ctx.options.p2.sim_threads = 1;
          ctx.options.combo_jobs = 1;
          ctx.set_timing(false);
          const rls::core::ExperimentRow row =
              rls::core::run_first_complete(*benches.at(reqs[i].circuit), ctx);
          rows[i] = Row{row.combo.l_a,
                        row.combo.l_b,
                        row.combo.n,
                        row.combo.ncyc0,
                        row.result.total_detected,
                        row.target_faults,
                        row.attempts,
                        row.result.num_applications(),
                        row.result.total_cycles(),
                        row.found_complete};
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::map<std::uint64_t, Row> out;
  std::size_t i = 0;
  for (const auto& [seed, r] : distinct) {
    if (!errors[i].empty()) {
      throw std::runtime_error("reference run of " + r->id + ": " + errors[i]);
    }
    out.emplace(seed, rows[i++]);
  }
  return out;
}

std::string strip_id(const Sent& s) {
  std::string env = s.envelope;
  const std::string field = ",\"id\":\"" + s.req.id + "\"";
  if (const std::size_t at = env.find(field); at != std::string::npos) {
    env.erase(at, field.size());
  }
  return env;
}

/// Counts every envelope and what went wrong with it.
class Checker {
 public:
  explicit Checker(std::map<std::uint64_t, Row> refs) : refs_(std::move(refs)) {}

  /// Returns how many envelopes passed. `expected`, when given, maps base
  /// seed -> the populating run's envelope minus its id (table6-warm
  /// replays must match it byte for byte).
  std::size_t check(
      const std::vector<Sent>& sent,
      const std::map<std::uint64_t, std::string>* expected = nullptr) {
    std::size_t passed = 0;
    for (const Sent& s : sent) {
      ++attempted_;
      std::string code = "check";
      const std::string why = verify(s, expected, &code);
      if (why.empty()) {
        ++passed;
        continue;
      }
      ++failed_;
      ++errors_[code];
      if (messages_.size() < 5) messages_.push_back(s.req.id + ": " + why);
    }
    return passed;
  }

  void fail(const std::string& why) {
    ++failed_;
    ++errors_["check"];
    if (messages_.size() < 5) messages_.push_back(why);
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t ok() const { return ok_; }
  [[nodiscard]] std::size_t coalesced() const { return coalesced_; }
  [[nodiscard]] const std::map<std::string, std::size_t>& errors() const {
    return errors_;
  }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::string verify(const Sent& s,
                     const std::map<std::uint64_t, std::string>* expected,
                     std::string* code) {
    if (!s.answered) return "no envelope";
    rls::svc::JsonObject obj;
    try {
      obj = rls::svc::parse_json_object(s.envelope, s.req.id);
    } catch (const std::exception& e) {
      return std::string("unparseable envelope: ") + e.what();
    }
    const auto get = [&obj](const char* name) -> const rls::svc::JsonValue* {
      for (const auto& [k, v] : obj) {
        if (k == name) return &v;
      }
      return nullptr;
    };
    const rls::svc::JsonValue* ok = get("ok");
    if (ok == nullptr || !ok->b) {
      const rls::svc::JsonValue* ec = get("error_code");
      *code = ec != nullptr ? ec->s : "run";
      return "not ok: " + s.envelope;
    }
    ++ok_;
    const rls::svc::JsonValue* co = get("coalesced");
    if (co != nullptr && co->b) ++coalesced_;
    const rls::svc::JsonValue* id = get("id");
    const rls::svc::JsonValue* circuit = get("circuit");
    const rls::svc::JsonValue* complete = get("complete");
    if (id == nullptr || id->s != s.req.id) return "wrong id";
    if (co == nullptr || co->b) return "coalesced";
    if (complete == nullptr || !complete->b) return "not complete";
    if (circuit == nullptr || circuit->s != s.req.circuit) return "wrong circuit";
    const Row& ref = refs_.at(s.req.base_seed);
    if (!ref.complete) return "reference run is not complete";
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"la", ref.la},
        {"lb", ref.lb},
        {"n", ref.n},
        {"ncyc0", ref.ncyc0},
        {"detected", ref.detected},
        {"targets", ref.targets},
        {"attempts", ref.attempts},
        {"applications", ref.applications},
        {"total_cycles", ref.total_cycles}};
    for (const auto& [name, want] : fields) {
      const rls::svc::JsonValue* v = get(name);
      if (v == nullptr || v->u != want) {
        return std::string(name) + " differs from the in-process run";
      }
    }
    if (expected != nullptr &&
        strip_id(s) != expected->at(s.req.base_seed)) {
      return "envelope differs from the populating run's";
    }
    return "";
  }

  std::map<std::uint64_t, Row> refs_;
  std::size_t attempted_ = 0, failed_ = 0, ok_ = 0, coalesced_ = 0;
  std::map<std::string, std::size_t> errors_;
  std::vector<std::string> messages_;
};

// ---- output ----

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, const Checker& chk,
                  const std::vector<Metric>& metrics) {
  for (const std::string& m : chk.messages()) {
    std::printf("  FAILED %s\n", m.c_str());
  }
  std::printf("  requests: attempted=%zu ok=%zu failed=%zu\n", chk.attempted(),
              chk.ok(), chk.failed());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14s %-6s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(chk.attempted()) +
                     ", \"failed\": " + std::to_string(chk.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string note(const Percentile& p) {
  return "(n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
         " beyond)";
}

std::string build_type() {
  std::ifstream in(std::string(PERFBENCH_BUILD_DIR) + "/CMakeCache.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("CMAKE_BUILD_TYPE:", 0) == 0) {
      return line.substr(line.find('=') + 1);
    }
  }
  return "";
}

// ---- a run ----

struct Args {
  const Workload* wl = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
};

/// One server on a fresh store, set up, ready for its timed phase.
struct Served {
  std::unique_ptr<Server> server;
  std::string store_dir;
  std::vector<Sent> setup;
  double setup_s = 0.0;
};

Served serve(const Args& a, const std::string& store_dir,
             const std::string& stream_dir, bool timing) {
  fs::remove_all(store_dir);
  Served s;
  s.store_dir = store_dir;
  const Clock::time_point t0 = Clock::now();
  s.server = std::make_unique<Server>(store_dir, *a.wl, stream_dir);
  s.setup = pipelined(*s.server, setup_requests(*a.wl, a.seed, timing));
  s.setup_s = seconds_since(t0);
  return s;
}

/// Base seed -> populating envelope minus id (table6-warm only).
std::map<std::uint64_t, std::string> populated(const Served& s) {
  std::map<std::uint64_t, std::string> out;
  for (const Sent& p : s.setup) out[p.req.base_seed] = strip_id(p);
  return out;
}

/// The timed phase; failures seen outside the envelopes go to `errors`.
Pass timed(const Args& a, Served& s, bool timing, const StopRule& rule,
           std::vector<std::string>* errors) {
  std::map<std::string, ino_t> before;
  if (a.wl->warm) before = store_snapshot(s.store_dir);
  Pass pass = closed_loops(*s.server, *a.wl, a.seed, timing, rule);
  if (a.wl->warm && store_snapshot(s.store_dir) != before) {
    errors->push_back(
        "the store changed during the warm timed phase (a miss was "
        "recomputed)");
  }
  for (const std::string& e : pass.errors) {
    if (!e.empty()) errors->push_back("transport: " + e);
  }
  return pass;
}

StopRule time_rule(const Args& a) {
  StopRule rule;
  rule.seconds = a.seconds;
  rule.min_per_conn =
      min_samples(a.wl->tail_q, kRotation.size() * a.wl->connections) /
      a.wl->connections;
  return rule;
}

int run(const Args& a) {
  const Workload& wl = *a.wl;
  fs::remove_all(a.work_dir);
  fs::create_directories(a.work_dir);
  std::printf("%s seed=%llu seconds=%s trace=%d nproc=%u build=%s "
              "commit=%s store_fs=%s connections=%u workers=%s\n",
              wl.name, static_cast<unsigned long long>(a.seed),
              number(a.seconds).c_str(), a.trace ? 1 : 0,
              std::thread::hardware_concurrency(), build_type().c_str(),
              a.commit.c_str(), fs_type(a.work_dir).c_str(), wl.connections,
              wl.workers != nullptr ? wl.workers : "default");
  std::fflush(stdout);

  std::vector<std::string> run_errors;
  std::vector<Sent> all_setup;
  std::vector<Metric> metrics;
  std::optional<Checker> chk;
  const std::string tail_name =
      "p" + std::to_string(static_cast<int>(wl.tail_q * 100 + 0.5));

  if (!a.trace) {
    std::vector<double> setups;
    Served s;
    for (int i = 0; i < kSetups; ++i) {
      if (s.server) s.server->stop();
      s = serve(a, a.work_dir + "/store-" + std::to_string(i), "", false);
      setups.push_back(s.setup_s);
      all_setup.insert(all_setup.end(), s.setup.begin(), s.setup.end());
    }
    Pass pass = timed(a, s, false, time_rule(a), &run_errors);
    const double hwm = proc_vm_hwm_bytes(s.server->pid());
    s.server->stop();
    const std::vector<Sent> sent = flatten(pass);

    std::vector<Sent> everything = all_setup;
    everything.insert(everything.end(), sent.begin(), sent.end());
    chk.emplace(reference_rows(everything));
    chk->check(all_setup);
    const auto expected = populated(s);
    // Throughput and CPU count only checked envelopes of the timed phase.
    const std::size_t ok_timed = chk->check(sent, wl.warm ? &expected : nullptr);
    for (const std::string& e : run_errors) chk->fail(e);
    const Percentile p50 = percentile(latencies(sent), 0.5);
    const Percentile tail = percentile(latencies(sent), wl.tail_q);
    std::string setup_note = "(median of";
    for (const double v : setups) setup_note += " " + number(v);
    setup_note += ")";
    metrics = {
        {"throughput_rps", static_cast<double>(ok_timed) / pass.window.wall_s(),
         "1/s",
         "(" + std::to_string(ok_timed) + " ok / " +
             number(pass.window.wall_s()) + " s, host steal " +
             number(100.0 * pass.window.steal_frac()) + "%)"},
        {"latency_p50_ms", p50.value, "ms", note(p50)},
        {"latency_tail_ms", tail.value, "ms",
         "= " + tail_name + " " + note(tail)},
        {"cpu_ms_per_req",
         pass.window.cpu_s() * 1000.0 / static_cast<double>(ok_timed), "ms",
         "(server " + number(pass.window.cpu_s()) + " CPU-s)"},
        {"setup_s", median(setups), "s", setup_note},
        {"rss_peak_mb", hwm / 1e6, "MB", "(server VmHWM)"},
    };
  } else {
    // Untraced pass first: its p50 is trace.overhead's denominator and its
    // per-connection counts are what the traced pass replays.
    Served plain = serve(a, a.work_dir + "/store-plain", "", false);
    all_setup = plain.setup;
    Pass untraced = timed(a, plain, false, time_rule(a), &run_errors);
    plain.server->stop();
    const auto plain_expected = populated(plain);

    const std::string streams = a.work_dir + "/streams";
    Served traced_srv = serve(a, a.work_dir + "/store-traced", streams, true);
    all_setup.insert(all_setup.end(), traced_srv.setup.begin(),
                     traced_srv.setup.end());
    StopRule replay;
    for (const auto& conn : untraced.conns) replay.exact.push_back(conn.size());
    Pass traced = timed(a, traced_srv, true, replay, &run_errors);
    traced_srv.server->stop();
    const auto traced_expected = populated(traced_srv);

    const std::vector<Sent> plain_sent = flatten(untraced);
    const std::vector<Sent> traced_sent = flatten(traced);
    std::vector<Sent> everything = all_setup;
    everything.insert(everything.end(), plain_sent.begin(), plain_sent.end());
    chk.emplace(reference_rows(everything));
    chk->check(all_setup);
    chk->check(plain_sent, wl.warm ? &plain_expected : nullptr);
    chk->check(traced_sent, wl.warm ? &traced_expected : nullptr);
    for (const std::string& e : run_errors) chk->fail(e);

    TracedRun tr;
    tr.requests = traced_sent;
    tr.stream_dir = streams;
    tr.store_dir = traced_srv.store_dir;
    tr.scratch_dir = a.work_dir + "/scratch";
    // Beside the work directory, which a correct run deletes.
    tr.spans_path = a.work_dir + ".spans.jsonl";
    tr.untraced_p50_ms = percentile(latencies(plain_sent), 0.5).value;
    tr.traced_p50_ms = percentile(latencies(traced_sent), 0.5).value;
    tr.window = traced.window;
    tr.server_threads = traced.server_threads;
    tr.attempted = chk->attempted();
    tr.failed = chk->failed();
    tr.ok = chk->ok();
    tr.coalesced = chk->coalesced();
    tr.errors = chk->errors();
    metrics = layer_metrics(tr);
  }

  const bool correct = chk->failed() == 0;
  print_result(correct, *chk, metrics);
  if (correct) fs::remove_all(a.work_dir);
  return correct ? 0 : 1;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  if (res.ec != std::errc() || res.ptr != v.data() + v.size()) {
    throw std::invalid_argument(flag + " wants an unsigned integer, got '" +
                                v + "'");
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) throw std::invalid_argument("flags come in pairs");
  for (const Workload& wl : kWorkloads) {
    if (kv["--workload"] == wl.name) a.wl = &wl;
  }
  if (a.wl == nullptr) {
    throw std::invalid_argument("--workload wants table6-cold, table6-warm "
                                "or table6-solo");
  }
  a.seed = parse_u64("--seed", kv["--seed"]);
  if (a.seed > kMaxRunSeed) throw std::invalid_argument("--seed is too large");
  const std::uint64_t secs = parse_u64("--seconds", kv["--seconds"]);
  if (secs < 1 || secs > 60) throw std::invalid_argument("--seconds: 1..60");
  a.seconds = static_cast<double>(secs);
  a.trace = parse_u64("--trace", kv["--trace"]) != 0;
  a.work_dir = kv["--work-dir"];
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!kv["--commit"].empty()) a.commit = kv["--commit"];
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (build_type() != "Release") {
      std::fprintf(stderr,
                   "table6_bench: refusing a '%s' build tree; timings need "
                   "CMAKE_BUILD_TYPE=Release\n",
                   build_type().c_str());
      return 2;
    }
    const std::vector<std::string> failures = self_test();
    for (const std::string& f : failures) {
      std::fprintf(stderr, "table6_bench: self-test failed: %s\n", f.c_str());
    }
    if (!failures.empty()) return 2;
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "table6_bench: %s\n", e.what());
    return 1;
  }
}
