// rls — command-line front end to the Random Limited-Scan library.
//
//   rls list                          known benchmark circuits
//   rls stats   <circuit|file.bench>  interface / size / depth summary
//   rls bench   <circuit>             dump the netlist in .bench format
//   rls faults  <circuit>             fault universe + detectability report
//   rls cop     <circuit> [n]         the n hardest faults by COP estimate
//   rls run     <circuit> [options]   Procedure 2 (one Table-6 style row)
//   rls batch   <requests.json>       run an NDJSON request file (svc API)
//   rls serve   [options]             NDJSON requests on stdin (svc API);
//                                     --listen=PORT serves them over TCP
//   rls client  <host:port> [file]    send NDJSON requests to `rls serve`
//   rls tables  <circuit>             Table-5 style (L_A,L_B,N) ranking
//   rls lint    <circuit|file.bench>  design-rule + resistance diagnostics
//   rls analyze <circuit|file.bench>  static testability (ternary + SCOAP)
//   rls fuzz    [options]             differential fuzzing (rls::fuzz)
//
// `<circuit>` is a registry name (s27, s208, ..., b11) or a path to an
// ISCAS-89 .bench file. Common flags (uniform across circuit-taking
// subcommands):
//   --engine=packed|conediff|fullsweep   fault-simulation engine (packed)
//   --threads=N                   simulation worker threads (0 = hardware)
//   --seed=S                      base seed (Procedure 1 + detectability)
//   --trace=FILE                  JSONL event stream ("-" = stdout)
//   --progress                    live status lines on stderr
//
// `run`, `batch` and `serve` all route through svc::CampaignService —
// `rls run` builds a svc::CampaignRequest from its flags (print it with
// --dump-request) and executes it synchronously.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/cop.hpp"
#include "analysis/lint.hpp"
#include "analysis/sta.hpp"
#include "cli/flags.hpp"
#include "core/campaign.hpp"
#include "core/run_context.hpp"
#include "fault/collapse.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "netlist/validate.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "report/format.hpp"
#include "scan/cost.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace {

using namespace rls;

netlist::Netlist load(const std::string& which) {
  // Registry names win; anything else must be an existing, readable file.
  if (gen::is_known_circuit(which)) return gen::make_circuit(which);
  if (!std::ifstream(which).good()) {
    throw std::runtime_error(
        "'" + which +
        "' is neither a known circuit (see `rls list`) nor a readable "
        ".bench file");
  }
  return netlist::load_bench_file(which);
}

/// Flags shared by every circuit-taking subcommand, plus the observability
/// wiring they configure. Register with `add_to`, then `configure` a
/// RunContext after parsing (the sinks outlive the returned object).
struct CommonFlags {
  /// The library's campaign default, so `rls` and svc requests without an
  /// engine resolve alike.
  std::string engine = fault::engine_name(core::Procedure2Options{}.engine);
  std::uint64_t threads = 0;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string trace;
  bool progress = false;

  std::unique_ptr<obs::JsonlSink> sink;
  std::unique_ptr<obs::StreamProgress> reporter;

  void add_to(cli::FlagParser& fp) {
    fp.add_string("engine", &engine,
                  engine + " (default); one of " + fault::engine_choices());
    fp.add_uint("threads", &threads, "sim worker threads (0 = hardware)");
    fp.add_string("seed", &seed_text, "base seed (decimal)");
    fp.add_string("trace", &trace, "write JSONL event trace to FILE");
    fp.add_bool("progress", &progress, "live status lines on stderr");
  }

  /// Folds the parsing-only flags into an options struct (no sinks).
  void apply_options(core::CampaignOptions& opts) {
    if (!seed_text.empty()) {
      const std::uint64_t s = cli::parse_uint("--seed", seed_text);
      opts.p2.base_seed = s;
      opts.detect.seed = s;
    }
    if (const std::optional<fault::Engine> e = fault::parse_engine(engine)) {
      opts.p2.engine = *e;
    } else {
      throw cli::FlagError("--engine expects one of " +
                           std::string(fault::engine_choices()) + ", got '" +
                           engine + "'");
    }
    opts.p2.sim_threads = static_cast<unsigned>(threads);
  }

  /// Opens the trace/progress sinks and wires them into the context.
  void attach(core::RunContext& ctx) {
    if (!trace.empty()) {
      sink = trace == "-" ? std::make_unique<obs::JsonlSink>(stdout)
                          : std::make_unique<obs::JsonlSink>(trace);
      ctx.set_sink(sink.get());
    }
    if (progress) {
      reporter = std::make_unique<obs::StreamProgress>();
      ctx.set_progress(reporter.get());
    }
  }

  void configure(core::RunContext& ctx) {
    apply_options(ctx.options);
    attach(ctx);
  }

 private:
  std::string seed_text;  // parsed lazily so "no --seed" keeps defaults
};

int cmd_list() {
  for (const std::string& name : gen::known_circuits()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_stats(const std::string& which) {
  const netlist::Netlist nl = load(which);
  const netlist::CircuitStats s = netlist::compute_stats(nl);
  std::printf("circuit: %s\n%s\n", nl.name().c_str(),
              netlist::to_string(s).c_str());
  const auto violations = netlist::validate(nl);
  std::printf("design-rule violations: %zu\n", violations.size());
  for (const auto& v : violations) {
    std::printf("  %s\n", v.message.c_str());
  }
  return violations.empty() ? 0 : 1;
}

int cmd_bench(const std::string& which) {
  std::printf("%s", netlist::write_bench(load(which)).c_str());
  return 0;
}

int cmd_faults(const std::string& which, CommonFlags& common) {
  core::RunContext ctx;
  common.configure(ctx);
  const core::Workbench wb(load(which), ctx.options);
  const auto& det = wb.detectability();
  std::printf("circuit: %s\n", wb.name().c_str());
  std::printf("collapsed stuck-at faults: %zu\n", wb.universe().size());
  std::printf("  detectable:  %zu (%zu by random sim, %zu by PODEM)\n",
              det.num_detectable, det.detected_by_random, det.detected_by_atpg);
  std::printf("  untestable:  %zu (proven redundant)\n", det.num_untestable);
  std::printf("  aborted:     %zu (PODEM backtrack limit)\n", det.num_aborted);
  if (ctx.sink()) {
    obs::TraceEvent ev("detectability");
    ev.str("circuit", wb.name())
        .u64("faults", wb.universe().size())
        .u64("detectable", det.num_detectable)
        .u64("untestable", det.num_untestable)
        .u64("aborted", det.num_aborted);
    ctx.emit(ev);
    ctx.flush();
  }
  return 0;
}

int cmd_cop(const std::string& which, std::size_t top) {
  const netlist::Netlist nl = load(which);
  const sim::CompiledCircuit cc(nl);
  const analysis::CopResult cop = analysis::compute_cop(cc);
  const auto faults = fault::collapsed_universe(nl);
  std::vector<std::pair<double, const fault::Fault*>> ranked;
  for (const auto& f : faults) {
    ranked.emplace_back(analysis::detection_probability(cop, cc, f), &f);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  report::Table table({"fault", "det prob", "expected patterns"});
  for (std::size_t k = 0; k < top && k < ranked.size(); ++k) {
    table.add_row(
        {fault_name(nl, *ranked[k].second),
         report::format_fixed(ranked[k].first, 6),
         report::format_cycles(static_cast<std::uint64_t>(std::min(
             analysis::expected_pattern_count(ranked[k].first), 1e18)))});
  }
  std::printf("%zu hardest faults by COP estimate:\n%s", top,
              table.to_string().c_str());
  return 0;
}

int cmd_tables(const std::string& which, CommonFlags& common) {
  core::RunContext ctx;
  common.configure(ctx);
  const netlist::Netlist nl = load(which);
  const auto combos = core::enumerate_default_combos(nl.num_state_vars());
  report::Table table({"rank", "LA", "LB", "N", "Ncyc0"});
  for (std::size_t k = 0; k < 10 && k < combos.size(); ++k) {
    table.add_row({std::to_string(k + 1), std::to_string(combos[k].l_a),
                   std::to_string(combos[k].l_b), std::to_string(combos[k].n),
                   std::to_string(combos[k].ncyc0)});
    if (ctx.sink()) {
      obs::TraceEvent ev("combo_rank");
      ev.u64("rank", k + 1)
          .u64("la", combos[k].l_a)
          .u64("lb", combos[k].l_b)
          .u64("n", combos[k].n)
          .u64("ncyc0", combos[k].ncyc0);
      ctx.emit(ev);
    }
  }
  ctx.flush();
  std::printf("first 10 combinations by Ncyc0 (NSV = %zu):\n%s",
              nl.num_state_vars(), table.to_string().c_str());
  return 0;
}

/// `rls run` flags beyond the common set (all svc-request fields).
struct RunFlags {
  std::uint64_t la = 0, lb = 0, n = 0, max_iters = 0, combo_jobs = 1;
  bool d1_desc = false;
  bool prune_untestable = false;
  std::string store_dir;
  bool resume = false;
  std::uint64_t gc_max_bytes = 0;
  bool dump_request = false;
  bool timing = false;
};

/// Value of a response counter (sorted snapshot; linear scan is fine).
std::uint64_t counter(const svc::CampaignResponse& resp,
                      std::string_view name) {
  for (const auto& [key, value] : resp.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Writes a response's JSONL event stream to `path` ("-" = stdout).
void write_stream(const std::string& path, const std::string& stream) {
  if (path == "-") {
    std::fwrite(stream.data(), 1, stream.size(), stdout);
    std::fflush(stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw std::runtime_error("cannot open stream file '" + path + "'");
  }
  out.write(stream.data(), static_cast<std::streamsize>(stream.size()));
}

int cmd_run(const std::string& which, CommonFlags& common,
            const RunFlags& flags) {
  if (flags.resume && flags.store_dir.empty()) {
    throw cli::FlagError("--resume requires --store-dir");
  }
  if (flags.gc_max_bytes > 0 && flags.store_dir.empty()) {
    throw cli::FlagError("--gc-max-bytes requires --store-dir");
  }

  svc::CampaignRequest req;
  req.circuit = which;
  req.la = flags.la;
  req.lb = flags.lb;
  req.n = flags.n;
  common.apply_options(req.options);
  if (flags.max_iters > 0) {
    req.options.p2.max_iterations =
        static_cast<std::uint32_t>(flags.max_iters);
  }
  if (flags.d1_desc) req.options.p2.d1_order = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  req.options.prune_untestable = flags.prune_untestable;
  req.options.combo_jobs = static_cast<unsigned>(flags.combo_jobs);
  req.timing = flags.timing;
  if (flags.dump_request) {
    std::printf("%s\n", req.canonical_json().c_str());
    return 0;
  }

  const char* engine_name = fault::engine_name(req.options.p2.engine);
  svc::ServiceConfig cfg;
  cfg.store_dir = flags.store_dir;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.resume = flags.resume;
  svc::CampaignService service(std::move(cfg));
  if (common.progress) {
    common.reporter = std::make_unique<obs::StreamProgress>();
  }
  const svc::CampaignResponse resp =
      service.run(std::move(req), common.reporter.get());
  if (!resp.ok) {
    std::fprintf(stderr, "error: %s\n", resp.error.c_str());
    return 1;
  }
  if (!common.trace.empty()) write_stream(common.trace, resp.stream);

  std::printf("circuit %s: LA=%llu LB=%llu N=%llu (Ncyc0=%llu) engine=%s\n",
              resp.circuit.c_str(),
              static_cast<unsigned long long>(resp.la),
              static_cast<unsigned long long>(resp.lb),
              static_cast<unsigned long long>(resp.n),
              static_cast<unsigned long long>(resp.ncyc0), engine_name);
  std::printf("TS_0: %llu / %llu faults, %s cycles\n",
              static_cast<unsigned long long>(resp.ts0_detected),
              static_cast<unsigned long long>(resp.targets),
              report::format_cycles(resp.ncyc0).c_str());
  for (const svc::CampaignResponse::AppliedRow& a : resp.applied) {
    std::printf("  TS(I=%u,D1=%u): +%llu, %s cycles\n", a.iteration, a.d1,
                static_cast<unsigned long long>(a.detected),
                report::format_cycles(a.cycles).c_str());
  }
  std::printf("total: %llu / %llu detected (%s), %s cycles, ls=%.2f\n",
              static_cast<unsigned long long>(resp.detected),
              static_cast<unsigned long long>(resp.targets),
              resp.complete ? "complete" : "incomplete",
              report::format_cycles(resp.total_cycles).c_str(), resp.ls);
  if (store::ArtifactStore* artifacts = service.artifact_store()) {
    std::printf(
        "store: %zu artifact(s), %llu bytes (%llu written, %llu read; "
        "%llu cache hit(s), %llu checkpoint(s), %llu resume(s))\n",
        artifacts->size(),
        static_cast<unsigned long long>(artifacts->total_bytes()),
        static_cast<unsigned long long>(counter(resp, "store.bytes_written")),
        static_cast<unsigned long long>(counter(resp, "store.bytes_read")),
        static_cast<unsigned long long>(counter(resp, "store.cache_hit")),
        static_cast<unsigned long long>(
            counter(resp, "store.checkpoint_saves")),
        static_cast<unsigned long long>(counter(resp, "store.resumes")));
    if (flags.gc_max_bytes > 0) {
      const store::ArtifactStore::GcStats g =
          artifacts->gc(flags.gc_max_bytes);
      std::printf("store gc: removed %llu file(s) / %llu bytes, kept %llu "
                  "bytes\n",
                  static_cast<unsigned long long>(g.removed_files),
                  static_cast<unsigned long long>(g.removed_bytes),
                  static_cast<unsigned long long>(g.kept_bytes));
    }
  }
  return resp.complete ? 0 : 2;
}

/// Flags shared by `rls batch` and `rls serve`.
struct SvcFlags {
  std::string store_dir;
  std::string stream_dir;
  std::uint64_t workers = 1;
  std::uint64_t queue_cap = 64;
  std::uint64_t gc_shard_bytes = 0;
  bool resume = false;
  // serve-only (ignored by batch):
  std::string listen;  ///< TCP port to listen on ("" = stdin mode)
  std::string bind = "127.0.0.1";
  std::string trace;   ///< net_conn/net_rr JSONL sink
  std::uint64_t max_line_bytes = 1 << 20;
  std::uint64_t max_write_buffer = 4u << 20;

  void add_to(cli::FlagParser& fp, bool serve) {
    fp.add_string("store-dir", &store_dir,
                  "shared sharded artifact store (cache + checkpoints)");
    fp.add_string("stream-dir", &stream_dir,
                  "write each response's JSONL stream to DIR/<id>.jsonl");
    fp.add_uint("workers", &workers,
                "concurrent campaign executions (0 = hardware)");
    fp.add_uint("queue-cap", &queue_cap,
                "admission queue capacity (default 64, must be nonzero)");
    fp.add_uint("gc-shard-bytes", &gc_shard_bytes,
                "per-shard gc byte budget, one shard per finished run");
    fp.add_bool("resume", &resume,
                "adopt partial checkpoints from --store-dir");
    if (serve) {
      fp.add_string("listen", &listen,
                    "serve NDJSON over TCP on this port (0 = ephemeral; "
                    "default: stdin)");
      fp.add_string("bind", &bind,
                    "TCP listen address (default 127.0.0.1)");
      fp.add_string("trace", &trace,
                    "write net_conn/net_rr events to FILE (\"-\" = stdout, "
                    "with --listen only)");
      fp.add_uint("max-line-bytes", &max_line_bytes,
                  "reject request lines longer than this (default 1MiB)");
      fp.add_uint("max-write-buffer", &max_write_buffer,
                  "per-connection un-acked response byte cap before a "
                  "typed overflow disconnect (default 4MiB)");
    }
  }

  [[nodiscard]] svc::ServiceConfig to_config() const {
    if (resume && store_dir.empty()) {
      throw cli::FlagError("--resume requires --store-dir");
    }
    if (gc_shard_bytes > 0 && store_dir.empty()) {
      throw cli::FlagError("--gc-shard-bytes requires --store-dir");
    }
    if (queue_cap == 0) {
      throw cli::FlagError(
          "--queue-cap=0 would reject every request (the queue admits "
          "leaders only; give it at least 1 slot)");
    }
    svc::ServiceConfig cfg;
    cfg.store_dir = store_dir;
    cfg.workers = static_cast<unsigned>(workers);
    cfg.queue_capacity = static_cast<std::size_t>(queue_cap);
    cfg.resume = resume;
    cfg.gc_shard_bytes = gc_shard_bytes;
    return cfg;
  }
};

/// Emits one response: the envelope on stdout (NDJSON), the stream to
/// --stream-dir when given. Returns resp.ok.
bool emit_response(const svc::CampaignResponse& resp,
                   const std::string& stream_dir) {
  if (!stream_dir.empty() && resp.ok) {
    std::error_code ec;
    std::filesystem::create_directories(stream_dir, ec);  // best effort
    std::string name;
    for (const char c : resp.id) {
      name.push_back(c == '/' ? '_' : c);  // ids may not escape the dir
    }
    write_stream(stream_dir + "/" + name + ".jsonl", resp.stream);
  }
  std::printf("%s\n", resp.to_json().c_str());
  std::fflush(stdout);
  return resp.ok;
}

svc::CampaignResponse parse_error_response(std::string id,
                                           std::string what) {
  svc::CampaignResponse resp;
  resp.id = std::move(id);
  resp.ok = false;
  resp.error = std::move(what);
  resp.error_code = svc::error_code::kRequest;
  return resp;
}

int cmd_batch(const std::string& file, const SvcFlags& flags) {
  std::ifstream fin;
  std::istream* in = &std::cin;
  if (file != "-") {
    fin.open(file);
    if (!fin.good()) {
      throw std::runtime_error("cannot read request file '" + file + "'");
    }
    in = &fin;
  }
  // One entry per input line: a parsed request or an immediate parse
  // error. Requests are admitted as one batch (single admission lock) so
  // duplicate keys coalesce deterministically.
  struct Entry {
    std::optional<svc::CampaignRequest> req;
    std::optional<svc::CampaignResponse> parse_error;
  };
  std::vector<Entry> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Entry e;
    const std::string origin = file + ":" + std::to_string(lineno);
    try {
      e.req = svc::parse_request(line, origin);
    } catch (const std::exception& err) {
      e.parse_error = parse_error_response("line" + std::to_string(lineno),
                                           err.what());
    }
    entries.push_back(std::move(e));
  }

  svc::CampaignService service(flags.to_config());
  std::vector<svc::CampaignRequest> reqs;
  for (Entry& e : entries) {
    if (e.req) reqs.push_back(std::move(*e.req));
  }
  std::vector<std::shared_future<svc::CampaignResponse>> futures =
      service.submit_batch(std::move(reqs));

  bool all_ok = true;
  std::size_t next_future = 0;
  for (const Entry& e : entries) {
    const svc::CampaignResponse resp =
        e.parse_error ? *e.parse_error : futures[next_future++].get();
    all_ok = emit_response(resp, flags.stream_dir) && all_ok;
  }
  return all_ok ? 0 : 1;
}

// Self-pipe written by the SIGINT/SIGTERM handler; `rls serve` waits on
// it next to its server. The byte is never drained — once a stop is
// requested it stays requested.
int g_sig_pipe[2] = {-1, -1};

extern "C" void on_stop_signal(int) {
  const char byte = 's';
  (void)!::write(g_sig_pipe[1], &byte, 1);
}

void install_stop_handlers() {
  if (g_sig_pipe[0] < 0 && ::pipe(g_sig_pipe) != 0) {
    throw std::runtime_error("cannot create signal pipe");
  }
  struct sigaction sa {};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must see EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dead clients are per-connection events
}

int cmd_serve(const SvcFlags& flags) {
  if (flags.trace == "-" && flags.listen.empty()) {
    throw cli::FlagError(
        "--trace=- needs --listen: without it, stdout carries the envelopes");
  }
  svc::CampaignService service(flags.to_config());
  install_stop_handlers();
  net::NetConfig cfg;
  cfg.bind_address = flags.bind;
  cfg.max_line_bytes = static_cast<std::size_t>(flags.max_line_bytes);
  cfg.max_write_buffer = static_cast<std::size_t>(flags.max_write_buffer);
  cfg.stream_dir = flags.stream_dir;
  std::unique_ptr<obs::JsonlSink> sink;  // outlives the server
  std::unique_ptr<net::NetServer> server;
  if (flags.listen.empty()) {
    // stdin/stdout are one more connection of the server's event loop.
    server = std::make_unique<net::NetServer>(service, cfg, STDIN_FILENO,
                                              STDOUT_FILENO);
  } else {
    unsigned long port = 0;
    try {
      port = std::stoul(flags.listen);
    } catch (const std::exception&) {
      port = 65536;  // force the range error below
    }
    if (port > 65535) {
      throw cli::FlagError("--listen wants a TCP port (0..65535), got '" +
                           flags.listen + "'");
    }
    cfg.port = static_cast<std::uint16_t>(port);
    server = std::make_unique<net::NetServer>(service, cfg);
  }
  if (!flags.trace.empty()) {
    sink = flags.trace == "-" ? std::make_unique<obs::JsonlSink>(stdout)
                              : std::make_unique<obs::JsonlSink>(flags.trace);
    server->set_sink(sink.get());
  }
  if (!flags.listen.empty()) {
    // Tests (and shell scripts) discover an ephemeral port from this line.
    std::printf("rls serve: listening on %s:%u\n", flags.bind.c_str(),
                static_cast<unsigned>(server->port()));
    std::fflush(stdout);
  }

  const bool stopped = server->wait(g_sig_pipe[0]);
  // Order matters: drain the service first so queued work resolves into
  // typed `drained` envelopes, then shut the loop down so it flushes
  // those envelopes before the connections close.
  if (stopped) service.drain();
  server->shutdown();
  if (stopped) return 0;
  // Input EOF on stdin; a TCP server ends by itself only if its listener
  // failed.
  return flags.listen.empty() &&
                 server->counters().value("net.error_responses") == 0
             ? 0
             : 1;
}

int cmd_client(const std::string& host_port, const std::string& file) {
  std::ifstream fin;
  std::istream* in = &std::cin;
  if (file != "-") {
    fin.open(file);
    if (!fin.good()) {
      throw std::runtime_error("cannot read request file '" + file + "'");
    }
    in = &fin;
  }
  net::NetClient client(host_port);
  std::string line;
  while (std::getline(*in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    client.send_line(line);
  }
  client.shutdown_write();
  bool all_ok = true;
  while (const std::optional<std::string> resp = client.recv_line()) {
    std::printf("%s\n", resp->c_str());
    std::fflush(stdout);
    // Envelope keys are unescaped in to_json output while string values
    // JSON-escape their quotes, so this literal only ever matches the
    // envelope's own ok field.
    if (resp->find("\"ok\":false") != std::string::npos) all_ok = false;
  }
  return all_ok ? 0 : 1;
}

/// Everything `rls lint` accepts beyond the circuit argument.
struct LintFlags {
  bool json = false;
  bool no_resistance = false;
  double threshold = 0.5;
  std::uint64_t la = 0, lb = 0, n = 0;
  std::uint64_t max_resistant = 20;

  void add_to(cli::FlagParser& fp) {
    fp.add_bool("json", &json, "emit diagnostics as JSONL on stdout");
    fp.add_bool("no-resistance", &no_resistance,
                "skip the COP resistance pass (structural checks only)");
    fp.add_double("threshold", &threshold,
                  "flag faults with escape probability >= this (default 0.5)");
    fp.add_uint("la", &la, "resistance budget: short test length");
    fp.add_uint("lb", &lb, "resistance budget: long test length");
    fp.add_uint("n", &n, "resistance budget: tests per length");
    fp.add_uint("max-resistant", &max_resistant,
                "cap on individual RLS-I301 diagnostics (default 20)");
  }

  [[nodiscard]] analysis::LintOptions to_options() const {
    analysis::LintOptions opts;
    opts.resistance = !no_resistance;
    opts.escape_threshold = threshold;
    if (la) opts.budget.l_a = static_cast<std::size_t>(la);
    if (lb) opts.budget.l_b = static_cast<std::size_t>(lb);
    if (n) opts.budget.n = static_cast<std::size_t>(n);
    opts.max_resistant_report = static_cast<std::size_t>(max_resistant);
    return opts;
  }
};

int cmd_lint(const std::string& which, CommonFlags& common,
             const LintFlags& flags) {
  const analysis::LintOptions opts = flags.to_options();
  // Registry circuits always build; files go through the tolerant source
  // scanner so defects the Netlist constructor rejects still get reported
  // as diagnostics instead of a hard parse error.
  analysis::LintResult result;
  std::string name = which;
  if (gen::is_known_circuit(which)) {
    result = analysis::run_lint(gen::make_circuit(which), opts);
  } else {
    std::ifstream in(which);
    if (!in.good()) {
      throw std::runtime_error(
          "'" + which +
          "' is neither a known circuit (see `rls list`) nor a readable "
          ".bench file");
    }
    std::ostringstream text;
    text << in.rdbuf();
    result = analysis::run_lint_source(text.str(), which, opts);
  }

  core::RunContext ctx;
  common.configure(ctx);
  if (ctx.sink()) {
    analysis::emit(result, *ctx.sink());
    ctx.flush();
  }
  if (flags.json) {
    obs::JsonlSink out(stdout);
    analysis::emit(result, out);
    out.flush();
  } else {
    for (const auto& d : result.diagnostics) {
      std::printf("%s\n", analysis::format_text(d).c_str());
    }
    std::printf("%s: %zu error(s), %zu warning(s), %zu info\n", name.c_str(),
                result.count(analysis::Severity::kError),
                result.count(analysis::Severity::kWarning),
                result.count(analysis::Severity::kInfo));
  }
  return result.exit_code();
}

/// Everything `rls analyze` accepts beyond the circuit argument.
struct AnalyzeFlags {
  bool json = false;
  bool scoap = false;
  bool untestable = false;

  void add_to(cli::FlagParser& fp) {
    fp.add_bool("json", &json, "emit the analysis as JSONL on stdout");
    fp.add_bool("scoap", &scoap,
                "include per-net SCOAP measures (sta_net events / table)");
    fp.add_bool("untestable", &untestable,
                "list every statically-untestable fault with its reason");
  }
};

int cmd_analyze(const std::string& which, CommonFlags& common,
                const AnalyzeFlags& flags) {
  const netlist::Netlist nl = load(which);
  const sim::CompiledCircuit cc(nl);
  const std::vector<fault::Fault> faults = fault::collapsed_universe(nl);
  const analysis::StaReport rep = analysis::analyze(cc);
  const analysis::StaFaultClasses cls =
      analysis::classify_faults(rep, cc, faults);
  std::string why;
  const bool consistent = analysis::sta_self_check(rep, cc, faults, &why);

  core::RunContext ctx;
  common.configure(ctx);
  if (ctx.sink()) {
    obs::TraceEvent ev =
        analysis::sta_trace_event(rep, cls, faults.size());
    ev.fields.insert(ev.fields.begin(),
                     std::make_pair(std::string("circuit"),
                                    obs::Value{nl.name()}));
    ctx.emit(ev);
    ctx.flush();
  }

  if (flags.json) {
    analysis::AnalyzeJsonOptions jopt;
    jopt.scoap = flags.scoap;
    jopt.untestable = flags.untestable;
    const std::string jsonl = analysis::analyze_jsonl(cc, faults, jopt);
    std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
  } else {
    std::printf("circuit: %s\n", nl.name().c_str());
    std::printf("nets: %zu (%zu ternary-constant, %zu derived)\n",
                rep.value.size(), rep.num_const_nets, rep.num_derived_const);
    std::printf("unobservable nets (CO = inf): %zu\n", rep.num_co_inf);
    std::printf("sequential fixpoint sweeps: %u\n", rep.fixpoint_iters);
    std::printf("collapsed stuck-at faults: %zu\n", faults.size());
    std::printf("  statically untestable: %zu (%zu unexcitable, "
                "%zu unobservable)\n",
                cls.num_untestable, cls.num_unexcitable, cls.num_unobservable);
    if (flags.scoap) {
      report::Table table({"net", "value", "CC0", "CC1", "CO"});
      const auto cell = [](std::uint32_t v) {
        return v == analysis::kScoapInf ? std::string("inf")
                                        : std::to_string(v);
      };
      const auto num_nets = static_cast<netlist::SignalId>(rep.value.size());
      for (netlist::SignalId s = 0; s < num_nets; ++s) {
        const std::int8_t v = rep.value[s];
        table.add_row({nl.signal_name(s),
                       v == analysis::kX ? "X" : std::to_string(int(v)),
                       cell(rep.cc0[s]), cell(rep.cc1[s]), cell(rep.co[s])});
      }
      std::printf("%s", table.to_string().c_str());
    }
    if (flags.untestable && cls.num_untestable > 0) {
      report::Table table({"fault", "reason"});
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (cls.reason[i] == analysis::UntestableReason::kTestable) continue;
        table.add_row({fault_name(nl, faults[i]),
                       analysis::untestable_reason_name(cls.reason[i])});
      }
      std::printf("%s", table.to_string().c_str());
    }
  }
  if (!consistent) {
    std::fprintf(stderr, "error: sta self-check failed: %s\n", why.c_str());
    return 1;
  }
  return 0;
}

struct FuzzFlags {
  std::uint64_t seeds = 100;
  std::uint64_t seed_begin = 0;
  std::uint64_t jobs = 1;
  std::uint64_t work_budget = 50'000'000;
  bool no_shrink = false;
  std::string corpus_dir;
  std::string findings;  // JSONL output file ("-" = stdout)
  std::string replay;    // replay a corpus directory instead of fuzzing
  std::string scratch_dir;

  void add_to(cli::FlagParser& fp) {
    fp.add_uint("seeds", &seeds, "number of seeds to run (default 100)");
    fp.add_uint("seed-begin", &seed_begin, "first seed (default 0)");
    fp.add_uint("jobs", &jobs, "parallel case workers (0 = hardware)");
    fp.add_uint("work-budget", &work_budget,
                "per-case gate-eval budget before timeout triage");
    fp.add_bool("no-shrink", &no_shrink, "report findings without shrinking");
    fp.add_string("corpus-dir", &corpus_dir,
                  "emit shrunken reproducers (.case/.bench) into DIR");
    fp.add_string("findings", &findings,
                  "write findings JSONL to FILE ('-' = stdout)");
    fp.add_string("replay", &replay,
                  "replay every *.case under DIR as a regression suite");
    fp.add_string("scratch-dir", &scratch_dir,
                  "store-oracle scratch root (default: system temp)");
  }
};

int cmd_fuzz(const FuzzFlags& flags) {
  fuzz::FuzzOptions opt;
  opt.seed_begin = flags.seed_begin;
  opt.num_seeds = flags.seeds;
  opt.jobs = static_cast<unsigned>(flags.jobs);
  opt.shrink = !flags.no_shrink;
  opt.work_budget = flags.work_budget;
  opt.scratch_dir = flags.scratch_dir;
  opt.corpus_dir = flags.corpus_dir;

  const fuzz::FuzzReport rep = flags.replay.empty()
                                   ? fuzz::run_fuzz(opt)
                                   : fuzz::replay_corpus(flags.replay, opt);
  const std::string jsonl = fuzz::findings_to_jsonl(rep.findings);
  if (!flags.findings.empty()) {
    if (flags.findings == "-") {
      std::fputs(jsonl.c_str(), stdout);
    } else {
      std::ofstream out(flags.findings, std::ios::binary | std::ios::trunc);
      if (!out.good()) {
        throw std::runtime_error("cannot write findings file '" +
                                 flags.findings + "'");
      }
      out << jsonl;
    }
  } else {
    std::fputs(jsonl.c_str(), stderr);
  }
  std::fprintf(stderr,
               "fuzz: %llu case(s), %llu oracle run(s), %llu gate-eval "
               "units, %zu finding(s)\n",
               static_cast<unsigned long long>(rep.cases_run),
               static_cast<unsigned long long>(rep.oracles_run),
               static_cast<unsigned long long>(rep.work_spent),
               rep.findings.size());
  return rep.findings.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: rls <list|stats|bench|faults|cop|tables|run|batch|"
               "serve|client|lint|analyze|fuzz> [circuit|file] [options]\n"
               "common options: --engine=packed|conediff|fullsweep "
               "--threads=N "
               "--seed=S --trace=FILE --progress\n"
               "run options:    --la=N --lb=N --n=N --max-iters=N --d1-desc "
               "--combo-jobs=W --prune-untestable\n"
               "                --store-dir=DIR --resume --gc-max-bytes=N "
               "--timing --dump-request\n"
               "batch/serve:    --store-dir=DIR --workers=W --queue-cap=N "
               "--resume\n"
               "                --gc-shard-bytes=N --stream-dir=DIR "
               "(requests: NDJSON, see docs/SERVICE.md)\n"
               "serve only:     --listen=PORT --bind=ADDR --trace=FILE "
               "--max-line-bytes=N --max-write-buffer=N\n"
               "client:         rls client <host:port> [requests.json|-]\n"
               "lint options:   --json --no-resistance --threshold=P "
               "--la=N --lb=N --n=N --max-resistant=K\n"
               "analyze options: --json --scoap --untestable\n"
               "fuzz options:   --seeds=N --seed-begin=S --jobs=J "
               "--work-budget=N --no-shrink\n"
               "                --corpus-dir=DIR --findings=FILE|- "
               "--replay=DIR --scratch-dir=DIR\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();

    cli::FlagParser fp;
    CommonFlags common;
    std::uint64_t top = 10;
    RunFlags run_flags;
    SvcFlags svc_flags;
    LintFlags lint_flags;
    AnalyzeFlags analyze_flags;
    FuzzFlags fuzz_flags;
    const bool is_svc = cmd == "batch" || cmd == "serve";
    if (is_svc) {
      svc_flags.add_to(fp, /*serve=*/cmd == "serve");
    } else if (cmd == "client") {
      // client takes positionals only; keep the parser empty so any
      // flag is a typed usage error.
    } else if (cmd == "fuzz") {
      fuzz_flags.add_to(fp);
    } else {
      common.add_to(fp);
    }
    if (cmd == "lint") lint_flags.add_to(fp);
    if (cmd == "analyze") analyze_flags.add_to(fp);
    if (cmd == "run") {
      fp.add_uint("la", &run_flags.la, "TS_0 short test length");
      fp.add_uint("lb", &run_flags.lb, "TS_0 long test length");
      fp.add_uint("n", &run_flags.n, "tests per length");
      fp.add_uint("max-iters", &run_flags.max_iters,
                  "Procedure 2 iteration cap");
      fp.add_bool("d1-desc", &run_flags.d1_desc, "sweep D1 descending 10..1");
      fp.add_bool("prune-untestable", &run_flags.prune_untestable,
                  "statically prove + skip untestable faults (sta pass); "
                  "FC denominators are unchanged");
      fp.add_uint("combo-jobs", &run_flags.combo_jobs,
                  "speculative combo attempts in flight (0 = hardware); "
                  "forces --threads=1 per attempt unless --threads is given");
      fp.add_string("store-dir", &run_flags.store_dir,
                    "content-addressed artifact store (cache + checkpoints)");
      fp.add_bool("resume", &run_flags.resume,
                  "continue from the checkpoints in --store-dir");
      fp.add_uint("gc-max-bytes", &run_flags.gc_max_bytes,
                  "after the run, shrink the store to at most N bytes");
      fp.add_bool("dump-request", &run_flags.dump_request,
                  "print the canonical CampaignRequest JSON and exit");
      fp.add_bool("timing", &run_flags.timing,
                  "stamp wall-clock ms into the trace (off = deterministic)");
    }
    const std::vector<std::string> pos = fp.parse(argc, argv, 2);
    if (cmd == "serve") return cmd_serve(svc_flags);
    if (cmd == "fuzz") return cmd_fuzz(fuzz_flags);
    if (pos.empty()) return usage();
    const std::string& which = pos[0];

    if (cmd == "stats") return cmd_stats(which);
    if (cmd == "bench") return cmd_bench(which);
    if (cmd == "faults") return cmd_faults(which, common);
    if (cmd == "cop") {
      if (pos.size() > 1) top = cli::parse_uint("cop <n>", pos[1]);
      return cmd_cop(which, static_cast<std::size_t>(top));
    }
    if (cmd == "tables") return cmd_tables(which, common);
    if (cmd == "lint") return cmd_lint(which, common, lint_flags);
    if (cmd == "analyze") return cmd_analyze(which, common, analyze_flags);
    if (cmd == "run") return cmd_run(which, common, run_flags);
    if (cmd == "batch") return cmd_batch(which, svc_flags);
    if (cmd == "client") {
      return cmd_client(which, pos.size() > 1 ? pos[1] : "-");
    }
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
