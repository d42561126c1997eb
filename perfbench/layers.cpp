// Per-layer metrics of a traced run. Two sources, both outside src/:
//   * the server's own streams ("timing":true requests under
//     rls serve --stream-dir): wall_ms on every event plus the counters
//     event, one file per request;
//   * steady_clock spans the benchmark takes around each layer's public
//     call (svc::parse_line, core::Workbench, atpg::classify,
//     SeqFaultSim::run_test_set, ArtifactStore::put,
//     CampaignStore::load_campaign), kept in memory and reduced here.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/detectability.hpp"
#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/ts0.hpp"
#include "fault/seq_fsim.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"

namespace perfbench {
namespace {

template <class F>
double time_ms(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Timing repetitions of the in-process layer calls (medians reported).
constexpr int kReps = 3;

/// One request's stream, reduced.
struct Stream {
  double exec_ms = 0.0;   ///< result.wall_ms: the whole execution
  double ts0_ms = 0.0;    ///< sum of ts0.wall_ms
  double combo_ms = 0.0;  ///< sum of combo_attempt.wall_ms (TS_0 + P2)
  std::size_t attempts = 0, sweeps = 0, kept = 0, bytes = 0;
  std::uint64_t gate_evals = 0, puts = 0, bytes_written = 0, cache_hits = 0;
  bool has_result = false, has_counters = false;
};

Stream read_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing stream " + path);
  Stream s;
  std::string line;
  while (std::getline(in, line)) {
    s.bytes += line.size() + 1;
    const rls::svc::JsonObject ev = rls::svc::parse_json_object(line, path);
    const auto num = [&ev](const char* name) -> double {
      for (const auto& [k, v] : ev) {
        if (k != name) continue;
        if (v.kind == rls::svc::JsonValue::Kind::kDouble) return v.d;
        if (v.kind == rls::svc::JsonValue::Kind::kUint) {
          return static_cast<double>(v.u);
        }
      }
      return 0.0;
    };
    const std::string type = ev.empty() ? "" : ev.front().second.s;
    if (type == "result") {
      s.exec_ms = num("wall_ms");
      s.has_result = true;
    } else if (type == "ts0") {
      s.ts0_ms += num("wall_ms");
    } else if (type == "combo_attempt") {
      s.combo_ms += num("wall_ms");
      ++s.attempts;
    } else if (type == "sweep") {
      ++s.sweeps;
    } else if (type == "id1_pair") {
      ++s.kept;
    } else if (type == "counters") {
      s.gate_evals = static_cast<std::uint64_t>(num("fsim.gate_evals"));
      s.puts = static_cast<std::uint64_t>(num("store.checkpoint_saves") +
                                          num("store.ts0_disk_writes"));
      s.bytes_written = static_cast<std::uint64_t>(num("store.bytes_written"));
      s.cache_hits = static_cast<std::uint64_t>(num("store.cache_hit"));
      s.has_counters = true;
    }
  }
  if (!s.has_result || !s.has_counters) {
    throw std::runtime_error("incomplete stream " + path);
  }
  return s;
}

struct CircuitLayers {
  std::unique_ptr<rls::core::Workbench> wb;
  double workbench_ms = 0.0, classify_ms = 0.0, random_frac = 0.0;
};

CircuitLayers circuit_layers(const char* circuit) {
  CircuitLayers out;
  const rls::core::CampaignOptions defaults;
  std::vector<double> build, classify;
  for (int rep = 0; rep < kReps; ++rep) {
    build.push_back(time_ms([&] {
      out.wb = std::make_unique<rls::core::Workbench>(circuit, defaults);
    }));
    rls::atpg::DetectabilityReport report;
    classify.push_back(time_ms([&] {
      report = rls::atpg::classify(out.wb->cc(), out.wb->universe(),
                                   defaults.detect);
    }));
    out.random_frac = static_cast<double>(report.detected_by_random) /
                      static_cast<double>(report.num_faults());
  }
  out.workbench_ms = median(build);
  out.classify_ms = median(classify);
  return out;
}

/// Single-thread SeqFaultSim::run_test_set of each circuit's first-combo
/// TS_0 against its target faults, summed over kCircuits.
double ts0_engine_ms(const std::map<std::string, CircuitLayers>& circuits,
                     rls::fault::Engine engine) {
  double total = 0.0;
  for (const auto& [name, c] : circuits) {
    rls::core::Ts0Config cfg;
    cfg.seed = c.wb->ts0_seed();
    const rls::scan::TestSet ts0 = rls::core::make_ts0(c.wb->nl(), cfg);
    std::vector<double> reps;
    for (int rep = 0; rep < kReps; ++rep) {
      rls::fault::FaultList fl(c.wb->target_faults());
      rls::fault::SeqFaultSim sim(c.wb->cc());
      sim.set_engine(engine);
      sim.set_threads(1);
      reps.push_back(time_ms([&] { (void)sim.run_test_set(ts0, fl); }));
    }
    total += median(reps);
  }
  return total;
}

std::string counts_note(std::size_t n, const char* what) {
  std::string out = std::to_string(n);
  out.insert(0, 1, '(');
  return out + " " + what + ")";
}

}  // namespace

std::vector<Metric> layer_metrics(const TracedRun& run) {
  const std::size_t n = run.requests.size();
  if (n == 0) throw std::runtime_error("traced pass sent nothing");
  const auto dn = static_cast<double>(n);

  std::map<std::string, CircuitLayers> circuits;
  for (const char* c : kCircuits) circuits[c] = circuit_layers(c);

  // Streams: one per traced request. Each request's spans (client round
  // trip; server execution; its TS_0 and P2 parts) become one line.
  std::ofstream spans(run.spans_path, std::ios::trunc);
  std::vector<double> exec, frontend;
  Stream sum;
  double covered_ms = 0.0;
  std::size_t hits = 0, bytes = 0;
  for (const Sent& s : run.requests) {
    const Stream st = read_stream(run.stream_dir + "/" + s.req.id + ".jsonl");
    spans << "{\"id\":\"" << s.req.id << "\",\"circuit\":\"" << s.req.circuit
          << "\",\"start_ms\":" << s.start_ms << ",\"request_ms\":"
          << s.latency_ms << ",\"exec_ms\":" << st.exec_ms
          << ",\"ts0_ms\":" << st.ts0_ms
          << ",\"p2_ms\":" << st.combo_ms - st.ts0_ms
          << ",\"attempts\":" << st.attempts << ",\"sweeps\":" << st.sweeps
          << ",\"gate_evals\":" << st.gate_evals << "}\n";
    exec.push_back(st.exec_ms);
    frontend.push_back(s.latency_ms - st.exec_ms);
    covered_ms += circuits.at(s.req.circuit).workbench_ms + st.combo_ms;
    sum.exec_ms += st.exec_ms;
    sum.ts0_ms += st.ts0_ms;
    sum.combo_ms += st.combo_ms;
    sum.attempts += st.attempts;
    sum.sweeps += st.sweeps;
    sum.kept += st.kept;
    sum.bytes += st.bytes;
    sum.gate_evals += st.gate_evals;
    sum.puts += st.puts;
    sum.bytes_written += st.bytes_written;
    if (st.cache_hits > 0) ++hits;
    bytes += s.req.line.size() + 1 + s.envelope.size() + 1;
  }

  // svc::parse_line over the workload's own lines.
  std::vector<double> parse_us;
  const std::size_t parse_reps = std::max<std::size_t>(1, 2000 / n);
  for (std::size_t rep = 0; rep < parse_reps; ++rep) {
    for (const Sent& s : run.requests) {
      parse_us.push_back(1000.0 * time_ms([&] {
                           (void)rls::svc::parse_line(s.req.line, s.req.id);
                         }));
    }
  }

  // Store: load every traced campaign from the server's store, and put its
  // bytes into a scratch store on the same filesystem.
  std::map<std::uint64_t, const Sent*> campaigns;
  for (const Sent& s : run.requests) campaigns.emplace(s.req.base_seed, &s);
  rls::store::ArtifactStore served(run.store_dir);
  rls::store::ArtifactStore scratch(run.scratch_dir);
  std::vector<double> get_ms, put_ms;
  const std::size_t store_reps =
      std::max<std::size_t>(1, (40 + campaigns.size() - 1) / campaigns.size());
  for (const auto& [seed, s] : campaigns) {
    const rls::core::Workbench& wb = *circuits.at(s->req.circuit).wb;
    const rls::store::CampaignStore cs(served, wb.nl(), wb.target_faults(),
                                       false);
    const rls::svc::CampaignRequest req =
        rls::svc::parse_request(s->req.line, s->req.id);
    const rls::store::ArtifactKey key =
        cs.campaign_key(req.options.p2, wb.ts0_seed());
    const std::optional<std::vector<std::uint8_t>> body = served.get(key);
    if (!body) throw std::runtime_error("no campaign artifact for " + s->req.id);
    for (std::size_t rep = 0; rep < store_reps; ++rep) {
      rls::core::RunContext ctx;
      get_ms.push_back(time_ms([&] {
        if (!cs.load_campaign(key, &ctx)) {
          throw std::runtime_error("load_campaign missed " + s->req.id);
        }
      }));
      put_ms.push_back(time_ms([&] { (void)scratch.put(key, *body); }));
    }
  }

  std::string errors_note = "(";
  for (const auto& [code, count] : run.errors) {
    errors_note += code + "=" + std::to_string(count) + " ";
  }
  errors_note += "of " + std::to_string(run.attempted) + ")";

  const Percentile exec_p50 = percentile(exec, 0.5);
  const Percentile frontend_p50 = percentile(frontend, 0.5);
  const Percentile parse_p50 = percentile(parse_us, 0.5);
  const Percentile get_p50 = percentile(get_ms, 0.5);
  const Percentile put_p50 = percentile(put_ms, 0.5);
  const auto rate = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> m = {
      {"net.frontend_ms", frontend_p50.value, "ms",
       "p50 of latency - result.wall_ms " + std::string("(n=") +
           std::to_string(frontend_p50.samples) + ")"},
      {"net.server_threads", static_cast<double>(run.server_threads), "count",
       "(/proc task entries, connections open)"},
      {"net.bytes_per_req", static_cast<double>(bytes) / dn, "B",
       "(request + envelope lines)"},
      {"svc.parse_us", parse_p50.value, "us",
       "(n=" + std::to_string(parse_p50.samples) + ")"},
      {"svc.coalesced_frac",
       rate(static_cast<double>(run.coalesced), static_cast<double>(run.ok)),
       "ratio", counts_note(run.coalesced, "coalesced")},
      {"svc.error_frac",
       rate(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
       "ratio", errors_note},
      {"core.exec_ms", exec_p50.value, "ms",
       "p50 of result.wall_ms (n=" + std::to_string(exec_p50.samples) + ")"},
  };
  for (const auto& [name, c] : circuits) {
    m.push_back({"core.workbench_ms." + name, c.workbench_ms, "ms",
                 "(median of 3 in-process)"});
  }
  m.insert(m.end(), {
      {"core.ts0_ms", sum.ts0_ms / dn, "ms", "(per request)"},
      {"core.p2_ms", (sum.combo_ms - sum.ts0_ms) / dn, "ms", "(per request)"},
      {"core.attempts", static_cast<double>(sum.attempts) / dn, "count",
       "(combo attempts run per request)"},
      {"core.sweeps", static_cast<double>(sum.sweeps) / dn, "count",
       "(per request)"},
      {"core.kept_frac",
       rate(static_cast<double>(sum.kept), static_cast<double>(sum.sweeps)),
       "ratio", counts_note(sum.kept, "id1_pair")},
  });
  for (const auto& [name, c] : circuits) {
    m.push_back({"atpg.classify_ms." + name, c.classify_ms, "ms",
                 "(median of 3 in-process)"});
  }
  for (const auto& [name, c] : circuits) {
    m.push_back({"atpg.random_frac." + name, c.random_frac, "ratio",
                 "(faults settled by random PPSFP)"});
  }
  m.insert(m.end(), {
      {"fault.gate_evals", static_cast<double>(sum.gate_evals) / dn, "count",
       "(per request, exact)"},
      {"fault.gate_evals_per_s",
       rate(static_cast<double>(sum.gate_evals), sum.combo_ms / 1000.0), "1/s",
       "(over combo-attempt time)"},
  });
  for (const char* engine : {"fullsweep", "conediff", "packed"}) {
    if (const auto e = rls::fault::parse_engine(engine)) {
      m.push_back({std::string("fault.ts0_ms.") + engine,
                   ts0_engine_ms(circuits, *e), "ms",
                   "(1 thread, TS_0 of the 3 circuits)"});
    }
  }
  m.insert(m.end(), {
      {"fault.cores_busy", rate(run.window.cpu_s(), run.window.wall_s()),
       "cores",
       "(server CPU-s / wall-s; host steal " +
           std::to_string(100.0 * run.window.steal_frac()) + "%)"},
      {"store.puts", static_cast<double>(sum.puts) / dn, "count",
       "(per request)"},
      {"store.bytes_written", static_cast<double>(sum.bytes_written) / dn, "B",
       "(per request)"},
      {"store.put_ms", put_p50.value, "ms",
       "p50 ArtifactStore::put (n=" + std::to_string(put_p50.samples) + ")"},
      {"store.get_ms", get_p50.value, "ms",
       "p50 CampaignStore::load_campaign (n=" +
           std::to_string(get_p50.samples) + ")"},
      {"store.hit_frac", static_cast<double>(hits) / dn, "ratio",
       counts_note(hits, "hits")},
      {"obs.stream_bytes", static_cast<double>(sum.bytes) / dn, "B",
       "(per request)"},
      {"trace.coverage", rate(covered_ms, sum.exec_ms), "ratio",
       "(Workbench + TS_0 + P2) / exec"},
      {"trace.overhead", rate(run.traced_p50_ms, run.untraced_p50_ms), "ratio",
       "traced / untraced latency p50"},
  });
  return m;
}

}  // namespace perfbench
