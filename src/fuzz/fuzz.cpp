#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/lint.hpp"
#include "analysis/sta.hpp"
#include "core/param_select.hpp"
#include "core/procedure1.hpp"
#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "fault/seq_fsim.hpp"
#include "gen/synth.hpp"
#include "net/framing.hpp"
#include "netlist/bench_io.hpp"
#include "obs/trace.hpp"
#include "rand/rng.hpp"
#include "scan/chain.hpp"
#include "sim/compiled.hpp"
#include "sim/worker_pool.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "store/serde.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"

namespace rls::fuzz {

namespace fs = std::filesystem;

const char* bucket_name(Bucket b) noexcept {
  switch (b) {
    case Bucket::kCrash: return "crash";
    case Bucket::kMismatch: return "mismatch";
    case Bucket::kTimeout: return "timeout";
  }
  return "?";
}

namespace {

std::optional<Bucket> parse_bucket(std::string_view name) {
  if (name == "crash") return Bucket::kCrash;
  if (name == "mismatch") return Bucket::kMismatch;
  if (name == "timeout") return Bucket::kTimeout;
  return std::nullopt;
}

// ---- case derivation ------------------------------------------------------

CaseOptions options_from_seed(std::uint64_t seed) {
  // Independent stream from the profile draw, so shrinking one never
  // perturbs the other.
  rls::rand::Rng rng(seed * 0x0F71'5EEDull + 0xF022'0F75ull);
  CaseOptions o;
  o.l_a = 1 + rng.mod_draw(8);
  o.l_b = o.l_a + 1 + rng.mod_draw(12);
  o.n = 1 + rng.mod_draw(10);
  o.d1 = 1 + rng.mod_draw(4);
  o.threads = 1 + rng.mod_draw(2);
  o.combo_jobs = 2 + rng.mod_draw(2);
  o.misr_degree = 4 + static_cast<int>(rng.mod_draw(13));  // 4..16
  o.use_store = rng.mod_draw(4) == 0;
  o.multi_chain = rng.mod_draw(2) == 0;
  o.chain_len = 1 + rng.mod_draw(10);
  o.resistance = rng.mod_draw(4) == 0;
  // The sweep-width oracle runs Procedure 2 over ranked default combos —
  // by far the heaviest check, so only a deterministic subset of seeds
  // pays for it.
  o.sweep = rng.mod_draw(8) == 0;
  return o;
}

// ---- findings -------------------------------------------------------------

obs::TraceEvent finding_event(const Finding& f) {
  obs::TraceEvent ev("finding");
  ev.u64("seed", f.seed)
      .str("oracle", f.oracle)
      .str("bucket", bucket_name(f.bucket))
      .str("detail", f.detail)
      .boolean("shrunk", f.shrunk)
      .u64("pi", f.profile.num_inputs)
      .u64("po", f.profile.num_outputs)
      .u64("ff", f.profile.num_flip_flops)
      .u64("gates", f.profile.num_gates)
      .f64("cf", f.profile.counter_fraction)
      .u64("arity", f.profile.max_arity)
      .u64("pseed", f.profile.seed)
      .u64("tied", f.profile.tied_inputs)
      .u64("la", f.options.l_a)
      .u64("lb", f.options.l_b)
      .u64("n", f.options.n)
      .u64("d1", f.options.d1)
      .u64("threads", f.options.threads)
      .u64("cjobs", f.options.combo_jobs)
      .u64("misr", static_cast<std::uint64_t>(f.options.misr_degree))
      .boolean("store", f.options.use_store)
      .boolean("chain", f.options.multi_chain)
      .u64("chainlen", f.options.chain_len)
      .boolean("resist", f.options.resistance)
      .boolean("sweep", f.options.sweep);
  return ev;
}

// ---- oracle plumbing ------------------------------------------------------

struct CaseStats {
  std::uint64_t work = 0;     ///< gate-eval units spent
  std::uint64_t oracles = 0;  ///< oracle bodies entered
};

/// Per-oracle fixed cost charged for non-simulation work (lint, serde),
/// so even simulation-free cases make budget progress.
constexpr std::uint64_t kOracleBaseWork = 1000;

struct OracleEnv {
  const FuzzCase& c;
  const FuzzOptions& opt;
  const netlist::Netlist& nl;
  const sim::CompiledCircuit& cc;
  const std::vector<fault::Fault>& universe;
  const scan::TestSet& ts;  ///< TS_0 followed by one limited-scan set
};

/// Engines under cross-check, in comparison order.
constexpr fault::Engine kEngines[3] = {fault::Engine::kConeDiff,
                                       fault::Engine::kFullSweep,
                                       fault::Engine::kPacked};

std::vector<std::uint8_t> simulate_flags(const OracleEnv& env,
                                         fault::Engine engine,
                                         unsigned threads,
                                         fault::ObservationMode mode,
                                         int misr_degree,
                                         std::uint64_t* work) {
  fault::SeqFaultSim sim(env.cc);
  sim.set_engine(engine);
  sim.set_threads(threads);
  sim.set_observation_mode(mode, misr_degree);
  fault::FaultList fl(env.universe);
  sim.run_test_set(env.ts, fl);
  *work += sim.gate_evals();
  std::vector<std::uint8_t> flags = fl.detected_flags();
  // Test-only planted bug: corrupt this engine's verdict when the case is
  // big enough (shrink then converges on exactly corrupt_min_gates gates).
  if (env.opt.corrupt_engine == static_cast<int>(engine) &&
      env.c.profile.num_gates >= env.opt.corrupt_min_gates &&
      !flags.empty()) {
    flags[0] ^= 1;
  }
  return flags;
}

std::size_t count_diffs(const std::vector<std::uint8_t>& a,
                        const std::vector<std::uint8_t>& b,
                        std::size_t* first) {
  std::size_t n = 0;
  *first = a.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      if (n == 0) *first = i;
      ++n;
    }
  }
  return n;
}

std::optional<std::string> engine_crosscheck(const OracleEnv& env,
                                             std::uint64_t* work) {
  for (const fault::ObservationMode mode :
       {fault::ObservationMode::kPerCycle, fault::ObservationMode::kSignature}) {
    const char* mode_name =
        mode == fault::ObservationMode::kPerCycle ? "percycle" : "signature";
    const std::vector<std::uint8_t> base = simulate_flags(
        env, fault::Engine::kConeDiff, 1, mode, env.c.options.misr_degree, work);
    std::vector<std::pair<fault::Engine, unsigned>> configs;
    for (const fault::Engine engine : kEngines) {
      if (engine != fault::Engine::kConeDiff) configs.emplace_back(engine, 1u);
      if (env.c.options.threads > 1) {
        configs.emplace_back(engine, env.c.options.threads);
      }
    }
    for (const auto& [engine, threads] : configs) {
      const std::vector<std::uint8_t> flags = simulate_flags(
          env, engine, threads, mode, env.c.options.misr_degree, work);
      if (flags != base) {
        std::size_t first = 0;
        const std::size_t n = count_diffs(base, flags, &first);
        std::ostringstream msg;
        msg << mode_name << ": " << fault::engine_name(engine) << "@"
            << threads << " differs from conediff@1 on " << n << "/"
            << base.size() << " faults (first at " << first << ")";
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

/// The case's TS_0 (the first half of OracleEnv::ts).
core::Ts0Config case_ts0_config(const FuzzCase& c) {
  core::Ts0Config cfg;
  cfg.l_a = c.options.l_a;
  cfg.l_b = c.options.l_b;
  cfg.n = c.options.n;
  cfg.seed = c.seed ^ 0x750750750ull;
  return cfg;
}

/// Light Procedure 2 knobs for the sweep / campaign oracles: enough
/// structure to exercise the machinery, bounded enough for thousands of
/// seeds on one CPU.
core::Procedure2Options small_p2(const FuzzCase& c) {
  core::Procedure2Options p2;
  p2.d1_order = {1, 2, 3};
  p2.n_same_fc = 1;
  p2.max_iterations = 2;
  p2.base_seed = c.seed ^ 0x9E3779B97F4A7C15ull;
  p2.engine = kEngines[c.seed % 3];
  p2.sim_threads = 1;
  return p2;
}

std::string events_bytes(const obs::VectorSink& sink) {
  std::string out;
  for (const obs::TraceEvent& ev : sink.events()) {
    out += obs::to_jsonl(ev);
    out += '\n';
  }
  return out;
}

/// Counter snapshot without the "sweep.*" speculation counters (the one
/// family documented to vary with W).
std::string counters_bytes(const core::RunContext& ctx) {
  std::string out;
  for (const auto& [name, total] : ctx.counters().snapshot()) {
    if (name.rfind("sweep.", 0) == 0) continue;
    out += name;
    out += '=';
    out += std::to_string(total);
    out += '\n';
  }
  return out;
}

std::vector<std::uint8_t> combo_runs_bytes(
    const std::vector<core::ComboRun>& runs,
    const std::optional<core::ComboRun>& winner) {
  store::ByteWriter w;
  w.u64(runs.size());
  for (const core::ComboRun& r : runs) store::write_combo_run(w, r);
  w.u8(winner.has_value() ? 1 : 0);
  if (winner) store::write_combo_run(w, *winner);
  return w.take();
}

std::optional<std::string> sweep_width(const OracleEnv& env,
                                       std::uint64_t* work) {
  const core::Procedure2Options p2 = small_p2(env.c);
  const std::uint64_t ts0_seed = env.c.seed ^ 0x750750750ull;

  struct Attempt {
    std::string events, counters;
    std::vector<std::uint8_t> runs;
  };
  const auto attempt = [&](unsigned w_jobs) {
    obs::VectorSink sink;
    core::RunContext ctx;
    ctx.set_timing(false);
    ctx.set_sink(&sink);
    std::vector<core::ComboRun> runs;
    const std::optional<core::ComboRun> winner = core::first_complete_combo(
        env.cc, env.universe, p2, ts0_seed, &runs, /*max_attempts=*/2, &ctx,
        w_jobs);
    *work += ctx.counters().value("fsim.gate_evals");
    return Attempt{events_bytes(sink), counters_bytes(ctx),
                   combo_runs_bytes(runs, winner)};
  };

  const Attempt serial = attempt(1);
  const Attempt wide = attempt(env.c.options.combo_jobs);
  if (serial.runs != wide.runs) {
    return "W=1 vs W=" + std::to_string(env.c.options.combo_jobs) +
           ": committed combo runs / winner differ";
  }
  if (serial.events != wide.events) {
    return "W=1 vs W=" + std::to_string(env.c.options.combo_jobs) +
           ": trace event streams differ (" +
           std::to_string(serial.events.size()) + " vs " +
           std::to_string(wide.events.size()) + " bytes)";
  }
  if (serial.counters != wide.counters) {
    return "W=1 vs W=" + std::to_string(env.c.options.combo_jobs) +
           ": non-sweep counters differ";
  }
  return std::nullopt;
}

/// Oracle: Procedure 2 under kPacked builds its sweeps from TS_0's
/// batches plus each TS(I, D_1)'s schedules, compacting lanes where
/// per-test schedules drop tests. It must commit exactly what the
/// fullsweep reference commits on the materialized sets: the same pairs,
/// detections and cycle costs. The reseed mode is drawn per case.
std::optional<std::string> p2_engines(const OracleEnv& env,
                                      std::uint64_t* work) {
  core::Procedure2Options p2 = small_p2(env.c);
  p2.reseed_per_test = rls::rand::Rng(env.c.seed ^ 0x9E5EED).next_bit();
  const scan::TestSet ts0 = core::make_ts0(env.nl, case_ts0_config(env.c));

  struct Run {
    core::Procedure2Result result;
    std::vector<std::uint8_t> detected;
  };
  const auto run = [&](fault::Engine engine, unsigned threads) {
    core::Procedure2Options o = p2;
    o.engine = engine;
    o.sim_threads = threads;
    fault::FaultList fl(env.universe);
    core::RunContext ctx;
    Run r{core::run_procedure2(env.cc, ts0, fl, o, &ctx), fl.detected_flags()};
    *work += ctx.counters().value("fsim.gate_evals");
    return r;
  };
  const Run ref = run(fault::Engine::kFullSweep, 1);
  const Run packed = run(fault::Engine::kPacked, env.c.options.threads);
  const std::string mode =
      p2.reseed_per_test ? "reseed per test" : "seeded per set";
  const core::Procedure2Result& a = packed.result;
  const core::Procedure2Result& b = ref.result;
  if (a.ts0_detected != b.ts0_detected || a.ncyc0 != b.ncyc0) {
    return mode + ": packed TS_0 differs from fullsweep";
  }
  if (a.applied != b.applied) {
    const auto diff = std::mismatch(a.applied.begin(), a.applied.end(),
                                    b.applied.begin(), b.applied.end());
    return mode + ": committed (I, D_1) pairs differ from pair " +
           std::to_string(diff.first - a.applied.begin()) + " on (packed " +
           std::to_string(a.applied.size()) + ", fullsweep " +
           std::to_string(b.applied.size()) + " pairs)";
  }
  if (a.total_detected != b.total_detected || a.complete != b.complete ||
      packed.detected != ref.detected) {
    std::size_t first = 0;
    const std::size_t n = count_diffs(ref.detected, packed.detected, &first);
    return mode + ": packed detections differ from fullsweep on " +
           std::to_string(n) + "/" + std::to_string(ref.detected.size()) +
           " faults (first at " + std::to_string(first) + ")";
  }
  return std::nullopt;
}

/// A ComboRun whose every field is drawn from the case seed: the codec
/// sees the full u32/u64 range, not just what a small campaign reaches.
core::ComboRun random_combo_run(const FuzzCase& c) {
  rls::rand::Rng rng(c.seed ^ 0xC0DE'C0DE'C0DEull);
  core::ComboRun run;
  run.combo = {c.options.l_a, c.options.l_b, c.options.n, rng.next_u64()};
  run.result.ts0_detected = rng.next_u64();
  run.result.ncyc0 = run.combo.ncyc0;
  run.result.applied.resize(rng.uniform(0, 8));
  for (core::AppliedSet& a : run.result.applied) {
    a.iteration = static_cast<std::uint32_t>(rng.next_u64());
    a.d1 = static_cast<std::uint32_t>(rng.next_u64());
    a.detected = rng.next_u64();
    a.cycles = rng.next_u64();
    a.limited_units = rng.next_u64();
    a.total_vectors = rng.next_u64();
  }
  run.result.total_detected = rng.next_u64();
  run.result.complete = rng.next_bit();
  run.result.aborted = rng.next_bit();
  return run;
}

std::optional<std::string> store_roundtrip(const OracleEnv& env,
                                           const std::string& case_dir,
                                           std::uint64_t* work) {
  *work += kOracleBaseWork;
  // serde: encode -> decode -> encode must be byte-stable. A ComboRun is
  // the body of every p2 and campaign artifact.
  store::ByteWriter w1;
  store::write_combo_run(w1, random_combo_run(env.c));
  const std::vector<std::uint8_t> b1 = w1.buffer();
  store::ByteReader r(b1, "fuzz:combo-run");
  const core::ComboRun run2 = store::read_combo_run(r);
  r.expect_end();
  store::ByteWriter w2;
  store::write_combo_run(w2, run2);
  if (w2.buffer() != b1) {
    return "combo-run serde re-encode differs (" + std::to_string(b1.size()) +
           " vs " + std::to_string(w2.buffer().size()) + " bytes)";
  }
  if (store::fnv1a64(b1.data(), b1.size()) !=
      store::fnv1a64(w2.buffer().data(), w2.buffer().size())) {
    return "combo-run serde digest drift";
  }

  if (!env.c.options.use_store) return std::nullopt;
  // put/get through the content-addressed store must return the body
  // byte-for-byte.
  store::ArtifactStore as(case_dir);
  store::ArtifactKey key;
  key.kind = "fuzz";
  key.circuit = store::digest_circuit(env.nl);
  key.with("seed", env.c.seed);
  as.put(key, b1);
  if (!as.contains(key)) return "store contains() false after put()";
  const std::optional<std::vector<std::uint8_t>> got = as.get(key);
  if (!got) return "store get() empty after put()";
  if (*got != b1) {
    return "store get() body differs from put() body (" +
           std::to_string(b1.size()) + " vs " + std::to_string(got->size()) +
           " bytes)";
  }
  return std::nullopt;
}

std::optional<std::string> campaign_warm(const OracleEnv& env,
                                         const std::string& case_dir,
                                         std::uint64_t* work) {
  const core::Procedure2Options p2 = small_p2(env.c);
  const std::uint64_t ts0_seed = env.c.seed ^ 0x750750750ull;
  const core::Combo combo{env.c.options.l_a, env.c.options.l_b,
                          env.c.options.n, /*ncyc0=*/0};

  store::ArtifactStore as(case_dir);
  store::CampaignStore cs(as, env.nl, env.universe, /*resume=*/false);

  const auto run = [&](core::RunContext& ctx) {
    ctx.set_timing(false);
    ctx.set_store(&cs);
    const core::ComboRun r =
        core::run_combo(env.cc, env.universe, combo, p2, ts0_seed, &ctx);
    *work += ctx.counters().value("fsim.gate_evals");
    store::ByteWriter w;
    store::write_combo_run(w, r);
    return w.take();
  };

  core::RunContext cold;
  const std::vector<std::uint8_t> cold_bytes = run(cold);
  core::RunContext warm;
  const std::vector<std::uint8_t> warm_bytes = run(warm);
  if (warm_bytes != cold_bytes) {
    return "cold vs warm campaign rows differ (" +
           std::to_string(cold_bytes.size()) + " vs " +
           std::to_string(warm_bytes.size()) + " bytes)";
  }
  if (warm.counters().value("fsim.gate_evals") != 0) {
    return "warm campaign re-simulated: fsim.gate_evals=" +
           std::to_string(warm.counters().value("fsim.gate_evals")) +
           " (expected 0)";
  }
  if (warm.counters().value("store.cache_hit") == 0) {
    return "warm campaign reported no cache hit";
  }
  return std::nullopt;
}

std::optional<std::string> gen_lint(const FuzzCase& c, std::uint64_t* work) {
  *work += kOracleBaseWork;
  const netlist::Netlist nl = gen::synthesize(c.profile);
  const std::string bench = netlist::write_bench(nl);
  analysis::LintOptions lo;
  lo.resistance = c.options.resistance;
  if (c.options.multi_chain) {
    lo.chain = scan::ChainConfig::multi(nl.num_state_vars(),
                                        std::max<std::size_t>(c.options.chain_len, 1));
  }
  const analysis::LintResult res =
      analysis::run_lint_source(bench, c.profile.name, lo);
  for (const analysis::Diagnostic& d : res.diagnostics) {
    if (d.severity == analysis::Severity::kError) {
      return "generator produced E-severity netlist: " +
             analysis::format_text(d);
    }
  }
  return std::nullopt;
}

/// Oracle #6: static-testability soundness. Every fault the sta pass
/// proves untestable must be undetected by the exact reference engine
/// (kFullSweep, per-cycle observation) on the case's TS_0 + limited-scan
/// set, and the report must pass its own machine-checkable invariants.
/// Profiles with tied inputs make this bite: they synthesize derived
/// constants, so the untestable set is routinely non-empty.
std::optional<std::string> sta_soundness(const OracleEnv& env,
                                         std::uint64_t* work) {
  *work += kOracleBaseWork;
  const analysis::StaReport r = analysis::analyze(env.cc);
  const analysis::StaFaultClasses cls =
      analysis::classify_faults(r, env.cc, env.universe);
  std::string why;
  if (!analysis::sta_self_check(r, env.cc, env.universe, &why)) {
    return "sta self-check failed: " + why;
  }
  if (cls.num_untestable == 0) return std::nullopt;
  const std::vector<std::uint8_t> detected = simulate_flags(
      env, fault::Engine::kFullSweep, 1, fault::ObservationMode::kPerCycle,
      env.c.options.misr_degree, work);
  for (std::size_t i = 0; i < env.universe.size(); ++i) {
    if (cls.reason[i] == analysis::UntestableReason::kTestable) continue;
    if (detected[i]) {
      return "fault " + fault::fault_name(env.nl, env.universe[i]) +
             " classified " +
             analysis::untestable_reason_name(cls.reason[i]) +
             " but detected by fullsweep (sta unsoundness)";
    }
  }
  return std::nullopt;
}

/// svc request-parser fuzzing: deterministic byte- and field-level
/// mutations of a canonical CampaignRequest line. Every mutant must either
/// parse or be rejected with RequestError (anything else escapes as a
/// crash finding), and every *accepted* mutant must be canonically stable:
/// parse(canonical(parse(m))) renders the same canonical bytes.
std::optional<std::string> svc_request_fuzz(const FuzzCase& c,
                                            std::uint64_t* work) {
  *work += kOracleBaseWork;
  svc::CampaignRequest req;
  req.id = "fz" + std::to_string(c.seed);
  req.circuit = "s27";
  req.la = c.options.l_a;
  req.lb = c.options.l_b;
  req.n = c.options.n;
  req.options.p2.engine = kEngines[c.seed % 3];
  req.options.p2.sim_threads = c.options.threads;
  req.options.p2.base_seed = c.seed;
  req.options.combo_jobs = c.options.combo_jobs;
  req.options.prune_untestable = (c.seed & 1) != 0;
  req.priority = c.seed % 5;             // schema-2 schedule-only fields
  req.deadline_ms = (c.seed % 4) * 500;
  const std::string canon = req.canonical_json();

  // parse_line is the real wire entry point: it dispatches requests and
  // cancel control lines, so both kinds are fuzzed through it.
  const auto canonical_of = [](const std::string& text) {
    const svc::ParsedLine p = svc::parse_line(text, "fuzz");
    return p.cancel ? p.cancel->canonical_json()
                    : p.request->canonical_json();
  };
  if (canonical_of(canon) != canon) {
    return "canonical request is not a parse fixpoint";
  }
  svc::CancelLine cl;
  cl.target = req.id;
  const std::string cancel_canon = cl.canonical_json();
  if (canonical_of(cancel_canon) != cancel_canon) {
    return "canonical cancel line is not a parse fixpoint";
  }

  rls::rand::Rng rng(c.seed ^ 0x5C0F'FEED'5C0Full);
  for (int k = 0; k < 24; ++k) {
    std::string mut = (k % 3 == 2) ? cancel_canon : canon;
    switch (rng.mod_draw(4)) {
      case 0:  // flip one byte (low bits keep most mutants printable)
        mut[rng.mod_draw(mut.size())] ^=
            static_cast<char>(1u << rng.mod_draw(7));
        break;
      case 1:  // truncate
        mut.resize(rng.mod_draw(mut.size()));
        break;
      case 2: {  // splice a random slice of the line into itself
        const std::size_t from = rng.mod_draw(mut.size());
        const std::size_t len = 1 + rng.mod_draw(8);
        mut.insert(rng.mod_draw(mut.size()),
                   mut.substr(from, std::min(len, mut.size() - from)));
        break;
      }
      default: {  // drop one comma-delimited field
        const std::size_t comma = mut.find(',', rng.mod_draw(mut.size()));
        if (comma == std::string::npos) break;
        const std::size_t next = mut.find(',', comma + 1);
        mut.erase(comma, next == std::string::npos ? mut.size() - comma - 1
                                                   : next - comma);
        break;
      }
    }
    try {
      const std::string canon2 = canonical_of(mut);
      if (canonical_of(canon2) != canon2) {
        return "accepted mutant " + std::to_string(k) +
               " is not canonically stable";
      }
    } catch (const svc::RequestError&) {
      // Clean, typed rejection — the contract for semantically bad input.
    } catch (const svc::JsonError&) {
      // Clean, typed rejection at the syntax layer. Any other exception
      // escapes to the oracle wrapper as a crash.
    }
  }
  return std::nullopt;
}

/// One splitter run over `bytes` in `chunk`-sized feeds: the delivered
/// lines plus the typed frame error (if any) that ended the run.
struct SplitOutcome {
  std::vector<std::string> lines;
  int error = -1;  ///< -1 = clean, else FrameError::Kind

  bool operator==(const SplitOutcome& o) const {
    return error == o.error && lines == o.lines;
  }
};

SplitOutcome run_split(const std::string& bytes, std::size_t chunk,
                       std::size_t max_line) {
  SplitOutcome out;
  net::LineSplitter splitter(max_line);
  try {
    for (std::size_t pos = 0; pos < bytes.size(); pos += chunk) {
      splitter.feed(std::string_view(bytes).substr(pos, chunk),
                    [&](std::string_view l) { out.lines.emplace_back(l); });
    }
    if (const auto last = splitter.finish()) out.lines.push_back(*last);
  } catch (const net::FrameError& e) {
    out.error = static_cast<int>(e.kind);
  }
  return out;
}

/// net framing fuzz: a TCP read boundary can land anywhere, so the
/// LineSplitter must be chunk-invariant — every chunking of the same
/// byte stream yields the same line sequence, and hostile bytes (an
/// embedded NUL, an oversize line) fail with the same typed error after
/// the same delivered prefix. One hostile mode per stream (NUL and
/// oversize in the *same* line legitimately race on which is seen
/// first, and that order depends on chunking).
std::optional<std::string> net_frame_fuzz(const FuzzCase& c,
                                          std::uint64_t* work) {
  *work += kOracleBaseWork;
  constexpr std::size_t kCap = 96;
  rls::rand::Rng rng(c.seed ^ 0xF8A3'11CE'F8A3ull);
  const unsigned mode = static_cast<unsigned>(c.seed % 3);

  std::string bytes;
  const std::size_t nlines = 3 + rng.mod_draw(6);
  for (std::size_t i = 0; i < nlines; ++i) {
    switch (rng.mod_draw(4)) {
      case 0:  // a plausible control line
        bytes += "{\"schema\":2,\"cancel\":\"fz" +
                 std::to_string(rng.mod_draw(100)) + "\"}";
        break;
      case 1:  // empty keep-alive line
        break;
      default: {  // random printable junk, always under the cap
        const std::size_t len = rng.mod_draw(64);
        for (std::size_t j = 0; j < len; ++j) {
          bytes.push_back(static_cast<char>('a' + rng.mod_draw(26)));
        }
        break;
      }
    }
    bytes += (rng.mod_draw(4) == 0) ? "\r\n" : "\n";
  }
  if (mode == 1) {  // hostile: one NUL at an arbitrary stream position
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                     rng.mod_draw(bytes.size())),
                 '\0');
  } else if (mode == 2) {  // hostile: one line past the cap
    std::string big(kCap + 8 + rng.mod_draw(64), 'z');
    bytes.insert(rng.mod_draw(bytes.size()), big + "\n");
  }
  if (rng.mod_draw(3) == 0) bytes += "unterminated tail";

  const SplitOutcome ref = run_split(bytes, bytes.size(), kCap);
  if (mode == 0 && ref.error != -1) {
    return "clean stream raised a frame error";
  }
  if (mode != 0 && ref.error == -1) {
    return "hostile stream (mode " + std::to_string(mode) +
           ") was not rejected";
  }
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        std::size_t{13}, std::size_t{1} + rng.mod_draw(40)}) {
    *work += bytes.size();
    if (!(run_split(bytes, chunk, kCap) == ref)) {
      return "chunk=" + std::to_string(chunk) +
             " changes the line sequence (mode " + std::to_string(mode) +
             ")";
    }
  }
  return std::nullopt;
}

struct CaseScratch {
  std::string dir;  ///< per-case store directory (created lazily)
  explicit CaseScratch(const FuzzOptions& opt, std::uint64_t seed) {
    const fs::path root = opt.scratch_dir.empty()
                              ? fs::temp_directory_path() / "rls-fuzz"
                              : fs::path(opt.scratch_dir);
    dir = (root / ("case-" + std::to_string(seed))).string();
  }
  ~CaseScratch() {
    std::error_code ec;
    fs::remove_all(dir, ec);  // best effort
  }
};

std::vector<Finding> run_case_impl(const FuzzCase& c, const FuzzOptions& opt,
                                   const netlist::Netlist* pinned,
                                   CaseStats* stats) {
  std::vector<Finding> out;
  std::uint64_t work = 0;
  std::uint64_t oracles = 0;
  const auto add = [&](const char* oracle, Bucket b, std::string detail) {
    Finding f;
    f.seed = c.seed;
    f.oracle = oracle;
    f.bucket = b;
    f.detail = std::move(detail);
    f.profile = c.profile;
    f.options = c.options;
    out.push_back(std::move(f));
  };
  // Runs one oracle body with crash triage and the deterministic work
  // budget (timeout triage). Returns false when the case must stop.
  const auto oracle = [&](const char* name, auto&& body) -> bool {
    ++oracles;
    try {
      if (std::optional<std::string> diff = body()) {
        add(name, Bucket::kMismatch, std::move(*diff));
      }
    } catch (const std::exception& e) {
      add(name, Bucket::kCrash, e.what());
    } catch (...) {
      add(name, Bucket::kCrash, "non-standard exception");
    }
    if (work > opt.work_budget) {
      add(name, Bucket::kTimeout,
          "work budget exceeded after " + std::string(name) + ": " +
              std::to_string(work) + " > " + std::to_string(opt.work_budget) +
              " gate-eval units");
      return false;
    }
    return true;
  };

  // 1. Generation + lint (always from the profile, even under a pinned
  //    netlist — this oracle checks the *generator*), then the circuit-free
  //    svc request-parser fuzz.
  if (!oracle("gen-lint", [&] { return gen_lint(c, &work); })) {
    if (stats) *stats = {work, oracles};
    return out;
  }
  if (!oracle("svc-request", [&] { return svc_request_fuzz(c, &work); })) {
    if (stats) *stats = {work, oracles};
    return out;
  }
  if (!oracle("net-frame", [&] { return net_frame_fuzz(c, &work); })) {
    if (stats) *stats = {work, oracles};
    return out;
  }

  // 2. Shared simulation prerequisites. A failure here (synthesis, compile,
  //    TS_0 generation) is a crash of the pipeline front end.
  std::optional<netlist::Netlist> own_nl;
  const netlist::Netlist* nl = pinned;
  std::optional<sim::CompiledCircuit> cc;
  std::vector<fault::Fault> universe;
  scan::TestSet ts;
  const bool compiled = [&] {
    try {
      if (!nl) {
        own_nl.emplace(gen::synthesize(c.profile));
        nl = &*own_nl;
      }
      cc.emplace(*nl);
      universe = fault::collapsed_universe(*nl);
      const core::Ts0Config cfg = case_ts0_config(c);
      ts = core::make_ts0(*nl, cfg);
      core::LimitedScanParams lp;
      lp.iteration = 1;
      lp.d1 = c.options.d1;
      lp.base_seed = cfg.seed;
      scan::TestSet limited =
          core::make_limited_scan_set(ts, nl->num_state_vars(), lp);
      for (scan::ScanTest& t : limited.tests) ts.tests.push_back(std::move(t));
      return true;
    } catch (const std::exception& e) {
      ++oracles;
      add("compile", Bucket::kCrash, e.what());
      return false;
    }
  }();
  if (!compiled) {
    if (stats) *stats = {work, oracles};
    return out;
  }
  const OracleEnv env{c, opt, *nl, *cc, universe, ts};
  const CaseScratch scratch(opt, c.seed);

  bool alive =
      oracle("engine-crosscheck", [&] { return engine_crosscheck(env, &work); });
  if (alive) {
    alive = oracle("p2-engines", [&] { return p2_engines(env, &work); });
  }
  if (alive) {
    alive = oracle("sta-soundness", [&] { return sta_soundness(env, &work); });
  }
  if (alive && c.options.sweep) {
    alive = oracle("sweep-width", [&] { return sweep_width(env, &work); });
  }
  if (alive) {
    alive = oracle("store-roundtrip",
                   [&] { return store_roundtrip(env, scratch.dir, &work); });
  }
  if (alive && c.options.use_store) {
    oracle("campaign-warm",
           [&] { return campaign_warm(env, scratch.dir, &work); });
  }
  if (stats) *stats = {work, oracles};
  return out;
}

// ---- shrinking ------------------------------------------------------------

bool case_valid(const FuzzCase& c) {
  if (c.profile.num_inputs == 0 && c.profile.num_flip_flops == 0) return false;
  if (c.profile.num_outputs == 0) return false;
  if (c.options.l_b <= c.options.l_a) return false;
  if (c.options.n == 0 || c.options.l_a == 0) return false;
  return true;
}

}  // namespace

FuzzCase derive_case(std::uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  c.profile = gen::profile_from_seed(seed);
  c.options = options_from_seed(seed);
  return c;
}

std::vector<Finding> run_case(const FuzzCase& c, const FuzzOptions& opt,
                              const netlist::Netlist* pinned) {
  return run_case_impl(c, opt, pinned, nullptr);
}

Finding shrink_finding(const Finding& f, const FuzzOptions& opt) {
  FuzzOptions inner = opt;
  inner.shrink = false;
  inner.corpus_dir.clear();
  FuzzCase cur;
  cur.seed = f.seed;
  cur.profile = f.profile;
  cur.options = f.options;

  std::string last_detail = f.detail;
  const auto reproduces = [&](const FuzzCase& cand,
                              std::string* detail) -> bool {
    if (!case_valid(cand)) return false;
    const std::vector<Finding> fs = run_case_impl(cand, inner, nullptr, nullptr);
    for (const Finding& g : fs) {
      if (g.oracle == f.oracle && g.bucket == f.bucket) {
        if (detail) *detail = g.detail;
        return true;
      }
    }
    return false;
  };

  // One knob: bisect toward `minv` keeping the failure alive. `hi` always
  // fails on entry and on exit.
  const auto bisect = [&](auto getter, std::size_t minv) -> bool {
    const std::size_t start = getter(cur);
    if (start <= minv) return false;
    FuzzCase cand = cur;
    getter(cand) = minv;
    std::string d;
    if (reproduces(cand, &d)) {
      getter(cur) = minv;
      last_detail = std::move(d);
      return true;
    }
    std::size_t lo = minv, hi = start;
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      cand = cur;
      getter(cand) = mid;
      if (reproduces(cand, &d)) {
        hi = mid;
        last_detail = d;
      } else {
        lo = mid;
      }
    }
    if (hi == start) return false;
    getter(cur) = hi;
    return true;
  };
  const auto try_flag = [&](auto setter) -> bool {
    FuzzCase cand = cur;
    setter(cand);
    std::string d;
    if (!reproduces(cand, &d)) return false;
    cur = cand;
    last_detail = std::move(d);
    return true;
  };

  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.profile.num_gates; }, 0);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.profile.num_flip_flops; }, 0);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.profile.num_inputs; }, 0);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.profile.num_outputs; }, 1);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.options.n; }, 1);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.options.l_a; }, 1);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.options.l_b; }, 2);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.options.chain_len; }, 1);
    changed |= bisect([](FuzzCase& c) -> std::size_t& { return c.profile.tied_inputs; }, 0);
    changed |= try_flag([](FuzzCase& c) { c.profile.counter_fraction = 0.0; });
    changed |= try_flag([](FuzzCase& c) { c.profile.max_arity = 4; });
    changed |= try_flag([](FuzzCase& c) { c.options.threads = 1; });
    changed |= try_flag([](FuzzCase& c) { c.options.use_store = false; });
    changed |= try_flag([](FuzzCase& c) { c.options.multi_chain = false; });
    changed |= try_flag([](FuzzCase& c) { c.options.resistance = false; });
    changed |= try_flag([](FuzzCase& c) { c.options.sweep = false; });
    if (!changed) break;
  }

  Finding out = f;
  out.profile = cur.profile;
  out.options = cur.options;
  out.detail = last_detail;
  out.shrunk = true;
  return out;
}

FuzzReport run_fuzz(const FuzzOptions& opt) {
  FuzzReport rep;
  const std::uint64_t n = opt.num_seeds;
  std::vector<std::vector<Finding>> slots(n);
  std::vector<CaseStats> stats(n);

  std::atomic<std::uint64_t> cursor{0};
  const auto step = [&]() -> bool {
    const std::uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return false;
    const std::uint64_t seed = opt.seed_begin + i;
    const FuzzCase c = derive_case(seed);
    std::vector<Finding> fs = run_case_impl(c, opt, nullptr, &stats[i]);
    if (opt.shrink) {
      for (Finding& f : fs) f = shrink_finding(f, opt);
    }
    slots[i] = std::move(fs);
    return true;
  };

  unsigned jobs = opt.jobs == 0 ? std::thread::hardware_concurrency() : opt.jobs;
  if (jobs == 0) jobs = 1;
  if (jobs <= 1 || n <= 1) {
    while (step()) {
    }
  } else {
    sim::WorkerPool pool;
    pool.run_tasks(jobs, [&](unsigned) { return step(); });
  }

  rep.cases_run = n;
  for (std::uint64_t i = 0; i < n; ++i) {
    rep.work_spent += stats[i].work;
    rep.oracles_run += stats[i].oracles;
    for (Finding& f : slots[i]) rep.findings.push_back(std::move(f));
  }
  if (!opt.corpus_dir.empty()) {
    for (const Finding& f : rep.findings) write_reproducer(f, opt.corpus_dir);
  }
  return rep;
}

std::string findings_to_jsonl(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += obs::to_jsonl(finding_event(f));
    out += '\n';
  }
  return out;
}

std::string write_reproducer(const Finding& f, const std::string& dir) {
  fs::create_directories(dir);
  const std::string stem = "s" + std::to_string(f.seed) + "-" + f.oracle;
  {
    std::ofstream out(fs::path(dir) / (stem + ".case"),
                      std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw std::runtime_error("fuzz: cannot write reproducer '" + stem +
                               ".case' under '" + dir + "'");
    }
    out << obs::to_jsonl(finding_event(f)) << '\n';
  }
  // The pinned netlist, when the profile still synthesizes (a crash inside
  // the generator has no netlist to pin).
  try {
    const netlist::Netlist nl = gen::synthesize(f.profile);
    std::ofstream out(fs::path(dir) / (stem + ".bench"),
                      std::ios::binary | std::ios::trunc);
    out << netlist::write_bench(nl);
  } catch (const std::exception&) {
  }
  return stem;
}

namespace {

const svc::JsonValue* field(const svc::JsonObject& obj, std::string_view key) {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t get_u64(const svc::JsonObject& obj, std::string_view key,
                      const std::string& origin) {
  const svc::JsonValue* v = field(obj, key);
  if (!v || v->kind != svc::JsonValue::Kind::kUint) {
    throw std::runtime_error("fuzz corpus " + origin +
                             ": missing or non-integer field '" +
                             std::string(key) + "'");
  }
  return v->u;
}

double get_f64(const svc::JsonObject& obj, std::string_view key,
               const std::string& origin) {
  const svc::JsonValue* v = field(obj, key);
  if (!v) {
    throw std::runtime_error("fuzz corpus " + origin + ": missing field '" +
                             std::string(key) + "'");
  }
  if (v->kind == svc::JsonValue::Kind::kUint) return static_cast<double>(v->u);
  if (v->kind == svc::JsonValue::Kind::kDouble) return v->d;
  throw std::runtime_error("fuzz corpus " + origin +
                           ": non-numeric field '" + std::string(key) + "'");
}

bool get_bool(const svc::JsonObject& obj, std::string_view key,
              const std::string& origin) {
  const svc::JsonValue* v = field(obj, key);
  if (!v || v->kind != svc::JsonValue::Kind::kBool) {
    throw std::runtime_error("fuzz corpus " + origin +
                             ": missing or non-boolean field '" +
                             std::string(key) + "'");
  }
  return v->b;
}

std::string get_str(const svc::JsonObject& obj, std::string_view key,
                    const std::string& origin) {
  const svc::JsonValue* v = field(obj, key);
  if (!v || v->kind != svc::JsonValue::Kind::kString) {
    throw std::runtime_error("fuzz corpus " + origin +
                             ": missing or non-string field '" +
                             std::string(key) + "'");
  }
  return v->s;
}

FuzzCase parse_case_line(const std::string& line, const std::string& origin) {
  const svc::JsonObject obj = svc::parse_json_object(line, origin);
  FuzzCase c;
  c.seed = get_u64(obj, "seed", origin);
  c.profile.name = "fz" + std::to_string(c.seed);
  c.profile.num_inputs = get_u64(obj, "pi", origin);
  c.profile.num_outputs = get_u64(obj, "po", origin);
  c.profile.num_flip_flops = get_u64(obj, "ff", origin);
  c.profile.num_gates = get_u64(obj, "gates", origin);
  c.profile.counter_fraction = get_f64(obj, "cf", origin);
  c.profile.max_arity = get_u64(obj, "arity", origin);
  c.profile.seed = get_u64(obj, "pseed", origin);
  // "tied" postdates the first committed corpus files; absent = no tied
  // inputs, which is what those profiles synthesized with.
  c.profile.tied_inputs = field(obj, "tied") ? get_u64(obj, "tied", origin) : 0;
  c.options.l_a = get_u64(obj, "la", origin);
  c.options.l_b = get_u64(obj, "lb", origin);
  c.options.n = get_u64(obj, "n", origin);
  c.options.d1 = static_cast<std::uint32_t>(get_u64(obj, "d1", origin));
  c.options.threads = static_cast<unsigned>(get_u64(obj, "threads", origin));
  c.options.combo_jobs = static_cast<unsigned>(get_u64(obj, "cjobs", origin));
  c.options.misr_degree = static_cast<int>(get_u64(obj, "misr", origin));
  c.options.use_store = get_bool(obj, "store", origin);
  c.options.multi_chain = get_bool(obj, "chain", origin);
  c.options.chain_len = get_u64(obj, "chainlen", origin);
  c.options.resistance = get_bool(obj, "resist", origin);
  c.options.sweep = get_bool(obj, "sweep", origin);
  // The recorded oracle/bucket must parse — a corrupt corpus fails loudly.
  (void)get_str(obj, "oracle", origin);
  if (!parse_bucket(get_str(obj, "bucket", origin))) {
    throw std::runtime_error("fuzz corpus " + origin + ": unknown bucket");
  }
  return c;
}

}  // namespace

FuzzReport replay_corpus(const std::string& dir, const FuzzOptions& opt) {
  FuzzReport rep;
  FuzzOptions inner = opt;
  inner.shrink = false;
  inner.corpus_dir.clear();

  std::vector<fs::path> cases;
  if (fs::exists(dir)) {
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".case") cases.push_back(e.path());
    }
  }
  std::sort(cases.begin(), cases.end());

  for (const fs::path& path : cases) {
    std::ifstream in(path);
    std::string line;
    if (!in.good() || !std::getline(in, line)) {
      throw std::runtime_error("fuzz corpus: cannot read '" + path.string() +
                               "'");
    }
    const FuzzCase c = parse_case_line(line, path.filename().string());
    // Replay against the committed netlist when pinned; reproducers stay
    // valid even when the generator's output for the profile evolves.
    std::optional<netlist::Netlist> pinned;
    fs::path bench = path;
    bench.replace_extension(".bench");
    if (fs::exists(bench)) {
      pinned.emplace(netlist::load_bench_file(bench.string()));
    }
    CaseStats stats;
    std::vector<Finding> fs_found =
        run_case_impl(c, inner, pinned ? &*pinned : nullptr, &stats);
    rep.cases_run += 1;
    rep.oracles_run += stats.oracles;
    rep.work_spent += stats.work;
    for (Finding& f : fs_found) rep.findings.push_back(std::move(f));
  }
  return rep;
}

}  // namespace rls::fuzz
