// rls::fuzz — differential fuzzing over the whole RLS pipeline.
//
// The harness is the VeriGen shape specialized to this repo: a seeded
// generator (gen::profile_from_seed -> gen::synthesize), a fixed list of
// cross-checking oracles over independently implemented result paths, a
// crash / mismatch / timeout triage, and a knob-bisecting shrinker that
// reduces any failing seed to a minimal self-contained reproducer.
//
// Oracles (run in this order for every case):
//   gen-lint           run_lint_source over the generated .bench must not
//                      crash and must report no E-severity diagnostic
//                      (the generator-hardening contract);
//   svc-request        deterministic byte/field mutations of a canonical
//                      CampaignRequest line must parse, or be rejected
//                      with RequestError/JsonError; accepted mutants must
//                      be canonically stable (parse -> canonical is a
//                      fixpoint);
//   engine-crosscheck  kFullSweep / kConeDiff / kPacked detection flags
//                      must be identical per test set, in per-cycle AND
//                      MISR-signature observation, at 1 and at the case's
//                      randomized thread count;
//   p2-engines         run_procedure2 on the case's TS_0 under kPacked
//                      (sweeps built from TS_0's batches plus each
//                      TS(I, D_1)'s schedules) must commit the same
//                      (I, D_1) pairs, detections and cycle costs as under
//                      kFullSweep (materialized sets), with
//                      reseed_per_test drawn per case; fuzz cases have
//                      n <= 10 and L_A < L_B, so every batch is partial,
//                      which is where lane compaction could slip;
//   sta-soundness      every fault rls::analysis::sta proves untestable
//                      must be undetected by kFullSweep on the case's test
//                      sets, and the sta report must pass its own
//                      self-check (profiles with tied inputs synthesize
//                      derived constants, so the untestable set is
//                      routinely non-empty);
//   sweep-width        first_complete_combo at W=1 and at the case's
//                      randomized W must produce byte-identical traces,
//                      identical committed runs and identical fsim.*
//                      counters (timing pinned);
//   store-roundtrip    serde encode -> decode -> encode of a case-seeded
//                      ComboRun (the body of every p2 and campaign
//                      artifact) must reproduce the exact bytes and
//                      digest; with a store attached, put/get must
//                      round-trip the frame;
//   campaign-warm      a second run_combo against the same store must be a
//                      pure cache hit: identical result rows and zero
//                      fault-simulation work.
//
// Determinism contract: run_fuzz over a fixed seed range produces
// byte-identical findings JSONL at any --jobs, because cases are
// independent, results are committed per seed slot, and the timeout triage
// uses a deterministic work budget (accumulated gate evaluations), never
// wall clock.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/profiles.hpp"
#include "netlist/netlist.hpp"

namespace rls::fuzz {

/// Randomized option vector of one fuzz case (drawn from the seed, then
/// mutated freely by the shrinker).
struct CaseOptions {
  std::size_t l_a = 4;        ///< TS_0 short test length
  std::size_t l_b = 8;        ///< TS_0 long test length (> l_a)
  std::size_t n = 4;          ///< TS_0 tests per length
  std::uint32_t d1 = 1;       ///< limited-scan insertion period (Procedure 1)
  unsigned threads = 1;       ///< randomized sim thread count (>= 1)
  unsigned combo_jobs = 2;    ///< speculative sweep width W (>= 2)
  int misr_degree = 16;       ///< signature-mode MISR degree
  bool use_store = false;     ///< run the store-backed oracles
  bool multi_chain = false;   ///< lint against a multi-chain configuration
  std::size_t chain_len = 10; ///< max chain length when multi_chain
  bool resistance = false;    ///< run the lint COP resistance pass
  bool sweep = false;         ///< run the (expensive) sweep-width oracle
};

/// One generated case: everything an oracle run depends on.
struct FuzzCase {
  std::uint64_t seed = 0;
  gen::Profile profile;
  CaseOptions options;
};

/// Triage buckets.
enum class Bucket : std::uint8_t { kCrash, kMismatch, kTimeout };

/// Canonical bucket name: "crash", "mismatch", "timeout".
const char* bucket_name(Bucket b) noexcept;

/// One triaged failure. `detail` is deterministic for a deterministic
/// input and never contains paths, times, or process state.
struct Finding {
  std::uint64_t seed = 0;
  std::string oracle;
  Bucket bucket = Bucket::kCrash;
  std::string detail;
  gen::Profile profile;   ///< profile that reproduces (post-shrink)
  CaseOptions options;    ///< options that reproduce (post-shrink)
  bool shrunk = false;
};

struct FuzzOptions {
  std::uint64_t seed_begin = 0;
  std::uint64_t num_seeds = 100;
  /// Worker threads for the case loop (0 = hardware concurrency).
  unsigned jobs = 1;
  /// Bisect failing cases down to minimal reproducers.
  bool shrink = true;
  /// Deterministic per-case work budget in gate-evaluation units; a case
  /// that exceeds it is triaged as a timeout (never wall clock, so the
  /// findings stream stays byte-reproducible).
  std::uint64_t work_budget = 50'000'000;
  /// Directory for store-oracle scratch (empty = system temp). Cleaned up
  /// per case.
  std::string scratch_dir;
  /// Directory to emit shrunken reproducers into (empty = don't emit).
  std::string corpus_dir;

  // ---- test-only fault injection (the planted engine bug) ----
  /// When >= 0: static_cast<fault::Engine>(corrupt_engine) has its
  /// detection flags corrupted inside the engine-crosscheck oracle
  /// whenever the case's profile has at least `corrupt_min_gates` gates.
  /// Lets tests verify detection, triage and shrink convergence without
  /// breaking a real engine.
  int corrupt_engine = -1;
  std::size_t corrupt_min_gates = 0;
};

struct FuzzReport {
  std::vector<Finding> findings;  ///< sorted by (seed, oracle order)
  std::uint64_t cases_run = 0;
  std::uint64_t oracles_run = 0;
  std::uint64_t work_spent = 0;   ///< total gate-eval units over all cases
};

/// Derives the full case (profile + option vector) from a seed. Pure.
FuzzCase derive_case(std::uint64_t seed);

/// Runs every oracle against one case. `pinned`, when non-null, overrides
/// the synthesized netlist for all circuit-consuming oracles (corpus
/// replay runs against the committed .bench, so reproducers stay valid
/// even when the generator evolves); the gen-lint oracle always
/// re-synthesizes from the profile.
std::vector<Finding> run_case(const FuzzCase& c, const FuzzOptions& opt,
                              const netlist::Netlist* pinned = nullptr);

/// Bisects the case's knobs (gates, flip-flops, inputs, outputs, patterns,
/// test lengths) to the minimum that still reproduces `f` (same oracle,
/// same bucket), iterating to a fixpoint. Returns the minimal finding.
Finding shrink_finding(const Finding& f, const FuzzOptions& opt);

/// The seeded driver: derive -> run -> triage -> shrink -> (optionally)
/// emit reproducers, over [seed_begin, seed_begin + num_seeds), fanned out
/// over `jobs` workers with per-seed result slots.
FuzzReport run_fuzz(const FuzzOptions& opt);

/// Serializes findings as deterministic JSONL (one "finding" event per
/// line, stable field order).
std::string findings_to_jsonl(const std::vector<Finding>& findings);

/// Writes a self-contained reproducer: "<stem>.case" (the finding as one
/// JSONL line) plus "<stem>.bench" (the pinned netlist). Returns the stem
/// ("s<seed>-<oracle>").
std::string write_reproducer(const Finding& f, const std::string& dir);

/// Replays every "*.case" file under `dir` (sorted by filename) against
/// the current code. A reproducer documents a *fixed* bug, so replay is a
/// regression suite: any finding it returns is a regression. Cases with a
/// sibling .bench run against that pinned netlist.
FuzzReport replay_corpus(const std::string& dir, const FuzzOptions& opt);

}  // namespace rls::fuzz
