// Checkpoint / resume layer: binds one campaign to the artifact store.
//
// A CampaignStore is scoped to (store directory, circuit content digest,
// target-fault digest) and hands out keys + typed load/save for the two
// artifact kinds a campaign produces:
//
//   "p2"        — one combo's Procedure 2 state: a P2Snapshot, either
//                 terminal (the finished result — a pure cache entry) or
//                 partial (position + fault flags — crash resume state);
//   "campaign"  — the first-complete sweep state: committed ComboRun
//                 prefix, next attempt index, winner.
//
// TS_0 itself is never stored: it is a pure function of its seed, and
// regenerating it is cheaper than reading it back. Neither kind's key
// names the fault-simulation engine — every engine is exact, so a
// campaign stored by one engine is a cache hit for the others.
//
// Semantics: terminal artifacts are reused whenever the store is attached
// (warm-cache runs skip TS_0 fault simulation entirely); *partial*
// artifacts are only consumed when resume is enabled — a plain cached run
// never continues a half-finished campaign it does not know about.
//
// All store-side telemetry (the "cache_hit" / "checkpoint" TraceEvents
// and "store.*" counters) is emitted here, so the event schema has one
// producer. Corrupt artifacts encountered mid-campaign are counted
// (store.corrupt) and treated as misses — the campaign self-heals by
// recomputing and overwriting; direct ArtifactStore::get() calls still
// surface the typed StoreError for callers that want it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/param_select.hpp"
#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "store/artifact_store.hpp"

namespace rls::store {

/// Procedure 2 state at a safe point. Partial snapshots (terminal =
/// false) carry the exact loop position — the run continues as if never
/// interrupted; terminal snapshots are finished results (position fields
/// unused).
struct P2Snapshot {
  bool terminal = false;
  std::uint32_t iteration = 1;   ///< outer I to resume at
  std::uint32_t d1_index = 0;    ///< index into d1_order to resume at
  bool improve = false;          ///< current iteration already improved?
  std::uint32_t n_same_fc = 0;
  std::uint64_t cum_cycles = 0;
  core::Procedure2Result result;
  std::vector<std::uint8_t> detected;  ///< per-target-fault flags (0/1)
};

/// First-complete sweep state after k committed attempts.
struct CampaignSnapshot {
  bool terminal = false;          ///< sweep ran to its natural end
  std::uint64_t next_attempt = 0; ///< first combo rank not yet committed
  std::int64_t winner = -1;       ///< index into committed, -1 = none
  std::vector<core::ComboRun> committed;
};

class CampaignStore {
 public:
  /// Binds `store` to a circuit + target fault set. Digests are computed
  /// once here; every key embeds them, so an edited circuit or a different
  /// detectability classification can never alias a cached artifact.
  CampaignStore(ArtifactStore& store, const netlist::Netlist& nl,
                std::span<const fault::Fault> target_faults, bool resume);

  [[nodiscard]] ArtifactStore& artifacts() noexcept { return *store_; }
  [[nodiscard]] bool resume_enabled() const noexcept { return resume_; }
  [[nodiscard]] std::uint64_t circuit_digest() const noexcept {
    return circuit_digest_;
  }
  [[nodiscard]] std::uint64_t targets_digest() const noexcept {
    return targets_digest_;
  }

  // ---- Procedure 2 snapshots ----
  [[nodiscard]] ArtifactKey p2_key(const core::Combo& combo,
                                   const core::Procedure2Options& opt,
                                   std::uint64_t ts0_seed) const;
  [[nodiscard]] std::optional<P2Snapshot> load_p2(const ArtifactKey& key,
                                                  core::RunContext* ctx) const;
  void save_p2(const ArtifactKey& key, const P2Snapshot& snap,
               core::RunContext* ctx) const;

  // ---- campaign sweep snapshots ----
  [[nodiscard]] ArtifactKey campaign_key(const core::Procedure2Options& opt,
                                         std::uint64_t ts0_seed) const;
  [[nodiscard]] std::optional<CampaignSnapshot> load_campaign(
      const ArtifactKey& key, core::RunContext* ctx) const;
  void save_campaign(const ArtifactKey& key, const CampaignSnapshot& snap,
                     core::RunContext* ctx) const;

  // ---- telemetry (single producer of the store event schema) ----
  /// "cache_hit" event + store.cache_hit counter.
  void note_cache_hit(core::RunContext* ctx, const ArtifactKey& key) const;
  /// "checkpoint" event with action=resume + store.resumes counter.
  void note_resume(core::RunContext* ctx, const ArtifactKey& key) const;

 private:
  /// get() with mid-campaign corruption policy: StoreError -> counted
  /// miss (store.corrupt), so a damaged artifact is recomputed in place.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get_tolerant(
      const ArtifactKey& key, core::RunContext* ctx) const;

  ArtifactStore* store_;
  std::uint64_t circuit_digest_ = 0;
  std::uint64_t targets_digest_ = 0;
  std::size_t num_targets_ = 0;
  bool resume_ = false;
};

/// One combo's Procedure 2 checkpoint scope, threaded into
/// run_procedure2(). Keeps the key fixed so the partial snapshots written
/// after every kept (I, D_1) pair and the terminal snapshot all land on
/// the same artifact (the partial state is superseded in place).
class P2Checkpoint {
 public:
  P2Checkpoint(const CampaignStore& cs, ArtifactKey key)
      : cs_(&cs), key_(std::move(key)) {}

  /// Finished result from a previous run (any store-attached run reuses
  /// it — the warm-cache fast path). nullopt when absent or non-terminal.
  [[nodiscard]] std::optional<P2Snapshot> load_terminal(
      core::RunContext* ctx) const;

  /// Partial crash-resume state; only served when resume is enabled.
  [[nodiscard]] std::optional<P2Snapshot> load_partial(
      core::RunContext* ctx) const;

  void save(const P2Snapshot& snap, core::RunContext* ctx) const;

  void note_cache_hit(core::RunContext* ctx) const {
    cs_->note_cache_hit(ctx, key_);
  }
  void note_resume(core::RunContext* ctx) const {
    cs_->note_resume(ctx, key_);
  }

  [[nodiscard]] const ArtifactKey& key() const noexcept { return key_; }

 private:
  const CampaignStore* cs_;
  ArtifactKey key_;
};

}  // namespace rls::store
