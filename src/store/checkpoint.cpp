#include "store/checkpoint.hpp"

namespace rls::store {

namespace {

// ---- snapshot encodings --------------------------------------------------

std::vector<std::uint8_t> encode_p2_snapshot(const P2Snapshot& snap) {
  ByteWriter w;
  w.u8(snap.terminal ? 1 : 0);
  w.u32(snap.iteration);
  w.u32(snap.d1_index);
  w.u8(snap.improve ? 1 : 0);
  w.u32(snap.n_same_fc);
  w.u64(snap.cum_cycles);
  write_procedure2_result(w, snap.result);
  w.bits(snap.detected);
  return w.take();
}

P2Snapshot decode_p2_snapshot(std::span<const std::uint8_t> body,
                              const std::string& origin) {
  ByteReader r(body, origin);
  P2Snapshot snap;
  snap.terminal = r.u8() != 0;
  snap.iteration = r.u32();
  snap.d1_index = r.u32();
  snap.improve = r.u8() != 0;
  snap.n_same_fc = r.u32();
  snap.cum_cycles = r.u64();
  snap.result = read_procedure2_result(r);
  snap.detected = r.bits();
  r.expect_end();
  return snap;
}

std::vector<std::uint8_t> encode_campaign_snapshot(
    const CampaignSnapshot& snap) {
  ByteWriter w;
  w.u8(snap.terminal ? 1 : 0);
  w.u64(snap.next_attempt);
  w.u64(static_cast<std::uint64_t>(snap.winner));
  w.u64(snap.committed.size());
  for (const core::ComboRun& run : snap.committed) write_combo_run(w, run);
  return w.take();
}

CampaignSnapshot decode_campaign_snapshot(std::span<const std::uint8_t> body,
                                          const std::string& origin) {
  ByteReader r(body, origin);
  CampaignSnapshot snap;
  snap.terminal = r.u8() != 0;
  snap.next_attempt = r.u64();
  snap.winner = static_cast<std::int64_t>(r.u64());
  const std::uint64_t n = r.count(1);
  snap.committed.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    snap.committed.push_back(read_combo_run(r));
  }
  r.expect_end();
  if (snap.winner >= 0 &&
      static_cast<std::uint64_t>(snap.winner) >= snap.committed.size()) {
    throw StoreError(origin + ": campaign snapshot winner index " +
                     std::to_string(snap.winner) + " out of range (" +
                     std::to_string(snap.committed.size()) + " committed)");
  }
  return snap;
}

void emit_checkpoint_event(core::RunContext* ctx, const ArtifactKey& key,
                           const char* action, std::uint64_t bytes) {
  if (ctx == nullptr || ctx->sink() == nullptr) return;
  obs::TraceEvent ev("checkpoint");
  ev.u64("attempt", ctx->attempt())
      .str("action", action)
      .str("artifact", key.filename())
      .u64("bytes", bytes);
  ctx->emit(ev);
}

}  // namespace

// ---- CampaignStore -------------------------------------------------------

CampaignStore::CampaignStore(ArtifactStore& store, const netlist::Netlist& nl,
                             std::span<const fault::Fault> target_faults,
                             bool resume)
    : store_(&store),
      circuit_digest_(digest_circuit(nl)),
      targets_digest_(digest_faults(target_faults)),
      num_targets_(target_faults.size()),
      resume_(resume) {}

std::optional<std::vector<std::uint8_t>> CampaignStore::get_tolerant(
    const ArtifactKey& key, core::RunContext* ctx) const {
  try {
    std::optional<std::vector<std::uint8_t>> body = store_->get(key);
    if (body && ctx != nullptr) {
      ctx->counters().add("store.bytes_read",
                          body->size() + kFrameOverhead);
    }
    return body;
  } catch (const StoreError&) {
    if (ctx != nullptr) ctx->counters().add("store.corrupt", 1);
    return std::nullopt;
  }
}

ArtifactKey CampaignStore::p2_key(const core::Combo& combo,
                                  const core::Procedure2Options& opt,
                                  std::uint64_t ts0_seed) const {
  ArtifactKey key{"p2", circuit_digest_, {}};
  key.with("la", combo.l_a)
      .with("lb", combo.l_b)
      .with("n", combo.n)
      .with("ts0_seed", ts0_seed)
      .with("p2", digest_p2_options(opt))
      .with("targets", targets_digest_);
  return key;
}

std::optional<P2Snapshot> CampaignStore::load_p2(const ArtifactKey& key,
                                                 core::RunContext* ctx) const {
  std::optional<std::vector<std::uint8_t>> body = get_tolerant(key, ctx);
  if (!body) return std::nullopt;
  const std::string origin = store_->dir() + "/" + key.filename();
  P2Snapshot snap = decode_p2_snapshot(*body, origin);
  if (snap.detected.size() != num_targets_) {
    // Defensive: the targets digest in the key should make this
    // unreachable, but a stale snapshot must never smuggle in a wrong-size
    // flag vector.
    if (ctx != nullptr) ctx->counters().add("store.corrupt", 1);
    return std::nullopt;
  }
  return snap;
}

void CampaignStore::save_p2(const ArtifactKey& key, const P2Snapshot& snap,
                            core::RunContext* ctx) const {
  const std::uint64_t written = store_->put(key, encode_p2_snapshot(snap));
  if (ctx != nullptr) {
    ctx->counters().add("store.bytes_written", written);
    ctx->counters().add("store.checkpoint_saves", 1);
    emit_checkpoint_event(ctx, key, snap.terminal ? "save_final" : "save",
                          written);
  }
}

ArtifactKey CampaignStore::campaign_key(const core::Procedure2Options& opt,
                                        std::uint64_t ts0_seed) const {
  // max_attempts is deliberately NOT part of the identity: a terminal
  // snapshot with a winner is valid under any cap, and a partial one is
  // the resume point no matter how many more attempts the new run allows.
  ArtifactKey key{"campaign", circuit_digest_, {}};
  key.with("ts0_seed", ts0_seed)
      .with("p2", digest_p2_options(opt))
      .with("targets", targets_digest_);
  return key;
}

std::optional<CampaignSnapshot> CampaignStore::load_campaign(
    const ArtifactKey& key, core::RunContext* ctx) const {
  std::optional<std::vector<std::uint8_t>> body = get_tolerant(key, ctx);
  if (!body) return std::nullopt;
  return decode_campaign_snapshot(*body,
                                  store_->dir() + "/" + key.filename());
}

void CampaignStore::save_campaign(const ArtifactKey& key,
                                  const CampaignSnapshot& snap,
                                  core::RunContext* ctx) const {
  const std::uint64_t written =
      store_->put(key, encode_campaign_snapshot(snap));
  if (ctx != nullptr) {
    ctx->counters().add("store.bytes_written", written);
    ctx->counters().add("store.checkpoint_saves", 1);
    emit_checkpoint_event(ctx, key, snap.terminal ? "save_final" : "save",
                          written);
  }
}

void CampaignStore::note_cache_hit(core::RunContext* ctx,
                                   const ArtifactKey& key) const {
  if (ctx == nullptr) return;
  ctx->counters().add("store.cache_hit", 1);
  if (ctx->sink() != nullptr) {
    obs::TraceEvent ev("cache_hit");
    ev.u64("attempt", ctx->attempt())
        .str("kind", key.kind)
        .str("artifact", key.filename());
    ctx->emit(ev);
  }
}

void CampaignStore::note_resume(core::RunContext* ctx,
                                const ArtifactKey& key) const {
  if (ctx == nullptr) return;
  ctx->counters().add("store.resumes", 1);
  emit_checkpoint_event(ctx, key, "resume", 0);
}

// ---- P2Checkpoint --------------------------------------------------------

std::optional<P2Snapshot> P2Checkpoint::load_terminal(
    core::RunContext* ctx) const {
  std::optional<P2Snapshot> snap = cs_->load_p2(key_, ctx);
  if (!snap || !snap->terminal) return std::nullopt;
  return snap;
}

std::optional<P2Snapshot> P2Checkpoint::load_partial(
    core::RunContext* ctx) const {
  if (!cs_->resume_enabled()) return std::nullopt;
  std::optional<P2Snapshot> snap = cs_->load_p2(key_, ctx);
  if (!snap || snap->terminal) return std::nullopt;
  return snap;
}

void P2Checkpoint::save(const P2Snapshot& snap, core::RunContext* ctx) const {
  cs_->save_p2(key_, snap, ctx);
}

}  // namespace rls::store
