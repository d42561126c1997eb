// Content-addressed on-disk artifact store with crash-safe writes.
//
// Artifacts are addressed by an ArtifactKey — a kind string plus the
// circuit content digest and an ordered list of named u64 parameters
// (seed, L_A/L_B/N, engine, options digest, ...). The key folds into one
// FNV-1a digest that both names the file ("<kind>-<16 hex>.rlsa") and is
// embedded in the frame header, so a renamed or cross-copied file is
// rejected on load exactly like a corrupt one.
//
// Directory layout (since PR 7): artifacts live under
// "<dir>/shards/<hh>/" where <hh> is the top byte of the key digest in
// hex — the same two characters that follow "<kind>-" in the filename.
// 256 shards bound per-directory entry counts at scale and give gc a
// unit it can sweep incrementally (gc_shard) while writers land puts in
// sibling shards. A store written by the flat PR 5/6 layout is migrated
// on open: every well-formed "<kind>-<16 hex>.rlsa" at the root is
// renamed into its shard (rename(2), same filesystem, crash-safe).
//
// Write protocol (crash safety): the framed artifact is written to a
// uniquely named temp file in the same shard directory, flushed and
// fsync'd, then atomically rename(2)'d over the final path. A crash at
// any point leaves either the old artifact, the new artifact, or an
// invisible "*.tmp.*" orphan — never a partially written artifact under
// the final name. Orphans are swept by gc()/gc_shard(), but only once
// they are older than kOrphanGraceSeconds: a fresh "*.tmp.*" file may be
// an in-flight put() racing the collector, and deleting it would make
// that put's rename fail.
//
// gc(max_bytes) is LRU-ish: loads bump the artifact's mtime, and the
// collector deletes oldest-first until the store fits the budget.
// gc(max_bytes) applies the budget store-wide; gc_shard(shard,
// max_bytes) applies it to one shard and never touches siblings.
//
// Cross-process sharing (since PR 10): every put/get holds the store's
// shared flock and every gc / flat-store migration holds the exclusive
// flock (store/lock.hpp), so multiple processes — e.g. two `rls serve
// --listen` instances — can point at one store root. Under the
// exclusive lock no put can be in flight in any process, so gc collects
// *every* "*.tmp.*" orphan immediately instead of waiting out the
// kOrphanGraceSeconds heuristic (which remains the fallback on
// filesystems where flock degrades, see StoreLock).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "store/lock.hpp"
#include "store/serde.hpp"

namespace rls::store {

/// Logical address of one artifact. Field order is part of the identity:
/// the digest folds kind, circuit and params in sequence.
struct ArtifactKey {
  std::string kind;            ///< "p2", "campaign", ...
  std::uint64_t circuit = 0;   ///< digest_circuit() of the subject netlist
  std::vector<std::pair<std::string, std::uint64_t>> params;

  ArtifactKey& with(std::string name, std::uint64_t value) {
    params.emplace_back(std::move(name), value);
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const;
  /// "<kind>-<%016x digest>.rlsa"
  [[nodiscard]] std::string filename() const;
};

class ArtifactStore {
 public:
  /// Shard fan-out. The shard index is the top byte of the key digest,
  /// so a key's shard is also the first two hex characters of the digest
  /// part of its filename.
  static constexpr unsigned kNumShards = 256;
  /// Minimum age before a "*.tmp.*" file counts as a crash orphan. Puts
  /// complete in milliseconds; anything this old is dead.
  static constexpr unsigned kOrphanGraceSeconds = 600;

  /// Opens (creating if needed) the store directory and migrates any
  /// flat-layout artifacts at the root into their shards. Throws
  /// StoreError if the directory cannot be created or is not writable.
  explicit ArtifactStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Shard index (0..255) an artifact with this key lives in.
  [[nodiscard]] static unsigned shard_of(const ArtifactKey& key);
  /// "<dir>/shards/<hh>" for a shard index (the directory may not exist
  /// yet — shards are created lazily on first put).
  [[nodiscard]] std::string shard_dir(unsigned shard) const;
  /// Full on-disk path of the artifact for `key` (whether or not it
  /// exists). Tests and tooling should use this instead of assuming the
  /// layout.
  [[nodiscard]] std::string path(const ArtifactKey& key) const;

  /// Number of flat-layout artifacts moved into shards when this store
  /// was opened.
  [[nodiscard]] std::uint64_t migrated_files() const noexcept {
    return migrated_;
  }

  /// Frames and atomically persists `body` under `key` (overwrites).
  /// Returns the framed size in bytes. Thread-safe: concurrent writers
  /// (speculative sweep workers) use distinct temp names and last rename
  /// wins — both writers produce identical bytes by determinism.
  std::uint64_t put(const ArtifactKey& key,
                    std::span<const std::uint8_t> body);

  /// Loads and validates the artifact. Returns nullopt when absent;
  /// throws StoreError when present but unreadable, truncated, corrupt,
  /// version-incompatible, or keyed differently. Bumps the file mtime on
  /// success (the gc LRU signal).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const ArtifactKey& key) const;

  /// True when an artifact file exists for the key (no validation).
  [[nodiscard]] bool contains(const ArtifactKey& key) const;

  /// Total size of all committed artifacts (bytes; temp orphans excluded).
  [[nodiscard]] std::uint64_t total_bytes() const;
  /// Number of committed artifacts.
  [[nodiscard]] std::size_t size() const;

  struct GcStats {
    std::uint64_t removed_files = 0;
    std::uint64_t removed_bytes = 0;
    std::uint64_t kept_bytes = 0;
  };
  /// Deletes temp orphans past the grace window (root and every shard),
  /// then oldest artifacts (by mtime, store-wide) until the store holds
  /// at most `max_bytes`.
  GcStats gc(std::uint64_t max_bytes);
  /// Same contract restricted to one shard: orphans of that shard are
  /// collected, then its oldest artifacts until the *shard* holds at
  /// most `max_bytes`. Sibling shards are never read or modified, so
  /// gc_shard can run concurrently with puts landing elsewhere.
  GcStats gc_shard(unsigned shard, std::uint64_t max_bytes);

  /// The cross-process lock guarding this store root (see lock.hpp).
  /// Exposed so tests and tooling can observe or pre-acquire it.
  [[nodiscard]] const StoreLock& lock() const noexcept { return lock_; }

 private:
  /// Sweep orphans + apply an LRU byte budget over the given directories.
  /// `all_orphans` (true under the exclusive flock) collects every
  /// "*.tmp.*" file; false keeps the kOrphanGraceSeconds heuristic.
  GcStats gc_dirs(const std::vector<std::string>& dirs,
                  std::uint64_t max_bytes, bool all_orphans);
  /// Root + every existing shard directory (directories only; the root
  /// is kept for legacy orphan sweep).
  [[nodiscard]] std::vector<std::string> artifact_dirs() const;

  std::string dir_;
  StoreLock lock_;
  std::uint64_t migrated_ = 0;
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace rls::store
