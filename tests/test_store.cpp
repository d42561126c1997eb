// rls::store unit tests: serialization roundtrips, the content-addressed
// artifact store, the adversarial corruption suite (every damaged artifact
// must surface as a typed StoreError naming the file — never UB), and the
// checkpoint snapshot layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/run_context.hpp"
#include "fault/collapse.hpp"
#include "gen/registry.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "store/serde.hpp"

namespace fs = std::filesystem;

namespace rls::store {
namespace {

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("rls-store-") + tag + "-XXXXXX"))
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

/// Path of the single committed artifact in `dir` (fails the test if the
/// store holds anything other than exactly one). Walks the sharded tree.
std::string only_artifact(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() != ".rlsa") continue;
    EXPECT_TRUE(found.empty()) << "more than one artifact in " << dir;
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty()) << "no artifact in " << dir;
  return found;
}

/// A key guaranteed to land in shard `shard`, distinct per `salt_start`.
ArtifactKey key_in_shard(unsigned shard, std::uint64_t salt_start = 0) {
  for (std::uint64_t salt = salt_start;; ++salt) {
    ArtifactKey key{"sh", 1, {}};
    key.with("salt", salt);
    if (ArtifactStore::shard_of(key) == shard) return key;
  }
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

ArtifactKey demo_key() {
  ArtifactKey key{"demo", 0x1234, {}};
  key.with("a", 1).with("b", 2);
  return key;
}

std::vector<std::uint8_t> demo_body() {
  return {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
}

// ---- StoreSerde ----------------------------------------------------------

TEST(StoreSerde, PrimitivesRoundTripLittleEndian) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0x01020304);
  w.u64(0x0102030405060708ull);
  // Explicit layout: every multi-byte value is little-endian on the wire.
  const std::vector<std::uint8_t> expect{0xAB, 0x04, 0x03, 0x02, 0x01,
                                         0x08, 0x07, 0x06, 0x05, 0x04,
                                         0x03, 0x02, 0x01};
  EXPECT_EQ(w.buffer(), expect);
  ByteReader r(w.buffer(), "test");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  r.expect_end();
}

TEST(StoreSerde, BitsPackRoundTrip) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 129u}) {
    std::vector<std::uint8_t> flags(n);
    for (std::size_t i = 0; i < n; ++i) flags[i] = (i % 3 == 0) ? 1 : 0;
    ByteWriter w;
    w.bits(flags);
    EXPECT_EQ(w.buffer().size(), 8 + (n + 7) / 8);
    ByteReader r(w.buffer(), "test");
    EXPECT_EQ(r.bits(), flags);
    r.expect_end();
  }
}

TEST(StoreSerde, ReaderThrowsInsteadOfOverrunning) {
  const std::vector<std::uint8_t> three{1, 2, 3};
  ByteReader r(three, "short.bin");
  EXPECT_EQ(r.u8(), 1);
  try {
    (void)r.u32();
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("short.bin"), std::string::npos);
  }
}

TEST(StoreSerde, CorruptCountCannotTriggerHugeAllocation) {
  ByteWriter w;
  w.u64(0xFFFFFFFFFFFFFFFFull);  // claims ~2^64 elements
  ByteReader r(w.buffer(), "bad-count");
  EXPECT_THROW((void)r.count(9), StoreError);
}

TEST(StoreSerde, Procedure2ResultAndComboRunRoundTrip) {
  core::ComboRun run;
  run.combo = {8, 16, 64, 1234};
  run.result.ts0_detected = 30;
  run.result.ncyc0 = 1234;
  run.result.applied = {{1, 3, 5, 1500, 12, 700}, {2, 7, 1, 1600, 20, 800}};
  run.result.total_detected = 36;
  run.result.complete = true;
  ByteWriter w;
  write_combo_run(w, run);
  ByteReader r(w.buffer(), "test");
  const core::ComboRun back = read_combo_run(r);
  r.expect_end();
  EXPECT_EQ(back.combo.l_a, run.combo.l_a);
  EXPECT_EQ(back.combo.ncyc0, run.combo.ncyc0);
  ASSERT_EQ(back.result.applied.size(), 2u);
  EXPECT_EQ(back.result.applied[1].cycles, 1600u);
  EXPECT_EQ(back.result.applied[1].limited_units, 20u);
  EXPECT_EQ(back.result.total_detected, 36u);
  EXPECT_TRUE(back.result.complete);
  EXPECT_FALSE(back.result.aborted);
}

TEST(StoreSerde, CircuitDigestTracksContent) {
  const netlist::Netlist a = gen::make_circuit("s27");
  const netlist::Netlist b = gen::make_circuit("s27");
  const netlist::Netlist c = gen::make_circuit("s298");
  EXPECT_EQ(digest_circuit(a), digest_circuit(b));
  EXPECT_NE(digest_circuit(a), digest_circuit(c));
}

TEST(StoreSerde, FaultDigestTracksOrderAndEveryField) {
  // digest_faults keys every stored artifact to its target list: equal
  // lists digest equally, and any change of line, pin, stuck value or
  // order changes the digest.
  const netlist::Netlist nl = gen::make_circuit("s27");
  const std::vector<fault::Fault> faults = fault::collapsed_universe(nl);
  ASSERT_GE(faults.size(), 2u);
  const std::uint64_t base = digest_faults(faults);
  EXPECT_EQ(digest_faults(fault::collapsed_universe(nl)), base);

  std::vector<fault::Fault> gate = faults;
  gate[0].gate ^= 1;
  std::vector<fault::Fault> pin = faults;
  pin[0].pin = static_cast<std::int16_t>(pin[0].pin + 1);
  std::vector<fault::Fault> stuck = faults;
  stuck[0].stuck ^= 1;
  std::vector<fault::Fault> order = faults;
  std::swap(order[0], order[1]);
  std::vector<fault::Fault> shorter(faults.begin(), faults.end() - 1);
  for (const auto* v : {&gate, &pin, &stuck, &order, &shorter}) {
    EXPECT_NE(digest_faults(*v), base);
  }
}

TEST(StoreSerde, P2OptionsDigestIgnoresThreadsAndEngine) {
  core::Procedure2Options a;
  core::Procedure2Options b = a;
  b.sim_threads = 8;  // never changes results -> same identity
  EXPECT_EQ(digest_p2_options(a), digest_p2_options(b));
  b.engine = fault::Engine::kFullSweep;  // every engine is exact
  EXPECT_EQ(digest_p2_options(a), digest_p2_options(b));
  core::Procedure2Options c = a;
  c.d1_order = {10, 9, 8};
  EXPECT_NE(digest_p2_options(a), digest_p2_options(c));
  core::Procedure2Options d = a;
  d.base_seed ^= 1;
  EXPECT_NE(digest_p2_options(a), digest_p2_options(d));
}

TEST(StoreSerde, EveryEngineSharesOneArtifactIdentity) {
  // DESIGN.md §10: every engine is exact, so no artifact key names one —
  // a campaign stored under any engine is a cache hit for the others.
  const ScratchDir dir("enginekey");
  const netlist::Netlist nl = gen::make_circuit("s27");
  const std::vector<fault::Fault> targets = fault::collapsed_universe(nl);
  ArtifactStore astore(dir.path());
  const CampaignStore cs(astore, nl, targets, false);
  const core::Combo combo{8, 16, 64, 0};
  core::Procedure2Options cone;
  cone.engine = fault::Engine::kConeDiff;
  for (const fault::Engine engine :
       {fault::Engine::kFullSweep, fault::Engine::kPacked}) {
    core::Procedure2Options other = cone;
    other.engine = engine;
    EXPECT_EQ(digest_p2_options(other), digest_p2_options(cone));
    EXPECT_EQ(cs.p2_key(combo, other, 7).filename(),
              cs.p2_key(combo, cone, 7).filename());
    EXPECT_EQ(cs.campaign_key(other, 7).filename(),
              cs.campaign_key(cone, 7).filename());
  }
}

// ---- StoreArtifact -------------------------------------------------------

TEST(StoreArtifact, PutGetRoundTrip) {
  const ScratchDir dir("roundtrip");
  ArtifactStore store(dir.path());
  const ArtifactKey key = demo_key();
  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.get(key), std::nullopt);
  const std::uint64_t framed = store.put(key, demo_body());
  EXPECT_EQ(framed, demo_body().size() + kFrameOverhead);
  EXPECT_TRUE(store.contains(key));
  const auto back = store.get(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, demo_body());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), framed);
}

TEST(StoreArtifact, OverwriteReplacesInPlace) {
  const ScratchDir dir("overwrite");
  ArtifactStore store(dir.path());
  const ArtifactKey key = demo_key();
  store.put(key, demo_body());
  const std::vector<std::uint8_t> other{9, 9, 9};
  store.put(key, other);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(*store.get(key), other);
}

TEST(StoreArtifact, DistinctParamsDistinctFiles) {
  const ScratchDir dir("params");
  ArtifactStore store(dir.path());
  ArtifactKey a{"k", 1, {}};
  a.with("seed", 7);
  ArtifactKey b{"k", 1, {}};
  b.with("seed", 8);
  EXPECT_NE(a.filename(), b.filename());
  store.put(a, demo_body());
  EXPECT_FALSE(store.contains(b));
}

TEST(StoreArtifact, TempOrphansAreInvisibleAndCollected) {
  const ScratchDir dir("orphan");
  ArtifactStore store(dir.path());
  store.put(demo_key(), demo_body());
  // Simulate a crash between temp write and rename.
  const std::string orphan = dir.path() + "/demo-0000.rlsa.tmp.99.0";
  write_all(orphan, {1, 2, 3});
  EXPECT_EQ(store.size(), 1u);  // orphan not visible as an artifact

  // gc holds the exclusive store flock, so no put() can be in flight in
  // any process while it runs: every temp file it sees is a true crash
  // orphan and is collected immediately, fresh or not (lock-aware gc;
  // the PR 5 grace window only applies when flock is unsupported).
  const auto stats = store.gc(1 << 20);
  EXPECT_EQ(stats.removed_files, 1u);  // the orphan, never the artifact
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(store.contains(demo_key()));
}

TEST(StoreArtifact, GcEvictsOldestFirst) {
  const ScratchDir dir("gc");
  ArtifactStore store(dir.path());
  ArtifactKey old_key{"old", 1, {}};
  ArtifactKey new_key{"new", 1, {}};
  store.put(old_key, demo_body());
  const std::string old_path = store.path(old_key);
  // Backdate the first artifact so mtime ordering is unambiguous.
  fs::last_write_time(old_path,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));
  store.put(new_key, demo_body());
  const std::uint64_t one = demo_body().size() + kFrameOverhead;
  const auto stats = store.gc(one);  // room for exactly one artifact
  EXPECT_EQ(stats.removed_files, 1u);
  EXPECT_EQ(stats.kept_bytes, one);
  EXPECT_FALSE(store.contains(old_key));
  EXPECT_TRUE(store.contains(new_key));
}

// ---- StoreNegative: the adversarial corruption suite ---------------------

/// Expects `store.get(key)` to throw a StoreError whose message names the
/// artifact file.
void expect_store_error(const ArtifactStore& store, const ArtifactKey& key,
                        const std::string& path, const char* what) {
  try {
    (void)store.get(key);
    FAIL() << "expected StoreError for " << what;
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << what << ": message should name the file, got: " << e.what();
  }
}

TEST(StoreNegative, TruncatedArtifactRejected) {
  const ScratchDir dir("trunc");
  ArtifactStore store(dir.path());
  store.put(demo_key(), demo_body());
  const std::string path = only_artifact(dir.path());
  std::vector<std::uint8_t> bytes = read_all(path);
  // Both a mid-body truncation and a below-header truncation must fail.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 3);
  write_all(path, cut);
  expect_store_error(store, demo_key(), path, "mid-body truncation");
  write_all(path, {bytes.begin(), bytes.begin() + 10});
  expect_store_error(store, demo_key(), path, "header truncation");
  write_all(path, {});
  expect_store_error(store, demo_key(), path, "empty file");
}

TEST(StoreNegative, FlippedBodyByteRejected) {
  const ScratchDir dir("flip-body");
  ArtifactStore store(dir.path());
  store.put(demo_key(), demo_body());
  const std::string path = only_artifact(dir.path());
  std::vector<std::uint8_t> bytes = read_all(path);
  bytes[kFrameOverhead - 8 + 2] ^= 0x40;  // a byte inside the body
  write_all(path, bytes);
  expect_store_error(store, demo_key(), path, "flipped body byte");
}

TEST(StoreNegative, FlippedTrailerDigestRejected) {
  const ScratchDir dir("flip-trailer");
  ArtifactStore store(dir.path());
  store.put(demo_key(), demo_body());
  const std::string path = only_artifact(dir.path());
  std::vector<std::uint8_t> bytes = read_all(path);
  bytes.back() ^= 0x01;
  write_all(path, bytes);
  expect_store_error(store, demo_key(), path, "flipped trailer digest");
}

TEST(StoreNegative, WrongMagicRejected) {
  const ScratchDir dir("magic");
  ArtifactStore store(dir.path());
  store.put(demo_key(), demo_body());
  const std::string path = only_artifact(dir.path());
  std::vector<std::uint8_t> bytes = read_all(path);
  bytes[0] = 'X';
  write_all(path, bytes);
  expect_store_error(store, demo_key(), path, "wrong magic");
}

TEST(StoreNegative, FutureFormatVersionRejected) {
  const ScratchDir dir("version");
  ArtifactStore store(dir.path());
  store.put(demo_key(), demo_body());
  const std::string path = only_artifact(dir.path());
  std::vector<std::uint8_t> bytes = read_all(path);
  bytes[4] = static_cast<std::uint8_t>(kFormatVersion + 1);
  // Re-seal the trailer so only the version is "wrong": a future version
  // must be rejected even when the frame is otherwise self-consistent.
  const std::uint64_t digest = fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(digest >> (8 * i));
  }
  write_all(path, bytes);
  expect_store_error(store, demo_key(), path, "future format version");
}

TEST(StoreNegative, RenamedArtifactRejectedByKeyDigest) {
  const ScratchDir dir("rename");
  ArtifactStore store(dir.path());
  ArtifactKey a{"k", 1, {}};
  a.with("seed", 7);
  ArtifactKey b{"k", 1, {}};
  b.with("seed", 8);
  store.put(a, demo_body());
  const std::string pa = store.path(a);
  const std::string pb = store.path(b);
  fs::create_directories(fs::path(pb).parent_path());
  fs::rename(pa, pb);  // a valid frame, but for a different key
  expect_store_error(store, b, pb, "renamed artifact");
}

// ---- StoreShard: sharded directory layout --------------------------------

TEST(StoreShard, LayoutPlacesArtifactsByDigestPrefix) {
  const ScratchDir dir("shard-layout");
  ArtifactStore store(dir.path());
  const ArtifactKey key = demo_key();
  store.put(key, demo_body());

  const std::string p = store.path(key);
  EXPECT_TRUE(fs::exists(p));
  // The shard directory name is the first two hex characters of the
  // digest part of the filename — the layout is derivable from the name.
  const std::string fname = fs::path(p).filename().string();
  const std::string shard = fs::path(p).parent_path().filename().string();
  const std::size_t dash = fname.rfind('-');
  ASSERT_NE(dash, std::string::npos);
  EXPECT_EQ(shard, fname.substr(dash + 1, 2));
  EXPECT_EQ(fs::path(p).parent_path().parent_path().filename().string(),
            "shards");
  EXPECT_EQ(store.shard_dir(ArtifactStore::shard_of(key)),
            fs::path(p).parent_path().string());
}

TEST(StoreShard, FlatStoreMigratesOnOpen) {
  const ScratchDir dir("migrate");
  // Fabricate a PR 5-era flat store: framed artifacts at the root.
  std::vector<ArtifactKey> keys;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ArtifactKey key{"flat", 7, {}};
    key.with("i", i);
    write_all(dir.path() + "/" + key.filename(),
              frame(key.digest(), demo_body()));
    keys.push_back(key);
  }
  // An orphan and an unrelated file must stay at the root, unmigrated.
  write_all(dir.path() + "/flat-0000.rlsa.tmp.99.0", {1, 2, 3});
  write_all(dir.path() + "/README.txt", {'h', 'i'});

  ArtifactStore store(dir.path());
  EXPECT_EQ(store.migrated_files(), 8u);
  EXPECT_EQ(store.size(), 8u);
  for (const ArtifactKey& key : keys) {
    EXPECT_TRUE(store.contains(key));
    ASSERT_TRUE(store.get(key).has_value());
    EXPECT_EQ(*store.get(key), demo_body());
    EXPECT_NE(store.path(key).find("/shards/"), std::string::npos);
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().extension(), ".rlsa")
        << "artifact left at the root: " << entry.path();
  }
  EXPECT_TRUE(fs::exists(dir.path() + "/README.txt"));

  // Re-opening an already-sharded store migrates nothing.
  ArtifactStore again(dir.path());
  EXPECT_EQ(again.migrated_files(), 0u);
  EXPECT_EQ(again.size(), 8u);
}

TEST(StoreShard, GcPerShardHonorsBudgetOrphansAndSiblings) {
  const ScratchDir dir("gc-shard");
  ArtifactStore store(dir.path());
  const ArtifactKey a_old = key_in_shard(0x11);
  const ArtifactKey a_new = key_in_shard(0x11, a_old.params[0].second + 1);
  const unsigned sibling_shard = 0x22;
  const ArtifactKey b = key_in_shard(sibling_shard);
  const unsigned shard = ArtifactStore::shard_of(a_old);
  ASSERT_EQ(shard, ArtifactStore::shard_of(a_new));
  ASSERT_NE(shard, ArtifactStore::shard_of(b));

  store.put(a_old, demo_body());
  store.put(a_new, demo_body());
  store.put(b, demo_body());
  fs::last_write_time(store.path(a_old),
                      fs::file_time_type::clock::now() - std::chrono::hours(1));
  // Backdate the sibling even further: a store-wide LRU would evict it
  // first, a correct per-shard gc must not even look at it.
  fs::last_write_time(store.path(b),
                      fs::file_time_type::clock::now() - std::chrono::hours(2));
  const std::string orphan = store.path(a_old) + ".tmp.99.0";
  write_all(orphan, {1, 2, 3});
  fs::last_write_time(orphan,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  const std::uint64_t one = demo_body().size() + kFrameOverhead;
  const auto stats = store.gc_shard(shard, one);
  EXPECT_EQ(stats.removed_files, 2u);  // the orphan + the old artifact
  EXPECT_EQ(stats.kept_bytes, one);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(store.contains(a_old));
  EXPECT_TRUE(store.contains(a_new));
  EXPECT_TRUE(store.contains(b));

  // The sibling shard is within budget: nothing to collect there.
  const auto sib = store.gc_shard(sibling_shard, one);
  EXPECT_EQ(sib.removed_files, 0u);
  EXPECT_TRUE(store.contains(b));
}

TEST(StoreShard, GlobalGcStillEvictsOldestAcrossShards) {
  const ScratchDir dir("gc-global");
  ArtifactStore store(dir.path());
  const ArtifactKey a = key_in_shard(0x01);
  const ArtifactKey b = key_in_shard(0x02);
  store.put(a, demo_body());
  store.put(b, demo_body());
  fs::last_write_time(store.path(a),
                      fs::file_time_type::clock::now() - std::chrono::hours(1));
  const std::uint64_t one = demo_body().size() + kFrameOverhead;
  const auto stats = store.gc(one);
  EXPECT_EQ(stats.removed_files, 1u);
  EXPECT_FALSE(store.contains(a));
  EXPECT_TRUE(store.contains(b));
}

// Regression (PR 7): gc of one shard racing puts landing in sibling
// shards. Runs under TSan via the StoreConcurrency filter.
TEST(StoreConcurrency, GcShardRacesPutInSiblingShard) {
  const ScratchDir dir("gc-race");
  ArtifactStore store(dir.path());
  std::vector<ArtifactKey> keys;
  for (std::uint64_t i = 0; i < 48; ++i) {
    keys.push_back(key_in_shard(static_cast<unsigned>(i * 5) % 256, i * 100));
  }
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (unsigned s = 0; s < ArtifactStore::kNumShards; ++s) {
        store.gc_shard(s, 0);  // zero budget: evict everything it sees
      }
    }
  });
  // Park the collector even if an assertion below throws — an abandoned
  // joinable thread would turn a test failure into std::terminate.
  struct Joiner {
    std::thread& t;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true, std::memory_order_relaxed);
      if (t.joinable()) t.join();
    }
  } joiner{collector, stop};
  for (int round = 0; round < 3; ++round) {
    for (const ArtifactKey& key : keys) {
      store.put(key, demo_body());
      (void)store.contains(key);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  collector.join();
  // The store must be consistent after the storm: every key re-put with
  // the collector parked is present and loads intact.
  // (Joiner above already parked it on this path.)
  for (const ArtifactKey& key : keys) store.put(key, demo_body());
  for (const ArtifactKey& key : keys) {
    const auto back = store.get(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, demo_body());
  }
  EXPECT_EQ(store.size(), keys.size());
}

// ---- StoreCheckpoint -----------------------------------------------------

TEST(StoreCheckpoint, P2SnapshotRoundTripAndResumeGating) {
  const ScratchDir dir("ckpt");
  const netlist::Netlist nl = gen::make_circuit("s27");
  const std::vector<fault::Fault> targets = fault::collapsed_universe(nl);
  ArtifactStore astore(dir.path());
  const CampaignStore cold(astore, nl, targets, /*resume=*/false);

  core::Procedure2Options opt;
  const core::Combo combo{8, 16, 64, 0};
  const P2Checkpoint ckpt(cold, cold.p2_key(combo, opt, 42));

  P2Snapshot snap;
  snap.terminal = false;
  snap.iteration = 2;
  snap.d1_index = 3;
  snap.improve = true;
  snap.n_same_fc = 1;
  snap.cum_cycles = 999;
  snap.result.ts0_detected = 10;
  snap.result.ncyc0 = 500;
  snap.detected.assign(targets.size(), 0);
  snap.detected[0] = 1;
  ckpt.save(snap, nullptr);

  // Partial state is resume-only: the cold binding must not see it, and it
  // must never masquerade as a finished result.
  EXPECT_EQ(ckpt.load_partial(nullptr), std::nullopt);
  EXPECT_EQ(ckpt.load_terminal(nullptr), std::nullopt);

  const CampaignStore warm(astore, nl, targets, /*resume=*/true);
  const P2Checkpoint rckpt(warm, warm.p2_key(combo, opt, 42));
  const auto back = rckpt.load_partial(nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->terminal);
  EXPECT_EQ(back->iteration, 2u);
  EXPECT_EQ(back->d1_index, 3u);
  EXPECT_TRUE(back->improve);
  EXPECT_EQ(back->n_same_fc, 1u);
  EXPECT_EQ(back->cum_cycles, 999u);
  EXPECT_EQ(back->result.ncyc0, 500u);
  EXPECT_EQ(back->detected, snap.detected);

  // A terminal snapshot supersedes the partial one in place and is served
  // to any binding, resume or not.
  P2Snapshot done = snap;
  done.terminal = true;
  rckpt.save(done, nullptr);
  EXPECT_TRUE(ckpt.load_terminal(nullptr).has_value());
  EXPECT_EQ(rckpt.load_partial(nullptr), std::nullopt);
}

TEST(StoreCheckpoint, CampaignSnapshotRoundTrip) {
  const ScratchDir dir("camp");
  const netlist::Netlist nl = gen::make_circuit("s27");
  const std::vector<fault::Fault> targets = fault::collapsed_universe(nl);
  ArtifactStore astore(dir.path());
  const CampaignStore cs(astore, nl, targets, false);
  core::Procedure2Options opt;
  const ArtifactKey key = cs.campaign_key(opt, 42);

  CampaignSnapshot snap;
  snap.terminal = true;
  snap.next_attempt = 2;
  snap.winner = 1;
  snap.committed.resize(2);
  snap.committed[0].combo = {8, 16, 64, 100};
  snap.committed[1].combo = {8, 16, 128, 200};
  snap.committed[1].result.complete = true;
  cs.save_campaign(key, snap, nullptr);

  const auto back = cs.load_campaign(key, nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->terminal);
  EXPECT_EQ(back->next_attempt, 2u);
  EXPECT_EQ(back->winner, 1);
  ASSERT_EQ(back->committed.size(), 2u);
  EXPECT_EQ(back->committed[1].combo.n, 128u);
  EXPECT_TRUE(back->committed[1].result.complete);
}

TEST(StoreCheckpoint, CorruptArtifactIsToleratedMidCampaign) {
  const ScratchDir dir("tolerant");
  const netlist::Netlist nl = gen::make_circuit("s27");
  const std::vector<fault::Fault> targets = fault::collapsed_universe(nl);
  ArtifactStore astore(dir.path());
  const CampaignStore cs(astore, nl, targets, true);
  core::Procedure2Options opt;
  const ArtifactKey key = cs.campaign_key(opt, 42);
  cs.save_campaign(key, CampaignSnapshot{}, nullptr);

  const std::string path = only_artifact(dir.path());
  std::vector<std::uint8_t> bytes = read_all(path);
  bytes.back() ^= 0xFF;
  write_all(path, bytes);

  // The typed accessor treats the damage as a counted miss (the campaign
  // recomputes); the raw accessor still surfaces the typed error.
  core::RunContext ctx;
  EXPECT_EQ(cs.load_campaign(key, &ctx), std::nullopt);
  EXPECT_EQ(ctx.counters().value("store.corrupt"), 1u);
  EXPECT_THROW((void)astore.get(key), StoreError);
}

TEST(StoreCheckpoint, KeysSeparateCircuitsAndOptions) {
  const ScratchDir dir("keys");
  const netlist::Netlist s27 = gen::make_circuit("s27");
  const netlist::Netlist s298 = gen::make_circuit("s298");
  const std::vector<fault::Fault> t27 = fault::collapsed_universe(s27);
  const std::vector<fault::Fault> t298 = fault::collapsed_universe(s298);
  ArtifactStore astore(dir.path());
  const CampaignStore a(astore, s27, t27, false);
  const CampaignStore b(astore, s298, t298, false);

  core::Procedure2Options opt;
  core::Procedure2Options desc = opt;
  desc.d1_order = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  const core::Combo combo{8, 16, 64, 0};
  EXPECT_NE(a.p2_key(combo, opt, 1).filename(),
            a.p2_key(combo, desc, 1).filename());
  EXPECT_NE(a.p2_key(combo, opt, 1).filename(),
            a.p2_key(combo, opt, 2).filename());
  EXPECT_NE(a.campaign_key(opt, 1).filename(),
            b.campaign_key(opt, 1).filename());
}

}  // namespace
}  // namespace rls::store
