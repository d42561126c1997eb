#include "store/serde.hpp"

#include <cstring>

#include "netlist/bench_io.hpp"

namespace rls::store {

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

// ---- ByteWriter ----------------------------------------------------------

void ByteWriter::bits(const std::vector<std::uint8_t>& flags) {
  u64(flags.size());
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      buf_.push_back(acc);
      acc = 0;
    }
  }
  if (flags.size() % 8 != 0) buf_.push_back(acc);
}

// ---- ByteReader ----------------------------------------------------------

void ByteReader::require(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw StoreError(origin_ + ": truncated artifact body (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ", have " +
                     std::to_string(data_.size() - pos_) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::count(std::size_t elem_bytes) {
  const std::uint64_t n = u64();
  if (elem_bytes > 0 && n > (data_.size() - pos_) / elem_bytes) {
    throw StoreError(origin_ + ": corrupt element count " + std::to_string(n) +
                     " exceeds remaining " +
                     std::to_string(data_.size() - pos_) + " bytes");
  }
  return n;
}

std::vector<std::uint8_t> ByteReader::bits() {
  const std::uint64_t n = u64();
  const std::uint64_t packed = (n + 7) / 8;
  require(packed);
  std::vector<std::uint8_t> flags(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    flags[i] = (data_[pos_ + i / 8] >> (i % 8)) & 1u;
  }
  pos_ += packed;
  return flags;
}

void ByteReader::expect_end() const {
  if (pos_ != data_.size()) {
    throw StoreError(origin_ + ": " + std::to_string(data_.size() - pos_) +
                     " trailing bytes after artifact body");
  }
}

// ---- framing -------------------------------------------------------------

std::vector<std::uint8_t> frame(std::uint64_t key_digest,
                                std::span<const std::uint8_t> body) {
  ByteWriter w;
  w.bytes(kMagic, sizeof kMagic);
  w.u32(kFormatVersion);
  w.u64(key_digest);
  w.u64(body.size());
  w.bytes(body.data(), body.size());
  const std::uint64_t digest = fnv1a64(w.buffer().data(), w.buffer().size());
  w.u64(digest);
  return w.take();
}

std::vector<std::uint8_t> unframe(std::span<const std::uint8_t> framed,
                                  std::uint64_t expected_key_digest,
                                  const std::string& origin) {
  if (framed.size() < kFrameOverhead) {
    throw StoreError(origin + ": truncated artifact (" +
                     std::to_string(framed.size()) + " bytes, header needs " +
                     std::to_string(kFrameOverhead) + ")");
  }
  if (std::memcmp(framed.data(), kMagic, sizeof kMagic) != 0) {
    throw StoreError(origin + ": bad magic (not an RLS artifact)");
  }
  ByteReader r(framed.subspan(sizeof kMagic), origin);
  const std::uint32_t version = r.u32();
  if (version > kFormatVersion) {
    throw StoreError(origin + ": artifact format version " +
                     std::to_string(version) +
                     " is newer than supported version " +
                     std::to_string(kFormatVersion));
  }
  const std::uint64_t key_digest = r.u64();
  if (key_digest != expected_key_digest) {
    throw StoreError(origin + ": artifact key digest mismatch (file was "
                     "written for a different key)");
  }
  const std::uint64_t body_len = r.u64();
  if (framed.size() != kFrameOverhead + body_len) {
    throw StoreError(origin + ": artifact length mismatch (header claims " +
                     std::to_string(body_len) + " body bytes, file holds " +
                     std::to_string(framed.size() - kFrameOverhead) + ")");
  }
  const std::uint64_t expected =
      fnv1a64(framed.data(), framed.size() - 8);
  ByteReader trailer(framed.subspan(framed.size() - 8), origin);
  if (trailer.u64() != expected) {
    throw StoreError(origin + ": artifact content digest mismatch (corrupt "
                     "body or trailer)");
  }
  return {framed.begin() + static_cast<std::ptrdiff_t>(kFrameOverhead - 8),
          framed.end() - 8};
}

// ---- typed encoders ------------------------------------------------------

void write_fault(ByteWriter& w, const fault::Fault& f) {
  w.u32(f.gate);
  w.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(f.pin)));
  w.u8(f.stuck);
}

void write_combo(ByteWriter& w, const core::Combo& c) {
  w.u64(c.l_a);
  w.u64(c.l_b);
  w.u64(c.n);
  w.u64(c.ncyc0);
}

core::Combo read_combo(ByteReader& r) {
  core::Combo c;
  c.l_a = r.u64();
  c.l_b = r.u64();
  c.n = r.u64();
  c.ncyc0 = r.u64();
  return c;
}

void write_applied_set(ByteWriter& w, const core::AppliedSet& a) {
  w.u32(a.iteration);
  w.u32(a.d1);
  w.u64(a.detected);
  w.u64(a.cycles);
  w.u64(a.limited_units);
  w.u64(a.total_vectors);
}

core::AppliedSet read_applied_set(ByteReader& r) {
  core::AppliedSet a;
  a.iteration = r.u32();
  a.d1 = r.u32();
  a.detected = r.u64();
  a.cycles = r.u64();
  a.limited_units = r.u64();
  a.total_vectors = r.u64();
  return a;
}

void write_procedure2_result(ByteWriter& w,
                             const core::Procedure2Result& res) {
  w.u64(res.ts0_detected);
  w.u64(res.ncyc0);
  w.u64(res.applied.size());
  for (const core::AppliedSet& a : res.applied) write_applied_set(w, a);
  w.u64(res.total_detected);
  w.u8(res.complete ? 1 : 0);
  w.u8(res.aborted ? 1 : 0);
}

core::Procedure2Result read_procedure2_result(ByteReader& r) {
  core::Procedure2Result res;
  res.ts0_detected = r.u64();
  res.ncyc0 = r.u64();
  const std::uint64_t n = r.count(40);
  res.applied.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    res.applied.push_back(read_applied_set(r));
  }
  res.total_detected = r.u64();
  res.complete = r.u8() != 0;
  res.aborted = r.u8() != 0;
  return res;
}

void write_combo_run(ByteWriter& w, const core::ComboRun& run) {
  write_combo(w, run.combo);
  write_procedure2_result(w, run.result);
}

core::ComboRun read_combo_run(ByteReader& r) {
  core::ComboRun run;
  run.combo = read_combo(r);
  run.result = read_procedure2_result(r);
  return run;
}

// ---- content digests -----------------------------------------------------

std::uint64_t digest_circuit(const netlist::Netlist& nl) {
  const std::string bench = netlist::write_bench(nl);
  std::uint64_t h = fnv1a64(nl.name().data(), nl.name().size());
  return fnv1a64(bench.data(), bench.size(), h);
}

std::uint64_t digest_faults(std::span<const fault::Fault> faults) {
  ByteWriter w;
  for (const fault::Fault& f : faults) write_fault(w, f);
  return fnv1a64(w.buffer().data(), w.buffer().size());
}

std::uint64_t digest_p2_options(const core::Procedure2Options& opt) {
  ByteWriter w;
  w.u64(opt.d1_order.size());
  for (std::uint32_t d : opt.d1_order) w.u32(d);
  w.u32(opt.n_same_fc);
  w.u32(opt.max_iterations);
  w.u64(opt.base_seed);
  w.u8(opt.reseed_per_test ? 1 : 0);
  // Prune identity: a sound mask cannot change detection results, but a
  // run must never resume from an artifact produced under a *different*
  // mask (an unsound or stale one would smuggle its omissions into the
  // restored flags), so the mask contents join the identity.
  if (opt.prune_mask != nullptr) {
    w.u8(1);
    w.u64(opt.prune_mask->size());
    for (const std::uint8_t b : *opt.prune_mask) w.u8(b != 0 ? 1 : 0);
  } else {
    w.u8(0);
  }
  return fnv1a64(w.buffer().data(), w.buffer().size());
}

}  // namespace rls::store
