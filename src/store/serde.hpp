// Versioned, deterministic binary serialization for campaign artifacts.
//
// Every artifact the store persists — Procedure 2 results and the
// checkpoint snapshots built from them — is encoded
// with explicit little-endian primitives through ByteWriter/ByteReader, so
// the byte stream is identical across platforms and compiler versions
// (the same repeatability contract the paper demands of its hardware RNG,
// extended to on-disk state).
//
// Framing (see frame()/unframe()):
//
//   offset 0   magic "RLSA" (4 bytes)
//          4   u32  format version (kFormatVersion)
//          8   u64  key digest (binds the file to its ArtifactKey)
//         16   u64  body length in bytes
//         24   body
//   24+len     u64  FNV-1a digest of bytes [0, 24+len)  (trailer)
//
// Any mismatch — short file, wrong magic, future version, length drift,
// digest drift, foreign key — raises a typed StoreError naming the
// offending path; decoding never reads past the buffer (ByteReader is
// bounds-checked), so a corrupt artifact can fail loudly but never walk
// off into undefined behavior.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/param_select.hpp"
#include "core/procedure2.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace rls::store {

inline constexpr char kMagic[4] = {'R', 'L', 'S', 'A'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// Fixed bytes around the body: magic + version + key digest + length
/// header, u64 digest trailer.
inline constexpr std::size_t kFrameOverhead = 4 + 4 + 8 + 8 + 8;

/// Every store failure — I/O, truncation, corruption, version or key
/// mismatch — surfaces as this type, with the offending path (or logical
/// origin) in the message.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- content digest ------------------------------------------------------

inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// Incremental FNV-1a over a byte range; chain by passing the previous
/// digest as `seed`.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = kFnvBasis);

// ---- primitive encoding --------------------------------------------------

/// Appends explicit little-endian primitives to a growing buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// 0/1 flag vector, bit-packed (count prefix + ceil(count/8) bytes).
  void bits(const std::vector<std::uint8_t>& flags);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over an immutable byte span. Every accessor
/// throws StoreError (naming `origin`) instead of reading past the end.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, std::string origin)
      : data_(data), origin_(std::move(origin)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Inverse of ByteWriter::bits.
  std::vector<std::uint8_t> bits();
  /// Guarded element-count read: throws unless `count * elem_bytes` more
  /// bytes are actually present (a corrupt count cannot trigger a huge
  /// allocation).
  std::uint64_t count(std::size_t elem_bytes);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  void expect_end() const;
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string origin_;
};

// ---- framing -------------------------------------------------------------

/// Wraps `body` in the magic/version/key/length header and digest trailer.
std::vector<std::uint8_t> frame(std::uint64_t key_digest,
                                std::span<const std::uint8_t> body);

/// Validates the frame and returns the body. `origin` (normally the file
/// path) is embedded in every StoreError.
std::vector<std::uint8_t> unframe(std::span<const std::uint8_t> framed,
                                  std::uint64_t expected_key_digest,
                                  const std::string& origin);

// ---- typed encoders ------------------------------------------------------

void write_fault(ByteWriter& w, const fault::Fault& f);

void write_combo(ByteWriter& w, const core::Combo& c);
core::Combo read_combo(ByteReader& r);

void write_applied_set(ByteWriter& w, const core::AppliedSet& a);
core::AppliedSet read_applied_set(ByteReader& r);

void write_procedure2_result(ByteWriter& w, const core::Procedure2Result& res);
core::Procedure2Result read_procedure2_result(ByteReader& r);

void write_combo_run(ByteWriter& w, const core::ComboRun& run);
core::ComboRun read_combo_run(ByteReader& r);

// ---- content digests for key construction --------------------------------

/// Digest of the circuit *content* (canonical .bench serialization plus
/// name): any gate / connectivity / interface edit changes it, so a cache
/// keyed on it can never serve artifacts of an edited circuit.
std::uint64_t digest_circuit(const netlist::Netlist& nl);

/// Digest of a target fault set (site + pin + stuck value, in order).
std::uint64_t digest_faults(std::span<const fault::Fault> faults);

/// Digest of every Procedure2Options field that can influence results:
/// d1_order, n_same_fc, max_iterations, base_seed, reseed_per_test and the
/// prune mask. sim_threads and the engine are deliberately excluded — any
/// thread count and any exact engine select identical (I, D_1) pairs.
std::uint64_t digest_p2_options(const core::Procedure2Options& opt);

}  // namespace rls::store
