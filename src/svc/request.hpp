// CampaignRequest / CampaignResponse — the typed wire contract of the
// campaign service (DESIGN.md §12).
//
// A CampaignRequest is the one options front door: it carries everything
// `rls run` can express — the circuit, an optional pinned (L_A, L_B, N)
// combination, and the full core::CampaignOptions surface — as a flat,
// versioned JSON object. `rls run`, `rls batch` and `rls serve` all build
// one and hand it to the CampaignService, so the CLI surfaces cannot
// drift from the API.
//
// Schema versioning rules:
//   * "schema" is required on the wire and must be <= kSchemaVersion;
//     unknown (future) versions are rejected, older ones parse with
//     defaults for fields introduced since.
//   * Within a version, every field is optional (absent = default) and
//     unknown field names are a hard error — a typo'd knob must not
//     silently fall back to defaults.
//   * Renaming or re-typing a field requires a version bump.
//
// canonical_json() renders every field explicitly, in schema order — two
// requests mean the same campaign iff their canonical forms are equal,
// modulo the identity fields excluded by coalesce_key() below.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_context.hpp"
#include "obs/trace.hpp"

namespace rls::svc {

class RequestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Client-visible request identity. Assigned by the submitter ("r0",
/// "r1", ... when absent); echoed on the response and used to name the
/// per-request stream file. Never part of the execution identity.
using RequestId = std::string;

struct CampaignRequest {
  /// v2 (PR 10) added the schedule-only `priority` and `deadline_ms`
  /// fields; schema-1 lines still parse (absent = default) and remain
  /// byte-compatible on the wire.
  static constexpr std::uint32_t kSchemaVersion = 2;

  RequestId id;          ///< echoed on the response (assigned if empty)
  std::string circuit;   ///< registry name or .bench path
  /// Pinned combination: all three nonzero = run_single_combo; all three
  /// zero = the first-complete sweep. Mixed is a parse error.
  std::uint64_t la = 0, lb = 0, n = 0;
  core::CampaignOptions options;
  /// Wall-clock stamping in the stream (default off: deterministic,
  /// coalescible streams; a timing=true request never coalesces with a
  /// timing=false one).
  bool timing = false;
  /// Admission priority: higher runs earlier; equal priorities keep
  /// admission order (stable). Schedule-only — never part of the
  /// execution identity.
  std::uint64_t priority = 0;
  /// Queue-level deadline in milliseconds from admission (0 = none). A
  /// request still queued when its deadline passes resolves with a typed
  /// "deadline_exceeded" error instead of running; once claimed by a
  /// worker it always runs to completion. Schedule-only.
  std::uint64_t deadline_ms = 0;

  /// All fields, explicit, in schema order, one line, no trailing \n.
  [[nodiscard]] std::string canonical_json() const;
};

/// Parses one request object (strict: see versioning rules above).
/// `origin` names the input in errors.
CampaignRequest parse_request(std::string_view text,
                              const std::string& origin);

/// Control line: `{"cancel":"<id>"}` (optional "schema", no other
/// fields) — asks the service to abort the still-queued request with
/// that id. Queue-level: a cancelled request resolves with a typed
/// "cancelled" envelope; a request already claimed by a worker finishes
/// normally and the cancel is a no-op.
struct CancelLine {
  RequestId target;
  [[nodiscard]] std::string canonical_json() const;
};

/// One parsed NDJSON input line: exactly one of the members is set.
struct ParsedLine {
  std::optional<CampaignRequest> request;
  std::optional<CancelLine> cancel;
};

/// Parses one input line, dispatching on the presence of a "cancel"
/// field: `{"cancel":...}` objects parse as CancelLine (strict: no other
/// fields besides the optional "schema"), everything else as a
/// CampaignRequest under parse_request()'s rules. The line's JSON is
/// parsed once either way.
ParsedLine parse_line(std::string_view text, const std::string& origin);

/// Execution identity for single-flight coalescing: the FNV-1a digest of
/// the canonical form with the schedule-only fields (id, threads,
/// combo_jobs, priority, deadline_ms) neutralized — those change how
/// fast (or whether) a campaign runs, never its results or stream bytes,
/// so requests differing only there share one execution. The engine is
/// kept, although no store artifact key names it: a stream's fsim.*
/// counters differ by engine.
[[nodiscard]] std::uint64_t coalesce_key(const CampaignRequest& req);

/// Machine-readable error discriminators for CampaignResponse::error_code.
/// Stable wire strings — clients dispatch on these, never on the prose
/// in `error`.
namespace error_code {
inline constexpr const char* kRequest = "request";    ///< parse/validation
inline constexpr const char* kRun = "run";            ///< execution failed
inline constexpr const char* kQueueFull = "queue_full";
inline constexpr const char* kCancelled = "cancelled";
inline constexpr const char* kDeadline = "deadline_exceeded";
inline constexpr const char* kDrained = "drained";    ///< graceful drain
inline constexpr const char* kStopped = "stopped";    ///< service stopping
inline constexpr const char* kFrame = "frame";        ///< transport framing
}  // namespace error_code

struct CampaignResponse {
  /// v2 (PR 10) added `error_code` and `retry_after_hint` to error
  /// envelopes.
  static constexpr std::uint32_t kSchemaVersion = 2;

  /// One applied TS(I, D_1) set (mirrors core::AppliedSet; lets `rls run`
  /// print its per-application report without re-parsing the stream).
  struct AppliedRow {
    std::uint32_t iteration = 0, d1 = 0;
    std::uint64_t detected = 0, cycles = 0;
  };

  RequestId id;
  bool ok = false;
  std::string error;      ///< human prose, set when !ok
  /// Machine-readable discriminator (error_code::k*), rendered when !ok.
  std::string error_code;
  /// Suggested client back-off in milliseconds before resubmitting
  /// (queue_full / drained rejections); rendered when nonzero.
  std::uint64_t retry_after_hint = 0;
  bool coalesced = false; ///< this response shared another request's run

  // Result row (valid when ok).
  std::string circuit;
  std::uint64_t la = 0, lb = 0, n = 0, ncyc0 = 0;
  bool complete = false;
  std::uint64_t detected = 0, targets = 0, attempts = 0, applications = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t ts0_detected = 0;
  double ls = 0.0;        ///< average limited-scan units per vector
  std::vector<AppliedRow> applied;

  /// The request's deterministic JSONL event stream — byte-identical to a
  /// solo `rls run` of the same options against the same store state.
  std::string stream;
  /// Snapshot of the execution's counters (fsim.*, store.*, sweep.*).
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// One-line JSON envelope (without the stream; that travels to its own
  /// sink/file).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace rls::svc
