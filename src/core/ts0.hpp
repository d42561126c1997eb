// TS_0: the initial random test set (Section 3 of the paper).
//
// TS_0 = {tau_1..tau_N of length L_A, tau_{N+1}..tau_{2N} of length L_B}.
// Scan-in states and input vectors are drawn from a dedicated seeded
// generator so that the same TS_0 can be regenerated at will (the paper's
// "always using the same seed to initialize it" requirement) — test sets
// TS(I,D_1) re-apply exactly these tests with limited scan inserted.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "fault/seq_fsim.hpp"
#include "netlist/netlist.hpp"
#include "scan/test.hpp"

namespace rls::store {
class CampaignStore;
}  // namespace rls::store

namespace rls::core {

class RunContext;

struct Ts0Config {
  std::size_t l_a = 8;
  std::size_t l_b = 16;
  std::size_t n = 64;
  std::uint64_t seed = 0x7507507507ull;
};

/// Generates TS_0 for the circuit: 2N tests, no limited scan operations.
/// Pure function of (circuit interface sizes, config).
scan::TestSet make_ts0(const netlist::Netlist& nl, const Ts0Config& cfg);

/// Memoization of make_ts0, keyed by (circuit digest, L_A, L_B, N, seed,
/// engine). make_ts0 is a pure function of (circuit interface, config), so
/// a campaign that revisits a combination — repeated single-combo runs,
/// benchmark loops, the speculative sweep's per-worker fetches — reuses
/// one immutable set instead of regenerating it. The key folds the
/// circuit *content* digest (so one cache can safely outlive or span
/// circuits — two circuits with equal interface sizes but different logic
/// can never alias) and the fault-simulation engine (artifact identity
/// per rls::store; the set bytes are engine-independent but the artifacts
/// downstream of them are not). Thread-safe: speculative combo workers
/// fetch concurrently.
///
/// With set_store(), misses consult the on-disk artifact store before
/// regenerating, and freshly generated sets are persisted — TS_0 reuse
/// then survives process restarts (the warm-cache path).
class Ts0Cache {
 public:
  /// Returns the cached set for (cfg, nl, engine), loading it from the
  /// attached store or generating it on first use. `ctx` (optional)
  /// receives the store.ts0_* counters; it must belong to the calling
  /// thread (speculative workers pass their child context).
  std::shared_ptr<const scan::TestSet> get(const netlist::Netlist& nl,
                                           const Ts0Config& cfg,
                                           fault::Engine engine,
                                           RunContext* ctx = nullptr);

  /// Attaches (or detaches, with null) the disk tier.
  void set_store(const store::CampaignStore* cs) { store_ = cs; }

  /// Number of get() calls served without regeneration (memory or disk).
  [[nodiscard]] std::size_t hits() const;
  /// Number of distinct test sets held in memory.
  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::tuple<std::uint64_t, std::size_t, std::size_t, std::size_t,
                         std::uint64_t, std::uint8_t>;

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const scan::TestSet>> cache_;
  const store::CampaignStore* store_ = nullptr;
  std::size_t hits_ = 0;
};

}  // namespace rls::core
