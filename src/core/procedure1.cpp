#include "core/procedure1.hpp"

#include <stdexcept>

#include "rand/rng.hpp"

namespace rls::core {

namespace {

/// One test's schedule: a draw per time unit u >= 1, continuing `rng`.
scan::ScanSchedule draw_schedule(rls::rand::Rng& rng, std::size_t len,
                                 std::uint32_t d1, std::uint32_t d2) {
  scan::ScanSchedule s;
  s.shift.assign(len, 0);
  for (std::size_t u = 1; u < len; ++u) {
    const std::uint32_t r1 = static_cast<std::uint32_t>(rng.next_u64() >> 32);
    if (r1 % d1 != 0) continue;
    const std::uint32_t r2 = static_cast<std::uint32_t>(rng.next_u64() >> 32);
    const std::uint32_t shift = r2 % d2;
    s.shift[u] = shift;
    for (std::uint32_t j = 0; j < shift; ++j) {
      s.bits.push_back(rng.next_bit() ? 1 : 0);
    }
  }
  return s;
}

}  // namespace

std::uint64_t seed_of_iteration(const LimitedScanParams& p) {
  // seed(I) depends on I (not on D_1): at a given iteration, the D_1 sweep
  // reuses the same underlying draw sequence, as an LFSR reseeded from a
  // stored per-iteration value would.
  return rls::rand::Rng(p.base_seed).fork(p.iteration).next_u64();
}

std::size_t LimitedScanPlan::shifted_tests() const noexcept {
  std::size_t n = 0;
  for (std::uint32_t s : of_test) n += schedules[s].has_limited_scan();
  return n;
}

std::uint64_t LimitedScanPlan::total_shift() const noexcept {
  std::uint64_t n = 0;
  for (std::uint32_t s : of_test) n += schedules[s].total_shift();
  return n;
}

std::uint64_t LimitedScanPlan::limited_scan_units() const noexcept {
  std::uint64_t n = 0;
  for (std::uint32_t s : of_test) n += schedules[s].limited_scan_units();
  return n;
}

LimitedScanPlan plan_limited_scan(const scan::TestSet& ts0, std::size_t n_sv,
                                  const LimitedScanParams& p) {
  if (p.d1 == 0) {
    throw std::invalid_argument("LimitedScanParams: d1 must be >= 1");
  }
  const std::uint32_t d2 =
      p.d2 != 0 ? p.d2 : static_cast<std::uint32_t>(n_sv + 1);
  const std::uint64_t seed_i = seed_of_iteration(p);

  LimitedScanPlan plan;
  plan.of_test.reserve(ts0.tests.size());
  rls::rand::Rng rng(seed_i);
  for (const scan::ScanTest& t : ts0.tests) {
    const std::size_t len = t.length();
    std::size_t s = plan.schedules.size();
    if (p.reseed_per_test) {
      // Re-seeded draws depend on the length alone: reuse an earlier
      // test's schedule when one has this length.
      for (std::size_t k = 0; k < plan.schedules.size(); ++k) {
        if (plan.schedules[k].shift.size() == len) {
          s = k;
          break;
        }
      }
      rng = rls::rand::Rng(seed_i);
    }
    if (s == plan.schedules.size()) {
      plan.schedules.push_back(draw_schedule(rng, len, p.d1, d2));
    }
    plan.of_test.push_back(static_cast<std::uint32_t>(s));
  }
  return plan;
}

scan::TestSet make_limited_scan_set(const scan::TestSet& ts0,
                                    const LimitedScanPlan& plan) {
  scan::TestSet out;
  out.tests.reserve(ts0.tests.size());
  for (std::size_t i = 0; i < ts0.tests.size(); ++i) {
    const scan::ScanSchedule& s = plan.of(i);
    scan::ScanTest t = ts0.tests[i];
    t.shift = s.shift;
    t.scan_bits.assign(s.shift.size(), {});
    auto bit = s.bits.begin();
    for (std::size_t u = 0; u < s.shift.size(); ++u) {
      t.scan_bits[u].assign(bit, bit + s.shift[u]);
      bit += s.shift[u];
    }
    out.tests.push_back(std::move(t));
  }
  return out;
}

scan::TestSet make_limited_scan_set(const scan::TestSet& ts0, std::size_t n_sv,
                                    const LimitedScanParams& p) {
  return make_limited_scan_set(ts0, plan_limited_scan(ts0, n_sv, p));
}

}  // namespace rls::core
