#include "sim/packed_logic.hpp"

#include <algorithm>
#include <cassert>

namespace rls::sim {

std::vector<PackedBatch> PackedBatch::make_batches(const scan::TestSet& ts) {
  std::vector<PackedBatch> batches;
  std::size_t base = 0;
  while (base < ts.tests.size()) {
    const std::size_t length = ts.tests[base].length();
    std::size_t count = 1;
    while (count < static_cast<std::size_t>(kLanes) &&
           base + count < ts.tests.size() &&
           ts.tests[base + count].length() == length) {
      ++count;
    }

    PackedBatch b;
    b.first_ = base;
    b.count_ = count;
    b.live_ = tail_mask(count);
    b.length_ = length;
    b.n_sv_ = ts.tests[base].scan_in.size();
    b.n_pi_ = length == 0 ? 0 : ts.tests[base].vectors[0].size();

    b.scan_in_.assign(b.n_sv_, 0);
    b.pi_.assign(length * b.n_pi_, 0);
    b.step_off_.assign(length + 1, 0);
    for (std::size_t lane = 0; lane < count; ++lane) {
      const scan::ScanTest& t = ts.tests[base + lane];
      const Word bit = Word{1} << lane;
      for (std::size_t k = 0; k < b.n_sv_; ++k) {
        if (t.scan_in[k]) b.scan_in_[k] |= bit;
      }
      for (std::size_t u = 0; u < length; ++u) {
        for (std::size_t k = 0; k < b.n_pi_; ++k) {
          if (t.vectors[u][k]) b.pi_[u * b.n_pi_ + k] |= bit;
        }
      }
    }
    for (std::size_t u = 0; u < length; ++u) {
      std::uint32_t max_shift = 0;
      for (std::size_t lane = 0; lane < count; ++lane) {
        const scan::ScanTest& t = ts.tests[base + lane];
        if (u < t.shift.size()) max_shift = std::max(max_shift, t.shift[u]);
      }
      b.step_off_[u + 1] = b.step_off_[u] + max_shift;
      for (std::uint32_t j = 0; j < max_shift; ++j) {
        Word mask = 0;
        Word in = 0;
        for (std::size_t lane = 0; lane < count; ++lane) {
          const scan::ScanTest& t = ts.tests[base + lane];
          if (u >= t.shift.size() || j >= t.shift[u]) continue;
          const Word bit = Word{1} << lane;
          mask |= bit;
          if (u < t.scan_bits.size() && j < t.scan_bits[u].size() &&
              t.scan_bits[u][j]) {
            in |= bit;
          }
        }
        b.step_mask_.push_back(mask);
        b.step_in_.push_back(in);
      }
    }
    batches.push_back(std::move(b));
    base += count;
  }
  return batches;
}

std::vector<PackedBatch> PackedBatch::with_schedules(
    std::span<const PackedBatch> base,
    std::span<const scan::ScanSchedule> schedules,
    std::span<const std::uint32_t> of_test) {
  // The tests that shift, in set order, by source batch and lane.
  struct Source {
    const PackedBatch* batch;
    std::size_t lane;
    std::uint32_t schedule;
  };
  std::vector<Source> kept;
  for (const PackedBatch& b : base) {
    assert(!b.has_limited_scan());
    for (std::size_t j = 0; j < b.count_; ++j) {
      const std::uint32_t s = of_test[b.first_ + j];
      if (schedules[s].has_limited_scan()) kept.push_back({&b, j, s});
    }
  }

  std::vector<PackedBatch> batches;
  std::size_t first = 0;
  while (first < kept.size()) {
    const PackedBatch& head = *kept[first].batch;
    std::size_t count = 1;
    while (count < static_cast<std::size_t>(kLanes) &&
           first + count < kept.size() &&
           kept[first + count].batch->length_ == head.length_) {
      ++count;
    }
    const std::span<const Source> lanes(kept.data() + first, count);

    PackedBatch b;
    b.first_ = first;
    b.count_ = count;
    b.live_ = tail_mask(count);
    b.length_ = head.length_;
    b.n_sv_ = head.n_sv_;
    b.n_pi_ = head.n_pi_;
    b.scan_in_.assign(b.n_sv_, 0);
    b.pi_.assign(b.length_ * b.n_pi_, 0);
    // Stimulus: each run of consecutive source lanes lands on consecutive
    // lanes here, so a shift and a mask move the whole run per word.
    for (std::size_t lane = 0; lane < count;) {
      const Source& src = lanes[lane];
      std::size_t run = 1;
      while (lane + run < count && lanes[lane + run].batch == src.batch &&
             lanes[lane + run].lane == src.lane + run) {
        ++run;
      }
      const Word mask = tail_mask(run);
      const auto move_run = [&](const std::vector<Word>& from,
                                std::vector<Word>& to) {
        for (std::size_t w = 0; w < to.size(); ++w) {
          to[w] |= ((from[w] >> src.lane) & mask) << lane;
        }
      };
      move_run(src.batch->scan_in_, b.scan_in_);
      move_run(src.batch->pi_, b.pi_);
      lane += run;
    }

    // Steps: neighbouring lanes that share a schedule shift as one group
    // (under re-seeding that is the whole batch).
    struct Group {
      const scan::ScanSchedule* schedule;
      Word lanes;
      std::size_t bit = 0;  // first bit of the current unit
    };
    std::vector<Group> groups;
    for (std::size_t lane = 0; lane < count; ++lane) {
      const scan::ScanSchedule* s = &schedules[lanes[lane].schedule];
      if (groups.empty() || groups.back().schedule != s) {
        groups.push_back({s, 0});
      }
      groups.back().lanes |= Word{1} << lane;
    }
    b.step_off_.assign(b.length_ + 1, 0);
    for (std::size_t u = 0; u < b.length_; ++u) {
      std::uint32_t max_shift = 0;
      for (const Group& g : groups) {
        max_shift = std::max(max_shift, g.schedule->shift[u]);
      }
      b.step_off_[u + 1] = b.step_off_[u] + max_shift;
      for (std::uint32_t j = 0; j < max_shift; ++j) {
        Word mask = 0;
        Word in = 0;
        for (const Group& g : groups) {
          if (j >= g.schedule->shift[u]) continue;
          mask |= g.lanes;
          if (g.schedule->bits[g.bit + j]) in |= g.lanes;
        }
        b.step_mask_.push_back(mask);
        b.step_in_.push_back(in);
      }
      for (Group& g : groups) g.bit += g.schedule->shift[u];
    }
    batches.push_back(std::move(b));
    first += count;
  }
  return batches;
}

}  // namespace rls::sim
