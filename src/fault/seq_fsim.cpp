#include "fault/seq_fsim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <thread>

namespace rls::fault {

using netlist::GateType;
using netlist::SignalId;
using sim::broadcast;
using sim::kAllOnes;
using sim::Word;

namespace {

/// Union-cone occupancy above which a fault group is simulated with the
/// full sweep even under kConeDiff: when nearly every combinational gate
/// is reachable from the group's fault sites, the frontier bookkeeping
/// buys little and the branch-free sweep is cheaper.
constexpr double kWideConeFraction = 0.95;

}  // namespace

const char* engine_name(Engine engine) noexcept {
  switch (engine) {
    case Engine::kFullSweep:
      return "fullsweep";
    case Engine::kConeDiff:
      return "conediff";
    case Engine::kPacked:
      return "packed";
  }
  return "unknown";
}

const char* engine_choices() noexcept { return "conediff, fullsweep, packed"; }

std::optional<Engine> parse_engine(std::string_view name) noexcept {
  if (name == "conediff") return Engine::kConeDiff;
  if (name == "fullsweep") return Engine::kFullSweep;
  if (name == "packed") return Engine::kPacked;
  return std::nullopt;
}

SeqFaultSim::SeqFaultSim(const sim::CompiledCircuit& cc)
    : cc_(&cc), ref_(cc) {
  values_.assign(cc.num_signals(), 0);
  next_state_.assign(cc.flip_flops().size(), 0);
  kind_.assign(cc.num_signals(), 0);
  force_slot_.assign(cc.num_signals(), 0);
  queued_epoch_.assign(cc.num_signals(), 0);
  level_queue_.resize(static_cast<std::size_t>(cc.max_level()) + 1);
  cc.init_constants(values_);
}

void SeqFaultSim::set_observation_mode(ObservationMode mode, int misr_degree) {
  mode_ = mode;
  misr_degree_ = misr_degree;
  lane_misr_ = mode == ObservationMode::kSignature
                   ? std::make_unique<bist::LaneMisr>(misr_degree)
                   : nullptr;
}

SeqFaultSim::Overlay SeqFaultSim::build_overlay(
    std::span<const Fault> group) const {
  assert(group.size() <= sim::kLanes);
  Overlay o;
  std::unordered_map<SignalId, ForceMask> forces;
  for (std::size_t lane = 0; lane < group.size(); ++lane) {
    const Fault& f = group[lane];
    if (f.pin < 0) {
      ForceMask& m = forces[f.gate];
      const Word bit = Word{1} << lane;
      if (f.stuck) {
        m.or_mask |= bit;
      } else {
        m.and_mask &= ~bit;
      }
      if (cc_->type(f.gate) == GateType::kDff) o.has_ff_force = true;
    } else if (cc_->type(f.gate) == GateType::kDff) {
      // D-pin fault: functional capture only.
      const auto ffs = cc_->flip_flops();
      std::size_t pos = 0;
      for (; pos < ffs.size(); ++pos) {
        if (ffs[pos] == f.gate) break;
      }
      o.dff_d_fix.emplace_back(
          pos, PinFix{static_cast<std::uint8_t>(lane), f.pin, f.stuck});
    } else {
      o.pin_fix[f.gate].push_back(
          PinFix{static_cast<std::uint8_t>(lane), f.pin, f.stuck});
    }
  }
  o.out_force.assign(forces.begin(), forces.end());
  return o;
}

void SeqFaultSim::apply_out_forces(const Overlay& o) {
  for (const auto& [id, m] : o.out_force) {
    values_[id] = (values_[id] & m.and_mask) | m.or_mask;
  }
}

void SeqFaultSim::eval_with_overlay(const Overlay& o) {
  for (SignalId id : cc_->order()) {
    Word w = cc_->eval_gate(id, values_);
    const std::uint8_t k = kind_[id];
    if (k) {
      if (k & 2) {
        // Input-pin faults: recompute the affected lanes with the pin
        // forced. values_[id] must not yet be overwritten for lanes being
        // recomputed — eval_gate_lane only reads fanins, so order is safe.
        auto it = o.pin_fix.find(id);
        for (const PinFix& fix : it->second) {
          const bool bit = cc_->eval_gate_lane(id, values_, fix.lane, fix.pin,
                                               fix.value != 0);
          w = sim::with_lane(w, fix.lane, bit);
        }
      }
      if (k & 1) {
        const ForceMask& m = o.out_force[force_slot_[id]].second;
        w = (w & m.and_mask) | m.or_mask;
      }
    }
    values_[id] = w;
  }
  gate_evals_ += cc_->order().size();
  sweep_evals_ += cc_->order().size();
}

Word SeqFaultSim::shift_with_forces(Word scan_in, const Overlay& o) {
  const auto ffs = cc_->flip_flops();
  if (ffs.empty()) return 0;
  const Word out = values_[ffs[ffs.size() - 1]];
  for (std::size_t k = ffs.size(); k-- > 1;) {
    values_[ffs[k]] = values_[ffs[k - 1]];
  }
  values_[ffs[0]] = scan_in;
  if (o.has_ff_force) apply_out_forces(o);
  return out;
}

void SeqFaultSim::clock_with_fixes(const Overlay& o) {
  const auto ffs = cc_->flip_flops();
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    next_state_[k] = values_[cc_->fanin(ffs[k])[0]];
  }
  for (const auto& [pos, fix] : o.dff_d_fix) {
    next_state_[pos] = sim::with_lane(next_state_[pos], fix.lane, fix.value != 0);
  }
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    values_[ffs[k]] = next_state_[k];
  }
  if (o.has_ff_force) apply_out_forces(o);
}

SeqFaultSim::Trace SeqFaultSim::compute_trace(const scan::ScanTest& test) {
  Trace tr;
  const std::size_t n_sv = cc_->flip_flops().size();
  // kPacked falls back to kConeDiff for the scalar single-test entry
  // points, so it needs the snapshot too.
  const bool capture_snap = engine_ != Engine::kFullSweep;
  const std::size_t snap_words = (cc_->num_signals() + 63) / 64;
  ref_.load_state_broadcast(test.scan_in);
  tr.po_bits.resize(test.length());
  tr.limited_out_bits.resize(test.length());
  if (capture_snap) {
    tr.snap_words = snap_words;
    tr.snap.assign(test.length() * snap_words, 0);
  }
  for (std::size_t u = 0; u < test.vectors.size(); ++u) {
    const std::uint32_t s = u < test.shift.size() ? test.shift[u] : 0;
    for (std::uint32_t j = 0; j < s; ++j) {
      const std::uint8_t in_bit =
          (u < test.scan_bits.size() && j < test.scan_bits[u].size())
              ? test.scan_bits[u][j]
              : 0;
      const Word out = ref_.shift(broadcast(in_bit != 0));
      tr.limited_out_bits[u].push_back(sim::lane_bit(out, 0) ? 1 : 0);
    }
    ref_.set_inputs_broadcast(test.vectors[u]);
    ref_.eval();
    tr.po_bits[u] = ref_.output_bits(0);
    if (!extra_observed_.empty()) {
      scan::BitVector extra(extra_observed_.size());
      for (std::size_t k = 0; k < extra_observed_.size(); ++k) {
        extra[k] = sim::lane_bit(ref_.values()[extra_observed_[k]], 0) ? 1 : 0;
      }
      tr.extra_bits.push_back(std::move(extra));
    }
    if (capture_snap) {
      // The reference is lane-uniform; lane 0 carries the whole machine.
      std::uint64_t* bits = tr.snap.data() + u * snap_words;
      const std::span<const Word> vals = ref_.values();
      for (SignalId id = 0; id < vals.size(); ++id) {
        bits[id / 64] |= std::uint64_t{vals[id] & 1} << (id % 64);
      }
    }
    ref_.clock();
  }
  tr.final_state.resize(n_sv);
  for (std::size_t k = 0; k < n_sv; ++k) {
    tr.final_state[k] = sim::lane_bit(ref_.state_word(k), 0) ? 1 : 0;
  }
  if (mode_ == ObservationMode::kSignature) {
    // Fold the fault-free response stream into the reference signature in
    // the same canonical order the faulty machines use.
    bist::Misr misr(misr_degree_);
    scan::BitVector one(1);
    for (std::size_t u = 0; u < test.vectors.size(); ++u) {
      for (std::uint8_t bit : tr.limited_out_bits[u]) {
        one[0] = bit;
        misr.absorb(one);
      }
      scan::BitVector obs = tr.po_bits[u];
      if (!tr.extra_bits.empty()) {
        obs.insert(obs.end(), tr.extra_bits[u].begin(), tr.extra_bits[u].end());
      }
      misr.absorb(obs);
    }
    for (std::size_t k = 0; k < n_sv; ++k) {
      one[0] = tr.final_state[n_sv - 1 - k];
      misr.absorb(one);
    }
    tr.signature = misr.signature();
  }
  return tr;
}

void SeqFaultSim::mark_overlay(const Overlay& o) {
  for (std::size_t i = 0; i < o.out_force.size(); ++i) {
    const SignalId id = o.out_force[i].first;
    kind_[id] |= 1;
    force_slot_[id] = static_cast<std::uint32_t>(i);
  }
  for (const auto& [id, fixes] : o.pin_fix) {
    (void)fixes;
    kind_[id] |= 2;
  }
}

void SeqFaultSim::unmark_overlay(const Overlay& o) {
  for (const auto& [id, m] : o.out_force) {
    (void)m;
    kind_[id] = 0;
  }
  for (const auto& [id, fixes] : o.pin_fix) {
    (void)fixes;
    kind_[id] = 0;
  }
}

Word SeqFaultSim::run_test_with_trace(const scan::ScanTest& test,
                                      const Overlay& o, const Trace& trace,
                                      Engine engine) {
  mark_overlay(o);
  const bool cone = engine == Engine::kConeDiff;
  const std::size_t n_sv = cc_->flip_flops().size();
  Word detected = 0;
  const bool signature = mode_ == ObservationMode::kSignature;
  if (signature) lane_misr_->reset();

  // ---- scan-in (explicit shifts so Q-stuck faults corrupt the load) ----
  if (o.has_ff_force) {
    for (std::size_t k = test.scan_in.size(); k-- > 0;) {
      (void)shift_with_forces(broadcast(test.scan_in[k] != 0), o);
    }
  } else {
    const auto ffs = cc_->flip_flops();
    for (std::size_t k = 0; k < ffs.size(); ++k) {
      values_[ffs[k]] = broadcast(test.scan_in[k] != 0);
    }
  }

  // ---- at-speed sequence with limited scan operations ----
  for (std::size_t u = 0; u < test.vectors.size(); ++u) {
    const std::uint32_t s = u < test.shift.size() ? test.shift[u] : 0;
    for (std::uint32_t j = 0; j < s; ++j) {
      const std::uint8_t in_bit =
          (u < test.scan_bits.size() && j < test.scan_bits[u].size())
              ? test.scan_bits[u][j]
              : 0;
      const Word out = shift_with_forces(broadcast(in_bit != 0), o);
      if (signature) {
        lane_misr_->absorb_one(out);
      } else {
        detected |= out ^ broadcast(trace.limited_out_bits[u][j] != 0);
      }
    }
    if (cone) {
      // The bulk restore inside cone_eval seats every word (including the
      // primary inputs) at the reference value; only diverged gates are
      // re-evaluated.
      cone_eval(o, trace, u);
    } else {
      const auto pis = cc_->inputs();
      for (std::size_t k = 0; k < pis.size(); ++k) {
        values_[pis[k]] = broadcast(test.vectors[u][k] != 0);
      }
      apply_out_forces(o);  // PI stuck-at and re-asserted source forces
      eval_with_overlay(o);
    }
    const auto pos = cc_->outputs();
    if (signature) {
      misr_inputs_.clear();
      for (std::size_t k = 0; k < pos.size(); ++k) {
        misr_inputs_.push_back(values_[pos[k]]);
      }
      for (netlist::SignalId extra : extra_observed_) {
        misr_inputs_.push_back(values_[extra]);
      }
      lane_misr_->absorb(misr_inputs_);
    } else {
      for (std::size_t k = 0; k < pos.size(); ++k) {
        detected |= values_[pos[k]] ^ broadcast(trace.po_bits[u][k] != 0);
      }
      if (!extra_observed_.empty()) {
        for (std::size_t k = 0; k < extra_observed_.size(); ++k) {
          detected |= values_[extra_observed_[k]] ^
                      broadcast(trace.extra_bits[u][k] != 0);
        }
      }
    }
    clock_with_fixes(o);
  }

  // ---- complete scan-out ----
  if (!o.has_ff_force && !signature) {
    // Without Q-output forces the chain is undistorted: the observed bit
    // stream is exactly the final state, so compare it in place instead of
    // shifting N_SV times (the dominant cost on large circuits).
    const auto ffs = cc_->flip_flops();
    for (std::size_t k = 0; k < n_sv; ++k) {
      detected |= values_[ffs[k]] ^ broadcast(trace.final_state[k] != 0);
    }
  } else {
    for (std::size_t k = 0; k < n_sv; ++k) {
      const Word out = shift_with_forces(0, o);
      if (signature) {
        lane_misr_->absorb_one(out);
      } else {
        detected |= out ^ broadcast(trace.final_state[n_sv - 1 - k] != 0);
      }
    }
  }
  if (signature) {
    detected = lane_misr_->differs_from(trace.signature);
  }
  unmark_overlay(o);
  return detected;
}

void SeqFaultSim::enqueue_gate(SignalId id) {
  if (cc_->type(id) == GateType::kDff) return;  // crosses at the clock edge
  if (queued_epoch_[id] == epoch_) return;
  queued_epoch_[id] = epoch_;
  level_queue_[static_cast<std::size_t>(cc_->level(id))].push_back(id);
}

void SeqFaultSim::enqueue_fanout(SignalId id) {
  for (SignalId out : cc_->fanout(id)) enqueue_gate(out);
}

void SeqFaultSim::cone_eval(const Overlay& o, const Trace& trace,
                            std::size_t unit) {
  ++epoch_;
  const auto ffs = cc_->flip_flops();
  const std::size_t n_ff = ffs.size();

  // Preserve the faulty flip-flop words across the bulk restore below.
  if (ff_scratch_.size() < n_ff) ff_scratch_.resize(n_ff);
  for (std::size_t k = 0; k < n_ff; ++k) ff_scratch_[k] = values_[ffs[k]];

  // Bulk restore: every word — primary inputs, constants, gates — becomes
  // the lane-uniform reference value for this time unit. Sequential ALU
  // work, far cheaper than a gate sweep, and it leaves values_ fully
  // materialized so evaluation below reads it exactly like the full sweep.
  const std::uint64_t* bits = trace.snap_unit(unit);
  const std::size_t n = cc_->num_signals();
  for (std::size_t id = 0; id < n; ++id) {
    values_[id] = broadcast(((bits[id >> 6] >> (id & 63)) & 1u) != 0);
  }

  // Re-seat the faulty state; flip-flops that diverged from the reference
  // (via functional capture, scan shifting of corrupted data, or a Q
  // force) seed the frontier.
  for (std::size_t k = 0; k < n_ff; ++k) {
    const SignalId ff = ffs[k];
    if (ff_scratch_[k] != values_[ff]) {
      values_[ff] = ff_scratch_[k];
      enqueue_fanout(ff);
    }
  }

  // Forced sources diverge in place; forced or pin-fixed combinational
  // gates must be evaluated even with clean fanins.
  for (const auto& [id, m] : o.out_force) {
    const GateType t = cc_->type(id);
    if (t == GateType::kInput || t == GateType::kDff) {
      const Word w = (values_[id] & m.and_mask) | m.or_mask;
      if (w != values_[id]) {
        values_[id] = w;
        enqueue_fanout(id);
      }
    } else {
      enqueue_gate(id);
    }
  }
  for (const auto& [id, fixes] : o.pin_fix) {
    (void)fixes;
    enqueue_gate(id);
  }

  // Level-ordered frontier: fanouts always sit at strictly higher levels,
  // so each bucket is final when its turn comes. A gate's pre-write word
  // is its reference value, so the divergence test is a compare against
  // the value being replaced; gates that recompute to the reference are
  // pruned from propagation.
  std::uint64_t evals = 0;
  for (std::vector<SignalId>& bucket : level_queue_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const SignalId id = bucket[i];
      Word w = cc_->eval_gate(id, values_);
      const std::uint8_t k = kind_[id];
      if (k) {
        if (k & 2) {
          auto it = o.pin_fix.find(id);
          for (const PinFix& fix : it->second) {
            const bool bit = cc_->eval_gate_lane(id, values_, fix.lane,
                                                 fix.pin, fix.value != 0);
            w = sim::with_lane(w, fix.lane, bit);
          }
        }
        if (k & 1) {
          const ForceMask& m = o.out_force[force_slot_[id]].second;
          w = (w & m.and_mask) | m.or_mask;
        }
      }
      ++evals;
      if (w != values_[id]) {
        values_[id] = w;
        enqueue_fanout(id);
      }
    }
    bucket.clear();
  }
  gate_evals_ += evals;
  frontier_evals_ += evals;
}

SeqFaultSim::PackedOverlay SeqFaultSim::build_packed_overlay(
    const Fault& f, Word live) const {
  PackedOverlay o;
  o.site = f.gate;
  const GateType t = cc_->type(f.gate);
  // Forces are pre-masked with the batch's live lanes so dead (tail)
  // lanes can never diverge from the reference.
  const ForceMask force{f.stuck ? kAllOnes : ~live, f.stuck ? live : Word{0}};
  const auto ff_position = [&] {
    const auto ffs = cc_->flip_flops();
    std::size_t pos = 0;
    for (; pos < ffs.size(); ++pos) {
      if (ffs[pos] == f.gate) break;
    }
    return pos;
  };
  if (f.pin < 0) {
    o.is_out = true;
    o.out = force;
    o.is_source = t == GateType::kInput || t == GateType::kDff;
    if (t == GateType::kDff) {
      o.has_ff_force = true;
      o.ff_pos = ff_position();
    }
  } else if (t == GateType::kDff) {
    o.is_dff_d = true;
    o.pin_force = force;
    o.dff_pos = ff_position();
  } else {
    o.pin = f.pin;
    o.pin_force = force;
  }
  return o;
}

SeqFaultSim::PackedTrace SeqFaultSim::compute_packed_trace(
    const sim::PackedBatch& batch) {
  PackedTrace tr;
  const std::size_t n_signals = cc_->num_signals();
  const std::size_t n_sv = cc_->flip_flops().size();
  const bool signature = mode_ == ObservationMode::kSignature;
  tr.snap.resize(batch.length() * n_signals);
  tr.shift_out.resize(batch.total_steps());
  std::unique_ptr<bist::LaneMisr> ref_misr;
  if (signature) ref_misr = std::make_unique<bist::LaneMisr>(misr_degree_);

  ref_.load_state_words({batch.scan_in(), n_sv});
  for (std::size_t u = 0; u < batch.length(); ++u) {
    for (std::uint32_t j = 0; j < batch.shifts(u); ++j) {
      const std::size_t step = batch.step_index(u, j);
      const Word mask = batch.step_mask(step);
      const Word out = ref_.shift_masked(batch.step_in(step), mask);
      tr.shift_out[step] = out;
      if (signature) ref_misr->absorb_one_masked(out, mask);
    }
    const Word* pi = batch.pi_unit(u);
    for (std::size_t k = 0; k < batch.num_inputs(); ++k) {
      ref_.set_input(k, pi[k]);
    }
    ref_.eval();
    const std::span<const Word> vals = ref_.values();
    std::copy(vals.begin(), vals.end(), tr.snap.begin() + u * n_signals);
    if (signature) {
      misr_inputs_.clear();
      for (SignalId po : cc_->outputs()) misr_inputs_.push_back(vals[po]);
      for (SignalId extra : extra_observed_) misr_inputs_.push_back(vals[extra]);
      ref_misr->absorb_masked(misr_inputs_, batch.live());
    }
    ref_.clock();
  }
  tr.final_state.resize(n_sv);
  for (std::size_t k = 0; k < n_sv; ++k) tr.final_state[k] = ref_.state_word(k);
  if (signature) {
    for (std::size_t k = 0; k < n_sv; ++k) {
      ref_misr->absorb_one_masked(tr.final_state[n_sv - 1 - k], batch.live());
    }
    tr.misr_stages.assign(ref_misr->stages().begin(),
                          ref_misr->stages().end());
  }
  return tr;
}

Word SeqFaultSim::packed_shift(Word scan_in, Word mask,
                               const PackedOverlay& o) {
  const std::size_t n_sv = pk_state_.size();
  if (n_sv == 0) return 0;
  const Word out = pk_state_[n_sv - 1];
  for (std::size_t k = n_sv; k-- > 1;) {
    pk_state_[k] = (pk_state_[k] & ~mask) | (pk_state_[k - 1] & mask);
  }
  pk_state_[0] = (pk_state_[0] & ~mask) | (scan_in & mask);
  if (o.has_ff_force) {
    pk_state_[o.ff_pos] =
        (pk_state_[o.ff_pos] & o.out.and_mask) | o.out.or_mask;
  }
  return out;
}

void SeqFaultSim::packed_unit_eval(const sim::PackedBatch& batch,
                                   const PackedTrace& trace,
                                   const PackedOverlay& o, std::size_t unit) {
  (void)batch;
  ++epoch_;
  const std::size_t n_signals = cc_->num_signals();
  const Word* snap = trace.snap_unit(unit, n_signals);
  const auto ffs = cc_->flip_flops();

  const auto set_diff = [&](SignalId id, Word w) {
    diff_val_[id] = w;
    diff_epoch_[id] = epoch_;
  };
  const auto fv = [&](SignalId id) -> Word {
    return diff_epoch_[id] == epoch_ ? diff_val_[id] : snap[id];
  };

  // Seed the frontier from flip-flops whose packed state diverged (via
  // capture, scan shifting of corrupted data, or a Q force)...
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    if (pk_state_[k] != snap[ffs[k]]) {
      set_diff(ffs[k], pk_state_[k]);
      enqueue_fanout(ffs[k]);
    }
  }
  // ...and from the fault site. Forced sources diverge in place; a forced
  // or pin-fixed combinational site must be evaluated even with clean
  // fanins. A DFF D-pin fault acts at the clock edge only.
  if (o.is_out && o.is_source) {
    const Word w = (fv(o.site) & o.out.and_mask) | o.out.or_mask;
    if (w != snap[o.site]) {
      set_diff(o.site, w);
      enqueue_fanout(o.site);
    }
  } else if (!o.is_dff_d) {
    enqueue_gate(o.site);
  }

  // Level-ordered frontier over difference *words*: an entry stays live
  // while any pattern lane differs from the reference; gates that
  // recompute to the reference word are pruned from propagation.
  std::uint64_t evals = 0;
  for (std::vector<SignalId>& bucket : level_queue_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const SignalId id = bucket[i];
      const auto fi = cc_->fanin(id);
      Word w;
      if (o.pin >= 0 && id == o.site) {
        w = sim::eval_gate_with(*cc_, id, [&](std::size_t k) {
          Word v = fv(fi[k]);
          if (static_cast<int>(k) == o.pin) {
            v = (v & o.pin_force.and_mask) | o.pin_force.or_mask;
          }
          return v;
        });
      } else {
        w = sim::eval_gate_with(*cc_, id,
                                [&](std::size_t k) { return fv(fi[k]); });
      }
      if (o.is_out && id == o.site) {
        w = (w & o.out.and_mask) | o.out.or_mask;
      }
      ++evals;
      if (w != snap[id]) {
        set_diff(id, w);
        enqueue_fanout(id);
      }
    }
    bucket.clear();
  }
  gate_evals_ += evals;
  frontier_evals_ += evals;
  packed_words_ += evals;
}

bool SeqFaultSim::run_packed_fault(const sim::PackedBatch& batch,
                                   const PackedTrace& trace,
                                   const PackedOverlay& o) {
  const std::size_t n_signals = cc_->num_signals();
  if (diff_epoch_.size() < n_signals) {
    diff_val_.assign(n_signals, 0);
    diff_epoch_.assign(n_signals, 0);
  }
  const auto ffs = cc_->flip_flops();
  const std::size_t n_sv = ffs.size();
  pk_state_.assign(n_sv, 0);
  const Word live = batch.live();
  const bool signature = mode_ == ObservationMode::kSignature;
  if (signature) lane_misr_->reset();
  Word detected = 0;

  // ---- scan-in ----
  if (o.has_ff_force) {
    // A stuck Q corrupts every bit transiting its chain position: after a
    // full scan-in, positions >= ff_pos hold the forced value (each such
    // bit was forced when it sat in ff_pos and shifted on unchanged).
    // Closed form in O(n_sv) instead of n_sv chain shifts.
    for (std::size_t k = 0; k < n_sv; ++k) {
      const Word w = batch.scan_in()[k];
      pk_state_[k] =
          k >= o.ff_pos ? (w & o.out.and_mask) | o.out.or_mask : w;
    }
  } else {
    for (std::size_t k = 0; k < n_sv; ++k) pk_state_[k] = batch.scan_in()[k];
  }

  // ---- at-speed sequence with limited scan operations ----
  for (std::size_t u = 0; u < batch.length(); ++u) {
    for (std::uint32_t j = 0; j < batch.shifts(u); ++j) {
      const std::size_t step = batch.step_index(u, j);
      const Word mask = batch.step_mask(step);
      const Word out = packed_shift(batch.step_in(step), mask, o);
      if (signature) {
        lane_misr_->absorb_one_masked(out, mask);
      } else {
        detected |= (out ^ trace.shift_out[step]) & mask;
      }
    }
    packed_unit_eval(batch, trace, o, u);
    const Word* snap = trace.snap_unit(u, n_signals);
    const auto fv = [&](SignalId id) -> Word {
      return diff_epoch_[id] == epoch_ ? diff_val_[id] : snap[id];
    };
    if (signature) {
      misr_inputs_.clear();
      for (SignalId po : cc_->outputs()) misr_inputs_.push_back(fv(po));
      for (SignalId extra : extra_observed_) misr_inputs_.push_back(fv(extra));
      lane_misr_->absorb_masked(misr_inputs_, live);
    } else {
      for (SignalId po : cc_->outputs()) {
        detected |= (fv(po) ^ snap[po]) & live;
      }
      for (SignalId extra : extra_observed_) {
        detected |= (fv(extra) ^ snap[extra]) & live;
      }
      // Lane retirement: any live lane differing at any observation point
      // detects the fault — no need to finish the batch (per-cycle mode
      // only; a signature needs the full response stream).
      if (detected != 0) return true;
    }
    // ---- clock edge ----
    for (std::size_t k = 0; k < n_sv; ++k) {
      next_state_[k] = fv(cc_->fanin(ffs[k])[0]);
    }
    if (o.is_dff_d) {
      next_state_[o.dff_pos] =
          (next_state_[o.dff_pos] & o.pin_force.and_mask) |
          o.pin_force.or_mask;
    }
    for (std::size_t k = 0; k < n_sv; ++k) pk_state_[k] = next_state_[k];
    if (o.has_ff_force) {
      pk_state_[o.ff_pos] =
          (pk_state_[o.ff_pos] & o.out.and_mask) | o.out.or_mask;
    }
  }

  // ---- complete scan-out ----
  if (!o.has_ff_force && !signature) {
    // Undistorted chain: the observed stream is exactly the final state,
    // compared in place (mirrors the scalar engines' shortcut).
    for (std::size_t k = 0; k < n_sv; ++k) {
      detected |= (pk_state_[k] ^ trace.final_state[k]) & live;
    }
  } else {
    // Observed stream = state right-to-left; a bit leaving position
    // pos <= ff_pos transits the stuck Q on its way out and is forced
    // (closed form of the explicit shift-out, O(n_sv) total).
    for (std::size_t k = 0; k < n_sv; ++k) {
      const std::size_t pos = n_sv - 1 - k;
      Word out = pk_state_[pos];
      if (o.has_ff_force && pos <= o.ff_pos) {
        out = (out & o.out.and_mask) | o.out.or_mask;
      }
      if (signature) {
        lane_misr_->absorb_one_masked(out, live);
      } else {
        detected |= (out ^ trace.final_state[pos]) & live;
      }
    }
  }
  if (signature) {
    detected = lane_misr_->differs_from(trace.misr_stages) & live;
  }
  return detected != 0;
}

std::size_t SeqFaultSim::run_batches(
    std::span<const sim::PackedBatch> batches, FaultList& fl) {
  const std::uint64_t ge0 = gate_evals_;
  const std::uint64_t fe0 = frontier_evals_;
  const std::uint64_t se0 = sweep_evals_;
  const std::uint64_t pw0 = packed_words_;
  const std::uint64_t pb0 = packed_batches_;
  const std::uint64_t la0 = lanes_active_;
  const auto export_counters = [&](std::size_t faults, std::size_t newly) {
    if (!counters_) return;
    std::size_t tests = 0;
    for (const sim::PackedBatch& batch : batches) tests += batch.count();
    counters_->add("fsim.sweeps", 1);
    counters_->add("fsim.tests", tests);
    counters_->add("fsim.groups", faults);
    counters_->add("fsim.detected", newly);
    counters_->add("fsim.gate_evals", gate_evals_ - ge0);
    counters_->add("fsim.frontier_evals", frontier_evals_ - fe0);
    counters_->add("fsim.sweep_evals", sweep_evals_ - se0);
    counters_->add("fsim.fallback_groups", 0);
    counters_->add("fsim.packed_words", packed_words_ - pw0);
    counters_->add("fsim.packed_batches", packed_batches_ - pb0);
    counters_->add("fsim.lanes_active", lanes_active_ - la0);
  };

  std::vector<std::size_t> remaining = fl.remaining_indices();
  const std::size_t n_faults = remaining.size();
  if (remaining.empty() || batches.empty()) {
    export_counters(n_faults, 0);
    return 0;
  }

  const unsigned hw = threads_ == 0
                          ? std::max(1u, std::thread::hardware_concurrency())
                          : threads_;

  std::size_t newly = 0;
  std::vector<std::uint8_t> hit;
  for (const sim::PackedBatch& batch : batches) {
    if (remaining.empty()) break;
    ++packed_batches_;
    lanes_active_ += static_cast<std::uint64_t>(std::popcount(batch.live()));
    const PackedTrace trace = compute_packed_trace(batch);
    hit.assign(remaining.size(), 0);

    const unsigned n_workers =
        static_cast<unsigned>(std::min<std::size_t>(hw, remaining.size()));
    if (n_workers <= 1) {
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        const PackedOverlay o =
            build_packed_overlay(fl.fault(remaining[i]), batch.live());
        hit[i] = run_packed_fault(batch, trace, o) ? 1 : 0;
      }
    } else {
      // Workers stride over the remaining faults and write disjoint hit[]
      // bytes; detections are applied after the join in index order, so
      // results and counters are bit-identical to the serial path.
      ensure_workers(n_workers);
      std::vector<std::uint64_t> ge_b(n_workers);
      std::vector<std::uint64_t> fe_b(n_workers);
      std::vector<std::uint64_t> pw_b(n_workers);
      for (unsigned w = 0; w < n_workers; ++w) {
        ge_b[w] = worker_sims_[w]->gate_evals_;
        fe_b[w] = worker_sims_[w]->frontier_evals_;
        pw_b[w] = worker_sims_[w]->packed_words_;
      }
      pool_->run(n_workers, [&](unsigned w) {
        SeqFaultSim& sim = *worker_sims_[w];
        for (std::size_t i = w; i < remaining.size(); i += n_workers) {
          const PackedOverlay o =
              sim.build_packed_overlay(fl.fault(remaining[i]), batch.live());
          hit[i] = sim.run_packed_fault(batch, trace, o) ? 1 : 0;
        }
      });
      for (unsigned w = 0; w < n_workers; ++w) {
        gate_evals_ += worker_sims_[w]->gate_evals_ - ge_b[w];
        frontier_evals_ += worker_sims_[w]->frontier_evals_ - fe_b[w];
        packed_words_ += worker_sims_[w]->packed_words_ - pw_b[w];
      }
    }

    // Fault dropping at batch granularity: detected faults never see
    // another batch.
    std::vector<std::size_t> next;
    next.reserve(remaining.size());
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (hit[i]) {
        fl.mark_detected(remaining[i]);
        ++newly;
      } else {
        next.push_back(remaining[i]);
      }
    }
    remaining.swap(next);
  }
  export_counters(n_faults, newly);
  return newly;
}

Word SeqFaultSim::run_test(const scan::ScanTest& test,
                           std::span<const Fault> group) {
  const Overlay o = build_overlay(group);
  const Trace tr = compute_trace(test);
  // This entry point's lanes are faults; kPacked (lanes = patterns)
  // delegates to the equally exact kConeDiff path.
  const Engine engine =
      engine_ == Engine::kPacked ? Engine::kConeDiff : engine_;
  Word mask = run_test_with_trace(test, o, tr, engine);
  if (group.size() < sim::kLanes) {
    mask &= (Word{1} << group.size()) - 1;
  }
  return mask;
}

void SeqFaultSim::ensure_workers(unsigned n) {
  if (!pool_) pool_ = std::make_unique<sim::WorkerPool>();
  while (worker_sims_.size() < n) {
    worker_sims_.push_back(std::make_unique<SeqFaultSim>(*cc_));
  }
  for (unsigned w = 0; w < n; ++w) {
    SeqFaultSim& sim = *worker_sims_[w];
    sim.extra_observed_ = extra_observed_;
    sim.engine_ = engine_;
    if (sim.mode_ != mode_ || sim.misr_degree_ != misr_degree_ ||
        (mode_ == ObservationMode::kSignature && !sim.lane_misr_)) {
      sim.set_observation_mode(mode_, misr_degree_);
    }
  }
}

std::size_t SeqFaultSim::run_test_set(const scan::TestSet& ts, FaultList& fl) {
  if (engine_ == Engine::kPacked) {
    return run_batches(sim::PackedBatch::make_batches(ts), fl);
  }
  // Per-call deltas exported to the attached counter registry on every
  // exit path. One branch + a few map updates per run_test_set call; the
  // per-gate hot paths are untouched (see BM_ObsOverhead).
  const std::uint64_t ge0 = gate_evals_;
  const std::uint64_t fe0 = frontier_evals_;
  const std::uint64_t se0 = sweep_evals_;
  const std::uint64_t fb0 = fallback_groups_;
  const auto export_counters = [&](std::size_t groups, std::size_t newly) {
    if (!counters_) return;
    counters_->add("fsim.sweeps", 1);
    counters_->add("fsim.tests", ts.tests.size());
    counters_->add("fsim.groups", groups);
    counters_->add("fsim.detected", newly);
    counters_->add("fsim.gate_evals", gate_evals_ - ge0);
    counters_->add("fsim.frontier_evals", frontier_evals_ - fe0);
    counters_->add("fsim.sweep_evals", sweep_evals_ - se0);
    counters_->add("fsim.fallback_groups", fallback_groups_ - fb0);
  };

  std::vector<std::size_t> remaining = fl.remaining_indices();
  if (remaining.empty() || ts.tests.empty()) {
    export_counters(0, 0);
    return 0;
  }

  // Group faults by cone locality: chunking sites in levelized order keeps
  // each group's union cone small, which is what the kConeDiff frontier
  // prunes against. Detection is lane-independent, so regrouping never
  // changes per-fault results.
  std::stable_sort(remaining.begin(), remaining.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Fault& fa = fl.fault(a);
                     const Fault& fb = fl.fault(b);
                     const int la = cc_->level(fa.gate);
                     const int lb = cc_->level(fb.gate);
                     if (la != lb) return la < lb;
                     if (fa.gate != fb.gate) return fa.gate < fb.gate;
                     if (fa.pin != fb.pin) return fa.pin < fb.pin;
                     return fa.stuck < fb.stuck;
                   });

  struct Group {
    std::vector<std::size_t> indices;  // into fl
    std::vector<Fault> faults;
    Overlay overlay;
    Word undetected = 0;  // lane mask of not-yet-detected faults
    Engine engine = Engine::kConeDiff;
  };
  std::vector<Group> groups;
  for (std::size_t base = 0; base < remaining.size(); base += sim::kLanes) {
    Group g;
    const std::size_t count =
        std::min<std::size_t>(sim::kLanes, remaining.size() - base);
    g.indices.reserve(count);
    g.faults.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      g.indices.push_back(remaining[base + k]);
      g.faults.push_back(fl.fault(remaining[base + k]));
    }
    g.undetected = count == sim::kLanes ? kAllOnes : ((Word{1} << count) - 1);
    g.overlay = build_overlay(g.faults);
    g.engine = engine_;
    groups.push_back(std::move(g));
  }

  if (engine_ == Engine::kConeDiff && cc_->has_cones()) {
    // Wide-cone guard: fall back to the sweep for groups whose fault sites
    // already reach ~every combinational gate (both engines are exact, so
    // this is purely a speed decision).
    const double comb_gates = static_cast<double>(cc_->order().size());
    std::uint64_t union_epoch = 0;
    std::vector<std::uint64_t> member(cc_->num_signals(), 0);
    for (Group& g : groups) {
      ++union_epoch;
      std::size_t comb_in_union = 0;
      for (const Fault& f : g.faults) {
        for (SignalId id : cc_->cone(f.gate)) {
          if (member[id] == union_epoch) continue;
          member[id] = union_epoch;
          if (netlist::is_combinational(cc_->type(id))) ++comb_in_union;
        }
      }
      if (static_cast<double>(comb_in_union) >= kWideConeFraction * comb_gates) {
        g.engine = Engine::kFullSweep;
        ++fallback_groups_;
      }
    }
  }

  const unsigned hw = threads_ == 0
                          ? std::max(1u, std::thread::hardware_concurrency())
                          : threads_;
  const unsigned n_workers = static_cast<unsigned>(
      std::min<std::size_t>(hw, groups.size()));

  std::size_t newly = 0;
  if (n_workers <= 1) {
    for (const scan::ScanTest& test : ts.tests) {
      const Trace tr = compute_trace(test);
      for (Group& g : groups) {
        if (g.undetected == 0) continue;
        const Word mask =
            run_test_with_trace(test, g.overlay, tr, g.engine) & g.undetected;
        if (mask == 0) continue;
        for (std::size_t lane = 0; lane < g.indices.size(); ++lane) {
          if (sim::lane_bit(mask, static_cast<int>(lane))) {
            fl.mark_detected(g.indices[lane]);
            ++newly;
          }
        }
        g.undetected &= ~mask;
      }
      if (fl.all_detected()) break;
    }
    export_counters(groups.size(), newly);
    return newly;
  }

  // Parallel path: traces are precomputed once, then fault groups are
  // partitioned across the persistent pool with deterministic striding.
  // Each worker owns an independent faulty machine (reused across calls),
  // so results are bit-identical to the serial path.
  std::vector<Trace> traces;
  traces.reserve(ts.tests.size());
  for (const scan::ScanTest& test : ts.tests) {
    traces.push_back(compute_trace(test));
  }

  ensure_workers(n_workers);
  std::vector<std::uint64_t> evals_before(n_workers);
  std::vector<std::uint64_t> frontier_before(n_workers);
  std::vector<std::uint64_t> sweep_before(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) {
    evals_before[w] = worker_sims_[w]->gate_evals();
    frontier_before[w] = worker_sims_[w]->frontier_evals();
    sweep_before[w] = worker_sims_[w]->sweep_evals();
  }
  pool_->run(n_workers, [&](unsigned w) {
    SeqFaultSim& sim = *worker_sims_[w];
    for (std::size_t gi = w; gi < groups.size(); gi += n_workers) {
      Group& g = groups[gi];
      for (std::size_t t = 0; t < ts.tests.size() && g.undetected; ++t) {
        const Word mask =
            sim.run_test_with_trace(ts.tests[t], g.overlay, traces[t],
                                    g.engine) &
            g.undetected;
        g.undetected &= ~mask;
      }
    }
  });
  for (unsigned w = 0; w < n_workers; ++w) {
    gate_evals_ += worker_sims_[w]->gate_evals() - evals_before[w];
    frontier_evals_ += worker_sims_[w]->frontier_evals() - frontier_before[w];
    sweep_evals_ += worker_sims_[w]->sweep_evals() - sweep_before[w];
  }

  for (Group& g : groups) {
    const Word initial =
        g.indices.size() == sim::kLanes
            ? kAllOnes
            : ((Word{1} << g.indices.size()) - 1);
    const Word detected = initial & ~g.undetected;
    for (std::size_t lane = 0; lane < g.indices.size(); ++lane) {
      if (sim::lane_bit(detected, static_cast<int>(lane))) {
        fl.mark_detected(g.indices[lane]);
        ++newly;
      }
    }
  }
  export_counters(groups.size(), newly);
  return newly;
}

}  // namespace rls::fault
