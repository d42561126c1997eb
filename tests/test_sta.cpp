// rls::analysis::sta tests: golden JSONL streams, byte-determinism across
// threads, planted dead-logic / blocked-fanout netlists with exact lint
// diagnostics, the ternary pass's gate tables and its agreement with the
// boolean simulator when every source is constant, prune transparency
// (identical FC rows, fewer gate evals),
// FaultList::prune unit semantics, the presolve hand-off into
// atpg::classify, and the SCOAP test-point ranking.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "analysis/sta.hpp"
#include "analysis/test_points.hpp"
#include "atpg/detectability.hpp"
#include "core/campaign.hpp"
#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "fault/fault.hpp"
#include "gen/profiles.hpp"
#include "gen/registry.hpp"
#include "gen/synth.hpp"
#include "netlist/netlist.hpp"
#include "obs/trace.hpp"
#include "rand/rng.hpp"
#include "sim/compiled.hpp"
#include "sim/seq_sim.hpp"

namespace rls {
namespace {

using analysis::AnalyzeJsonOptions;
using analysis::StaFaultClasses;
using analysis::StaReport;
using analysis::UntestableReason;
using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

// ---- golden JSONL ----------------------------------------------------------

TEST(StaGolden, S27SummaryJsonl) {
  const Netlist nl = gen::make_circuit("s27");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);
  EXPECT_EQ(analysis::analyze_jsonl(cc, universe, AnalyzeJsonOptions{}),
            "{\"ev\":\"sta\",\"circuit\":\"s27\",\"nets\":17,"
            "\"const_nets\":0,\"derived_const\":0,\"co_inf\":0,"
            "\"fixpoint_iters\":1,\"faults\":36,\"untestable\":0,"
            "\"unexcitable\":0,\"unobservable\":0}\n");
}

TEST(StaGolden, S298SummaryJsonl) {
  const Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);
  EXPECT_EQ(analysis::analyze_jsonl(cc, universe, AnalyzeJsonOptions{}),
            "{\"ev\":\"sta\",\"circuit\":\"s298\",\"nets\":144,"
            "\"const_nets\":0,\"derived_const\":0,\"co_inf\":0,"
            "\"fixpoint_iters\":1,\"faults\":458,\"untestable\":0,"
            "\"unexcitable\":0,\"unobservable\":0}\n");
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl_at = s.find('\n', pos);
    lines.push_back(s.substr(pos, nl_at - pos));
    pos = nl_at + 1;
  }
  return lines;
}

// s420t is the registry's tied-input profile: two inputs are blended into
// existing nets, so the sta pass derives real constants and a non-empty
// untestable set. The summary line is the pinned contract; the per-fault
// suffix must list exactly the 39 untestable faults.
TEST(StaGolden, S420tSummaryAndUntestableList) {
  const Netlist nl = gen::make_circuit("s420t");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);
  AnalyzeJsonOptions opt;
  opt.untestable = true;
  const auto lines = split_lines(analysis::analyze_jsonl(cc, universe, opt));
  ASSERT_EQ(lines.size(), 40u);  // 1 summary + 39 sta_fault
  EXPECT_EQ(lines[0],
            "{\"ev\":\"sta\",\"circuit\":\"s420t\",\"nets\":267,"
            "\"const_nets\":12,\"derived_const\":10,\"co_inf\":5,"
            "\"fixpoint_iters\":2,\"faults\":832,\"untestable\":39,"
            "\"unexcitable\":13,\"unobservable\":26}");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"ev\":\"sta_fault\",\"fault\":"), 0u);
  }
}

TEST(StaGolden, ScoapOptionEmitsOneNetEventPerSignal) {
  const Netlist nl = gen::make_circuit("s420t");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);
  AnalyzeJsonOptions opt;
  opt.scoap = true;
  opt.untestable = false;
  const auto lines = split_lines(analysis::analyze_jsonl(cc, universe, opt));
  ASSERT_EQ(lines.size(), 1u + cc.num_signals());
  // kScoapInf renders as -1, never as the raw 32-bit sentinel.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find("4294967295"), std::string::npos) << line;
  }
}

// classify_fault uses thread-local BFS scratch; the rendered stream must
// be byte-identical whether analyses run serially or on racing threads.
TEST(StaDeterminism, JsonlByteIdenticalAcrossThreads) {
  const Netlist nl = gen::make_circuit("s420t");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);
  AnalyzeJsonOptions opt;
  opt.scoap = true;
  const std::string serial = analysis::analyze_jsonl(cc, universe, opt);
  std::vector<std::string> results(4);
  {
    std::vector<std::thread> workers;
    workers.reserve(results.size());
    for (std::string& slot : results) {
      workers.emplace_back([&cc, &universe, &opt, &slot] {
        slot = analysis::analyze_jsonl(cc, universe, opt);
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (const std::string& r : results) EXPECT_EQ(r, serial);
}

// ---- planted netlists ------------------------------------------------------

// The classic tied-test-mode-pin structure (same shape the generator's
// tied_inputs knob synthesizes): OR(a, 1) is constant 1 without being a
// constant gate itself — exactly one W107 on the dead net, plus the I302
// untestable summary. The Const1 driver must NOT get a W107.
TEST(StaLint, PlantedTiedNetGetsW107AndI302) {
  Netlist nl("tied");
  const SignalId a = nl.add_input("a");
  const SignalId one = nl.add_gate(GateType::kConst1, "one", {});
  const SignalId c = nl.add_gate(GateType::kOr, "c", {a, one});
  const SignalId z = nl.add_gate(GateType::kAnd, "z", {c, a});
  nl.mark_output(z);
  nl.finalize();
  (void)one;

  analysis::LintOptions opts;
  opts.resistance = false;
  const analysis::LintResult res = analysis::run_lint(nl, opts);

  std::vector<const analysis::Diagnostic*> w107, i302;
  for (const analysis::Diagnostic& d : res.diagnostics) {
    if (d.code == "RLS-W107") w107.push_back(&d);
    if (d.code == "RLS-I302") i302.push_back(&d);
  }
  ASSERT_EQ(w107.size(), 1u);
  EXPECT_EQ(w107[0]->signal, c);
  EXPECT_EQ(w107[0]->severity, analysis::Severity::kWarning);
  EXPECT_NE(w107[0]->message.find("constant 1"), std::string::npos);
  ASSERT_EQ(i302.size(), 1u);
  EXPECT_EQ(i302[0]->severity, analysis::Severity::kInfo);
  EXPECT_NE(i302[0]->message.find("statically untestable"), std::string::npos);
  // Both the Const1 gate and the derived net count as constant nets.
  EXPECT_EQ(res.counters.value("lint.sta_const_nets"), 2u);
  EXPECT_EQ(res.exit_code(), 2);
}

TEST(StaLint, CleanCircuitHasNoStaDiagnostics) {
  analysis::LintOptions opts;
  opts.resistance = false;
  const analysis::LintResult res =
      analysis::run_lint(gen::make_circuit("s298"), opts);
  for (const analysis::Diagnostic& d : res.diagnostics) {
    EXPECT_NE(d.code, "RLS-W107");
    EXPECT_NE(d.code, "RLS-I302");
  }
  EXPECT_EQ(res.counters.value("lint.sta_untestable"), 0u);
}

// b's only fanout is an AND whose side input is a constant 0 outside b's
// cone — every fault on b is excitable but provably unobservable.
TEST(StaClassify, BlockedFanoutIsUnobservable) {
  Netlist nl("blocked");
  const SignalId a = nl.add_input("a");
  const SignalId na = nl.add_gate(GateType::kNot, "na", {a});
  const SignalId k = nl.add_gate(GateType::kConst0, "k", {});
  const SignalId b = nl.add_input("b");
  const SignalId t = nl.add_gate(GateType::kAnd, "t", {b, k});
  const SignalId z = nl.add_gate(GateType::kOr, "z", {t, na});
  nl.mark_output(z);
  nl.finalize();

  const sim::CompiledCircuit cc(nl);
  const StaReport r = analysis::analyze(cc);
  EXPECT_EQ(r.value[b], analysis::kX);
  EXPECT_EQ(r.co[b], analysis::kScoapInf);
  EXPECT_EQ(analysis::classify_fault(r, cc, {b, -1, 0}),
            UntestableReason::kUnobservable);
  EXPECT_EQ(analysis::classify_fault(r, cc, {b, -1, 1}),
            UntestableReason::kUnobservable);
  // The dead AND output itself is unexcitable at its stuck value.
  EXPECT_EQ(analysis::classify_fault(r, cc, {t, -1, 0}),
            UntestableReason::kUnexcitable);
  // z still sees na, so a stays perfectly testable.
  EXPECT_EQ(analysis::classify_fault(r, cc, {a, -1, 0}),
            UntestableReason::kTestable);

  std::string why;
  EXPECT_TRUE(
      analysis::sta_self_check(r, cc, fault::collapsed_universe(nl), &why))
      << why;
}

TEST(StaSelfCheck, RegistryCircuitsAreConsistent) {
  for (const char* name : {"s27", "s298", "s420t", "s953"}) {
    const Netlist nl = gen::make_circuit(name);
    const sim::CompiledCircuit cc(nl);
    const StaReport r = analysis::analyze(cc);
    std::string why;
    EXPECT_TRUE(
        analysis::sta_self_check(r, cc, fault::collapsed_universe(nl), &why))
        << name << ": " << why;
  }
}

// ---- ternary pass: gate tables and agreement with the boolean sim ---------

constexpr std::int8_t X = analysis::kX;

// Pass-1 value of one `type` gate whose fanins are tied to `ins`: 0 and 1
// are constant gates, X is a free primary input.
std::int8_t ternary(GateType type, std::initializer_list<std::int8_t> ins) {
  Netlist nl("ternary");
  std::vector<SignalId> fanin;
  for (const std::int8_t v : ins) {
    const std::string name = "i" + std::to_string(fanin.size());
    fanin.push_back(v == X ? nl.add_input(name)
                           : nl.add_gate(v == 0 ? GateType::kConst0
                                                : GateType::kConst1,
                                         name, {}));
  }
  const SignalId z = nl.add_gate(type, "z", fanin);
  nl.mark_output(z);
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  return analysis::analyze(cc).value[z];
}

// A copy of `nl` (same ids and names) whose primary inputs are constant
// gates holding `in` and whose flip-flops, when `state` is not empty, are
// constant gates holding `state`. Empty `state` leaves the scan cells free.
Netlist tie_sources(const Netlist& nl, const std::vector<std::uint8_t>& in,
                    const std::vector<std::uint8_t>& state) {
  std::vector<std::int8_t> tied(nl.num_gates(), X);
  for (std::size_t k = 0; k < in.size(); ++k) {
    tied[nl.primary_inputs()[k]] = static_cast<std::int8_t>(in[k]);
  }
  for (std::size_t k = 0; k < state.size(); ++k) {
    tied[nl.flip_flops()[k]] = static_cast<std::int8_t>(state[k]);
  }
  Netlist out(nl.name() + "_tied");
  for (SignalId id = 0; id < nl.num_gates(); ++id) {
    const GateType type = nl.gate(id).type;
    const std::string& name = nl.signal_name(id);
    if (tied[id] != X) {
      out.add_gate(tied[id] == 0 ? GateType::kConst0 : GateType::kConst1,
                   name, {});
    } else if (type == GateType::kInput) {
      out.add_input(name);
    } else if (type == GateType::kDff) {
      out.add_dff(name);
    } else {
      out.add_gate(type, name, {});
    }
  }
  for (SignalId id = 0; id < nl.num_gates(); ++id) {
    if (tied[id] == X) out.connect(id, nl.gate(id).fanin);
  }
  for (SignalId po : nl.primary_outputs()) out.mark_output(po);
  out.finalize();
  return out;
}

// With every source constant, the ternary pass must compute each net
// exactly as the two-valued simulator does from the same inputs and state.
void expect_agrees_with_boolean_sim(const Netlist& nl,
                                    const std::vector<std::uint8_t>& in,
                                    const std::vector<std::uint8_t>& state) {
  const sim::CompiledCircuit cc(nl);
  sim::SeqSim bin(cc);
  bin.load_state_broadcast(state);
  bin.set_inputs_broadcast(in);
  bin.eval();
  const Netlist tied = tie_sources(nl, in, state);
  const sim::CompiledCircuit tied_cc(tied);
  const StaReport r = analysis::analyze(tied_cc);
  EXPECT_EQ(r.num_const_nets, nl.num_gates());
  for (SignalId id = 0; id < nl.num_gates(); ++id) {
    EXPECT_EQ(r.value[id], sim::lane_bit(bin.values()[id], 0) ? 1 : 0)
        << nl.name() << " " << nl.signal_name(id);
  }
}

TEST(StaTernary, NotTable) {
  EXPECT_EQ(ternary(GateType::kNot, {0}), 1);
  EXPECT_EQ(ternary(GateType::kNot, {1}), 0);
  EXPECT_EQ(ternary(GateType::kNot, {X}), X);
}

TEST(StaTernary, BufTable) {
  EXPECT_EQ(ternary(GateType::kBuf, {0}), 0);
  EXPECT_EQ(ternary(GateType::kBuf, {1}), 1);
  EXPECT_EQ(ternary(GateType::kBuf, {X}), X);
}

TEST(StaTernary, AndTable) {
  EXPECT_EQ(ternary(GateType::kAnd, {0, 0}), 0);
  EXPECT_EQ(ternary(GateType::kAnd, {0, 1}), 0);
  EXPECT_EQ(ternary(GateType::kAnd, {1, 1}), 1);
  EXPECT_EQ(ternary(GateType::kAnd, {0, X}), 0);  // controlled by 0
  EXPECT_EQ(ternary(GateType::kAnd, {X, 0}), 0);
  EXPECT_EQ(ternary(GateType::kAnd, {1, X}), X);
  EXPECT_EQ(ternary(GateType::kAnd, {X, X}), X);
  EXPECT_EQ(ternary(GateType::kAnd, {1, 1, X}), X);
}

TEST(StaTernary, OrTable) {
  EXPECT_EQ(ternary(GateType::kOr, {0, 0}), 0);
  EXPECT_EQ(ternary(GateType::kOr, {1, 0}), 1);
  EXPECT_EQ(ternary(GateType::kOr, {1, X}), 1);  // controlled by 1
  EXPECT_EQ(ternary(GateType::kOr, {X, 1}), 1);
  EXPECT_EQ(ternary(GateType::kOr, {0, X}), X);
  EXPECT_EQ(ternary(GateType::kOr, {X, X}), X);
  EXPECT_EQ(ternary(GateType::kOr, {0, 0, X}), X);
}

TEST(StaTernary, XorTable) {
  EXPECT_EQ(ternary(GateType::kXor, {0, 0}), 0);
  EXPECT_EQ(ternary(GateType::kXor, {0, 1}), 1);
  EXPECT_EQ(ternary(GateType::kXor, {1, 1}), 0);
  EXPECT_EQ(ternary(GateType::kXor, {1, 1, 1}), 1);
  EXPECT_EQ(ternary(GateType::kXor, {1, X}), X);  // X propagates through XOR
  EXPECT_EQ(ternary(GateType::kXor, {0, X}), X);
  EXPECT_EQ(ternary(GateType::kXor, {X, X}), X);
}

// An inverting gate inverts a resolved value but never an X.
TEST(StaTernary, InvertingGatesKeepXUninverted) {
  EXPECT_EQ(ternary(GateType::kNand, {0, X}), 1);
  EXPECT_EQ(ternary(GateType::kNand, {1, 1}), 0);
  EXPECT_EQ(ternary(GateType::kNand, {1, X}), X);
  EXPECT_EQ(ternary(GateType::kNor, {1, X}), 0);
  EXPECT_EQ(ternary(GateType::kNor, {0, 0}), 1);
  EXPECT_EQ(ternary(GateType::kNor, {0, X}), X);
  EXPECT_EQ(ternary(GateType::kXnor, {1, 1}), 1);
  EXPECT_EQ(ternary(GateType::kXnor, {0, 1}), 0);
  EXPECT_EQ(ternary(GateType::kXnor, {1, X}), X);
}

TEST(StaTernary, ConstantSourcesMatchBooleanSimOnS27) {
  // Exhaustive over s27's 4 inputs and 3 state bits.
  const Netlist nl = gen::make_circuit("s27");
  for (unsigned bits = 0; bits < (1u << 7); ++bits) {
    std::vector<std::uint8_t> in(4), state(3);
    for (std::size_t k = 0; k < 4; ++k) in[k] = (bits >> k) & 1u;
    for (std::size_t k = 0; k < 3; ++k) state[k] = (bits >> (4 + k)) & 1u;
    expect_agrees_with_boolean_sim(nl, in, state);
  }
}

TEST(StaTernary, FreeSourcesLeaveEveryNetUnknown) {
  // s27 has no constant gate, so with every input and scan cell free no
  // net can be resolved; in particular the output G17 stays X.
  const Netlist nl = gen::make_circuit("s27");
  const sim::CompiledCircuit cc(nl);
  const StaReport r = analysis::analyze(cc);
  EXPECT_EQ(r.num_const_nets, 0u);
  for (SignalId id = 0; id < nl.num_gates(); ++id) {
    EXPECT_EQ(r.value[id], X) << nl.signal_name(id);
  }
  EXPECT_EQ(r.value[nl.by_name("G17")], X);
}

TEST(StaTernary, FreeScanCellsKeepStateDependentNetsUnknown) {
  // s27: G12 = NOR(G1, G7) and G13 = NOR(G2, G12), with G7 a scan cell.
  // All inputs 0: G12 = NOR(0, X) = X and the next-state net G13 stays X.
  const Netlist nl = gen::make_circuit("s27");
  {
    const Netlist tied = tie_sources(nl, {0, 0, 0, 0}, {});
    const sim::CompiledCircuit cc(tied);
    const StaReport r = analysis::analyze(cc);
    EXPECT_EQ(r.value[nl.by_name("G7")], X);
    EXPECT_EQ(r.value[nl.by_name("G12")], X);
    EXPECT_EQ(r.value[nl.by_name("G13")], X);
    EXPECT_EQ(r.value[nl.by_name("G14")], 1);  // NOT(G0) needs no state
  }
  // G1 = 1 controls G12 to 0 whatever the state, so G13 = NOT(G2) = 1.
  {
    const Netlist tied = tie_sources(nl, {0, 1, 0, 0}, {});
    const sim::CompiledCircuit cc(tied);
    const StaReport r = analysis::analyze(cc);
    EXPECT_EQ(r.value[nl.by_name("G7")], X);
    EXPECT_EQ(r.value[nl.by_name("G12")], 0);
    EXPECT_EQ(r.value[nl.by_name("G13")], 1);
  }
}

TEST(StaTernary, ScanCellOutputStaysUnknownUnderConstantD) {
  // A scan load can force either value into a flip-flop, so a constant on
  // its D pin does not make its output constant.
  Netlist nl("dconst");
  const SignalId k = nl.add_gate(GateType::kConst1, "k", {});
  const SignalId q = nl.add_dff("q", k);
  const SignalId z = nl.add_gate(GateType::kNot, "z", {q});
  nl.mark_output(z);
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  const StaReport r = analysis::analyze(cc);
  EXPECT_EQ(r.value[k], 1);
  EXPECT_EQ(r.value[q], X);
  EXPECT_EQ(r.value[z], X);
}

class StaTernaryAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaTernaryAgreement, ConstantSourcesMatchBooleanSim) {
  gen::Profile p;
  p.name = "tern" + std::to_string(GetParam());
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_flip_flops = 4;
  p.num_gates = 40;
  p.counter_fraction = 0.25;
  p.tied_inputs = GetParam() % 3;  // strapped pins add constant gates
  p.seed = GetParam() * 77 + 13;
  const Netlist nl = gen::synthesize(p);

  rand::Rng rng(GetParam() + 5);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint8_t> in(nl.num_inputs());
    std::vector<std::uint8_t> state(nl.num_state_vars());
    for (auto& b : in) b = rng.next_bit();
    for (auto& b : state) b = rng.next_bit();
    expect_agrees_with_boolean_sim(nl, in, state);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaTernaryAgreement,
                         ::testing::Range<std::uint64_t>(0, 6));

// ---- FaultList::prune unit semantics --------------------------------------

TEST(StaPrune, FaultListPruneIsObservationallyTransparent) {
  const Netlist nl = gen::make_circuit("s27");
  const auto universe = fault::collapsed_universe(nl);
  fault::FaultList fl(universe);
  fl.mark_detected(0);

  std::vector<std::uint8_t> mask(universe.size(), 0);
  mask[0] = 1;  // already detected: must stay detected, not pruned
  mask[1] = 1;
  mask[2] = 1;
  fl.prune(mask);
  fl.prune(mask);  // idempotent

  EXPECT_EQ(fl.num_pruned(), 2u);
  EXPECT_TRUE(fl.detected(0));
  EXPECT_FALSE(fl.pruned(0));
  EXPECT_TRUE(fl.pruned(1));
  EXPECT_TRUE(fl.pruned(2));
  // Denominators are untouched: size, coverage, remaining count.
  EXPECT_EQ(fl.size(), universe.size());
  EXPECT_EQ(fl.num_detected(), 1u);
  EXPECT_EQ(fl.num_remaining(), universe.size() - 1);
  // Simulation targets skip both detected and pruned faults.
  const auto remaining = fl.remaining_indices();
  EXPECT_EQ(remaining.size(), universe.size() - 3);
  for (const std::size_t i : remaining) {
    EXPECT_FALSE(fl.detected(i));
    EXPECT_FALSE(fl.pruned(i));
  }

  EXPECT_THROW(fl.prune(std::vector<std::uint8_t>(3, 1)),
               std::invalid_argument);
}

// ---- prune transparency through Procedure 2 and the campaign path ---------

core::CampaignOptions bounded_campaign(bool prune, std::size_t attempts) {
  core::CampaignOptions opts;
  opts.p2.sim_threads = 1;
  opts.p2.d1_order = attempts > 1 ? std::vector<std::uint32_t>{1, 2}
                                  : std::vector<std::uint32_t>{1};
  opts.p2.max_iterations = attempts > 1 ? 2 : 1;
  opts.p2.n_same_fc = 1;
  opts.max_attempts = attempts;
  opts.max_combos_on_failure = attempts;
  opts.detect.random_rounds = 8;
  opts.detect.backtrack_limit = 100;
  opts.prune_untestable = prune;
  return opts;
}

std::vector<std::string> campaign_trace(const char* circuit, bool prune,
                                        std::size_t attempts) {
  const core::Workbench wb(circuit, bounded_campaign(prune, attempts));
  core::RunContext ctx(bounded_campaign(prune, attempts));
  obs::VectorSink sink;
  ctx.set_sink(&sink);
  ctx.set_timing(false);
  const core::ExperimentRow row = core::run_first_complete(wb, ctx);
  std::vector<std::string> lines;
  lines.reserve(sink.events().size() + 1);
  for (const obs::TraceEvent& ev : sink.events()) {
    // The one "sta" event is the only stream addition pruning may make.
    if (ev.type == "sta") continue;
    lines.push_back(obs::to_jsonl(ev));
  }
  lines.push_back("row detected=" + std::to_string(row.result.total_detected) +
                  " complete=" + std::to_string(row.found_complete) +
                  " attempts=" + std::to_string(row.attempts) +
                  " la=" + std::to_string(row.combo.l_a) +
                  " lb=" + std::to_string(row.combo.l_b) +
                  " n=" + std::to_string(row.combo.n) +
                  " targets=" + std::to_string(row.target_faults));
  return lines;
}

TEST(StaPrune, CampaignStreamIdenticalModuloStaEvent_s420) {
  EXPECT_EQ(campaign_trace("s420", false, 3), campaign_trace("s420", true, 3));
}

// One bounded attempt keeps the big circuit affordable; the equality
// still covers classification, TS_0, Procedure 2 and the result row.
TEST(StaPrune, CampaignStreamIdenticalModuloStaEvent_s5378) {
  EXPECT_EQ(campaign_trace("s5378", false, 1),
            campaign_trace("s5378", true, 1));
}

// Over the FULL collapsed universe of s420t (39 provably-untestable
// faults), pruning must keep every FC-relevant number and cut gate evals.
TEST(StaPrune, FullUniverseGateEvalsDropWithIdenticalResult) {
  const Netlist nl = gen::make_circuit("s420t");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);

  core::Ts0Config cfg;
  cfg.n = 16;
  const scan::TestSet ts0 = core::make_ts0(nl, cfg);
  core::Procedure2Options p2;
  p2.sim_threads = 1;
  p2.d1_order = {1, 2};
  p2.max_iterations = 2;
  p2.n_same_fc = 1;

  core::RunContext plain_ctx;
  plain_ctx.set_timing(false);
  fault::FaultList plain_fl(universe);
  const core::Procedure2Result plain =
      core::run_procedure2(cc, ts0, plain_fl, p2, &plain_ctx);

  const StaReport r = analysis::analyze(cc);
  const StaFaultClasses cls = analysis::classify_faults(r, cc, universe);
  ASSERT_EQ(cls.num_untestable, 39u);
  p2.prune_mask = std::make_shared<const std::vector<std::uint8_t>>(
      cls.untestable_mask());

  core::RunContext pruned_ctx;
  pruned_ctx.set_timing(false);
  fault::FaultList pruned_fl(universe);
  const core::Procedure2Result pruned =
      core::run_procedure2(cc, ts0, pruned_fl, p2, &pruned_ctx);

  EXPECT_EQ(pruned.ts0_detected, plain.ts0_detected);
  EXPECT_EQ(pruned.total_detected, plain.total_detected);
  EXPECT_EQ(pruned.complete, plain.complete);
  ASSERT_EQ(pruned.applied.size(), plain.applied.size());
  for (std::size_t i = 0; i < plain.applied.size(); ++i) {
    EXPECT_EQ(pruned.applied[i].d1, plain.applied[i].d1);
    EXPECT_EQ(pruned.applied[i].detected, plain.applied[i].detected);
    EXPECT_EQ(pruned.applied[i].cycles, plain.applied[i].cycles);
  }
  EXPECT_EQ(pruned_fl.detected_flags(), plain_fl.detected_flags());
  EXPECT_LT(pruned_ctx.counters().value("fsim.gate_evals"),
            plain_ctx.counters().value("fsim.gate_evals"));
}

// ---- presolve hand-off into atpg::classify --------------------------------

TEST(StaPresolve, MaskShortCircuitsPodemWithoutChangingTargets) {
  const Netlist nl = gen::make_circuit("s420t");
  const sim::CompiledCircuit cc(nl);
  const auto universe = fault::collapsed_universe(nl);
  const StaReport r = analysis::analyze(cc);
  const StaFaultClasses cls = analysis::classify_faults(r, cc, universe);
  const std::vector<std::uint8_t> mask = cls.untestable_mask();

  const atpg::DetectabilityReport base = atpg::classify(cc, universe);
  atpg::DetectabilityOptions opt;
  opt.presolved_untestable = &mask;
  const atpg::DetectabilityReport presolved = atpg::classify(cc, universe, opt);

  EXPECT_EQ(presolved.presolved_untestable, cls.num_untestable);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (mask[i]) {
      EXPECT_EQ(presolved.cls[i], atpg::FaultClass::kUntestable);
    }
    // sta untestability is a subset of PODEM untestability, so the
    // detectable target set is bit-identical either way.
    EXPECT_EQ(presolved.cls[i] == atpg::FaultClass::kDetectable,
              base.cls[i] == atpg::FaultClass::kDetectable);
  }
  EXPECT_EQ(presolved.num_detectable, base.num_detectable);
}

// ---- SCOAP test-point ranking ---------------------------------------------

TEST(StaTestPoints, ScoapRankingIsDeterministicAndWellFormed) {
  const Netlist nl = gen::make_circuit("s420t");
  const sim::CompiledCircuit cc(nl);
  const analysis::TestPointPlan plan =
      analysis::select_test_points(cc, 3, 2, analysis::RankBy::kScoap);
  ASSERT_EQ(plan.points.size(), 5u);

  const StaReport r = analysis::analyze(cc);
  std::vector<SignalId> observed;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.points[i].kind, analysis::TestPoint::Kind::kObserve);
    observed.push_back(plan.points[i].signal);
  }
  // s420t has provably-unobservable nets, so they outrank every finite CO.
  EXPECT_EQ(r.co[plan.points[0].signal], analysis::kScoapInf);
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_NE(plan.points[i].kind, analysis::TestPoint::Kind::kObserve);
    EXPECT_EQ(std::count(observed.begin(), observed.end(),
                         plan.points[i].signal),
              0);
    const SignalId s = plan.points[i].signal;
    EXPECT_EQ(plan.points[i].kind, r.cc1[s] >= r.cc0[s]
                                       ? analysis::TestPoint::Kind::kControl1
                                       : analysis::TestPoint::Kind::kControl0);
  }

  // One-shot ranking is a pure function of the report: repeat and compare.
  const analysis::TestPointPlan again =
      analysis::select_test_points(cc, 3, 2, analysis::RankBy::kScoap);
  ASSERT_EQ(again.points.size(), plan.points.size());
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    EXPECT_EQ(again.points[i].kind, plan.points[i].kind);
    EXPECT_EQ(again.points[i].signal, plan.points[i].signal);
  }
}

}  // namespace
}  // namespace rls
