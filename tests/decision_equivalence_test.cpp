// The compiled-strategy contract: decision::DecisionTable::decide is
// bit-identical to game::Strategy::decide — same kind, same edge, same
// next-decision tick, same rank — on every concrete state, winnable or
// not.  Checked grid-oracle style with seeded util::Rng state sampling
// (strategy-guided walks + uniform fuzz over the discrete keys) on the
// Smart Light and LEP n=3/4, plus the serialization contract: a
// save→load round trip decides identically and corrupted files are
// rejected, never half-loaded.  Safety purposes (`A[] φ`) get the same
// treatment: walk-vs-table equivalence, a .tgs round trip, executor
// verdict parity, and the fingerprint distinguishing purpose kinds so
// a reachability table can never serve a safety purpose.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "semantics/concrete.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/simulated_imp.h"
#include "util/rng.h"

namespace tigat::decision {
namespace {

constexpr std::int64_t kScale = 16;
constexpr std::uint64_t kSeed = 0x7161a5eedULL;

using semantics::ConcreteState;
using test_support::load_lep;
using test_support::load_smart_light;

std::shared_ptr<const game::GameSolution> solve(const tsystem::System& sys,
                                                const std::string& purpose) {
  game::GameSolver solver(sys, tsystem::TestPurpose::parse(sys, purpose));
  return solver.solve();
}

// Uniform fuzz over the reachable discrete keys: random clock grids up
// to a little beyond the maximal constants, so zone boundaries (weak
// vs strict at exact multiples of the scale) and unwinnable corners
// both get sampled.
std::vector<ConcreteState> fuzz_states(const game::GameSolution& solution,
                                       util::Rng& rng, std::size_t count) {
  const auto& g = solution.graph();
  dbm::bound_t max_const = 1;
  for (const dbm::bound_t c : g.max_constants()) max_const = std::max(max_const, c);
  const std::int64_t hi = (static_cast<std::int64_t>(max_const) + 2) * kScale;

  std::vector<ConcreteState> out;
  out.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    const auto k = static_cast<std::uint32_t>(
        rng.range(0, static_cast<std::int64_t>(g.key_count()) - 1));
    ConcreteState s;
    s.locs = g.key(k).locs;
    s.data = g.key(k).data;
    s.clocks.assign(g.system().clock_count(), 0);
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      // Half the draws snap to the model-unit grid ± 1 tick, where the
      // strict/weak distinctions live.
      if (rng.chance(1, 2)) {
        s.clocks[c] = rng.range(0, hi / kScale) * kScale +
                      rng.range(-1, 1) * (rng.chance(1, 2) ? 1 : 0);
        s.clocks[c] = std::max<std::int64_t>(0, s.clocks[c]);
      } else {
        s.clocks[c] = rng.range(0, hi);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

// Strategy-guided walks with adversarial noise: follow the strategy,
// but sometimes delay a random admissible amount or fire a random
// enabled transition instead, so off-path (yet reachable) states are
// covered too.
std::vector<ConcreteState> walk_states(const tsystem::System& sys,
                                       const game::Strategy& strategy,
                                       util::Rng& rng, std::size_t walks,
                                       std::size_t steps) {
  semantics::ConcreteSemantics sem(sys, kScale);
  std::vector<ConcreteState> out;
  for (std::size_t w = 0; w < walks; ++w) {
    auto s = sem.initial();
    out.push_back(s);
    for (std::size_t step = 0; step < steps; ++step) {
      const game::Move move = strategy.decide(s, kScale);
      const std::int64_t max_delay =
          std::min(sem.max_delay(s), std::int64_t{4} * kScale);
      if (move.kind == game::MoveKind::kAction && rng.chance(2, 3)) {
        const auto& e = strategy.solution().graph().edges()[*move.edge];
        if (sem.enabled(s, e.inst)) {
          sem.fire(s, e.inst);
          out.push_back(s);
          continue;
        }
      }
      const auto insts = sem.enabled_instances(s);
      if (!insts.empty() && rng.chance(1, 3)) {
        sem.fire(s, insts[static_cast<std::size_t>(rng.range(
                     0, static_cast<std::int64_t>(insts.size()) - 1))]);
      } else if (max_delay > 0) {
        sem.delay(s, rng.range(1, max_delay));
      } else if (!insts.empty()) {
        sem.fire(s, insts.front());
      } else {
        break;
      }
      out.push_back(s);
    }
  }
  return out;
}

void expect_identical(const game::Strategy& strategy,
                      const DecisionTable& table,
                      const std::vector<ConcreteState>& states) {
  for (const ConcreteState& s : states) {
    const game::Move walk = strategy.decide(s, kScale);
    const game::Move compiled = table.decide(s, kScale);
    ASSERT_EQ(walk, compiled)
        << "kind " << static_cast<int>(walk.kind) << " vs "
        << static_cast<int>(compiled.kind) << ", edge "
        << (walk.edge ? static_cast<int>(*walk.edge) : -1) << " vs "
        << (compiled.edge ? static_cast<int>(*compiled.edge) : -1)
        << ", next " << walk.next_decision_ticks << " vs "
        << compiled.next_decision_ticks << ", rank "
        << (walk.rank ? static_cast<int>(*walk.rank) : -1) << " vs "
        << (compiled.rank ? static_cast<int>(*compiled.rank) : -1);
  }
}

void check_model(const tsystem::System& sys, const std::string& purpose,
                 std::size_t fuzz_count) {
  const auto solution = solve(sys, purpose);
  game::Strategy strategy(solution);
  const DecisionTable table = compile(*solution);
  EXPECT_TRUE(table.matches(sys, solution->purpose()));
  EXPECT_EQ(table.key_count(), solution->graph().key_count());

  util::Rng rng(kSeed);
  expect_identical(strategy, table,
                   walk_states(sys, strategy, rng, 16, 40));
  expect_identical(strategy, table, fuzz_states(*solution, rng, fuzz_count));
}

TEST(DecisionEquivalence, SmartLight) {
  const auto light = load_smart_light();
  check_model(light.system, "control: A<> IUT.Bright", 4000);
}

TEST(DecisionEquivalence, LepN3) {
  const auto lep = load_lep(3);
  check_model(lep.system, lep.purposes[0].source, 2000);  // TP1
}

TEST(DecisionEquivalence, LepN4) {
  const auto lep = load_lep(4);
  check_model(lep.system, lep.purposes[0].source, 1000);  // TP1
}

// Safety tables carry a different leaf shape (the fat delay leaf with
// acts/danger slices) — the walk-vs-table contract must hold for them
// on the same walk + fuzz grid as the reachability tables.
TEST(DecisionEquivalence, SafetySmartLightNeverBright) {
  const auto light = load_smart_light();
  check_model(light.system, "control: A[] !IUT.Bright", 4000);
}

TEST(DecisionEquivalence, SafetySmartLightStaysOff) {
  const auto light = load_smart_light();
  check_model(light.system, "control: A[] IUT.Off", 2000);
}

// The fingerprint hashes the purpose kind and formula on top of the
// structural model hash, so a reachability .tgs can never silently
// serve a safety purpose over the same formula (or vice versa).
TEST(DecisionEquivalence, FingerprintDistinguishesPurposeKind) {
  const auto light = load_smart_light();
  const auto reach_p =
      tsystem::TestPurpose::parse(light.system, "control: A<> !IUT.Bright");
  const auto safe_p =
      tsystem::TestPurpose::parse(light.system, "control: A[] !IUT.Bright");
  EXPECT_NE(model_fingerprint(light.system, reach_p),
            model_fingerprint(light.system, safe_p));

  game::GameSolver solver(light.system, safe_p);
  const DecisionTable table = compile(*solver.solve());
  EXPECT_EQ(table.purpose_kind(), 1u);
  EXPECT_TRUE(table.matches(light.system, safe_p));
  EXPECT_FALSE(table.matches(light.system, reach_p));
}

TEST(DecisionEquivalence, ExecutorVerdictsAndTracesMatch) {
  const auto light = load_smart_light();
  const tsystem::System plant = test_support::plant(light.system);
  const auto solution = solve(light.system, "control: A<> IUT.Bright");
  game::Strategy strategy(solution);
  const DecisionTable table = compile(*solution);

  for (const std::int64_t latency : {std::int64_t{0}, kScale, 2 * kScale}) {
    testing::SimulatedImplementation imp_a(plant, kScale, {latency, {}});
    testing::SimulatedImplementation imp_b(plant, kScale, {latency, {}});
    testing::TestExecutor walk_exec(strategy, imp_a, kScale);
    testing::TestExecutor table_exec(table, light.system, imp_b, kScale);
    const auto a = walk_exec.run();
    const auto b = table_exec.run();
    EXPECT_EQ(a.verdict, b.verdict) << "latency " << latency;
    EXPECT_EQ(a.trace_string(), b.trace_string()) << "latency " << latency;
    EXPECT_EQ(a.total_ticks, b.total_ticks) << "latency " << latency;
  }
}

// Safety executor parity: the Strategy-backed executor self-derives the
// purpose; the table-backed one is handed it explicitly (a .tgs knows
// its kind but not the formula).  Both must PASS kSafetyMaintained with
// identical traces once the pass budget is outlasted.
TEST(DecisionEquivalence, SafetyExecutorVerdictsAndTracesMatch) {
  const auto light = load_smart_light();
  const tsystem::System plant = test_support::plant(light.system);
  const auto solution = solve(light.system, "control: A[] IUT.Off");
  game::Strategy strategy(solution);
  const DecisionTable table = compile(*solution);

  testing::ExecutorOptions opts;
  opts.pass_ticks = 200 * kScale;
  testing::ExecutorOptions table_opts = opts;
  table_opts.purpose = solution->purpose();

  testing::SimulatedImplementation imp_a(plant, kScale);
  testing::SimulatedImplementation imp_b(plant, kScale);
  testing::TestExecutor walk_exec(strategy, imp_a, kScale, opts);
  testing::TestExecutor table_exec(table, light.system, imp_b, kScale,
                                   table_opts);
  const auto a = walk_exec.run();
  const auto b = table_exec.run();
  EXPECT_EQ(a.verdict, testing::Verdict::kPass);
  EXPECT_EQ(a.code, testing::ReasonCode::kSafetyMaintained);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_EQ(b.code, a.code);
  EXPECT_EQ(a.trace_string(), b.trace_string());
  EXPECT_EQ(a.total_ticks, b.total_ticks);
}

// Drive with a reachability plan for Bright while monitoring the
// safety purpose "never Bright": the executor must FAIL with
// kSafetyViolation the moment a SPEC-legal move lands in ¬φ.
TEST(DecisionEquivalence, SafetyViolationVerdict) {
  const auto light = load_smart_light();
  const tsystem::System plant = test_support::plant(light.system);
  const auto reach = solve(light.system, "control: A<> IUT.Bright");
  game::Strategy strategy(reach);
  const StrategySource source(strategy);

  testing::ExecutorOptions opts;
  opts.purpose =
      tsystem::TestPurpose::parse(light.system, "control: A[] !IUT.Bright");
  testing::SimulatedImplementation imp(plant, kScale);
  testing::TestExecutor exec(source, light.system, imp, kScale, opts);
  const auto report = exec.run();
  EXPECT_EQ(report.verdict, testing::Verdict::kFail);
  EXPECT_EQ(report.code, testing::ReasonCode::kSafetyViolation);
}

// A .tgs compiled from LEP n = 3 serves every load of that instance:
// its fingerprint is pinned to the one the hand-built C++ model of the
// same instance had (recorded before the builder was retired), so the
// template still elaborates to exactly that model — and a template
// re-instantiated at a different n is REJECTED by the fingerprint
// check, so a compiled strategy can never silently serve the wrong
// instance size.
TEST(DecisionEquivalence, TemplatedLepFingerprintIsPinnedAndPinsN) {
  constexpr std::size_t kLepN3Keys = 1377;
  constexpr std::uint64_t kLepN3Tp1Fingerprint = 0xe61d397e2dad977aULL;
  const lang::LoadedModel parsed = load_lep(3);
  const lang::LoadedModel other = load_lep(3);  // a second, separate load

  const auto from_template = solve(parsed.system, parsed.purposes[0].source);
  const auto from_other = solve(other.system, other.purposes[0].source);
  EXPECT_EQ(from_template->stats().keys, kLepN3Keys);

  const tsystem::TestPurpose& tp_other = other.purposes[0];
  const tsystem::TestPurpose& tp_template = parsed.purposes[0];
  const DecisionTable table_t = compile(*from_template);
  const DecisionTable table_o = compile(*from_other);
  EXPECT_EQ(table_t.fingerprint(), kLepN3Tp1Fingerprint);
  EXPECT_EQ(table_o.fingerprint(), table_t.fingerprint());
  EXPECT_TRUE(table_t.matches(other.system, tp_other));      // cross-served
  EXPECT_TRUE(table_o.matches(parsed.system, tp_template));  // both directions

  // The .tgs round trip preserves the cross-fingerprint.
  const DecisionTable reloaded = from_bytes(to_bytes(table_t));
  EXPECT_TRUE(reloaded.matches(other.system, tp_other));

  // Same decisions on the template-elaborated system, walk vs both
  // tables, on seeded fuzz states.
  game::Strategy strategy(from_template);
  util::Rng rng(kSeed);
  expect_identical(strategy, table_o, fuzz_states(*from_template, rng, 1000));

  // Re-instantiated at n = 4, the fingerprint must differ: arrays,
  // edges and processes all changed shape.
  const lang::LoadedModel bigger = load_lep(4);
  EXPECT_FALSE(table_t.matches(bigger.system, bigger.purposes[0]));
  EXPECT_TRUE(table_t.matches(parsed.system, tp_template));
}

TEST(DecisionEquivalence, SerializeRoundTrip) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A<> IUT.Bright");
  game::Strategy strategy(solution);
  const DecisionTable table = compile(*solution);

  // In-memory round trip: identical bytes and identical decisions.
  const auto bytes = to_bytes(table);
  const DecisionTable reloaded = from_bytes(bytes);
  EXPECT_EQ(to_bytes(reloaded), bytes);
  EXPECT_EQ(reloaded.fingerprint(), table.fingerprint());
  EXPECT_TRUE(reloaded.matches(light.system, solution->purpose()));

  util::Rng rng(kSeed);
  expect_identical(strategy, reloaded, fuzz_states(*solution, rng, 2000));

  // File round trip.
  const std::string path =
      ::testing::TempDir() + "/decision_roundtrip_test.tgs";
  save(table, path);
  const DecisionTable loaded = load(path);
  EXPECT_EQ(to_bytes(loaded), bytes);
  std::remove(path.c_str());
}

// The v2 payload carries the purpose kind and the safety leaf slices;
// a safety table must survive the byte and file round trips exactly
// like a reachability one, still deciding identically to the walk.
TEST(DecisionEquivalence, SafetySerializeRoundTrip) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A[] !IUT.Bright");
  game::Strategy strategy(solution);
  const DecisionTable table = compile(*solution);
  EXPECT_EQ(table.purpose_kind(), 1u);

  const auto bytes = to_bytes(table);
  const DecisionTable reloaded = from_bytes(bytes);
  EXPECT_EQ(to_bytes(reloaded), bytes);
  EXPECT_EQ(reloaded.purpose_kind(), 1u);
  EXPECT_TRUE(reloaded.matches(light.system, solution->purpose()));

  util::Rng rng(kSeed);
  expect_identical(strategy, reloaded, fuzz_states(*solution, rng, 2000));

  const std::string path =
      ::testing::TempDir() + "/decision_safety_roundtrip_test.tgs";
  save(table, path);
  const DecisionTable loaded = load(path);
  EXPECT_EQ(to_bytes(loaded), bytes);
  std::remove(path.c_str());
}

TEST(DecisionEquivalence, CorruptedFilesAreRejected) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A<> IUT.Bright");
  const auto bytes = to_bytes(compile(*solution));

  {
    auto bad = bytes;  // wrong magic
    bad[0] = 'X';
    EXPECT_THROW((void)from_bytes(bad), SerializeError);
  }
  {
    auto bad = bytes;  // unsupported version
    bad[4] ^= 0x40;
    EXPECT_THROW((void)from_bytes(bad), SerializeError);
  }
  {
    auto bad = bytes;  // payload bit rot → checksum mismatch
    bad.back() ^= 0x01;
    EXPECT_THROW((void)from_bytes(bad), SerializeError);
  }
  {
    auto bad = bytes;  // truncation
    bad.resize(bad.size() - 9);
    EXPECT_THROW((void)from_bytes(bad), SerializeError);
  }
  {
    auto bad = bytes;  // trailing garbage
    bad.push_back(0xab);
    EXPECT_THROW((void)from_bytes(bad), SerializeError);
  }
  {
    std::vector<std::uint8_t> empty;  // not even a header
    EXPECT_THROW((void)from_bytes(empty), SerializeError);
  }
  EXPECT_THROW((void)load(::testing::TempDir() + "/no_such_file.tgs"),
               SerializeError);
}

}  // namespace
}  // namespace tigat::decision
