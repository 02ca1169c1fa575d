// The shipped .tg models (examples/models/smart_light.tg, lep.tg) are
// the one definition of the paper's two case studies.  This suite pins
// them to the behaviour of the hand-built C++ models they replaced:
// every constant below was recorded from those builders (structure
// fingerprint, game verdicts, strategy sizes, strategy-guided test
// traces), so an edit to a .tg file that changes the model fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "decision/table.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/simulated_imp.h"

namespace tigat::lang {
namespace {

using game::GameSolver;
using game::Strategy;
using test_support::channel;
using test_support::clock;
using test_support::load_lep;
using test_support::load_smart_light;
using test_support::loc;
using tsystem::System;
using tsystem::TestPurpose;

struct Verdicts {
  bool winning = false;
  std::size_t keys = 0;
  std::size_t strategy_rows = 0;
};

Verdicts solve(const System& sys, const TestPurpose& purpose) {
  GameSolver solver(sys, purpose);
  const auto solution = solver.solve();
  return {solution->winning_from_initial(), solution->stats().keys,
          Strategy(solution).size()};
}

Verdicts solve(const System& sys, const std::string& purpose) {
  return solve(sys, TestPurpose::parse(sys, purpose));
}

// ── Smart Light ───────────────────────────────────────────────────────

// decision::model_fingerprint of the composed C++ model: it hashes the
// declarations, every location with its invariant, and every edge
// with its guards (data guards as text), resets, assignments and
// controllability.
constexpr std::uint64_t kSmartLightFingerprint = 0x580daadf8e4f39ddULL;

TEST(LangRoundtrip, SmartLightStructureIsPinned) {
  const LoadedModel parsed = load_smart_light();
  EXPECT_EQ(decision::model_fingerprint(parsed.system), kSmartLightFingerprint);
  EXPECT_EQ(parsed.system.clock_names(),
            (std::vector<std::string>{"t0", "x", "Tp", "z"}));
  ASSERT_EQ(parsed.purposes.size(), 1u);  // control: A<> IUT.Bright
  EXPECT_EQ(parsed.purposes[0].kind, tsystem::PurposeKind::kReach);
}

TEST(LangRoundtrip, SmartLightVerdictsArePinned) {
  const LoadedModel parsed = load_smart_light();
  struct Pinned {
    const char* purpose;
    Verdicts expected;
  };
  for (const Pinned& pin : {Pinned{"control: A<> IUT.Bright", {true, 10, 14}},
                            Pinned{"control: A<> IUT.Off", {true, 10, 2}},
                            Pinned{"control: A<> IUT.Dim", {true, 10, 15}},
                            Pinned{"control: A<> IUT.L6", {false, 10, 1}}}) {
    SCOPED_TRACE(pin.purpose);
    const Verdicts p = solve(parsed.system, pin.purpose);
    EXPECT_EQ(p.winning, pin.expected.winning);
    EXPECT_EQ(p.keys, pin.expected.keys);
    EXPECT_EQ(p.strategy_rows, pin.expected.strategy_rows);
  }
  // The shipped purpose is the winnable running example.
  GameSolver solver(parsed.system, parsed.purposes.at(0));
  EXPECT_TRUE(solver.solve()->winning_from_initial());
}

TEST(LangRoundtrip, SmartLightStrategyExecutionIsPinned) {
  constexpr std::int64_t kScale = 16;
  const LoadedModel parsed = load_smart_light();
  const System plant = test_support::plant(parsed.system);

  GameSolver parsed_solver(parsed.system, parsed.purposes.at(0));
  const Strategy parsed_strategy(parsed_solver.solve());

  // The strategy drives conforming black boxes — eager, lazy and
  // output-preference-flipped IMPs — to PASS along the same traces the
  // C++ model's strategy took.
  struct Pinned {
    testing::ImpPolicy policy;
    const char* trace;
  };
  const std::vector<Pinned> pins = {
      {{0, {}}, "16 . touch! . dim? . 16 . touch! . bright?"},
      {{2 * kScale, {}}, "16 . touch! . 16 . touch! . 32 . bright?"},
      {{kScale, {"dim", "bright", "off"}},
       "16 . touch! . 16 . dim? . 16 . touch! . 16 . bright?"},
  };
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("policy " + std::to_string(i));
    testing::SimulatedImplementation imp(plant, kScale, pins[i].policy);
    testing::TestExecutor exec(parsed_strategy, imp, kScale);
    const testing::TestReport report = exec.run();
    EXPECT_EQ(report.verdict, testing::Verdict::kPass) << report.detail;
    EXPECT_EQ(report.trace_string(), pins[i].trace);
  }
}

// The plant a SimulatedImplementation runs is the composed model's
// process "IUT" on its own: same location ids and names, and the
// composed clocks and channels, so `x` and `Tp` keep their indices.
TEST(LangRoundtrip, SmartLightPlantKeepsTheComposedIds) {
  const LoadedModel light = load_smart_light();
  const System plant = test_support::plant(light.system);
  ASSERT_EQ(plant.processes().size(), 1u);
  const tsystem::Process& composed =
      light.system.processes()[test_support::process(light.system, "IUT")];
  const tsystem::Process& alone = plant.processes()[0];
  EXPECT_EQ(alone.name(), "IUT");
  EXPECT_EQ(alone.initial(), composed.initial());
  ASSERT_EQ(alone.locations().size(), composed.locations().size());
  for (tsystem::LocId l = 0; l < composed.locations().size(); ++l) {
    EXPECT_EQ(alone.locations()[l].name, composed.locations()[l].name);
  }
  // The C++ plant-only builder's ids: Off = 0 ... L6 = 8, x = 1, Tp = 2.
  const std::vector<std::string> names = {"Off", "Dim", "Bright", "L1", "L2",
                                          "L3",  "L4",  "L5",     "L6"};
  for (tsystem::LocId l = 0; l < names.size(); ++l) {
    EXPECT_EQ(loc(plant, "IUT", names[l]), l) << names[l];
  }
  EXPECT_EQ(clock(plant, "x").id, 1u);
  EXPECT_EQ(clock(plant, "Tp").id, 2u);
  EXPECT_EQ(clock(plant, "x").id, clock(light.system, "x").id);
  EXPECT_EQ(clock(plant, "Tp").id, clock(light.system, "Tp").id);
  for (const char* name : {"touch", "dim", "bright", "off"}) {
    EXPECT_EQ(channel(plant, name).id, channel(light.system, name).id)
        << name;
  }
}

// ── Leader Election Protocol ──────────────────────────────────────────

// The paper's TP1-TP3, as lep.tg declares them.
const std::vector<std::string> kPaperPurposes = {
    "control: A<> (IUT.betterInfo == 1) and IUT.forward",
    "control: A<> forall (i : inUse) inUse[i] == 1",
    "control: A<> (forall (i : inUse) inUse[i] == 1) and IUT.idle",
};

TEST(LangRoundtrip, LepStructureIsPinned) {
  constexpr std::uint64_t kLepN3Fingerprint = 0x7edea141f5db2790ULL;
  const LoadedModel parsed = load_model(test_support::model_path("lep.tg"));
  EXPECT_EQ(decision::model_fingerprint(parsed.system), kLepN3Fingerprint);
  EXPECT_EQ(parsed.system.clock_names(),
            (std::vector<std::string>{"t0", "w", "e"}));
  ASSERT_EQ(parsed.purposes.size(), 3u);  // TP1-TP3
  for (std::size_t i = 0; i < kPaperPurposes.size(); ++i) {
    EXPECT_EQ(parsed.purposes[i].source, kPaperPurposes[i]);
  }
}

TEST(LangRoundtrip, LepVerdictsArePinnedOnAllThreePurposes) {
  const LoadedModel parsed = load_model(test_support::model_path("lep.tg"));
  const std::vector<Verdicts> pinned = {
      {true, 1377, 2538}, {true, 1377, 3802}, {true, 1377, 51}};
  for (std::size_t i = 0; i < kPaperPurposes.size(); ++i) {
    SCOPED_TRACE(kPaperPurposes[i]);
    // The file's purpose and the paper's TP text, on the parsed system.
    const Verdicts f = solve(parsed.system, parsed.purposes.at(i));
    const Verdicts p = solve(parsed.system, kPaperPurposes[i]);
    EXPECT_EQ(f.winning, pinned[i].winning);
    EXPECT_EQ(p.winning, pinned[i].winning);
    EXPECT_TRUE(f.winning);  // all three are controllable in the paper
    EXPECT_EQ(p.keys, pinned[i].keys);
    EXPECT_EQ(f.keys, pinned[i].keys);
    EXPECT_EQ(p.strategy_rows, pinned[i].strategy_rows);
  }
}

// A mutated purpose that is *not* controllable is pinned as well —
// equivalence has to hold on losses, not just wins (the IUT cannot be
// forced to elect while a better address is pending).
TEST(LangRoundtrip, LepUncontrollablePurposeIsPinned) {
  const LoadedModel parsed = load_lep(3);
  const Verdicts p =
      solve(parsed.system, "control: A<> (IUT.betterInfo == 1) and IUT.leader");
  EXPECT_FALSE(p.winning);
  EXPECT_EQ(p.keys, 1377u);
}

}  // namespace
}  // namespace tigat::lang
