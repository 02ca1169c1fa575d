// Tests for cooperative test generation and execution (paper
// future-work item 4) and the rebuild utilities behind it.
#include <gtest/gtest.h>

#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"

namespace tigat::testing {
namespace {

using game::GameSolver;
using game::Strategy;
using test_support::load_smart_light;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;

TEST(Rebuild, RelaxAllControllableFlipsThePartition) {
  const lang::LoadedModel m = load_smart_light();
  const tsystem::System relaxed =
      tsystem::relax_all_controllable(m.system);
  for (const auto& p : relaxed.processes()) {
    for (const auto& e : p.edges()) {
      EXPECT_TRUE(relaxed.edge_controllable(p, e));
    }
  }
  // Structure preserved.
  EXPECT_EQ(relaxed.clock_count(), m.system.clock_count());
  EXPECT_EQ(relaxed.processes().size(), m.system.processes().size());
}

TEST(Cooperative, L6UnwinnableButCooperativelyReachable) {
  const lang::LoadedModel m = load_smart_light();
  const auto purpose = TestPurpose::parse(m.system, "control: A<> IUT.L6");
  GameSolver strict(m.system, purpose);
  EXPECT_FALSE(strict.solve()->winning_from_initial());

  const auto coop = game::solve_cooperative(m.system, purpose);
  EXPECT_TRUE(coop.reachable);
}

TEST(Cooperative, WinnablePurposesStayWinnableUnderRelaxation) {
  // Relaxation only helps: every controllable purpose must remain
  // cooperatively reachable.
  const lang::LoadedModel m = load_smart_light();
  for (const char* prop :
       {"control: A<> IUT.Bright", "control: A<> IUT.Dim"}) {
    const auto purpose = TestPurpose::parse(m.system, prop);
    GameSolver strict(m.system, purpose);
    ASSERT_TRUE(strict.solve()->winning_from_initial()) << prop;
    EXPECT_TRUE(game::solve_cooperative(m.system, purpose).reachable) << prop;
  }
}

TEST(Cooperative, PatientImpCooperatesToPass) {
  const lang::LoadedModel spec = load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);
  const auto purpose = TestPurpose::parse(spec.system, "control: A<> IUT.L6");
  auto coop = game::solve_cooperative(spec.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);

  SimulatedImplementation imp(plant, kScale, ImpPolicy{2 * kScale, {}});
  auto exec = TestExecutor::cooperative(spec.system, plan, imp, kScale);
  const TestReport report = exec.run();
  EXPECT_EQ(report.verdict, Verdict::kPass) << report.detail;
}

TEST(Cooperative, EagerImpYieldsInconclusiveNotFail) {
  const lang::LoadedModel spec = load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);
  const auto purpose = TestPurpose::parse(spec.system, "control: A<> IUT.L6");
  auto coop = game::solve_cooperative(spec.system, purpose);
  Strategy plan(coop.solution);

  // Latency 0: the light answers the reactivating touch immediately —
  // legal behaviour that ruins the plan.  Must NOT be a fail.
  SimulatedImplementation imp(plant, kScale, ImpPolicy{0, {}});
  auto exec = TestExecutor::cooperative(spec.system, plan, imp, kScale);
  const TestReport report = exec.run();
  EXPECT_EQ(report.verdict, Verdict::kInconclusive) << report.detail;
}

TEST(Cooperative, SoundnessStillFailsBrokenImp) {
  // Use a purpose whose cooperative plan has output obligations on the
  // path (A<> Bright hopes for bright!); lazy mutants with widened
  // windows then miss deadlines — a sound FAIL even in cooperative
  // mode.  (The L6 plan, by contrast, reaches its goal on inputs alone
  // and can never fail — a run is judged only by what is observed.)
  const lang::LoadedModel spec = load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);
  const auto purpose =
      TestPurpose::parse(spec.system, "control: A<> IUT.Bright");
  auto coop = game::solve_cooperative(spec.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);

  const auto mutants = enumerate_mutants(plant);
  bool found = false;
  for (const auto& m : mutants) {
    const tsystem::System mutated = apply_mutant(plant, m);
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{3 * kScale, {}});
    auto exec = TestExecutor::cooperative(spec.system, plan, imp, kScale);
    if (exec.run().verdict == Verdict::kFail) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cooperative, CooperativeRunOnWinnablePurposeAlsoPasses) {
  // A cooperative plan for a purpose that IS controllable behaves like
  // ordinary testing when the IMP happens to cooperate.
  const lang::LoadedModel spec = load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);
  const auto purpose =
      TestPurpose::parse(spec.system, "control: A<> IUT.Dim");
  auto coop = game::solve_cooperative(spec.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);
  SimulatedImplementation imp(plant, kScale, ImpPolicy{kScale, {}});
  auto exec = TestExecutor::cooperative(spec.system, plan, imp, kScale);
  const TestReport report = exec.run();
  EXPECT_NE(report.verdict, Verdict::kFail) << report.detail;
}

}  // namespace
}  // namespace tigat::testing
