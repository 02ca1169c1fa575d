// Unit tests for the simulated implementation, the SPEC monitor and
// the mutation operators.
#include <gtest/gtest.h>

#include <string>

#include "testing/monitor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"
#include "support/models.h"

namespace tigat::testing {
namespace {

using test_support::clock;
using test_support::load_smart_light;
using test_support::loc;
using test_support::process;

constexpr std::int64_t kScale = 16;

TEST(SimulatedImp, QuiescentUntilStimulated) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale);
  EXPECT_FALSE(imp.advance(100 * kScale).has_value());
  EXPECT_EQ(imp.state().locs[0], loc(plant, "IUT", "Off"));
}

TEST(SimulatedImp, UrgentOutputAfterTouch) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale, ImpPolicy{0, {}});
  ASSERT_TRUE(imp.offer_input("touch"));
  EXPECT_EQ(imp.state().locs[0], loc(plant, "IUT", "L1"));  // x=0 < Tidle
  const auto out = imp.advance(10 * kScale);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->channel, "dim");
  EXPECT_EQ(out->after_ticks, 0);  // output urgency
  EXPECT_EQ(imp.state().locs[0], loc(plant, "IUT", "Dim"));
}

TEST(SimulatedImp, LatencyDelaysTheOutput) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale, ImpPolicy{3 * kScale / 2, {}});
  ASSERT_TRUE(imp.offer_input("touch"));
  const auto out = imp.advance(10 * kScale);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->channel, "dim");
  EXPECT_EQ(out->after_ticks, 3 * kScale / 2);  // 1.5 time units
}

TEST(SimulatedImp, LatencyClampedToWindow) {
  // Latency 5 units, window 2 units: fires at the deadline.
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale, ImpPolicy{5 * kScale, {}});
  ASSERT_TRUE(imp.offer_input("touch"));
  const auto out = imp.advance(10 * kScale);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->after_ticks, 2 * kScale);
}

TEST(SimulatedImp, PreferenceBreaksOutputChoice) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  // Reach L5 (both dim! and bright! enabled): idle 20 units first.
  for (const std::string preferred : {"bright", "dim"}) {
    SimulatedImplementation imp(plant, kScale, ImpPolicy{0, {preferred}});
    EXPECT_FALSE(imp.advance(20 * kScale).has_value());
    ASSERT_TRUE(imp.offer_input("touch"));
    EXPECT_EQ(imp.state().locs[0], loc(plant, "IUT", "L5"));
    const auto out = imp.advance(kScale);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->channel, preferred);
  }
}

TEST(SimulatedImp, AdvanceSlicingIsInvariant) {
  // Many small advances must behave like one big one.
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale, ImpPolicy{kScale, {}});
  ASSERT_TRUE(imp.offer_input("touch"));
  std::int64_t waited = 0;
  std::optional<ObservedOutput> out;
  while (!out && waited < 10 * kScale) {
    out = imp.advance(3);  // awkward slice size on purpose
    waited += 3;
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->channel, "dim");
  // Fired one latency unit after the touch, regardless of slicing.
  EXPECT_LE(waited - 3, kScale);
  EXPECT_GE(waited, kScale);
}

TEST(SimulatedImp, AdvanceZeroFiresDueOutput) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale, ImpPolicy{0, {}});
  ASSERT_TRUE(imp.offer_input("touch"));
  const auto out = imp.advance(0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->channel, "dim");
}

TEST(SimulatedImp, ResetRestoresInitialState) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  SimulatedImplementation imp(plant, kScale);
  imp.offer_input("touch");
  imp.advance(5 * kScale);
  imp.reset();
  EXPECT_EQ(imp.state().locs[0], loc(plant, "IUT", "Off"));
  EXPECT_EQ(imp.state().clocks[clock(plant, "x").id], 0);
}

TEST(SpecMonitor, TracksObservedTrace) {
  const lang::LoadedModel spec = load_smart_light();
  SpecMonitor mon(spec.system, kScale);
  EXPECT_TRUE(mon.apply_delay(kScale));  // 1 unit: user may touch now
  EXPECT_TRUE(mon.apply_input("touch"));
  const std::uint32_t iut = process(spec.system, "IUT");
  EXPECT_EQ(mon.state().locs[iut], loc(spec.system, "IUT", "L1"));
  // Window: at most 2 units.
  EXPECT_EQ(mon.allowed_delay(), 2 * kScale);
  EXPECT_TRUE(mon.apply_delay(kScale));
  EXPECT_TRUE(mon.apply_output("dim"));
  EXPECT_EQ(mon.state().locs[iut], loc(spec.system, "IUT", "Dim"));
}

TEST(SpecMonitor, RejectsDisallowedOutput) {
  const lang::LoadedModel spec = load_smart_light();
  SpecMonitor mon(spec.system, kScale);
  // bright! is not possible from Off.
  EXPECT_FALSE(mon.apply_output("bright"));
  EXPECT_TRUE(mon.apply_delay(kScale));
  EXPECT_TRUE(mon.apply_input("touch"));
  // In L1 only dim! may occur (no bright! from L1).
  EXPECT_FALSE(mon.apply_output("bright"));
  EXPECT_TRUE(mon.apply_output("dim"));
}

TEST(SpecMonitor, RejectsOverlongDelay) {
  const lang::LoadedModel spec = load_smart_light();
  SpecMonitor mon(spec.system, kScale);
  EXPECT_TRUE(mon.apply_delay(kScale));
  EXPECT_TRUE(mon.apply_input("touch"));
  EXPECT_FALSE(mon.apply_delay(3 * kScale));  // window is 2 units
}

// Two IUT edges on each of touch? and dim!, enabled together.
constexpr char kTwinEdgesSpec[] = R"(
system twin_edges;
clock x;
chan ctrl touch;
chan unctrl dim;
process IUT uncontrolled {
  loc S; loc A; loc B;
  init S;
  edge S -> A on touch?;
  edge S -> B on touch?;
  edge S -> A on dim!;
  edge S -> B on dim!;
}
process User controlled {
  loc U;
  init U;
  edge U -> U on touch!;
  edge U -> U on dim?;
}
)";

// One edge per channel; bright! and buzz? assign outside v's range.
constexpr char kBadAssignmentSpec[] = R"(
system bad_assignment;
clock x;
chan ctrl touch, buzz;
chan unctrl bright;
int[0, 1] v = 0;
process IUT uncontrolled {
  loc S; loc A;
  init S;
  edge S -> A on touch?;
  edge S -> A on bright! do v := 2;
  edge S -> A on buzz? do v := 3;
}
process User controlled {
  loc U;
  init U;
  edge U -> U on touch!;
  edge U -> U on buzz!;
  edge U -> U on bright?;
}
)";

TEST(SpecMonitor, NondeterministicChannelThrowsFromInputAndOutput) {
  const lang::LoadedModel spec =
      lang::load_model_from_string(kTwinEdgesSpec, "twin_edges.tg");
  SpecMonitor mon(spec.system, kScale);
  const auto expect_nondeterministic = [&](bool input, const char* channel) {
    try {
      (void)(input ? mon.apply_input(channel) : mon.apply_output(channel));
    } catch (const tsystem::ModelError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("SPEC is nondeterministic on channel '") +
                    channel +
                    "' — the monitor requires a deterministic specification");
      return;
    }
    ADD_FAILURE() << channel << " did not throw";
  };
  expect_nondeterministic(true, "touch");
  expect_nondeterministic(false, "dim");
  // Neither call moved the monitor.
  EXPECT_EQ(mon.state().locs[process(spec.system, "IUT")],
            loc(spec.system, "IUT", "S"));
}

TEST(SpecMonitor, OutOfRangeAssignmentOnTheMatchedChannelThrows) {
  const lang::LoadedModel spec =
      lang::load_model_from_string(kBadAssignmentSpec, "bad_assignment.tg");
  SpecMonitor mon(spec.system, kScale);
  EXPECT_THROW((void)mon.apply_output("bright"), tsystem::ModelError);
  EXPECT_THROW((void)mon.apply_input("buzz"), tsystem::ModelError);
}

TEST(SpecMonitor, OnlyCandidatesOnTheObservedChannelAreEvaluated) {
  // The faulty bright! and buzz? edges are on other channels, so
  // touch? never evaluates their assignments.
  const lang::LoadedModel spec =
      lang::load_model_from_string(kBadAssignmentSpec, "bad_assignment.tg");
  SpecMonitor mon(spec.system, kScale);
  EXPECT_FALSE(mon.apply_output("touch"));  // touch is an input
  EXPECT_FALSE(mon.apply_input("nosuch"));
  EXPECT_TRUE(mon.apply_input("touch"));
  EXPECT_EQ(mon.state().locs[process(spec.system, "IUT")],
            loc(spec.system, "IUT", "A"));
}

TEST(Mutants, CloneIsStructurallyIdentical) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  const tsystem::System copy = tsystem::clone_system(plant);
  EXPECT_EQ(copy.clock_count(), plant.clock_count());
  EXPECT_EQ(copy.channels().size(), plant.channels().size());
  EXPECT_EQ(copy.processes().size(), plant.processes().size());
  EXPECT_EQ(copy.processes()[0].edges().size(),
            plant.processes()[0].edges().size());
  EXPECT_EQ(copy.max_constants(), plant.max_constants());
  EXPECT_EQ(copy.to_string(), plant.to_string());
}

TEST(Mutants, EnumerationCoversAllOperators) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  const auto mutants = enumerate_mutants(plant);
  EXPECT_GT(mutants.size(), 50u);
  for (const MutationKind kind :
       {MutationKind::kGuardShift, MutationKind::kGuardFlip,
        MutationKind::kTargetSwap, MutationKind::kOutputSwap,
        MutationKind::kEdgeDrop, MutationKind::kResetDrop,
        MutationKind::kInvariantWiden}) {
    const bool present =
        std::any_of(mutants.begin(), mutants.end(),
                    [&](const auto& m) { return m.kind == kind; });
    EXPECT_TRUE(present) << to_string(kind);
  }
}

TEST(Mutants, ApplyProducesValidDifferentSystem) {
  const tsystem::System plant = test_support::plant(load_smart_light().system);
  const auto mutants = enumerate_mutants(plant);
  int different = 0;
  for (const auto& m : mutants) {
    const tsystem::System mutated = apply_mutant(plant, m);
    EXPECT_TRUE(mutated.finalized());
    if (mutated.to_string() != plant.to_string()) ++different;
  }
  // Every mutant must actually change the model text (drop changes the
  // edge list, shifts change guards, ...).
  EXPECT_EQ(different, static_cast<int>(mutants.size()));
}

}  // namespace
}  // namespace tigat::testing
