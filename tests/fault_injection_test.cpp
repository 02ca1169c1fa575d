// Chaos suite: deterministic fault injection at the IUT boundary and
// the resilient campaign layer above it.
//
// The properties under test are the robustness analogue of the paper's
// Theorem 10 (soundness): under ANY injected boundary fault schedule
//   * no run hangs past its wall-clock deadline,
//   * no injected crash escapes as an exception,
//   * every FAIL verdict is reproducible with faults disabled
//     (injected faults provably never produce a false FAIL),
//   * identical (seed, spec) inputs yield byte-identical campaign
//     reports.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "decision/source.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"
#include "testing/campaign.h"
#include "testing/executor.h"
#include "testing/faults.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"
#include "util/stopwatch.h"

namespace tigat::testing {
namespace {

using test_support::load_lep;
using game::GameSolver;
using game::Strategy;
using test_support::load_smart_light;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;

// ---------------------------------------------------------------- spec

TEST(FaultSpec, ParsesFullGrammarAndRoundTrips) {
  const FaultSpec s =
      FaultSpec::parse("drop=0.05,delay=0..8,dup=0.01,hang@step=40,"
                       "crash@step=120,spurious=0.02,reject=0.1");
  EXPECT_DOUBLE_EQ(s.drop, 0.05);
  EXPECT_DOUBLE_EQ(s.dup, 0.01);
  EXPECT_DOUBLE_EQ(s.spurious, 0.02);
  EXPECT_DOUBLE_EQ(s.reject, 0.1);
  EXPECT_EQ(s.delay_lo, 0);
  EXPECT_EQ(s.delay_hi, 8);
  EXPECT_EQ(s.hang_at_step, 40u);
  EXPECT_EQ(s.crash_at_step, 120u);
  EXPECT_TRUE(s.any());

  // Canonical string round-trips to the same spec regardless of the
  // clause order it was first written in.
  const FaultSpec again = FaultSpec::parse(s.to_string());
  EXPECT_EQ(again.to_string(), s.to_string());
}

TEST(FaultSpec, EmptyStringIsEmptySpec) {
  const FaultSpec s = FaultSpec::parse("");
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.to_string(), "");
}

TEST(FaultSpec, RejectsMalformedClauses) {
  EXPECT_THROW((void)FaultSpec::parse("drop=2"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("drop=nope"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("bogus=0.5"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("delay=8..2"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("hang@step=0"), FaultSpecError);
  EXPECT_THROW((void)FaultSpec::parse("drop"), FaultSpecError);
}

// -------------------------------------------------------------- chaos

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest()
      : spec_(load_smart_light()), plant_(test_support::plant(spec_.system)) {}

  [[nodiscard]] Strategy strategy_for(const std::string& prop) const {
    GameSolver solver(spec_.system, TestPurpose::parse(spec_.system, prop));
    return Strategy(solver.solve());
  }

  [[nodiscard]] CampaignReport campaign(const Strategy& strat,
                                        Implementation& imp,
                                        CampaignOptions opts) const {
    const decision::StrategySource source(strat);
    return campaign_run(source, spec_.system, imp, kScale, opts);
  }

  lang::LoadedModel spec_;
  tsystem::System plant_;
};

TEST_F(ChaosTest, EmptySpecIsExactPassThrough) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");

  SimulatedImplementation bare(plant_, kScale, ImpPolicy{kScale, {}});
  TestExecutor bare_exec(strat, bare, kScale);
  const TestReport clean = bare_exec.run();

  SimulatedImplementation inner(plant_, kScale, ImpPolicy{kScale, {}});
  FaultInjector injector(inner, FaultSpec{}, 42);
  TestExecutor exec(strat, injector, kScale);
  const TestReport wrapped = exec.run();

  EXPECT_EQ(wrapped.verdict, Verdict::kPass) << wrapped.detail;
  EXPECT_EQ(wrapped.harness_faults, 0u);
  EXPECT_EQ(wrapped.trace_string(), clean.trace_string());
}

// The core guarantee: a CONFORMING implementation never FAILs, no
// matter what the boundary does to its outputs — a sweep of seeds over
// a heavy fault mix must produce zero FAIL verdicts.
TEST_F(ChaosTest, NoFalseFailOnConformingImpAcrossSeeds) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  CampaignOptions opts;
  opts.runs = 3;
  opts.retries = 2;
  opts.fault_spec = "drop=0.3,delay=0..16,dup=0.15,spurious=0.1,reject=0.25";

  std::uint64_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    opts.fault_seed = seed;
    SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});
    const CampaignReport report = campaign(strat, imp, opts);
    EXPECT_EQ(report.fails, 0u)
        << "false FAIL at seed " << seed << ": "
        << report.to_json();
    for (const RunOutcome& o : report.outcomes) {
      // The soundness invariant: FAIL implies a clean channel.
      if (o.report.verdict == Verdict::kFail) {
        EXPECT_EQ(o.report.harness_faults, 0u);
      }
      injected += o.report.harness_faults;
    }
  }
  // The sweep must actually have exercised the injector.
  EXPECT_GT(injected, 50u);
}

// Completeness is not sacrificed: a genuinely broken IMP caught under
// faults must still be caught with faults disabled — every chaos FAIL
// reproduces on a clean boundary.
TEST_F(ChaosTest, ChaosFailsReproduceWithFaultsDisabled) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  const auto mutants = enumerate_mutants(plant_);
  CampaignOptions opts;
  opts.runs = 2;
  opts.retries = 3;
  opts.fault_spec = "drop=0.1,delay=0..8,dup=0.05";
  opts.fault_seed = 7;

  std::size_t chaos_fails = 0;
  for (const auto& m : mutants) {
    const tsystem::System mutated = apply_mutant(plant_, m);
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{0, {}});
    const CampaignReport report = campaign(strat, imp, opts);
    if (report.verdict != CampaignVerdict::kFail) continue;
    ++chaos_fails;

    SimulatedImplementation clean_imp(mutated, kScale, ImpPolicy{0, {}});
    TestExecutor clean_exec(strat, clean_imp, kScale);
    const TestReport clean = clean_exec.run();
    EXPECT_EQ(clean.verdict, Verdict::kFail)
        << "FAIL under faults did not reproduce cleanly for mutant "
        << m.description << " — the chaos verdict was unsound";
  }
  EXPECT_GT(chaos_fails, 0u) << "no mutant was killed under faults; the "
                                "reproducibility check never ran";
}

TEST_F(ChaosTest, InjectedHangEndsWithTheDeadline) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  CampaignOptions opts;
  opts.runs = 2;
  opts.run_deadline_ms = 200;
  opts.fault_spec = "hang@step=5";
  SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});

  util::Stopwatch watch;
  const CampaignReport report = campaign(strat, imp, opts);
  // 2 runs x 200 ms budget; anything near seconds means the hang
  // escaped its deadline.
  EXPECT_LT(watch.milliseconds(), 5000.0);
  EXPECT_EQ(report.verdict, CampaignVerdict::kUnresponsive);
  EXPECT_EQ(report.deadline_hits, 2u);
  for (const RunOutcome& o : report.outcomes) {
    EXPECT_EQ(o.report.verdict, Verdict::kInconclusive);
    EXPECT_EQ(o.report.code, ReasonCode::kHarnessHang) << o.report.detail;
  }
}

TEST_F(ChaosTest, HangWithoutArmedDeadlineRefusesToBlock) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  SimulatedImplementation inner(plant_, kScale, ImpPolicy{kScale, {}});
  FaultInjector injector(inner, FaultSpec::parse("hang@step=3"), 1);
  TestExecutor exec(strat, injector, kScale);

  util::Stopwatch watch;
  const TestReport report = exec.run();
  EXPECT_LT(watch.milliseconds(), 1000.0);
  EXPECT_EQ(report.verdict, Verdict::kInconclusive);
  EXPECT_EQ(report.code, ReasonCode::kHarnessHang) << report.detail;
}

TEST_F(ChaosTest, InjectedCrashIsContained) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  CampaignOptions opts;
  opts.runs = 2;
  opts.fault_spec = "crash@step=3";
  SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});

  // Must not throw out of campaign_run.
  const CampaignReport report = campaign(strat, imp, opts);
  EXPECT_EQ(report.verdict, CampaignVerdict::kUnresponsive);
  for (const RunOutcome& o : report.outcomes) {
    EXPECT_EQ(o.report.verdict, Verdict::kInconclusive);
    EXPECT_EQ(o.report.code, ReasonCode::kImpCrash) << o.report.detail;
  }
}

TEST_F(ChaosTest, IdenticalSeedAndSpecGiveByteIdenticalReports) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  CampaignOptions opts;
  opts.runs = 4;
  opts.retries = 2;
  opts.fault_spec = "drop=0.25,delay=0..8,dup=0.1";
  opts.fault_seed = 11;

  SimulatedImplementation imp_a(plant_, kScale, ImpPolicy{kScale, {}});
  SimulatedImplementation imp_b(plant_, kScale, ImpPolicy{kScale, {}});
  const std::string json_a = campaign(strat, imp_a, opts).to_json();
  const std::string json_b = campaign(strat, imp_b, opts).to_json();
  EXPECT_EQ(json_a, json_b);

  opts.fault_seed = 12;
  SimulatedImplementation imp_c(plant_, kScale, ImpPolicy{kScale, {}});
  EXPECT_NE(campaign(strat, imp_c, opts).to_json(), json_a);
}

TEST_F(ChaosTest, RetriesRecoverRunsAcrossTheSweep) {
  const Strategy strat = strategy_for("control: A<> IUT.Bright");
  CampaignOptions opts;
  opts.runs = 2;
  opts.retries = 4;
  opts.fault_spec = "drop=0.5,reject=0.5";

  bool recovered = false;
  for (std::uint64_t seed = 1; seed <= 20 && !recovered; ++seed) {
    opts.fault_seed = seed;
    SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});
    const CampaignReport report = campaign(strat, imp, opts);
    // A run whose first attempt was inconclusive but whose final
    // verdict is PASS is a retry doing its job.
    for (const RunOutcome& o : report.outcomes) {
      if (o.attempts > 1 && o.report.verdict == Verdict::kPass) {
        recovered = true;
      }
    }
  }
  EXPECT_TRUE(recovered);
}

// LEP leg: the same no-false-FAIL sweep on the paper's second model.
TEST(ChaosLep, NoFalseFailOnConformingLep) {
  const lang::LoadedModel m = load_lep(3);
  GameSolver solver(m.system, m.purposes[0]);
  const Strategy strat{solver.solve()};
  const decision::StrategySource source(strat);
  const tsystem::System plant = tsystem::extract_process(m.system, "IUT");

  CampaignOptions opts;
  opts.runs = 2;
  opts.retries = 2;
  opts.fault_spec = "drop=0.2,delay=0..4,dup=0.1,reject=0.2";
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    opts.fault_seed = seed;
    SimulatedImplementation imp(plant, kScale);
    const CampaignReport report =
        campaign_run(source, m.system, imp, kScale, opts);
    EXPECT_EQ(report.fails, 0u)
        << "false FAIL at seed " << seed << ": " << report.to_json();
  }
}

TEST(ChaosLep, ChaosFailsOnLepMutantsReproduceCleanly) {
  const lang::LoadedModel m = load_lep(3);
  GameSolver solver(m.system, m.purposes[0]);
  const Strategy strat{solver.solve()};
  const decision::StrategySource source(strat);
  const tsystem::System plant = tsystem::extract_process(m.system, "IUT");
  const auto mutants = enumerate_mutants(plant);

  CampaignOptions opts;
  opts.runs = 1;
  opts.retries = 2;
  opts.fault_spec = "delay=0..2,dup=0.05";
  opts.fault_seed = 3;

  std::size_t chaos_fails = 0;
  // A slice of the mutant space keeps the leg fast; the smart-light
  // fixture covers every operator.
  for (std::size_t i = 0; i < mutants.size() && chaos_fails < 3; i += 2) {
    const tsystem::System mutated = apply_mutant(plant, mutants[i]);
    SimulatedImplementation imp(mutated, kScale);
    const CampaignReport report =
        campaign_run(source, m.system, imp, kScale, opts);
    if (report.verdict != CampaignVerdict::kFail) continue;
    ++chaos_fails;

    SimulatedImplementation clean_imp(mutated, kScale);
    TestExecutor clean_exec(strat, clean_imp, kScale);
    EXPECT_EQ(clean_exec.run().verdict, Verdict::kFail)
        << mutants[i].description;
  }
  EXPECT_GT(chaos_fails, 0u);
}

// ------------------------------------------------- idle_wait_cap path

// A strategy that always says "wait" with no next decision point, over
// a SPEC with no invariant deadline: nothing bounds the wait.  The
// executor must surface that as INCONCLUSIVE / kUnboundedWait, not
// silently sleep the cap and loop (satellite: idle_wait_cap coverage).
class EternalDelaySource final : public decision::DecisionSource {
 public:
  [[nodiscard]] game::Move decide(const semantics::ConcreteState&,
                                  std::int64_t) const override {
    game::Move move;
    move.kind = game::MoveKind::kDelay;
    move.next_decision_ticks = game::Move::kNoDecision;
    return move;
  }
  [[nodiscard]] semantics::TransitionInstance edge_instance(
      std::uint32_t) const override {
    throw std::logic_error("EternalDelaySource never picks an edge");
  }
};

TEST(IdleWaitCap, UnboundedQuiescenceIsInconclusiveNotSilent) {
  // One-process SPEC, no invariants: the monitor never imposes a
  // deadline, and the IUT (same plant) stays quiescent forever.
  tsystem::System sys("idle");
  sys.add_channel("ping", tsystem::Controllability::kUncontrollable);
  auto& p = sys.add_process("IUT", tsystem::Controllability::kUncontrollable);
  p.add_location("L0");
  p.set_initial(0);
  sys.finalize();

  SimulatedImplementation imp(sys, kScale);
  EternalDelaySource source;
  ExecutorOptions options;
  options.idle_wait_cap = 64;  // keep the single capped wait tiny
  TestExecutor exec(source, sys, imp, kScale, options);
  const TestReport report = exec.run();
  EXPECT_EQ(report.verdict, Verdict::kInconclusive);
  EXPECT_EQ(report.code, ReasonCode::kUnboundedWait) << report.detail;
  // Exactly one capped probe, not a step-budget burn.
  EXPECT_LE(report.steps, 2u);
}

}  // namespace
}  // namespace tigat::testing
