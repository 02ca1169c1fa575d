// Golden report text: the campaign JSON and the run trace, byte for
// byte.  `run_model campaign --campaign-out`, tools/campaign_check.py
// and the byte-identical-report contract all read this text, so a
// change of one character fails here.  The goldens under tests/golden/
// were recorded from fixed-seed Smart Light campaigns; the inline ones
// pin the corner cases (escapes, extreme integers, the timing block).
//
// To re-record after an intended format change:
//   TIGAT_UPDATE_GOLDENS=1 ./build/campaign_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "decision/source.h"
#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"
#include "testing/campaign.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"

#ifndef TIGAT_GOLDEN_DIR
#error "TIGAT_GOLDEN_DIR must point at tests/golden"
#endif

namespace tigat::testing {
namespace {

using game::GameSolver;
using game::Strategy;
using test_support::load_smart_light;
using test_support::model_path;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;
constexpr char kFaults[] = "drop=0.05,delay=0..8,dup=0.05";
constexpr std::size_t kRuns = 12;

std::string golden_path(const std::string& name) {
  return std::string(TIGAT_GOLDEN_DIR) + "/" + name;
}

// Compares `actual` with tests/golden/<name>, or rewrites the file when
// TIGAT_UPDATE_GOLDENS is set.
void expect_golden(const std::string& name, const std::string& actual) {
  if (std::getenv("TIGAT_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(golden_path(name), std::ios::binary) << actual;
    return;
  }
  std::ifstream in(golden_path(name), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << golden_path(name);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string expected = text.str();
  if (actual == expected) return;
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    ++at;
  }
  const std::size_t from = at < 40 ? 0 : at - 40;
  ADD_FAILURE() << name << " differs at byte " << at << " (" << actual.size()
                << " bytes, golden " << expected.size() << ")\n  actual: ..."
                << actual.substr(from, 80) << "\n  golden: ..."
                << expected.substr(from, 80);
}

CampaignOptions faulty_options(std::uint64_t seed) {
  CampaignOptions opts;
  opts.runs = kRuns;
  opts.retries = 2;
  opts.fault_spec = kFaults;
  opts.fault_seed = seed;
  return opts;
}

class CampaignGolden : public ::testing::Test {
 protected:
  CampaignGolden()
      : light_(load_smart_light()),
        lamp_(lang::load_model(model_path("smart_light_safety.tg"))),
        light_plant_(test_support::plant(light_.system)),
        lamp_plant_(test_support::plant(lamp_.system)) {}

  [[nodiscard]] Strategy reach() const {
    return Strategy(
        GameSolver(light_.system, light_.purposes.at(0)).solve());
  }

  // A[] IUT.On, PASS after 100 model time units.
  [[nodiscard]] CampaignReport safety(std::uint64_t seed) const {
    const Strategy strat(
        GameSolver(lamp_.system, lamp_.purposes.at(0)).solve());
    const decision::StrategySource source(strat);
    SimulatedImplementation imp(lamp_plant_, kScale, ImpPolicy{kScale, {}});
    CampaignOptions opts = faulty_options(seed);
    opts.executor.purpose = lamp_.purposes.at(0);
    opts.executor.pass_ticks = 100 * kScale;
    return campaign_run(source, lamp_.system, imp, kScale, opts);
  }

  lang::LoadedModel light_;
  lang::LoadedModel lamp_;
  tsystem::System light_plant_;
  tsystem::System lamp_plant_;
};

TEST_F(CampaignGolden, ReachBehindFaults) {
  const Strategy strat = reach();
  const decision::StrategySource source(strat);
  SimulatedImplementation imp(light_plant_, kScale, ImpPolicy{kScale, {}});
  const CampaignReport report =
      campaign_run(source, light_.system, imp, kScale, faulty_options(7));
  EXPECT_GT(report.retries_used, 0u);
  expect_golden("campaign_reach.json", report.to_json());
}

TEST_F(CampaignGolden, CooperativeBehindFaults) {
  const TestPurpose purpose =
      TestPurpose::parse(light_.system, "control: A<> IUT.L6");
  const game::CooperativeResult coop =
      game::solve_cooperative(light_.system, purpose);
  ASSERT_TRUE(coop.reachable);
  const Strategy plan(coop.solution);
  const decision::StrategySource source(plan);
  SimulatedImplementation imp(light_plant_, kScale,
                              ImpPolicy{2 * kScale, {}});
  const CampaignReport report = campaign_run_cooperative(
      light_.system, source, imp, kScale, faulty_options(8));
  expect_golden("campaign_cooperative.json", report.to_json());
}

TEST_F(CampaignGolden, SafetyWithPassTicksBehindFaults) {
  const CampaignReport report = safety(9);
  EXPECT_GT(report.passes, 0u);
  expect_golden("campaign_safety.json", report.to_json());
}

TEST_F(CampaignGolden, KilledMutant) {
  const Strategy strat = reach();
  const decision::StrategySource source(strat);
  const auto mutants = enumerate_mutants(light_plant_);
  const tsystem::System mutated = apply_mutant(light_plant_, mutants.at(3));
  SimulatedImplementation imp(mutated, kScale, ImpPolicy{0, {}});
  CampaignOptions opts;
  opts.runs = 2;
  const CampaignReport report =
      campaign_run(source, light_.system, imp, kScale, opts);
  EXPECT_EQ(report.verdict, CampaignVerdict::kFail);
  expect_golden("campaign_mutant.json", report.to_json());
}

// A safety run that PASSes on its tick budget: a long trace of delays.
TEST_F(CampaignGolden, TraceWithManyDelays) {
  const CampaignReport report = safety(9);
  const TestReport& run = report.outcomes.at(0).report;
  std::size_t delays = 0;
  for (const TraceEvent& e : run.trace) {
    if (e.kind == TraceEvent::Kind::kDelay) ++delays;
  }
  EXPECT_GT(delays, 10u);
  expect_golden("trace_safety.txt", run.trace_string() + "\n");
}

TEST(CampaignText, TraceExtremeTicks) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  TestReport report;
  EXPECT_EQ(report.trace_string(), "");
  report.trace = {{TraceEvent::Kind::kInput, "touch", 0},
                  {TraceEvent::Kind::kDelay, "", 0},
                  {TraceEvent::Kind::kDelay, "", -1},
                  {TraceEvent::Kind::kDelay, "", kMin},
                  {TraceEvent::Kind::kDelay, "", kMax},
                  {TraceEvent::Kind::kOutput, "dim", 0},
                  {TraceEvent::Kind::kInput, "", 0}};
  EXPECT_EQ(report.trace_string(),
            "touch! . 0 . -1 . -9223372036854775808 . 9223372036854775807 . "
            "dim? . !");
}

TEST(CampaignText, EscapesExtremesAndTiming) {
  CampaignReport report;
  report.verdict = CampaignVerdict::kUnresponsive;
  report.runs = 1;
  report.inconclusive = 1;
  report.attempts = 3;
  report.retries_used = 2;
  report.deadline_hits = std::numeric_limits<std::size_t>::max();
  report.fault_spec = "q\"b\\n\nt\t\x01\x1f";
  report.fault_seed = std::numeric_limits<std::uint64_t>::max();
  report.run_deadline_ms = std::numeric_limits<std::int64_t>::min();
  report.retries = 0;
  RunOutcome o;
  o.run = 0;
  o.attempts = 3;
  o.seed = 0;
  o.report.verdict = Verdict::kInconclusive;
  o.report.code = ReasonCode::kImpCrash;
  o.report.detail = "crash \"here\"\x7f";
  o.report.steps = 0;
  o.report.total_ticks = -1;
  o.report.harness_faults = 1;
  o.report.trace = {{TraceEvent::Kind::kOutput, "a\"b", 0},
                    {TraceEvent::Kind::kDelay, "", 5}};
  o.attempt_codes = {ReasonCode::kHarnessHang, ReasonCode::kHarnessFault,
                     ReasonCode::kImpCrash};
  report.outcomes.push_back(o);
  o.run = 1;
  o.attempt_codes.clear();
  o.report.trace.clear();
  report.outcomes.push_back(o);
  report.has_timing = true;
  report.run_ms = {1, 2, 3, 4};
  report.decide_ns = {std::numeric_limits<std::uint64_t>::max(), 0, 10, 100};
  EXPECT_EQ(
      report.to_json(),
      "{\"schema\": \"tigat.campaign\", \"version\": 1, \"verdict\": "
      "\"unresponsive\", \"runs\": 1, \"passes\": 0, \"fails\": 0, "
      "\"inconclusive\": 1, \"attempts\": 3, \"retries_used\": 2, "
      "\"deadline_hits\": 18446744073709551615, \"fault_spec\": "
      "\"q\\\"b\\\\n\\nt\\t\\u0001\\u001f\", \"fault_seed\": "
      "18446744073709551615, \"run_deadline_ms\": -9223372036854775808, "
      "\"retries\": 0, \"outcomes\": [{\"run\": 0, \"attempts\": 3, "
      "\"seed\": 0, \"verdict\": \"inconclusive\", \"code\": \"imp-crash\", "
      "\"detail\": \"crash \\\"here\\\"\x7f\", \"steps\": 0, "
      "\"total_ticks\": -1, \"harness_faults\": 1, \"trace\": "
      "\"a\\\"b? . 5\", \"attempt_codes\": [\"harness-hang\", "
      "\"harness-fault\", \"imp-crash\"]}, {\"run\": 1, \"attempts\": 3, "
      "\"seed\": 0, \"verdict\": \"inconclusive\", \"code\": \"imp-crash\", "
      "\"detail\": \"crash \\\"here\\\"\x7f\", \"steps\": 0, "
      "\"total_ticks\": -1, \"harness_faults\": 1, \"trace\": \"\", "
      "\"attempt_codes\": []}], \"timing\": {\"run_ms\": {\"count\": 1, "
      "\"p50\": 2, \"p90\": 3, \"p99\": 4}, \"decide_latency_ns\": "
      "{\"count\": 18446744073709551615, \"p50\": 0, \"p90\": 10, "
      "\"p99\": 100}}}\n");
}

}  // namespace
}  // namespace tigat::testing
