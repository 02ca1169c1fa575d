// Flight recorder + explain suite: the run ledger contracts that make
// every non-PASS verdict a replayable, self-explaining artifact.
//
// The properties under test:
//   * determinism — identical (seed, spec, model) inputs produce
//     byte-identical ledgers, at any solver thread count, across
//     repeated campaigns;
//   * neutrality — attaching the recorder changes NOTHING observable:
//     campaign JSON is byte-identical recorded vs unrecorded (metrics
//     off) and every behavioural counter delta matches (metrics on);
//   * explainability — a mutant FAIL's ledger names the failing step,
//     the reason code, the expected-vs-observed output sets, and the
//     injected-fault interleaving, in both machine and human form;
//   * economy — PASS attempts leave no ledgers behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "decision/source.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "support/models.h"
#include "testing/campaign.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"

namespace tigat::testing {
namespace {

using game::GameSolver;
using game::SolverOptions;
using game::Strategy;
using test_support::load_smart_light;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;
constexpr char kProperty[] = "control: A<> IUT.Bright";

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest()
      : spec_(load_smart_light()), plant_(test_support::plant(spec_.system)) {}

  [[nodiscard]] Strategy strategy_with_threads(unsigned threads) const {
    SolverOptions sopts;
    sopts.threads = threads;
    GameSolver solver(spec_.system, TestPurpose::parse(spec_.system, kProperty),
                      sopts);
    return Strategy(solver.solve());
  }

  [[nodiscard]] CampaignReport campaign(const Strategy& strat,
                                        Implementation& imp,
                                        const CampaignOptions& opts) const {
    const decision::StrategySource source(strat);
    return campaign_run(source, spec_.system, imp, kScale, opts);
  }

  // Every ledger of every outcome, concatenated in journal order — the
  // byte string two equal campaigns must agree on.
  [[nodiscard]] static std::string all_ledgers(const CampaignReport& report) {
    std::string out;
    for (const RunOutcome& o : report.outcomes) {
      for (const obs::RunLedger& led : o.ledgers) out += led.to_jsonl();
    }
    return out;
  }

  lang::LoadedModel spec_;
  tsystem::System plant_;
};

// ------------------------------------------------------- determinism

TEST_F(LedgerTest, ByteIdenticalAcrossSolverThreadCounts) {
  const Strategy serial = strategy_with_threads(1);
  const Strategy parallel = strategy_with_threads(8);

  CampaignOptions opts;
  opts.runs = 3;
  opts.retries = 1;
  opts.fault_spec = "drop=0.4,reject=0.4,delay=0..4";
  opts.fault_seed = 5;
  opts.record_ledgers = true;

  SimulatedImplementation imp_a(plant_, kScale, ImpPolicy{kScale, {}});
  SimulatedImplementation imp_b(plant_, kScale, ImpPolicy{kScale, {}});
  const CampaignReport a = campaign(serial, imp_a, opts);
  const CampaignReport b = campaign(parallel, imp_b, opts);

  EXPECT_EQ(a.to_json(), b.to_json());
  const std::string ledgers_a = all_ledgers(a);
  EXPECT_EQ(ledgers_a, all_ledgers(b));
  // The fault mix above must actually have produced non-PASS attempts,
  // or the byte comparison compared two empty strings.
  EXPECT_FALSE(ledgers_a.empty());
}

TEST_F(LedgerTest, RepeatedCampaignsProduceByteIdenticalLedgers) {
  const Strategy strat = strategy_with_threads(1);
  CampaignOptions opts;
  opts.runs = 3;
  opts.retries = 2;
  opts.fault_spec = "drop=0.4,reject=0.4";
  opts.fault_seed = 13;
  opts.record_ledgers = true;

  SimulatedImplementation imp_a(plant_, kScale, ImpPolicy{kScale, {}});
  SimulatedImplementation imp_b(plant_, kScale, ImpPolicy{kScale, {}});
  const std::string a = all_ledgers(campaign(strat, imp_a, opts));
  const std::string b = all_ledgers(campaign(strat, imp_b, opts));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());

  // A different seed journals a different story.
  opts.fault_seed = 14;
  SimulatedImplementation imp_c(plant_, kScale, ImpPolicy{kScale, {}});
  EXPECT_NE(all_ledgers(campaign(strat, imp_c, opts)), a);
}

// -------------------------------------------------------- neutrality

TEST_F(LedgerTest, RecordedAndUnrecordedCampaignsAreByteIdentical) {
  ASSERT_FALSE(obs::metrics_enabled())
      << "this comparison needs the metrics-off (wall-clock-free) JSON";
  const Strategy strat = strategy_with_threads(1);
  CampaignOptions opts;
  opts.runs = 3;
  opts.retries = 2;
  opts.fault_spec = "drop=0.3,delay=0..8,dup=0.1";
  opts.fault_seed = 11;

  opts.record_ledgers = false;
  SimulatedImplementation imp_plain(plant_, kScale, ImpPolicy{kScale, {}});
  const std::string plain = campaign(strat, imp_plain, opts).to_json();

  opts.record_ledgers = true;
  SimulatedImplementation imp_rec(plant_, kScale, ImpPolicy{kScale, {}});
  EXPECT_EQ(campaign(strat, imp_rec, opts).to_json(), plain);
}

TEST_F(LedgerTest, RecordingCausesZeroCounterDrift) {
  const Strategy strat = strategy_with_threads(1);
  CampaignOptions opts;
  opts.runs = 2;
  opts.retries = 2;
  opts.fault_spec = "drop=0.3,delay=0..8,dup=0.1,reject=0.2";
  opts.fault_seed = 17;

  // Behavioural counters only — gauges and histogram sums are
  // wall-clock-fed and legitimately drift between any two runs.
  const std::vector<std::string> kCounters = {
      "executor.runs",   "executor.steps",   "executor.inputs",
      "executor.outputs", "executor.delays", "faults.drop",
      "faults.delay",    "faults.dup",       "faults.reject",
      "campaign.runs",   "campaign.retries", "campaign.attempts",
      "campaign.faults_injected",
  };
  obs::enable_metrics();
  const auto sample = [&] {
    std::vector<std::uint64_t> values;
    for (const auto& name : kCounters) {
      values.push_back(obs::metrics().counter(name).value());
    }
    return values;
  };
  const auto delta = [](const std::vector<std::uint64_t>& before,
                        const std::vector<std::uint64_t>& after) {
    std::vector<std::uint64_t> d;
    for (std::size_t i = 0; i < before.size(); ++i) {
      d.push_back(after[i] - before[i]);
    }
    return d;
  };

  opts.record_ledgers = false;
  SimulatedImplementation imp_plain(plant_, kScale, ImpPolicy{kScale, {}});
  const auto before_plain = sample();
  (void)campaign(strat, imp_plain, opts);
  const auto plain = delta(before_plain, sample());

  opts.record_ledgers = true;
  SimulatedImplementation imp_rec(plant_, kScale, ImpPolicy{kScale, {}});
  const auto before_rec = sample();
  (void)campaign(strat, imp_rec, opts);
  const auto rec = delta(before_rec, sample());

  // The step-latency histogram (satellite of this PR) must have been
  // fed while metrics were on.
  const std::uint64_t step_samples =
      obs::metrics()
          .histogram("executor.step_ns", obs::latency_buckets_ns())
          .count();
  obs::disable_metrics();

  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    EXPECT_EQ(plain[i], rec[i])
        << "recording drifted counter " << kCounters[i];
  }
  EXPECT_GT(step_samples, 0u);
}

// ----------------------------------------------------------- explain

// A mutant killed over a CLEAN boundary: the ledger and its explain
// must pinpoint the verdict — step, code, expected vs observed — and
// agree with the executor's report.
TEST_F(LedgerTest, MutantFailLedgerExplainsItself) {
  const Strategy strat = strategy_with_threads(1);
  CampaignOptions opts;
  opts.runs = 1;
  opts.record_ledgers = true;

  const auto mutants = enumerate_mutants(plant_);
  bool explained = false;
  for (const auto& m : mutants) {
    const tsystem::System mutated = apply_mutant(plant_, m);
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{0, {}});
    const CampaignReport report = campaign(strat, imp, opts);
    if (report.verdict != CampaignVerdict::kFail) continue;

    ASSERT_EQ(report.outcomes.size(), 1u);
    const RunOutcome& outcome = report.outcomes[0];
    ASSERT_EQ(outcome.ledgers.size(), 1u) << m.description;
    const obs::RunLedger& led = outcome.ledgers[0];

    // Header identifies the run.
    EXPECT_EQ(led.model, "smart_light");
    EXPECT_EQ(led.backend, "strategy-walk");
    EXPECT_EQ(led.run, 0u);
    EXPECT_EQ(led.attempt, 0u);

    // The verdict event is the last entry and matches the report.
    const obs::LedgerEvent* verdict = led.verdict_event();
    ASSERT_NE(verdict, nullptr) << m.description;
    EXPECT_EQ(verdict->verdict, "fail");
    EXPECT_EQ(verdict->code, to_string(outcome.report.code));
    EXPECT_EQ(verdict->step, outcome.report.steps);
    EXPECT_EQ(verdict->t, outcome.report.total_ticks);
    // A sound FAIL either expected outputs that never came (quiescence)
    // or observed one it could not accept — never neither.
    EXPECT_TRUE(!verdict->expected.empty() || !verdict->observed.empty())
        << m.description;

    // The machine explain agrees with the ledger.
    const obs::Explanation ex = obs::explain(led);
    EXPECT_EQ(ex.verdict, "fail");
    EXPECT_EQ(ex.code, verdict->code);
    EXPECT_EQ(ex.failing_step, verdict->step);
    EXPECT_EQ(ex.expected, verdict->expected);
    EXPECT_EQ(ex.observed, verdict->observed);
    EXPECT_TRUE(ex.faults.empty()) << "clean boundary journaled a fault";

    // The human post-mortem names the essentials.
    const std::string text = ex.to_text();
    EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
    EXPECT_NE(text.find(verdict->code), std::string::npos) << text;
    EXPECT_NE(text.find("verdict earned at step"), std::string::npos) << text;
    EXPECT_NE(text.find("smart_light"), std::string::npos) << text;

    // And the JSON serialisations carry their schema tags.
    EXPECT_NE(led.to_jsonl().find("\"schema\": \"tigat.ledger\""),
              std::string::npos);
    EXPECT_NE(ex.to_json().find("\"schema\": \"tigat.explain\""),
              std::string::npos);
    explained = true;
    break;
  }
  EXPECT_TRUE(explained) << "no mutant FAILed; the golden assertions never ran";
}

// Under chaos, the ledger journals every injected fault in
// interleaving order, and the explain surfaces them.
TEST_F(LedgerTest, InjectedFaultsAreJournaledInInterleavingOrder) {
  const Strategy strat = strategy_with_threads(1);
  CampaignOptions opts;
  opts.runs = 4;
  opts.fault_spec = "drop=0.5,reject=0.5";
  opts.record_ledgers = true;

  bool journaled = false;
  for (std::uint64_t seed = 1; seed <= 20 && !journaled; ++seed) {
    opts.fault_seed = seed;
    SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});
    const CampaignReport report = campaign(strat, imp, opts);
    for (const RunOutcome& o : report.outcomes) {
      for (const obs::RunLedger& led : o.ledgers) {
        std::uint64_t last_call = 0;
        std::size_t faults = 0;
        for (const obs::LedgerEvent& ev : led.events) {
          if (ev.kind != obs::LedgerEvent::Kind::kFault) continue;
          ++faults;
          EXPECT_GE(ev.call, last_call) << "fault events out of order";
          last_call = ev.call;
          EXPECT_TRUE(ev.fault == "drop" || ev.fault == "reject") << ev.fault;
        }
        if (faults == 0) continue;
        const obs::Explanation ex = obs::explain(led);
        EXPECT_EQ(ex.faults.size(), faults);
        EXPECT_NE(ex.to_text().find("fault interleaving:"),
                  std::string::npos);
        journaled = true;
      }
    }
  }
  EXPECT_TRUE(journaled)
      << "no non-PASS attempt journaled a fault across the seed sweep";
}

// ----------------------------------------------------------- economy

TEST_F(LedgerTest, PassingCampaignKeepsNoLedgers) {
  const Strategy strat = strategy_with_threads(1);
  CampaignOptions opts;
  opts.runs = 3;
  opts.record_ledgers = true;

  SimulatedImplementation imp(plant_, kScale, ImpPolicy{kScale, {}});
  const CampaignReport report = campaign(strat, imp, opts);
  ASSERT_EQ(report.verdict, CampaignVerdict::kPass);
  for (const RunOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.ledgers.empty()) << "PASS attempt kept a ledger";
  }
}

}  // namespace
}  // namespace tigat::testing
