// Workload campaign_smartlight: the paper's test-execution case study
// and its fault-detection extension, as fault-injected campaigns over
// compiled Smart Light tables.
//
// One mix round runs, for each of three purposes —
//   reach        A<> IUT.Bright on smart_light.tg (TestExecutor),
//   cooperative  A<> IUT.L6 on its all-controllable relaxation
//                (CooperativeExecutor),
//   safety       A[] IUT.On on smart_light_safety.tg, PASS after 200
//                model time units —
// one campaign of kRuns runs against the conforming light at output
// latency 0, 1 and 2 units, behind the fault spec kFaults with 2
// retries and no backoff sleeps.  Every mutant of each plant then gets
// one clean run (light mutants under reach, lamp mutants under safety).
//
// The mix runs in two phases, interleaved round by round: unrecorded
// (ops_per_s, attempts/s) and recorded with flight-recorder ledgers plus
// obs::explain of every kept ledger (alt_ops_per_s).  op_p50_us /
// op_p99_us are the wall times of one unrecorded round: the whole
// campaign suite, as a CI job would run it.
//
// Oracles: no FAIL on the conforming light (Theorem 10); every mutant
// verdict equals its blessed value (mutant_verdicts.txt); every round's
// campaign JSON is byte-identical, recorded or not, traced or not; every
// recorded round's ledgers are byte-identical.
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "lang/lang.h"
#include "obs/explain.h"
#include "testing/campaign.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"

namespace perfbench {

namespace {

namespace testing = tigat::testing;
namespace tsystem = tigat::tsystem;
namespace lang = tigat::lang;

constexpr std::size_t kRuns = 40;
constexpr char kFaults[] = "drop=0.05,delay=0..8,dup=0.05";
constexpr std::int64_t kSafetyPassUnits = 200;
constexpr int kSetupReps = 5;          // before the first round...
constexpr double kSetupEvery_s = 1.5;  // ...and once per period after

struct Purpose {
  const char* name;
  const tsystem::System* spec;   // what the executor monitors
  const tsystem::System* plant;  // what the simulated light runs
  tsystem::TestPurpose purpose;
  bool cooperative = false;
  Synthesis syn;
};

struct Mutant {
  std::string key;  // "<model> <index>", as in mutant_verdicts.txt
  std::size_t purpose = 0;
  tsystem::System system;
};

// Everything built before the first campaign; pointers between members
// make it immovable.
struct Setup {
  lang::LoadedModel light;
  lang::LoadedModel lamp;
  tsystem::System relaxed;
  tsystem::System light_plant;
  tsystem::System lamp_plant;
  std::vector<Purpose> purposes;
  std::vector<Mutant> mutants;
  double load_s = 0.0;

  Setup(lang::LoadedModel l, lang::LoadedModel m)
      : light(std::move(l)),
        lamp(std::move(m)),
        relaxed(tsystem::relax_all_controllable(light.system)),
        light_plant(tsystem::extract_process(light.system, "IUT")),
        lamp_plant(tsystem::extract_process(lamp.system, "IUT")) {}
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

// `tag` keeps the .tgs files of a repeated set-up apart from the ones the
// live tables map.
std::unique_ptr<Setup> set_up(const Args& args, const std::string& tag) {
  auto t0 = SteadyClock::now();
  auto s = std::make_unique<Setup>(
      lang::load_model(args.model_dir + "/smart_light.tg"),
      lang::load_model(args.model_dir + "/smart_light_safety.tg"));
  s->load_s = seconds_since(t0);
  const auto tgs = [&](const char* name) {
    return args.work_dir + "/campaign_" + tag + name + ".tgs";
  };
  const tsystem::TestPurpose reach = s->light.purposes.at(0);
  const tsystem::TestPurpose coop =
      tsystem::TestPurpose::parse(s->light.system, "control: A<> IUT.L6");
  const tsystem::TestPurpose safety = s->lamp.purposes.at(0);
  s->purposes.push_back({"reach", &s->light.system, &s->light_plant, reach,
                         false, synthesize(s->light.system, reach, tgs("reach"))});
  s->purposes.push_back({"cooperative", &s->light.system, &s->light_plant, coop,
                         true, synthesize(s->relaxed, coop, tgs("coop"))});
  s->purposes.push_back({"safety", &s->lamp.system, &s->lamp_plant, safety,
                         false, synthesize(s->lamp.system, safety, tgs("safety"))});
  const auto add_mutants = [&](const char* model, const tsystem::System& plant,
                               std::size_t purpose) {
    const auto found = testing::enumerate_mutants(plant);
    for (std::size_t i = 0; i < found.size(); ++i) {
      s->mutants.push_back({std::string(model) + " " + std::to_string(i),
                            purpose, testing::apply_mutant(plant, found[i])});
    }
  };
  add_mutants("smart_light", s->light_plant, 0);
  add_mutants("smart_light_safety", s->lamp_plant, 2);
  return s;
}

// Outside timing of the decide calls the executors make.  Forwards
// backend_name so recorded ledgers stay byte-identical.  Campaigns run
// on one thread, so the counters need no synchronisation.
struct Timing {
  double decide_ns = 0.0;
  std::size_t decides = 0;
  double imp_ns = 0.0;
  std::size_t imp_calls = 0;
  MoveMix mix;
};

using Nanos = std::chrono::duration<double, std::nano>;

class TimingSource final : public tigat::decision::DecisionSource {
 public:
  TimingSource(const DecisionSource& inner, Timing& timing)
      : inner_(&inner), timing_(&timing) {}

  [[nodiscard]] tigat::game::Move decide(
      const tigat::semantics::ConcreteState& state,
      std::int64_t scale) const override {
    const auto t0 = SteadyClock::now();
    tigat::game::Move move = inner_->decide(state, scale);
    timing_->decide_ns += Nanos(SteadyClock::now() - t0).count();
    ++timing_->decides;
    timing_->mix.add(move);
    return move;
  }
  [[nodiscard]] tigat::semantics::TransitionInstance edge_instance(
      std::uint32_t edge) const override {
    return inner_->edge_instance(edge);
  }
  [[nodiscard]] const char* backend_name() const override {
    return inner_->backend_name();
  }

 private:
  const DecisionSource* inner_;
  Timing* timing_;
};

// Outside timing of every boundary call, placed under the fault
// injector (campaign_run wraps whatever Implementation it is given).
class TimingImp final : public testing::Implementation {
 public:
  TimingImp(testing::Implementation& inner, Timing& timing)
      : inner_(&inner), timing_(&timing) {}

  void reset() override {
    timed([&] { inner_->reset(); });
  }
  std::optional<testing::ObservedOutput> advance(std::int64_t ticks) override {
    std::optional<testing::ObservedOutput> out;
    timed([&] { out = inner_->advance(ticks); });
    return out;
  }
  bool offer_input(const std::string& channel) override {
    bool accepted = false;
    timed([&] { accepted = inner_->offer_input(channel); });
    return accepted;
  }
  [[nodiscard]] std::uint64_t harness_faults() const override {
    return inner_->harness_faults();
  }
  [[nodiscard]] std::string harness_fault_summary() const override {
    return inner_->harness_fault_summary();
  }

 private:
  template <typename F>
  void timed(F&& call) {
    const auto t0 = SteadyClock::now();
    call();
    timing_->imp_ns += Nanos(SteadyClock::now() - t0).count();
    ++timing_->imp_calls;
  }

  testing::Implementation* inner_;
  Timing* timing_;
};

struct Round {
  double seconds = 0.0;
  std::size_t attempts = 0, retries = 0, runs = 0, steps = 0;
  std::size_t pass = 0, fail = 0, inconclusive = 0, killed = 0;
  std::size_t ledgers = 0, ledger_events = 0;
  double explain_s = 0.0;
  std::uint64_t json_hash = kFnvBasis;    // every campaign report, in order
  std::uint64_t ledger_hash = kFnvBasis;  // recorded: every kept ledger
  std::vector<std::string> mutant_lines;  // "<model> <index> <verdict>"
};

testing::CampaignReport run_one(const Purpose& p,
                                const tigat::decision::DecisionSource& source,
                                testing::Implementation& imp,
                                const testing::CampaignOptions& opts) {
  return p.cooperative
             ? testing::campaign_run_cooperative(*p.spec, source, imp, kScale,
                                                 opts)
             : testing::campaign_run(source, *p.spec, imp, kScale, opts);
}

testing::CampaignOptions options_for(const Purpose& p, bool recorded) {
  testing::CampaignOptions opts;
  opts.record_ledgers = recorded;
  opts.executor.purpose = p.purpose;
  if (p.purpose.kind == tsystem::PurposeKind::kSafety) {
    opts.executor.pass_ticks = kSafetyPassUnits * kScale;
  }
  return opts;
}

void tally(Round& r, const testing::CampaignReport& report, bool recorded) {
  r.attempts += report.attempts;
  r.retries += report.retries_used;
  r.runs += report.runs;
  r.pass += report.passes;
  r.fail += report.fails;
  r.inconclusive += report.inconclusive;
  r.json_hash = fnv1a(report.to_json(), r.json_hash);
  for (const testing::RunOutcome& o : report.outcomes) {
    r.steps += o.report.steps;
    if (!recorded) continue;
    for (const tigat::obs::RunLedger& led : o.ledgers) {
      r.ledger_hash = fnv1a(led.to_jsonl(), r.ledger_hash);
      ++r.ledgers;
      r.ledger_events += led.events.size();
      const auto t0 = SteadyClock::now();
      const std::string post_mortem = tigat::obs::explain(led).to_json();
      r.explain_s += seconds_since(t0);
      if (post_mortem.empty()) std::abort();
    }
  }
}

Round run_round(const Setup& s, const Args& args, bool recorded,
                Timing* timing,
                const std::map<std::string, std::string>& blessed,
                Result& result) {
  Round r;
  const auto round_t0 = SteadyClock::now();
  const auto run_with = [&](const Purpose& p, testing::Implementation& sim,
                            const testing::CampaignOptions& opts) {
    if (timing == nullptr) return run_one(p, *p.syn.mapped, sim, opts);
    const TimingSource source(*p.syn.mapped, *timing);
    TimingImp imp(sim, *timing);
    return run_one(p, source, imp, opts);
  };
  for (std::size_t pi = 0; pi < s.purposes.size(); ++pi) {
    const Purpose& p = s.purposes[pi];
    for (std::int64_t latency = 0; latency <= 2; ++latency) {
      testing::SimulatedImplementation sim(
          *p.plant, kScale, testing::ImpPolicy{latency * kScale, {}});
      testing::CampaignOptions opts = options_for(p, recorded);
      opts.runs = kRuns;
      opts.retries = 2;
      opts.backoff_base_ms = 0;
      opts.fault_spec = kFaults;
      opts.fault_seed = derive_seed(args.seed, pi, static_cast<std::uint64_t>(latency));
      const testing::CampaignReport report = run_with(p, sim, opts);
      tally(r, report, recorded);
      for (std::size_t f = 0; f < report.fails; ++f) {
        result.failed(std::string("FAIL on the conforming light (") + p.name +
                      ", latency " + std::to_string(latency) + ")");
      }
    }
  }
  for (const Mutant& m : s.mutants) {
    const Purpose& p = s.purposes[m.purpose];
    testing::SimulatedImplementation sim(m.system, kScale);
    const testing::CampaignReport report =
        run_with(p, sim, options_for(p, recorded));
    tally(r, report, recorded);
    const char* verdict = testing::to_string(report.outcomes.at(0).report.verdict);
    r.killed += report.fails;
    r.mutant_lines.push_back(m.key + " " + verdict);
    const auto it = blessed.find(m.key);
    if (it == blessed.end() || it->second != verdict) {
      result.failed("mutant " + m.key + " verdict " + verdict +
                    " differs from its blessed value");
    }
  }
  r.seconds = seconds_since(round_t0);
  result.attempted(r.attempts);
  return r;
}

std::map<std::string, std::string> load_blessed(const Args& args) {
  std::map<std::string, std::string> out;
  std::ifstream in(args.data_dir + "/mutant_verdicts.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string model, index, verdict;
    if (fields >> model >> index >> verdict) out[model + " " + index] = verdict;
  }
  return out;
}

struct Phase {
  std::vector<Round> rounds;
  double total_s = 0.0;
};

double median_round_s(const Phase& phase) {
  std::vector<double> v;
  for (const Round& r : phase.rounds) v.push_back(r.seconds);
  return median(std::move(v));
}

double median_rate(const Phase& phase) {
  std::vector<double> v;
  for (const Round& r : phase.rounds) {
    v.push_back(static_cast<double>(r.attempts) / r.seconds);
  }
  return median(std::move(v));
}

}  // namespace

int run_campaign(const Args& args, Result& result) {
  const auto blessed = load_blessed(args);
  std::vector<double> setup;
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const auto t0 = SteadyClock::now();
    s = set_up(args, "");
    setup.push_back(seconds_since(t0));
  }
  if (blessed.size() != s->mutants.size()) {
    result.violation("mutant_verdicts.txt does not cover every mutant");
  }

  // The phases interleave round by round, so a drift in host speed
  // moves them alike.  Traced rounds time decide and IMP calls; only
  // the unrecorded ones feed that split.
  Phase plain, recorded, traced_plain, traced_recorded;
  Timing timing, recorded_timing;
  struct Kind {
    Phase* phase;
    bool recorded;
    Timing* timing;
  };
  std::vector<Kind> kinds = {{&plain, false, nullptr},
                             {&recorded, true, nullptr}};
  if (args.trace) {
    kinds.push_back({&traced_plain, false, &timing});
    kinds.push_back({&traced_recorded, true, &recorded_timing});
  }
  // Determinism: one campaign JSON for every round, recorded or not,
  // traced or not; one ledger text for every recorded round.
  std::optional<std::uint64_t> json_ref, ledger_ref;
  const auto t0 = SteadyClock::now();
  auto next_setup = t0;
  do {
    // Set-up repeats across the run, so its median sees the same host
    // as the rounds do.
    if (SteadyClock::now() >= next_setup) {
      const auto t1 = SteadyClock::now();
      const auto again = set_up(args, "again_");
      setup.push_back(seconds_since(t1));
      next_setup = t1 + std::chrono::duration_cast<SteadyClock::duration>(
                            std::chrono::duration<double>(kSetupEvery_s));
    }
    for (const Kind& kind : kinds) {
      Round r = run_round(*s, args, kind.recorded, kind.timing, blessed, result);
      if (!json_ref) json_ref = r.json_hash;
      if (r.json_hash != json_ref) {
        result.violation("campaign JSON differs between rounds");
      }
      if (kind.recorded) {
        if (!ledger_ref) ledger_ref = r.ledger_hash;
        if (r.ledger_hash != ledger_ref) {
          result.violation("ledgers differ between recorded rounds");
        }
      }
      if (!kind.phase->rounds.empty()) r.mutant_lines.clear();
      kind.phase->total_s += r.seconds;
      kind.phase->rounds.push_back(std::move(r));
    }
  } while (seconds_since(t0) < args.seconds);

  result.set("setup_s", median(setup));
  const Round& first = plain.rounds.front();
  for (const std::string& line : first.mutant_lines) {
    std::printf("mutant %s\n", line.c_str());
  }
  std::printf("campaign_smartlight: %zu attempts, %zu retries, pass %zu, "
              "fail %zu, inconclusive %zu, %zu/%zu mutants killed, "
              "%zu ledgers per recorded round\n",
              first.attempts, first.retries, first.pass, first.fail,
              first.inconclusive, first.killed, s->mutants.size(),
              recorded.rounds.front().ledgers);
  std::printf("rounds: %zu unrecorded, %zu recorded\n", plain.rounds.size(),
              recorded.rounds.size());

  if (!args.trace) {
    std::vector<double> round_us;
    for (const Round& r : plain.rounds) round_us.push_back(r.seconds * 1e6);
    result.set("ops_per_s", median_rate(plain));
    result.set("alt_ops_per_s", median_rate(recorded));
    result.set("op_p50_us", median(round_us));
    result.set("op_p99_us", percentile(round_us, 0.99));
    result.set("peak_rss_mb", peak_rss_mib());
    return 0;
  }

  Layers layers;
  for (std::size_t pi = 0; pi < s->purposes.size(); ++pi) {
    set_purpose_layers(layers, static_cast<int>(pi + 1),
                       s->purposes[pi].syn.solution->stats());
    add_table_layers(layers, s->purposes[pi].syn);
  }
  layers["lang.load_s"] = s->load_s;

  const Round& rec = recorded.rounds.front();
  const auto rounds = static_cast<double>(traced_plain.rounds.size());
  const auto per_round = [&](double total) { return total / rounds; };
  layers["decision.decide_ns"] = timing.decide_ns / static_cast<double>(timing.decides);
  layers["decision.mix.goal"] = per_round(static_cast<double>(timing.mix.goal));
  layers["decision.mix.action"] = per_round(static_cast<double>(timing.mix.action));
  layers["decision.mix.delay"] = per_round(static_cast<double>(timing.mix.delay));
  layers["testing.imp_ns"] = timing.imp_ns / static_cast<double>(timing.imp_calls);
  const double self_ns = traced_plain.total_s * 1e9 - timing.decide_ns - timing.imp_ns;
  layers["testing.executor_self_ns"] = self_ns / static_cast<double>(timing.decides);
  layers["testing.steps_per_run"] =
      static_cast<double>(first.steps) / static_cast<double>(first.runs);
  layers["testing.attempts"] = static_cast<double>(first.attempts);
  layers["testing.retries"] = static_cast<double>(first.retries);
  layers["testing.verdict.pass"] = static_cast<double>(first.pass);
  layers["testing.verdict.fail"] = static_cast<double>(first.fail);
  layers["testing.verdict.inconclusive"] = static_cast<double>(first.inconclusive);
  layers["testing.mutants_killed"] = static_cast<double>(first.killed);

  std::vector<double> explain_s;
  for (const Round& r : recorded.rounds) explain_s.push_back(r.explain_s);
  const double explain_round_s = median(explain_s);
  layers["obs.recorder_s"] =
      median_round_s(recorded) - explain_round_s - median_round_s(plain);
  layers["obs.ledger_events"] =
      static_cast<double>(rec.ledger_events) / static_cast<double>(rec.ledgers);
  layers["obs.explain_us"] = explain_round_s * 1e6 / static_cast<double>(rec.ledgers);

  // Shares of one unrecorded plus one recorded round, traced.
  const double u = median_round_s(traced_plain);
  const double w = median_round_s(traced_recorded);
  const double decide_s = per_round(timing.decide_ns) / 1e9;
  const double per_attempt = 2.0 * static_cast<double>(first.attempts);
  layers["share.base_op_us"] = (u + w) * 1e6 / per_attempt;
  layers["trace.untraced_op_us"] =
      (median_round_s(plain) + median_round_s(recorded)) * 1e6 / per_attempt;
  layers["trace.overhead_pct"] =
      (layers["share.base_op_us"] - layers["trace.untraced_op_us"]) /
      layers["trace.untraced_op_us"] * 100.0;
  layers["share.decision"] = 2.0 * decide_s / (u + w);
  layers["share.testing"] = 2.0 * (u - decide_s) / (u + w);
  layers["share.obs"] = (w - u) / (u + w);
  result.set_all(layers);
  return 0;
}

}  // namespace perfbench
