// Ablation A3 (DESIGN.md): cost of strategy-based test execution —
// per-decision strategy lookup and full Algorithm 3.1 runs, for both
// backends: the federation WALK (game::Strategy, served from the
// winning_up_to cache) and the COMPILED decision table
// (decision::DecisionTable, the answer to the paper's future-work
// concern about "efficient strategy representation").  The
// BM_TableDecide* benchmarks carry `speedup_vs_walk` counters — the
// same state decided by both backends — so one JSON artifact holds the
// measured per-decision speedup.  --json / TIGAT_BENCH_JSON writes the
// gbench JSON to BENCH_test_execution.json.  The model is
// examples/models/smart_light.tg.
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/simulated_imp.h"
#include "util/stopwatch.h"

namespace {

using namespace tigat;

constexpr std::int64_t kScale = 16;

struct Fixture {
  Fixture()
      : light(test_support::load_smart_light()),
        plant(test_support::plant(light.system)),
        solution(game::GameSolver(
                     light.system,
                     tsystem::TestPurpose::parse(light.system,
                                                 "control: A<> IUT.Bright"))
                     .solve()),
        strategy(solution),
        table(decision::compile(*solution)) {}
  lang::LoadedModel light;
  tsystem::System plant;
  std::shared_ptr<const game::GameSolution> solution;
  game::Strategy strategy;
  decision::DecisionTable table;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Walk-vs-compiled timing at one state, for the speedup counters.
void set_speedup_counters(benchmark::State& state,
                          const semantics::ConcreteState& s) {
  auto& f = fixture();
  constexpr int kReps = 50000;
  util::Stopwatch walk_watch;
  for (int r = 0; r < kReps; ++r) {
    benchmark::DoNotOptimize(f.strategy.decide(s, kScale));
  }
  const double walk_ns = walk_watch.seconds() * 1e9 / kReps;
  util::Stopwatch table_watch;
  for (int r = 0; r < kReps; ++r) {
    benchmark::DoNotOptimize(f.table.decide(s, kScale));
  }
  const double table_ns = table_watch.seconds() * 1e9 / kReps;
  state.counters["walk_ns_per_decide"] = walk_ns;
  state.counters["table_ns_per_decide"] = table_ns;
  state.counters["speedup_vs_walk"] = walk_ns / table_ns;
}

void BM_StrategyDecideInitial(benchmark::State& state) {
  auto& f = fixture();
  semantics::ConcreteSemantics sem(f.light.system, kScale);
  const auto s = sem.initial();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.strategy.decide(s, kScale));
  }
}
BENCHMARK(BM_StrategyDecideInitial);

void BM_StrategyDecideMidGame(benchmark::State& state) {
  auto& f = fixture();
  semantics::ConcreteSemantics sem(f.light.system, kScale);
  auto s = sem.initial();
  sem.delay(s, kScale);  // user may touch
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.strategy.decide(s, kScale));
  }
}
BENCHMARK(BM_StrategyDecideMidGame);

void BM_TableDecideInitial(benchmark::State& state) {
  auto& f = fixture();
  semantics::ConcreteSemantics sem(f.light.system, kScale);
  const auto s = sem.initial();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.table.decide(s, kScale));
  }
  set_speedup_counters(state, s);
}
BENCHMARK(BM_TableDecideInitial);

void BM_TableDecideMidGame(benchmark::State& state) {
  auto& f = fixture();
  semantics::ConcreteSemantics sem(f.light.system, kScale);
  auto s = sem.initial();
  sem.delay(s, kScale);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.table.decide(s, kScale));
  }
  set_speedup_counters(state, s);
}
BENCHMARK(BM_TableDecideMidGame);

void BM_FullTestRun(benchmark::State& state) {
  auto& f = fixture();
  testing::SimulatedImplementation imp(
      f.plant, kScale,
      testing::ImpPolicy{static_cast<std::int64_t>(state.range(0)), {}});
  testing::TestExecutor exec(f.strategy, imp, kScale);
  std::size_t passes = 0;
  for (auto _ : state) {
    const auto report = exec.run();
    passes += report.verdict == testing::Verdict::kPass;
  }
  state.counters["pass_rate"] =
      static_cast<double>(passes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FullTestRun)->Arg(0)->Arg(kScale)->Arg(2 * kScale);

void BM_FullTestRunCompiled(benchmark::State& state) {
  auto& f = fixture();
  testing::SimulatedImplementation imp(
      f.plant, kScale,
      testing::ImpPolicy{static_cast<std::int64_t>(state.range(0)), {}});
  testing::TestExecutor exec(f.table, f.light.system, imp, kScale);
  std::size_t passes = 0;
  for (auto _ : state) {
    const auto report = exec.run();
    passes += report.verdict == testing::Verdict::kPass;
  }
  state.counters["pass_rate"] =
      static_cast<double>(passes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FullTestRunCompiled)->Arg(0)->Arg(kScale)->Arg(2 * kScale);

void BM_StrategySynthesisSmartLight(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    game::GameSolver solver(
        f.light.system,
        tsystem::TestPurpose::parse(f.light.system, "control: A<> IUT.Bright"));
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_StrategySynthesisSmartLight);

void BM_StrategyCompile(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(decision::compile(*f.solution));
  }
}
BENCHMARK(BM_StrategyCompile);

void BM_StrategySerializeRoundTrip(benchmark::State& state) {
  auto& f = fixture();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto blob = decision::to_bytes(f.table);
    bytes = blob.size();
    benchmark::DoNotOptimize(decision::from_bytes(blob));
  }
  state.counters["tgs_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_StrategySerializeRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  return tigat::benchio::gbench_main(argc, argv, "test_execution");
}
