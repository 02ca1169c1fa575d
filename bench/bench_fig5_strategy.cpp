// Reproduces FIG. 5 of the paper: the automatically generated winning
// strategy for the Smart Light and the test purpose
//
//     control: A<> IUT.Bright
//
// (Fig. 2 / Fig. 3 — the models themselves — are printed with
// --print-models.)  The output format mirrors the UPPAAL-TIGA style of
// Fig. 5: per discrete state, zone conditions mapped to "take <input>"
// or "delay" prescriptions; rank-0 rows read "goal reached".
//
// A second set of `safety_*` JSON keys benches the dual fixpoint on
// the same model (`control: A[] !IUT.Bright`): solve + compile shape,
// .tgs size and per-decision walk/table latency for a safety game.
//
// The model is examples/models/smart_light.tg.  Each per-decision
// latency is the median of 5 repetitions of at least 0.5 s each; the
// four backends (reach walk/table, safety walk/table) take turns
// within every repetition, so a noisy slice of the run hits all of
// them alike instead of skewing one ratio.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json.h"
#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "semantics/concrete.h"
#include "support/models.h"
#include "util/stopwatch.h"

namespace {

constexpr int kReps = 5;             // repetitions per backend
constexpr double kMinSeconds = 0.5;  // per repetition
constexpr int kBatch = 10000;        // decides between clock reads

// Nanoseconds per call of `decide` (which returns a game::Move) over
// at least kMinSeconds.
template <typename Decide>
double ns_per_decide(const Decide& decide) {
  tigat::util::Stopwatch watch;
  long long calls = 0;
  do {
    for (int r = 0; r < kBatch; ++r) {
      const auto kind = decide().kind;
      asm volatile("" : : "g"(kind) : "memory");  // keep every call
    }
    calls += kBatch;
  } while (watch.seconds() < kMinSeconds);
  return watch.seconds() * 1e9 / static_cast<double>(calls);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tigat;
  benchio::BenchReport report("fig5_strategy", argc, argv);

  const lang::LoadedModel light = test_support::load_smart_light();

  if (argc > 1 && std::strcmp(argv[1], "--print-models") == 0) {
    std::printf("Fig. 2 — TIOGA of the light (plus Fig. 3, the user):\n\n%s\n",
                light.system.to_string().c_str());
    return 0;
  }

  const auto purpose =
      tsystem::TestPurpose::parse(light.system, "control: A<> IUT.Bright");
  util::Stopwatch watch;
  game::GameSolver solver(light.system, purpose);
  const auto solution = solver.solve();
  game::Strategy strategy(solution);

  std::printf("Fig. 5 — example winning strategy (generated in %.3f s)\n",
              watch.seconds());
  std::printf("purpose satisfied from the initial state: %s\n",
              solution->winning_from_initial() ? "yes" : "NO (bug!)");
  std::printf("symbolic states: %zu   fixpoint rounds: %zu   rows: %zu\n\n",
              solution->stats().keys, solution->stats().rounds,
              strategy.size());
  std::printf("%s\n", strategy.to_string().c_str());
  report.root().set("generate_s", watch.seconds());
  report.root().set("winning", solution->winning_from_initial());
  report.root().set("states", solution->stats().keys);
  report.root().set("rounds", solution->stats().rounds);
  report.root().set("strategy_rows", strategy.size());

  // The compiled representation of the same strategy: shape, .tgs
  // size, and walk-vs-compiled per-decision latency one model-unit in
  // (the state where Fig. 5 prescribes the first touch).
  decision::CompileStats cstats;
  const decision::DecisionTable table = decision::compile(*solution, &cstats);
  const std::size_t tgs_bytes = decision::to_bytes(table).size();
  constexpr std::int64_t kScale = 16;
  semantics::ConcreteSemantics sem(light.system, kScale);
  auto state = sem.initial();
  sem.delay(state, kScale);

  // The safety-game row: the dual fixpoint on the same model, with the
  // compiled table's fat delay leaves (Safe zones + danger region +
  // boundary acts) — the per-decision cost a safety campaign pays.
  const auto safety_purpose =
      tsystem::TestPurpose::parse(light.system, "control: A[] !IUT.Bright");
  util::Stopwatch safety_watch;
  game::GameSolver safety_solver(light.system, safety_purpose);
  const auto safety_solution = safety_solver.solve();
  game::Strategy safety_strategy(safety_solution);
  const double safety_generate_s = safety_watch.seconds();
  decision::CompileStats safety_cstats;
  const decision::DecisionTable safety_table =
      decision::compile(*safety_solution, &safety_cstats);
  const std::size_t safety_tgs_bytes =
      decision::to_bytes(safety_table).size();

  if (!(strategy.decide(state, kScale) == table.decide(state, kScale))) {
    std::printf("backends disagreed at the probe state!\n");
  }
  if (!(safety_strategy.decide(state, kScale) ==
        safety_table.decide(state, kScale))) {
    std::printf("safety backends disagreed at the probe state!\n");
  }

  // Per-decision latency: kReps rounds, each timing the four backends
  // in turn; the reported figure per backend is its median.
  std::vector<double> walk, compiled, safety_walk, safety_compiled;
  for (int rep = 0; rep < kReps; ++rep) {
    walk.push_back(
        ns_per_decide([&] { return strategy.decide(state, kScale); }));
    compiled.push_back(
        ns_per_decide([&] { return table.decide(state, kScale); }));
    safety_walk.push_back(ns_per_decide(
        [&] { return safety_strategy.decide(state, kScale); }));
    safety_compiled.push_back(ns_per_decide(
        [&] { return safety_table.decide(state, kScale); }));
  }
  const double walk_ns = benchio::summarize(walk).median;
  const double table_ns = benchio::summarize(compiled).median;
  const double safety_walk_ns = benchio::summarize(safety_walk).median;
  const double safety_table_ns = benchio::summarize(safety_compiled).median;

  std::printf("compiled: %zu nodes, %zu arcs, %zu leaves, %zu zones "
              "(%.3f s compile, %zu bytes .tgs)\n",
              table.node_count(), table.arc_count(), table.leaf_count(),
              table.zone_count(), cstats.compile_seconds, tgs_bytes);
  std::printf("per-decision (median of %d x %.1f s): walk %.0f ns, "
              "compiled %.0f ns (%.1fx)\n",
              kReps, kMinSeconds, walk_ns, table_ns, walk_ns / table_ns);
  report.root().set("compile_s", cstats.compile_seconds);
  report.root().set("table_nodes", table.node_count());
  report.root().set("table_arcs", table.arc_count());
  report.root().set("table_leaves", table.leaf_count());
  report.root().set("table_zones", table.zone_count());
  report.root().set("tgs_bytes", tgs_bytes);
  report.root().set("walk_ns_per_decide", walk_ns);
  report.root().set("table_ns_per_decide", table_ns);
  report.root().set("speedup_vs_walk", walk_ns / table_ns);

  std::printf("\nsafety (A[] !IUT.Bright): winning %s, %zu states, %zu rows, "
              "%zu bytes .tgs\n",
              safety_solution->winning_from_initial() ? "yes" : "NO (bug!)",
              safety_solution->stats().keys, safety_strategy.size(),
              safety_tgs_bytes);
  std::printf("safety per-decision: walk %.0f ns, compiled %.0f ns (%.1fx)\n",
              safety_walk_ns, safety_table_ns,
              safety_walk_ns / safety_table_ns);
  report.root().set("safety_generate_s", safety_generate_s);
  report.root().set("safety_winning",
                    safety_solution->winning_from_initial());
  report.root().set("safety_states", safety_solution->stats().keys);
  report.root().set("safety_strategy_rows", safety_strategy.size());
  report.root().set("safety_table_leaves", safety_table.leaf_count());
  report.root().set("safety_table_zones", safety_table.zone_count());
  report.root().set("safety_tgs_bytes", safety_tgs_bytes);
  report.root().set("safety_walk_ns_per_decide", safety_walk_ns);
  report.root().set("safety_table_ns_per_decide", safety_table_ns);
  report.flush();
  return 0;
}
