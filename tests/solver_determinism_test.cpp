// Thread-count determinism of the parallel solving pipeline.
//
// SolverOptions::threads promises bit-identical results at any value:
// exploration interns keys CONCURRENTLY into the striped map
// (util/striped_intern.h) but numbers them in serial-FIFO rank order
// whatever the pool size, and the Jacobi fixpoint stages per-key gains
// that are merged in key index order.  This test solves the LEP
// (n = 4) and the Smart Light with 1, 2 and 8 threads and asserts
// identical verdicts, per-key winning federations, ranks/round counts,
// and strategy-guided traces.
// Safety games (`A[] φ`, the dual fixpoint) get the same treatment.
// It is the test the CI ThreadSanitizer job leans on.
//
// A System memoizes its explored graph (SymbolicGraph::explored), so
// every thread count solves a freshly built System: otherwise only the
// first solve would explore.  SharedGraphAcrossPurposes pins the memo
// itself.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/executor.h"
#include "support/models.h"
#include "testing/simulated_imp.h"

namespace tigat::game {
namespace {

using test_support::load_lep;
using test_support::load_smart_light;
using tsystem::TestPurpose;

std::shared_ptr<const GameSolution> solve_with_threads(
    const tsystem::System& sys, const std::string& prop, unsigned threads) {
  SolverOptions options;
  options.threads = threads;
  GameSolver solver(sys, TestPurpose::parse(sys, prop), options);
  return solver.solve();
}

// Structural + semantic equality of two solutions of the same game.
void expect_same_solution(const GameSolution& a, const GameSolution& b,
                          unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  // Two explorations, or the comparison below proves nothing.
  ASSERT_NE(&a.graph(), &b.graph());
  EXPECT_EQ(a.winning_from_initial(), b.winning_from_initial());
  EXPECT_EQ(a.stats().rounds, b.stats().rounds);
  EXPECT_EQ(a.stats().keys, b.stats().keys);
  EXPECT_EQ(a.stats().edges, b.stats().edges);
  EXPECT_EQ(a.stats().reach_zones, b.stats().reach_zones);
  EXPECT_EQ(a.stats().winning_zones, b.stats().winning_zones);
  ASSERT_EQ(a.graph().key_count(), b.graph().key_count());
  dbm::Fed scratch_a(a.graph().system().clock_count());
  dbm::Fed scratch_b(b.graph().system().clock_count());
  for (std::uint32_t k = 0; k < a.graph().key_count(); ++k) {
    // Key numbering must agree exactly, not just up to permutation.
    ASSERT_EQ(a.graph().key(k).locs, b.graph().key(k).locs) << "key " << k;
    EXPECT_EQ(a.goal_key(k), b.goal_key(k)) << "key " << k;
    EXPECT_TRUE(a.graph().reach(k, scratch_a)
                    .same_set_as(b.graph().reach(k, scratch_b)))
        << "reach of key " << k;
    EXPECT_TRUE(a.winning(k, scratch_a).same_set_as(b.winning(k, scratch_b)))
        << "key " << k;
    const auto da = a.deltas(k);
    const auto db = b.deltas(k);
    ASSERT_EQ(da.size(), db.size()) << "key " << k;
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].round, db[i].round) << "key " << k << " delta " << i;
      EXPECT_TRUE(da[i].gained.same_set_as(db[i].gained))
          << "key " << k << " delta " << i;
      EXPECT_TRUE(a.winning_up_to(k, da[i].round, scratch_a)
                      .same_set_as(b.winning_up_to(k, db[i].round, scratch_b)))
          << "key " << k << " round " << da[i].round;
    }
  }
}

TEST(SolverDeterminism, LepN4AcrossThreadCounts) {
  const lang::LoadedModel lep = load_lep(4);
  const auto base = solve_with_threads(lep.system, lep.purposes[0].source, 1);
  for (const unsigned threads : {2u, 8u}) {
    const lang::LoadedModel fresh = load_lep(4);
    const auto sol =
        solve_with_threads(fresh.system, fresh.purposes[0].source, threads);
    expect_same_solution(*base, *sol, threads);
    // The textual strategy is the artifact a tester ships; identical
    // federations must render identically.
    EXPECT_EQ(Strategy(base).to_string(), Strategy(sol).to_string());
  }
}

TEST(SolverDeterminism, SmartLightAcrossThreadCounts) {
  const lang::LoadedModel spec = load_smart_light();
  for (const char* prop :
       {"control: A<> IUT.Bright", "control: A<> IUT.Dim"}) {
    const auto base = solve_with_threads(spec.system, prop, 1);
    for (const unsigned threads : {2u, 8u}) {
      const lang::LoadedModel fresh = load_smart_light();
      const auto sol = solve_with_threads(fresh.system, prop, threads);
      expect_same_solution(*base, *sol, threads);
      EXPECT_EQ(Strategy(base).to_string(), Strategy(sol).to_string());
    }
  }
}

TEST(SolverDeterminism, SafetyAcrossThreadCounts) {
  // Safety games (`A[] φ`) run the same parallel wave + Jacobi rounds
  // with the roles flipped, then publish Safe = Reach \ Attr as serial
  // round-0 deltas — so the thread-count promise carries over intact.
  const lang::LoadedModel spec = load_smart_light();
  for (const char* prop :
       {"control: A[] !IUT.Bright", "control: A[] IUT.Off"}) {
    const auto base = solve_with_threads(spec.system, prop, 1);
    for (const unsigned threads : {2u, 8u}) {
      const lang::LoadedModel fresh = load_smart_light();
      const auto sol = solve_with_threads(fresh.system, prop, threads);
      expect_same_solution(*base, *sol, threads);
      EXPECT_EQ(Strategy(base).to_string(), Strategy(sol).to_string());
    }
  }
}

TEST(SolverDeterminism, TracedSolvesBitIdentical) {
  // The obs layer promises pure observation: spans and counters never
  // synchronize threads or alter control flow, so a fully instrumented
  // solve equals the untraced baseline bit for bit at any thread count.
  const lang::LoadedModel lep = load_lep(4);
  const auto base = solve_with_threads(lep.system, lep.purposes[0].source, 1);
  obs::Tracer::instance().enable();
  obs::enable_metrics();
  for (const unsigned threads : {1u, 8u}) {
    const lang::LoadedModel fresh = load_lep(4);
    const auto sol =
        solve_with_threads(fresh.system, fresh.purposes[0].source, threads);
    expect_same_solution(*base, *sol, threads);
    EXPECT_EQ(Strategy(base).to_string(), Strategy(sol).to_string());
  }
  obs::Tracer::instance().disable();
  obs::disable_metrics();
  EXPECT_GT(obs::Tracer::instance().recorded_spans(), 0u);
}

TEST(SolverDeterminism, SharedGraphAcrossPurposes) {
  // The zone graph does not depend on the purpose: TP1-TP3 on one
  // System solve against one graph that only the first solve explores,
  // and each solution equals a solve on a freshly built System down to
  // its compiled .tgs bytes.
  const lang::LoadedModel lep = load_lep(4);
  std::vector<std::string> purposes;  // TP1-TP3
  for (const TestPurpose& tp : lep.purposes) purposes.push_back(tp.source);
  std::vector<std::shared_ptr<const GameSolution>> shared;
  for (const std::string& prop : purposes) {
    shared.push_back(solve_with_threads(lep.system, prop, 2));
  }
  EXPECT_GT(shared[0]->stats().explore_expand_seconds, 0.0);
  for (std::size_t p = 1; p < shared.size(); ++p) {
    EXPECT_EQ(&shared[p]->graph(), &shared[0]->graph());
    EXPECT_EQ(shared[p]->stats().explore_expand_seconds, 0.0);
    EXPECT_EQ(shared[p]->stats().explore_merge_seconds, 0.0);
  }
  for (std::size_t p = 0; p < purposes.size(); ++p) {
    SCOPED_TRACE("TP" + std::to_string(p + 1));
    const lang::LoadedModel fresh = load_lep(4);
    const auto own = solve_with_threads(fresh.system, purposes[p], 2);
    expect_same_solution(*own, *shared[p], 2);
    EXPECT_TRUE(decision::to_bytes(decision::compile(*own)) ==
                decision::to_bytes(decision::compile(*shared[p])));
  }

  // Other exploration options key another graph (the Smart Light's is
  // finite without extrapolation, LEP's is not).
  const lang::LoadedModel light = load_smart_light();
  const char* bright = "control: A<> IUT.Bright";
  const auto extrapolated = solve_with_threads(light.system, bright, 2);
  SolverOptions plain;
  plain.threads = 2;
  plain.exploration.extrapolate = false;
  const auto unextrapolated =
      GameSolver(light.system, TestPurpose::parse(light.system, bright), plain)
          .solve();
  EXPECT_NE(&unextrapolated->graph(), &extrapolated->graph());
  EXPECT_EQ(light.system.graph_memo().graph.get(), &unextrapolated->graph());

  // A solve cut short by a limit memoizes nothing: the next solve
  // explores afresh and succeeds.
  SolverOptions tiny;
  tiny.threads = 2;
  tiny.exploration.max_keys = 16;
  GameSolver limited(lep.system, lep.purposes[0], tiny);
  EXPECT_THROW((void)limited.solve(), semantics::ExplorationLimit);
  EXPECT_EQ(lep.system.graph_memo().graph, nullptr);
  const auto again = solve_with_threads(lep.system, purposes[0], 2);
  EXPECT_GT(again->stats().explore_expand_seconds, 0.0);
  EXPECT_NE(&again->graph(), &shared[0]->graph());
  EXPECT_TRUE(again->winning_from_initial());
  EXPECT_EQ(again->stats().keys, shared[0]->stats().keys);

  // Concurrent solvers of one System wait for a single exploration.
  const lang::LoadedModel racing = load_lep(4);
  std::shared_ptr<const GameSolution> tp1, tp2;
  std::thread t1(
      [&] { tp1 = solve_with_threads(racing.system, purposes[0], 2); });
  std::thread t2(
      [&] { tp2 = solve_with_threads(racing.system, purposes[1], 2); });
  t1.join();
  t2.join();
  EXPECT_EQ(&tp1->graph(), &tp2->graph());
  EXPECT_EQ((tp1->stats().explore_expand_seconds > 0.0) +
                (tp2->stats().explore_expand_seconds > 0.0),
            1);
}

TEST(SolverDeterminism, StrategyGuidedTracesIdentical) {
  // Execute the strategies from differently-threaded solves against the
  // same deterministic implementation: the guided runs must coincide
  // event for event.
  constexpr std::int64_t kScale = 16;
  const lang::LoadedModel spec = load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);
  const auto base =
      solve_with_threads(spec.system, "control: A<> IUT.Bright", 1);
  Strategy base_strategy(base);
  testing::SimulatedImplementation base_imp(plant, kScale,
                                            testing::ImpPolicy{kScale, {}});
  testing::TestExecutor base_exec(base_strategy, base_imp, kScale);
  const testing::TestReport base_report = base_exec.run();

  for (const unsigned threads : {2u, 8u}) {
    const lang::LoadedModel fresh = load_smart_light();
    const auto sol =
        solve_with_threads(fresh.system, "control: A<> IUT.Bright", threads);
    Strategy strategy(sol);
    testing::SimulatedImplementation imp(plant, kScale,
                                         testing::ImpPolicy{kScale, {}});
    testing::TestExecutor exec(strategy, imp, kScale);
    const testing::TestReport report = exec.run();
    EXPECT_EQ(base_report.verdict, report.verdict) << "threads " << threads;
    EXPECT_EQ(base_report.trace_string(), report.trace_string())
        << "threads " << threads;
    EXPECT_EQ(base_report.total_ticks, report.total_ticks);
    EXPECT_EQ(base_report.steps, report.steps);
  }
}

}  // namespace
}  // namespace tigat::game
