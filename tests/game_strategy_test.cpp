// Focused tests for strategy extraction: rank structure, move
// decisions along a winning play, decision-point computation, and the
// strategy-execution progress argument (ranks strictly decrease).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "game/solver.h"
#include "game/strategy.h"
#include "semantics/concrete.h"
#include "support/models.h"

namespace tigat::game {
namespace {

using test_support::clock;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest()
      : light_(test_support::load_smart_light()),
        solution_(GameSolver(light_.system,
                             TestPurpose::parse(light_.system,
                                                "control: A<> IUT.Bright"))
                      .solve()),
        strategy_(solution_),
        sem_(light_.system, kScale) {}

  lang::LoadedModel light_;
  std::shared_ptr<const GameSolution> solution_;
  Strategy strategy_;
  semantics::ConcreteSemantics sem_;
};

TEST_F(StrategyTest, RanksArePerRoundDeltas) {
  const auto& g = solution_->graph();
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    std::uint32_t prev = 0;
    bool first = true;
    for (const auto& d : solution_->deltas(k)) {
      EXPECT_FALSE(d.gained.is_empty());
      if (!first) {
        EXPECT_GT(d.round, prev);
      }
      prev = d.round;
      first = false;
    }
    // Goal keys have a round-0 delta covering all of reach.
    if (solution_->goal_key(k)) {
      ASSERT_FALSE(solution_->deltas(k).empty());
      EXPECT_EQ(solution_->deltas(k).front().round, 0u);
      dbm::Fed scratch(g.system().clock_count());
      dbm::Fed win(g.system().clock_count());
      EXPECT_TRUE(
          g.reach(k, scratch).is_subset_of(solution_->winning(k, win)));
    }
  }
}

TEST_F(StrategyTest, WinningUpToIsMonotone) {
  const auto& g = solution_->graph();
  const std::uint32_t dim = g.system().clock_count();
  dbm::Fed lo_scratch(dim), hi_scratch(dim), win(dim);
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    const auto& lo = solution_->winning_up_to(k, 1, lo_scratch);
    const auto& hi = solution_->winning_up_to(k, 1000, hi_scratch);
    EXPECT_TRUE(lo.is_subset_of(hi));
    EXPECT_TRUE(hi.same_set_as(solution_->winning(k, win)));
  }
}

TEST_F(StrategyTest, DecisionPointMatchesUserReactionTime) {
  auto s = sem_.initial();
  const Move m0 = strategy_.decide(s, kScale);
  ASSERT_EQ(m0.kind, MoveKind::kDelay);
  // The user may touch at z >= Treact = 1 → 16 ticks.
  EXPECT_EQ(m0.next_decision_ticks, kScale);
  sem_.delay(s, m0.next_decision_ticks);
  const Move m1 = strategy_.decide(s, kScale);
  EXPECT_EQ(m1.kind, MoveKind::kAction);
}

TEST_F(StrategyTest, PlayedStrategyRanksStrictlyDecrease) {
  // Drive the SPEC with the strategy itself (resolving uncontrollable
  // choices adversarially: always pick the first enabled output) and
  // check that the rank never increases and strictly decreases at
  // every discrete step — the termination argument of Algorithm 3.1.
  auto s = sem_.initial();
  Move move = strategy_.decide(s, kScale);
  ASSERT_TRUE(move.rank.has_value());
  std::uint32_t rank = *move.rank;
  int steps = 0;
  while (move.kind != MoveKind::kGoalReached && steps++ < 60) {
    if (move.kind == MoveKind::kAction) {
      const auto& e = solution_->graph().edges()[*move.edge];
      ASSERT_TRUE(sem_.enabled(s, e.inst));
      sem_.fire(s, e.inst);
    } else {
      ASSERT_EQ(move.kind, MoveKind::kDelay);
      std::int64_t wait = move.next_decision_ticks;
      const std::int64_t deadline = sem_.max_delay(s);
      wait = std::min(wait, deadline);
      ASSERT_GT(wait, 0);
      sem_.delay(s, wait);
      if (wait == deadline && deadline < sem_.kNoDeadline) {
        // Opponent forced: fire the first enabled uncontrollable edge.
        bool fired = false;
        for (const auto& t : sem_.enabled_instances(s)) {
          if (!t.controllable) {
            sem_.fire(s, t);
            fired = true;
            break;
          }
        }
        ASSERT_TRUE(fired) << "deadline with nothing to fire";
      }
    }
    move = strategy_.decide(s, kScale);
    ASSERT_TRUE(move.rank.has_value()) << sem_.to_string(s);
    EXPECT_LE(*move.rank, rank) << sem_.to_string(s);
    rank = *move.rank;
  }
  EXPECT_EQ(move.kind, MoveKind::kGoalReached);
}

TEST_F(StrategyTest, UnreachableStateIsUnwinnable) {
  auto s = sem_.initial();
  // Fabricate a discretely unreachable situation: user in Work while
  // the light never left Off with all clocks at zero is reachable...
  // instead use clocks violating the reach zones: x != z before any
  // action is impossible.
  s.clocks[clock(light_.system, "x").id] = 5;
  s.clocks[clock(light_.system, "z").id] = 3;
  const Move m = strategy_.decide(s, kScale);
  EXPECT_EQ(m.kind, MoveKind::kUnwinnable);
  EXPECT_FALSE(m.rank.has_value());
}

TEST_F(StrategyTest, StrategyPrintingIsStable) {
  const std::string a = strategy_.to_string();
  const std::string b = strategy_.to_string();
  EXPECT_EQ(a, b);
  EXPECT_GT(strategy_.size(), 0u);
}

TEST_F(StrategyTest, DecideIsSafeForConcurrentCallers) {
  // One strategy, many parallel executions (the campaign-service
  // shape): every thread starts on a COLD region cache and decides the
  // same states; all must agree with a serial baseline.  Run under
  // TSan in CI (game_ filter) to catch cache races.  The safety game
  // fills the cache's Safe map as well.
  std::vector<semantics::ConcreteState> states;
  auto s = sem_.initial();
  states.push_back(s);
  for (int step = 0; step < 6; ++step) {
    sem_.delay(s, kScale / 2);
    states.push_back(s);
  }
  const auto safety = GameSolver(light_.system,
                                 TestPurpose::parse(light_.system,
                                                    "control: A[] !IUT.Bright"))
                          .solve();
  for (const auto& solution : {solution_, safety}) {
    SCOPED_TRACE(solution->purpose().source);
    const Strategy walked(solution);
    std::vector<Move> baseline;
    for (const auto& state : states) {
      baseline.push_back(walked.decide(state, kScale));
    }
    EXPECT_GT(walked.cached_region_bytes(), 0u);

    // The cache lives on the Strategy, so a fresh one over the same,
    // already walked solution is cold for the race window.
    const Strategy fresh(solution);
    ASSERT_EQ(fresh.cached_region_bytes(), 0u);
    constexpr int kThreads = 8;
    std::vector<std::vector<Move>> results(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int rep = 0; rep < 50; ++rep) {
          for (const auto& state : states) {
            const Move m = fresh.decide(state, kScale);
            if (rep == 0) results[t].push_back(m);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(results[t].size(), baseline.size());
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(results[t][i], baseline[i])
            << "thread " << t << " state " << i;
      }
    }
  }
}

TEST_F(StrategyTest, SolverStatsPopulated) {
  const auto& st = solution_->stats();
  EXPECT_GT(st.keys, 0u);
  EXPECT_GT(st.reach_zones, 0u);
  EXPECT_GT(st.edges, st.keys);
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.winning_zones, 0u);
  EXPECT_GT(st.peak_zone_bytes, 0u);
}

}  // namespace
}  // namespace tigat::game
