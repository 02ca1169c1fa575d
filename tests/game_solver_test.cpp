// Tests for the timed reachability-game solver on hand-analysable
// games, plus the Smart Light control objectives of the paper.
#include <gtest/gtest.h>

#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"

namespace tigat::game {
namespace {

using test_support::load_smart_light;
using tsystem::Controllability;
using tsystem::LocId;
using tsystem::Process;
using tsystem::System;
using tsystem::TestPurpose;

std::shared_ptr<const GameSolution> solve(const System& sys,
                                          const std::string& prop) {
  GameSolver solver(sys, TestPurpose::parse(sys, prop));
  return solver.solve();
}

TEST(GameSolver, GoalAtInitialIsRankZero) {
  System sys("g0");
  sys.add_clock("x");
  Process& p = sys.add_process("P", Controllability::kUncontrollable);
  p.add_location("A");
  sys.finalize();
  const auto sol = solve(sys, "control: A<> P.A");
  EXPECT_TRUE(sol->winning_from_initial());
  EXPECT_TRUE(sol->goal_key(0));
  const std::vector<std::int64_t> zero = {0, 0};
  EXPECT_EQ(sol->rank(0, zero, 1), 0u);
}

TEST(GameSolver, SimpleTimedReachability) {
  // A --a?[x ≥ 2]--> G.  The controller waits, then acts: every state
  // of A is winning (no upper bound on the guard).
  System sys("g1");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  plant.add_edge(la, lg).receive(a).guard(x >= 2);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_TRUE(sol->winning_from_initial());
  // Winning everywhere in A.
  semantics::DiscreteKey key{{la, e0}, sys.data().initial_state()};
  const auto k = sol->graph().find_key(key);
  ASSERT_TRUE(k.has_value());
  const std::vector<std::int64_t> pt0 = {0, 0};
  const std::vector<std::int64_t> pt9 = {0, 9};
  EXPECT_TRUE(sol->rank(*k, pt0, 1).has_value());
  EXPECT_TRUE(sol->rank(*k, pt9, 1).has_value());
  EXPECT_GE(*sol->rank(*k, pt0, 1), 1u);
}

TEST(GameSolver, UpperBoundedGuardLimitsWinning) {
  // A --a?[2 ≤ x ≤ 4]--> G: winning iff x ≤ 4.
  System sys("g2");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  plant.add_edge(la, lg).receive(a).guard({x >= 2, x <= 4});
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_TRUE(sol->winning_from_initial());
  semantics::DiscreteKey key{{la, e0}, sys.data().initial_state()};
  const auto k = sol->graph().find_key(key);
  ASSERT_TRUE(k.has_value());
  const auto at = [&](std::int64_t ticks) {  // scale 2
    const std::vector<std::int64_t> p = {0, ticks};
    return sol->rank(*k, p, 2).has_value();
  };
  EXPECT_TRUE(at(0));
  EXPECT_TRUE(at(8));    // x = 4.0
  EXPECT_FALSE(at(9));   // x = 4.5
  EXPECT_FALSE(at(20));  // x = 10
}

// The race: opponent u! escapes to a sink from x ≥ 3; controller needs
// x ≥ 2.  With ties going to the opponent, winning is exactly x < 3.
TEST(GameSolver, OpponentRaceWithClosedAvoidance) {
  System sys("g3");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  const auto u = sys.add_channel("u", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  const LocId ls = plant.add_location("S");
  plant.add_edge(la, lg).receive(a).guard(x >= 2);
  plant.add_edge(la, ls).send(u).guard(x >= 3);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  env.add_edge(e0, e0).receive(u);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_TRUE(sol->winning_from_initial());
  semantics::DiscreteKey key{{la, e0}, sys.data().initial_state()};
  const auto k = sol->graph().find_key(key);
  ASSERT_TRUE(k.has_value());
  const auto at = [&](std::int64_t ticks) {
    const std::vector<std::int64_t> p = {0, ticks};
    return sol->rank(*k, p, 2).has_value();
  };
  EXPECT_TRUE(at(0));
  EXPECT_TRUE(at(4));   // x = 2: act immediately, opponent not yet able
  EXPECT_TRUE(at(5));   // x = 2.5
  EXPECT_FALSE(at(6));  // x = 3: simultaneous — opponent wins ties
  EXPECT_FALSE(at(7));
}

// If the opponent can escape from the very start, nothing is winning.
TEST(GameSolver, ImmediateEscapeUnwinnable) {
  System sys("g4");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  const auto u = sys.add_channel("u", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  const LocId ls = plant.add_location("S");
  plant.add_edge(la, lg).receive(a).guard(x >= 2);
  plant.add_edge(la, ls).send(u);  // guard true: escape any time
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  env.add_edge(e0, e0).receive(u);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_FALSE(sol->winning_from_initial());
}

// Forced progress: the only route to the goal is an uncontrollable
// output bounded by an invariant (the Smart Light L6 situation).
TEST(GameSolver, ForcedUncontrollableOutputWins) {
  System sys("g5");
  const auto x = sys.add_clock("x");
  const auto o = sys.add_channel("o", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  plant.set_invariant(la, x <= 2);
  plant.add_edge(la, lg).send(o);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).receive(o);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_TRUE(sol->winning_from_initial());
  semantics::DiscreteKey key{{la, e0}, sys.data().initial_state()};
  const auto k = sol->graph().find_key(key);
  ASSERT_TRUE(k.has_value());
  // The whole invariant zone is winning (wait for the forced output).
  const std::vector<std::int64_t> p0 = {0, 0};
  const std::vector<std::int64_t> p2 = {0, 4};
  EXPECT_TRUE(sol->rank(*k, p0, 2).has_value());
  EXPECT_TRUE(sol->rank(*k, p2, 2).has_value());
}

// Same but the opponent has an alternative escape output: not winning.
TEST(GameSolver, ForcedOutputWithEscapeIsNotWinning) {
  System sys("g6");
  const auto x = sys.add_clock("x");
  const auto o = sys.add_channel("o", Controllability::kUncontrollable);
  const auto u = sys.add_channel("u", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  const LocId ls = plant.add_location("S");
  plant.set_invariant(la, x <= 2);
  plant.add_edge(la, lg).send(o);
  plant.add_edge(la, ls).send(u);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).receive(o);
  env.add_edge(e0, e0).receive(u);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_FALSE(sol->winning_from_initial());
}

// Strict invariant bounds never force (the deadline is not attained).
TEST(GameSolver, StrictInvariantDoesNotForce) {
  System sys("g7");
  const auto x = sys.add_clock("x");
  const auto o = sys.add_channel("o", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lg = plant.add_location("G");
  plant.set_invariant(la, x < 2);
  plant.add_edge(la, lg).send(o);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).receive(o);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_FALSE(sol->winning_from_initial());
}

// Urgent location: the SUT must move immediately; all moves winning.
TEST(GameSolver, UrgentLocationForcesImmediately) {
  System sys("g8");
  sys.add_clock("x");
  const auto o = sys.add_channel("o", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A", tsystem::LocationKind::kUrgent);
  const LocId lg = plant.add_location("G");
  plant.add_edge(la, lg).send(o);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).receive(o);
  sys.finalize();

  const auto sol = solve(sys, "control: A<> P.G");
  EXPECT_TRUE(sol->winning_from_initial());
}

// ── Smart Light objectives ───────────────────────────────────────────

TEST(GameSolver, SmartLightBrightIsControllable) {
  const lang::LoadedModel m = load_smart_light();
  const auto sol = solve(m.system, "control: A<> IUT.Bright");
  EXPECT_TRUE(sol->winning_from_initial());
  const auto& st = sol->stats();
  EXPECT_GT(st.rounds, 1u);
  EXPECT_GT(st.winning_zones, 3u);
}

TEST(GameSolver, SmartLightOffIsTriviallyWinning) {
  const lang::LoadedModel m = load_smart_light();
  const auto sol = solve(m.system, "control: A<> IUT.Off");
  EXPECT_TRUE(sol->winning_from_initial());  // initial state is Off
  const std::vector<std::int64_t> zero(m.system.clock_count(), 0);
  EXPECT_EQ(sol->rank(sol->graph().initial_key(), zero, 1), 0u);
}

TEST(GameSolver, SmartLightDimIsControllable) {
  const lang::LoadedModel m = load_smart_light();
  const auto sol = solve(m.system, "control: A<> IUT.Dim");
  EXPECT_TRUE(sol->winning_from_initial());
}

// L4 outputs dim!/off! at the light's whim: "force Bright while never
// passing through Dim or Off" fails from Bright (touching risks both),
// so a strengthened purpose that forbids revisiting Off is unwinnable
// only where Off is forced — sanity-check that winning is *not*
// universal: the purpose "reach Bright with x already past Tidle" is
// not reachable directly from init in one step.
TEST(GameSolver, SmartLightStrategyObjectSane) {
  const lang::LoadedModel m = load_smart_light();
  const auto sol = solve(m.system, "control: A<> IUT.Bright");
  Strategy strat(sol);
  EXPECT_GT(strat.size(), 5u);
  const std::string s = strat.to_string();
  EXPECT_NE(s.find("IUT.Bright"), std::string::npos);
  EXPECT_NE(s.find("take"), std::string::npos);
  EXPECT_NE(s.find("goal reached"), std::string::npos);
}

TEST(GameSolver, StrategyDecidesAtInitialState) {
  const lang::LoadedModel m = load_smart_light();
  const auto sol = solve(m.system, "control: A<> IUT.Bright");
  Strategy strat(sol);
  semantics::ConcreteSemantics sem(m.system, 4);
  semantics::ConcreteState s = sem.initial();
  const Move mv = strat.decide(s, sem.scale());
  ASSERT_TRUE(mv.rank.has_value());
  EXPECT_GT(*mv.rank, 0u);
  // At t=0 the user cannot touch yet (z < Treact): must delay, and the
  // next decision point is finite (when touch becomes useful).
  EXPECT_EQ(mv.kind, MoveKind::kDelay);
  EXPECT_LT(mv.next_decision_ticks, Move::kNoDecision);
  EXPECT_GT(mv.next_decision_ticks, 0);
}

// ── Safety games (`control: A[] φ`) ──────────────────────────────────

TEST(GameSolver, SafetyTriviallyWinningWithoutThreats) {
  System sys("s0");
  sys.add_clock("x");
  Process& p = sys.add_process("P", Controllability::kUncontrollable);
  p.add_location("A");
  sys.finalize();
  const auto sol = solve(sys, "control: A[] P.A");
  EXPECT_TRUE(sol->winning_from_initial());
  EXPECT_TRUE(sol->goal_key(0));  // φ holds at the (only) key
  const std::vector<std::int64_t> zero = {0, 0};
  EXPECT_EQ(sol->rank(0, zero, 1), 0u);
}

// The SUT can always fire u! into the bad location and the tester has
// no escape: nothing maintains φ.  Note φ HOLDS at the initial state —
// safety losing is about the future, not the present.
TEST(GameSolver, SafetyUnwinnableWithoutEscape) {
  System sys("s1");
  sys.add_clock("x");
  const auto u = sys.add_channel("u", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId ls = plant.add_location("S");
  plant.add_edge(la, ls).send(u);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).receive(u);
  sys.finalize();

  const auto sol = solve(sys, "control: A[] !P.S");
  EXPECT_TRUE(sol->goal_key(sol->graph().initial_key()));
  EXPECT_FALSE(sol->winning_from_initial());
}

// An always-enabled controllable escape to a harmless location keeps
// the whole of A safe — even where the threat u! is already enabled,
// because the safe-timed-predecessor's closed avoidance hands
// boundary ties to the attractor's OPPONENT, here the tester.
TEST(GameSolver, SafetyEscapeKeepsEverythingSafe) {
  System sys("s2");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  const auto u = sys.add_channel("u", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lb = plant.add_location("B");
  const LocId ls = plant.add_location("S");
  plant.add_edge(la, lb).receive(a);
  plant.add_edge(la, ls).send(u).guard(x >= 3);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  env.add_edge(e0, e0).receive(u);
  sys.finalize();

  const auto sol = solve(sys, "control: A[] !P.S");
  EXPECT_TRUE(sol->winning_from_initial());
  semantics::DiscreteKey key{{la, e0}, sys.data().initial_state()};
  const auto k = sol->graph().find_key(key);
  ASSERT_TRUE(k.has_value());
  const std::vector<std::int64_t> p10 = {0, 10};
  EXPECT_EQ(sol->rank(*k, p10, 1), 0u);  // u! enabled, escape still wins
}

// Escape a? only while x ≤ 2, capture u! from x ≥ 3: in the gap
// 2 < x < 3 the tester has nothing and the SUT only has to wait, so
// Safe(A) is exactly x ≤ 2.
TEST(GameSolver, SafetyTimedEscapeWindow) {
  System sys("s3");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  const auto u = sys.add_channel("u", Controllability::kUncontrollable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId lb = plant.add_location("B");
  const LocId ls = plant.add_location("S");
  plant.add_edge(la, lb).receive(a).guard(x <= 2);
  plant.add_edge(la, ls).send(u).guard(x >= 3);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  env.add_edge(e0, e0).receive(u);
  sys.finalize();

  const auto sol = solve(sys, "control: A[] !P.S");
  EXPECT_TRUE(sol->winning_from_initial());
  semantics::DiscreteKey key{{la, e0}, sys.data().initial_state()};
  const auto k = sol->graph().find_key(key);
  ASSERT_TRUE(k.has_value());
  const auto safe_at = [&](std::int64_t ticks) {  // scale 2
    const std::vector<std::int64_t> p = {0, ticks};
    return sol->rank(*k, p, 2).has_value();
  };
  EXPECT_TRUE(safe_at(0));
  EXPECT_TRUE(safe_at(4));    // x = 2: the last escape instant
  EXPECT_FALSE(safe_at(5));   // x = 2.5: inside the gap
  EXPECT_FALSE(safe_at(20));  // x = 10
}

// A weak invariant deadline where the tester's ONLY enabled action
// leads into ¬φ: the run cannot block while an action is enabled
// (Def. 7/8 maximal-run semantics), so the tester is forced to ruin
// φ itself — the FORCED set with swapped roles.
TEST(GameSolver, SafetyForcedControllableMoveLoses) {
  System sys("s4");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId ls = plant.add_location("S");
  plant.set_invariant(la, x <= 2);
  plant.add_edge(la, ls).receive(a);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  sys.finalize();

  const auto sol = solve(sys, "control: A[] !P.S");
  EXPECT_FALSE(sol->winning_from_initial());
}

// Same shape with a STRICT invariant: the deadline is never attained,
// no action is ever forced, and idling in A maintains φ forever.
TEST(GameSolver, SafetyStrictInvariantDoesNotForce) {
  System sys("s5");
  const auto x = sys.add_clock("x");
  const auto a = sys.add_channel("a", Controllability::kControllable);
  Process& plant = sys.add_process("P", Controllability::kUncontrollable);
  const LocId la = plant.add_location("A");
  const LocId ls = plant.add_location("S");
  plant.set_invariant(la, x < 2);
  plant.add_edge(la, ls).receive(a);
  Process& env = sys.add_process("E", Controllability::kControllable);
  const LocId e0 = env.add_location("E0");
  env.add_edge(e0, e0).send(a);
  sys.finalize();

  const auto sol = solve(sys, "control: A[] !P.S");
  EXPECT_TRUE(sol->winning_from_initial());
}

TEST(GameSolver, SmartLightSafetyObjectives) {
  const lang::LoadedModel m = load_smart_light();
  // Never touching keeps the light Off forever.
  EXPECT_TRUE(
      solve(m.system, "control: A[] IUT.Off")->winning_from_initial());
  EXPECT_TRUE(
      solve(m.system, "control: A[] !IUT.Bright")->winning_from_initial());
  // φ false at the initial state: immediately lost.
  const auto sol = solve(m.system, "control: A[] IUT.Bright");
  EXPECT_FALSE(sol->goal_key(sol->graph().initial_key()));
  EXPECT_FALSE(sol->winning_from_initial());
}

}  // namespace
}  // namespace tigat::game
