// Tests for the Leader Election Protocol model (examples/models/lep.tg)
// and the paper's three test purposes (Sec. 4).
#include <gtest/gtest.h>

#include "game/solver.h"
#include "semantics/concrete.h"
#include "support/models.h"

namespace tigat::lang {
namespace {

using game::GameSolver;
using semantics::ConcreteState;
using semantics::TransitionInstance;
using test_support::load_lep;
using test_support::loc;
using test_support::process;
using test_support::var;
using tsystem::TestPurpose;

// The value of `name[index]` in `s`.
std::int32_t value(const LoadedModel& m, const ConcreteState& s,
                   const std::string& name, std::int64_t index = 0) {
  const auto& data = m.system.data();
  return s.data.get(data.slot_of(var(m.system, name), index));
}

// Fires the first enabled internal move of process "Env" whose effect
// satisfies `wanted` (judged on a copy of `s`); false if none does.
// lep.tg stamps its per-slot edges from one template line, so they
// share a label: the effect is what tells them apart.
template <typename Wanted>
bool fire_env_move(const LoadedModel& m, semantics::ConcreteSemantics& sem,
                   ConcreteState& s, const Wanted& wanted) {
  const std::uint32_t env = process(m.system, "Env");
  for (const TransitionInstance& t : sem.enabled_instances(s)) {
    if (t.is_sync() || t.primary.process != env) continue;
    ConcreteState after = s;
    sem.fire(after, t);
    if (wanted(after)) {
      s = std::move(after);
      return true;
    }
  }
  return false;
}

TEST(Lep, BuildsAndScalesStructurally) {
  for (const std::int64_t n : {2, 3, 5}) {
    const LoadedModel m = load_lep(n);
    const auto& data = m.system.data();
    EXPECT_TRUE(m.system.finalized());
    EXPECT_EQ(m.system.clock_count(), 3u);  // ref + w + e
    EXPECT_EQ(data.decl(var(m.system, "inUse")).size, n);
    EXPECT_EQ(data.decl(var(m.system, "msgAddr")).size, n);
    // Put edges scale with slots × addresses.
    const auto& env = m.system.processes()[process(m.system, "Env")];
    EXPECT_GT(env.edges().size(), static_cast<std::size_t>(n * (n - 1)));
  }
}

TEST(Lep, PurposesParse) {
  const LoadedModel m = load_lep(3);
  ASSERT_EQ(m.purposes.size(), 3u);  // TP1-TP3
  for (const TestPurpose& tp : m.purposes) {
    EXPECT_NO_THROW(TestPurpose::parse(m.system, tp.source)) << tp.source;
  }
}

TEST(Lep, ConcreteScenarioLearnAndForward) {
  const LoadedModel m = load_lep(3);
  const std::uint32_t iut = process(m.system, "IUT");
  semantics::ConcreteSemantics sem(m.system, 4);
  auto s = sem.initial();
  EXPECT_EQ(s.locs[iut], loc(m.system, "IUT", "idle"));
  EXPECT_EQ(value(m, s, "best"), 2);  // own addr

  // Env puts address 0 into slot 1 (a τ move, enabled immediately).
  const bool put_fired = fire_env_move(m, sem, s, [&](const ConcreteState& c) {
    return value(m, c, "inUse", 1) == 1 && value(m, c, "msgAddr", 1) == 0;
  });
  ASSERT_TRUE(put_fired);
  EXPECT_EQ(value(m, s, "inUse", 1), 1);
  EXPECT_EQ(value(m, s, "msgAddr", 1), 0);

  // After the pacing delay, select the slot and deliver.
  sem.delay(s, 4);  // e = 1
  const bool selected = fire_env_move(m, sem, s, [&](const ConcreteState& c) {
    return value(m, c, "sel") == 1;
  });
  ASSERT_TRUE(selected);
  EXPECT_EQ(s.locs[process(m.system, "Env")], loc(m.system, "Env", "envSel"));
  // Committed: time frozen, only the handshake may fire.
  EXPECT_EQ(sem.max_delay(s), 0);
  const auto actions = sem.enabled_instances(s);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].channel_name(m.system).value_or(""), "msg");
  sem.fire(s, actions[0]);

  // The IUT learned the better address and must forward it.
  EXPECT_EQ(s.locs[iut], loc(m.system, "IUT", "pending"));
  EXPECT_EQ(value(m, s, "best"), 0);
  EXPECT_EQ(value(m, s, "betterInfo"), 1);
  EXPECT_EQ(sem.max_delay(s), 2 * 4);  // forward window

  // The forward goes to the lowest free slot (slot 0 here: slot 1 was
  // consumed on delivery).
  bool forwarded = false;
  for (const auto& t : sem.enabled_instances(s)) {
    if (t.channel_name(m.system).value_or("") == "fwd") {
      sem.fire(s, t);
      forwarded = true;
      break;
    }
  }
  ASSERT_TRUE(forwarded);
  EXPECT_EQ(s.locs[iut], loc(m.system, "IUT", "forward"));
  EXPECT_EQ(value(m, s, "inUse", 0), 1);
  EXPECT_EQ(value(m, s, "msgAddr", 0), 0);
}

TEST(Lep, TimeoutWindowIsUncontrollable) {
  const LoadedModel m = load_lep(3);
  semantics::ConcreteSemantics sem(m.system, 4);
  auto s = sem.initial();
  // Before TimeoutLo: no timeout possible.
  sem.delay(s, 3 * 4);
  for (const auto& t : sem.enabled_instances(s)) {
    EXPECT_NE(t.channel_name(m.system).value_or(""), "timeout");
  }
  // Inside [TimeoutLo, TimeoutHi]: the (uncontrollable) timeout is on.
  sem.delay(s, 2 * 4);
  bool timeout_enabled = false;
  for (const auto& t : sem.enabled_instances(s)) {
    if (t.channel_name(m.system).value_or("") == "timeout") {
      timeout_enabled = true;
      EXPECT_FALSE(t.controllable);
      // best == own address: the node heads for a leadership claim.
      sem.fire(s, t);
      EXPECT_EQ(s.locs[process(m.system, "IUT")],
                loc(m.system, "IUT", "claim"));
      break;
    }
  }
  EXPECT_TRUE(timeout_enabled);
  // The invariant forces the timeout by TimeoutHi.
  EXPECT_LE(sem.max_delay(s), 2 * 4);
}

TEST(Lep, AllThreePurposesAreControllable) {
  const LoadedModel m = load_lep(3);
  for (const TestPurpose& tp : m.purposes) {
    GameSolver solver(m.system, tp);
    const auto sol = solver.solve();
    EXPECT_TRUE(sol->winning_from_initial()) << tp.source;
  }
}

TEST(Lep, StateSpaceGrowsWithNodes) {
  std::size_t prev_keys = 0;
  for (const std::int64_t n : {2, 3, 4}) {
    const LoadedModel m = load_lep(n);
    GameSolver solver(m.system, m.purposes.at(0));  // TP1
    const auto sol = solver.solve();
    EXPECT_TRUE(sol->winning_from_initial());
    EXPECT_GT(sol->stats().keys, prev_keys);
    prev_keys = sol->stats().keys;
  }
  EXPECT_GT(prev_keys, 100u);
}

}  // namespace
}  // namespace tigat::lang
