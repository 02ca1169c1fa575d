// Tests for the concrete TIOTS interpreter on the Smart Light model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "semantics/concrete.h"
#include "support/models.h"

namespace tigat::semantics {
namespace {

using test_support::clock;
using test_support::loc;
using test_support::process;

class ConcreteTest : public ::testing::Test {
 protected:
  ConcreteTest()
      : m_(test_support::load_smart_light()),
        sem_(m_.system, /*scale=*/10),
        iut_(process(m_.system, "IUT")),
        user_(process(m_.system, "User")) {}

  tsystem::LocId iut_loc(const std::string& name) const {
    return loc(m_.system, "IUT", name);
  }
  std::uint32_t clock_id(const std::string& name) const {
    return clock(m_.system, name).id;
  }

  // Finds the unique enabled instance on the given channel.
  TransitionInstance instance_on(const ConcreteState& s,
                                 const std::string& chan) const {
    TransitionInstance found;
    int hits = 0;
    for (const auto& t : sem_.enabled_instances(s)) {
      if (const auto c = t.channel_name(m_.system); c && *c == chan) {
        found = t;
        ++hits;
      }
    }
    EXPECT_EQ(hits, 1) << "channel " << chan;
    return found;
  }

  lang::LoadedModel m_;
  ConcreteSemantics sem_;
  std::uint32_t iut_, user_;  // process indices
};

TEST_F(ConcreteTest, InitialState) {
  const ConcreteState s = sem_.initial();
  EXPECT_EQ(s.locs[iut_], iut_loc("Off"));
  EXPECT_EQ(s.locs[user_], loc(m_.system, "User", "Init"));
  EXPECT_EQ(s.clocks[clock_id("x")], 0);
  EXPECT_TRUE(sem_.invariant_holds(s));
}

TEST_F(ConcreteTest, NoTouchBeforeReactTime) {
  const ConcreteState s = sem_.initial();
  // z >= Treact(=1) gates touch; at t=0 nothing is enabled.
  EXPECT_TRUE(sem_.enabled_instances(s).empty());
}

TEST_F(ConcreteTest, TouchActivatesViaL1WhenFresh) {
  ConcreteState s = sem_.initial();
  sem_.delay(s, 10);  // 1.0 time unit: z == Treact
  const auto touch = instance_on(s, "touch");
  EXPECT_TRUE(touch.controllable);
  sem_.fire(s, touch);
  EXPECT_EQ(s.locs[iut_], iut_loc("L1"));  // x = 1 < Tidle
  EXPECT_EQ(s.clocks[clock_id("x")], 0);   // reset
  EXPECT_EQ(s.clocks[clock_id("Tp")], 0);
  EXPECT_EQ(s.locs[user_], loc(m_.system, "User", "Work"));
}

TEST_F(ConcreteTest, TouchAfterIdleGoesToL5) {
  ConcreteState s = sem_.initial();
  sem_.delay(s, 200);  // 20 units = Tidle
  sem_.fire(s, instance_on(s, "touch"));
  EXPECT_EQ(s.locs[iut_], iut_loc("L5"));
}

TEST_F(ConcreteTest, InvariantBoundsDelayInOutputWindow) {
  ConcreteState s = sem_.initial();
  sem_.delay(s, 10);
  sem_.fire(s, instance_on(s, "touch"));  // → L1, Tp = 0
  EXPECT_EQ(sem_.max_delay(s), 20);       // Tp ≤ 2 → 2.0 units
  sem_.delay(s, 20);
  EXPECT_EQ(sem_.max_delay(s), 0);
  EXPECT_FALSE(sem_.can_delay(s, 1));
}

TEST_F(ConcreteTest, UncontrollableOutputsOfferedInWindow) {
  ConcreteState s = sem_.initial();
  sem_.delay(s, 200);
  sem_.fire(s, instance_on(s, "touch"));  // → L5
  sem_.delay(s, 7);                       // anywhere inside the window
  // L5 offers dim! and bright! — both uncontrollable.
  bool saw_dim = false, saw_bright = false;
  for (const auto& t : sem_.enabled_instances(s)) {
    const auto c = t.channel_name(m_.system);
    if (c && *c == "dim") {
      saw_dim = true;
      EXPECT_FALSE(t.controllable);
    }
    if (c && *c == "bright") {
      saw_bright = true;
      EXPECT_FALSE(t.controllable);
    }
  }
  EXPECT_TRUE(saw_dim);
  EXPECT_TRUE(saw_bright);
}

TEST_F(ConcreteTest, BrightViaDoubleTouch) {
  ConcreteState s = sem_.initial();
  sem_.delay(s, 10);
  sem_.fire(s, instance_on(s, "touch"));  // → L1
  sem_.delay(s, 10);                      // z = 1 again, Tp = 1 ≤ 2
  sem_.fire(s, instance_on(s, "touch"));  // → L2
  EXPECT_EQ(s.locs[iut_], iut_loc("L2"));
  sem_.delay(s, 5);
  sem_.fire(s, instance_on(s, "bright"));
  EXPECT_EQ(s.locs[iut_], iut_loc("Bright"));
  EXPECT_EQ(s.clocks[clock_id("x")], 0);
}

TEST_F(ConcreteTest, SlowTouchOnDimMayRefuseToTurnOff) {
  ConcreteState s = sem_.initial();
  sem_.delay(s, 10);
  sem_.fire(s, instance_on(s, "touch"));
  sem_.fire(s, instance_on(s, "dim"));  // → Dim at once
  EXPECT_EQ(s.locs[iut_], iut_loc("Dim"));
  sem_.delay(s, 40);  // x = 4 = Tsw → slow touch
  sem_.fire(s, instance_on(s, "touch"));
  EXPECT_EQ(s.locs[iut_], iut_loc("L3"));
  // The light can answer off! …or dim! (refusal) — both present.
  bool off = false, dim = false;
  for (const auto& t : sem_.enabled_instances(s)) {
    const auto c = t.channel_name(m_.system);
    if (c && *c == "off") off = true;
    if (c && *c == "dim") dim = true;
  }
  EXPECT_TRUE(off);
  EXPECT_TRUE(dim);
}

TEST_F(ConcreteTest, GuardBoundaryStrictness) {
  // x < Tidle vs x >= Tidle at exactly x = Tidle: only L5 branch.
  ConcreteState s = sem_.initial();
  sem_.delay(s, 200);  // x = 20.0 exactly
  const auto touch = instance_on(s, "touch");
  sem_.fire(s, touch);
  EXPECT_EQ(s.locs[iut_], iut_loc("L5"));
  // One tick earlier: only the L1 branch.
  ConcreteState s2 = sem_.initial();
  sem_.delay(s2, 199);
  sem_.fire(s2, instance_on(s2, "touch"));
  EXPECT_EQ(s2.locs[iut_], iut_loc("L1"));
}

TEST_F(ConcreteTest, DeterminismOneInstancePerChannel) {
  // In every visited state, each channel has at most one enabled
  // instance (the SPEC determinism hypothesis of Sec. 2.2).
  ConcreteState s = sem_.initial();
  const auto check = [&](const ConcreteState& st) {
    std::vector<std::string> seen;
    for (const auto& t : sem_.enabled_instances(st)) {
      if (const auto c = t.channel_name(m_.system)) {
        EXPECT_EQ(std::count(seen.begin(), seen.end(), *c), 0)
            << "duplicate enabled instance on " << *c;
        seen.push_back(*c);
      }
    }
  };
  check(s);
  sem_.delay(s, 10);
  check(s);
  sem_.fire(s, instance_on(s, "touch"));
  check(s);
}

TEST_F(ConcreteTest, ToStringIsInformative) {
  const ConcreteState s = sem_.initial();
  const std::string str = sem_.to_string(s);
  EXPECT_NE(str.find("IUT.Off"), std::string::npos);
  EXPECT_NE(str.find("User.Init"), std::string::npos);
  EXPECT_NE(str.find("x="), std::string::npos);
}

// Along seeded random walks of Smart Light and LEP (whose committed
// locations restrict the instances), sync_instances_from is exactly
// the channel's slice of instances_from, and every enabled instance
// lands in a state that satisfies its invariant.
TEST(ConcreteWalk, ChannelSliceAndTargetInvariant) {
  for (const lang::LoadedModel& m :
       {test_support::load_smart_light(), test_support::load_lep(3)}) {
    const tsystem::System& sys = m.system;
    const ConcreteSemantics sem(sys, 4);
    std::mt19937 rng(7);
    ConcreteState s = sem.initial();
    int moves = 0;
    for (int step = 0; step < 400; ++step) {
      const auto all = instances_from(sys, s.locs);
      for (std::uint32_t c = 0; c < sys.channels().size(); ++c) {
        std::vector<TransitionInstance> slice;
        for (const TransitionInstance& t : all) {
          const auto& e = sys.processes()[t.primary.process]
                              .edges()[t.primary.edge];
          if (t.is_sync() && e.channel.id == c) slice.push_back(t);
        }
        EXPECT_EQ(sync_instances_from(sys, s.locs, tsystem::ChannelId{c}),
                  slice)
            << sys.name() << " step " << step << " channel " << c;
      }
      const auto enabled = sem.enabled_instances(s);
      for (const TransitionInstance& t : enabled) {
        ConcreteState next = s;
        sem.fire(next, t);
        EXPECT_TRUE(sem.invariant_holds(next)) << sys.name() << " " << step;
      }
      const std::int64_t max = std::min<std::int64_t>(sem.max_delay(s), 12);
      if (enabled.empty() || (max > 0 && rng() % 3 == 0)) {
        if (max <= 0) break;  // deadlock
        sem.delay(s, 1 + static_cast<std::int64_t>(rng() % max));
      } else {
        sem.fire(s, enabled[rng() % enabled.size()]);
        ++moves;
      }
    }
    EXPECT_GT(moves, 100) << sys.name();
  }
}

}  // namespace
}  // namespace tigat::semantics
