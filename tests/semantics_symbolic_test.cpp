// Tests for the symbolic zone-graph explorer, including the
// concrete-vs-symbolic cross-validation: every state visited by random
// concrete runs must lie inside the symbolic reach set.
#include <gtest/gtest.h>

#include "semantics/concrete.h"
#include "semantics/symbolic.h"
#include "support/models.h"
#include "util/rng.h"

namespace tigat::semantics {
namespace {

using test_support::load_smart_light;
using test_support::loc;
using test_support::process;

TEST(Symbolic, ExploresSmartLightToFixpoint) {
  const lang::LoadedModel m = load_smart_light();
  SymbolicGraph g(m.system);
  g.explore();
  const auto stats = g.stats();
  EXPECT_GT(stats.keys, 5u);
  EXPECT_GT(stats.edges, stats.keys);  // touch loops etc.
  EXPECT_LT(stats.keys, 40u);          // 9 plant × 2 user locations max
  // Every plant location is discrete-reachable.
  std::vector<bool> seen(9, false);
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    seen[g.key(k).locs[process(m.system, "IUT")]] = true;
  }
  for (std::size_t l = 0; l < seen.size(); ++l) {
    EXPECT_TRUE(seen[l]) << "plant location " << l << " unreachable";
  }
}

TEST(Symbolic, InitialZoneIsDelayClosed) {
  const lang::LoadedModel m = load_smart_light();
  SymbolicGraph g(m.system);
  g.explore();
  dbm::Fed scratch(m.system.clock_count());
  const auto& f = g.reach(g.initial_key(), scratch);
  // (Off, Init) has no invariant: any uniform valuation is reachable.
  EXPECT_TRUE(f.contains_point({0, 0, 0, 0}));
  EXPECT_TRUE(f.contains_point({0, 55, 55, 55}));
  // Clock differences stay zero until an action occurs.
  EXPECT_FALSE(f.contains_point({0, 5, 5, 3}));
}

TEST(Symbolic, InvariantCachedPerKey) {
  const lang::LoadedModel m = load_smart_light();
  SymbolicGraph g(m.system);
  g.explore();
  bool found_window = false;
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    const auto plant_loc = g.key(k).locs[process(m.system, "IUT")];
    if (plant_loc == loc(m.system, "IUT", "L5")) {
      found_window = true;
      // Tp ≤ 2 present in the invariant zone.
      EXPECT_FALSE(g.invariant(k).contains_point({0, 0, 3, 0}));
      EXPECT_TRUE(g.invariant(k).contains_point({0, 0, 2, 0}));
    }
  }
  EXPECT_TRUE(found_window);
}

TEST(Symbolic, EdgesCarryControllability) {
  const lang::LoadedModel m = load_smart_light();
  SymbolicGraph g(m.system);
  g.explore();
  bool saw_controllable = false, saw_uncontrollable = false;
  for (const SymbolicEdge& e : g.edges()) {
    if (e.inst.controllable) saw_controllable = true;
    if (!e.inst.controllable) saw_uncontrollable = true;
  }
  EXPECT_TRUE(saw_controllable);
  EXPECT_TRUE(saw_uncontrollable);
}

TEST(Symbolic, PredThroughInvertsApply) {
  const lang::LoadedModel m = load_smart_light();
  SymbolicGraph g(m.system);
  g.explore();
  // For every edge: forward image of reach(src) through the edge lies
  // in reach(dst) (before delay closure it's contained anyway), and
  // pred_through(image) recovers at least the guard-satisfying part of
  // the source zone.
  int checked = 0;
  dbm::Fed src_scratch(m.system.clock_count());
  dbm::Fed dst_fed(m.system.clock_count());
  DiscreteKey fwd_key;
  dbm::Dbm fwd_zone;
  for (const SymbolicEdge& e : g.edges()) {
    const auto& src_fed = g.reach(e.src, src_scratch);
    for (const dbm::Dbm& z : src_fed.zones()) {
      if (!g.successor(e.src, z, e.inst, fwd_key, fwd_zone)) continue;
      EXPECT_EQ(g.find_key(fwd_key).value_or(~0u), e.dst);
      // Forward states are reachable.
      dbm::Fed img(fwd_zone);
      EXPECT_TRUE(img.is_subset_of(g.reach(e.dst, dst_fed)))
          << "edge " << e.inst.label(m.system);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Symbolic, RandomConcreteRunsStayInsideReach) {
  const lang::LoadedModel m = load_smart_light();
  SymbolicGraph g(m.system);
  g.explore();
  ConcreteSemantics sem(m.system, /*scale=*/4);
  util::Rng rng(2024);
  dbm::Fed scratch(m.system.clock_count());

  for (int run = 0; run < 60; ++run) {
    ConcreteState s = sem.initial();
    for (int step = 0; step < 25; ++step) {
      // Random small delay within what invariants allow.
      const std::int64_t md = sem.max_delay(s);
      const std::int64_t cap = std::min<std::int64_t>(md, 30 * 4);
      const std::int64_t d = rng.range(0, cap);
      sem.delay(s, d);
      // Locate the symbolic key and check zone membership.
      DiscreteKey key{s.locs, s.data};
      const auto k = g.find_key(key);
      ASSERT_TRUE(k.has_value()) << sem.to_string(s);
      EXPECT_TRUE(g.reach(*k, scratch).contains_point(s.clocks, sem.scale()))
          << sem.to_string(s);
      // Random enabled action, if any; otherwise force a delay.
      const auto actions = sem.enabled_instances(s);
      if (actions.empty()) {
        if (sem.max_delay(s) == 0) break;  // deadlock (should not happen)
        continue;
      }
      sem.fire(s, actions[static_cast<std::size_t>(
                      rng.range(0, static_cast<std::int64_t>(actions.size()) -
                                       1))]);
    }
  }
}

TEST(Symbolic, ExplorationLimitThrows) {
  const lang::LoadedModel m = load_smart_light();
  ExplorationOptions opt;
  opt.max_zones = 3;
  SymbolicGraph g(m.system, opt);
  EXPECT_THROW(g.explore(), ExplorationLimit);
}

// A one-location loop firing at y == 1 and resetting y pumps the
// difference x − y by one forever: the zones x − y = k are pairwise
// incomparable, so exploration diverges unless Extra_M abstracts the
// difference away.
tsystem::System difference_pump() {
  tsystem::System sys("pump");
  const auto x = sys.add_clock("x");
  const auto y = sys.add_clock("y");
  (void)x;
  tsystem::Process& p =
      sys.add_process("P", tsystem::Controllability::kControllable);
  const auto a = p.add_location("A");
  p.add_edge(a, a).guard({y >= 1, y <= 1}).reset(y);
  sys.finalize();
  return sys;
}

TEST(Symbolic, WithoutExtrapolationDifferencePumpDiverges) {
  tsystem::System sys = difference_pump();
  ExplorationOptions opt;
  opt.extrapolate = false;
  opt.max_zones = 500;
  SymbolicGraph g(sys, opt);
  EXPECT_THROW(g.explore(), ExplorationLimit);
}

TEST(Symbolic, ExtrapolationMakesDifferencePumpFinite) {
  tsystem::System sys = difference_pump();
  SymbolicGraph g(sys);
  g.explore();
  EXPECT_LT(g.stats().zones, 20u);
  EXPECT_EQ(g.key_count(), 1u);
}

TEST(Symbolic, UrgentLocationFreezesTime) {
  tsystem::System sys("urgent");
  const auto x = sys.add_clock("x");
  tsystem::Process& p =
      sys.add_process("P", tsystem::Controllability::kControllable);
  const auto a = p.add_location("A");
  const auto u = p.add_location("U", tsystem::LocationKind::kUrgent);
  p.add_edge(a, u).guard(x >= 1);
  p.add_edge(u, a).reset(x);
  sys.finalize();

  SymbolicGraph g(sys);
  g.explore();
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    if (g.key(k).locs[0] == u) {
      // Zone in U is not delay-closed: x must equal its entry value
      // pattern x ≥ 1 with no up() applied — the zone x ≥ 1 would be
      // closed upward anyway; the distinguishing fact is that U admits
      // zero max delay in the concrete semantics, checked below.
      ConcreteSemantics sem(sys, 2);
      ConcreteState s = sem.initial();
      sem.delay(s, 2);
      sem.fire(s, sem.enabled_instances(s).at(0));
      EXPECT_EQ(s.locs[0], u);
      EXPECT_EQ(sem.max_delay(s), 0);
    }
  }
}

}  // namespace
}  // namespace tigat::semantics
