// decision::compile fans out over the worker count of the solve that
// built the solution (GameSolution::worker_count): each key range is
// lowered into its own fragment and the fragments are packed in key
// order.  The table must not depend on that count.  Solve at 1, 2 and 8
// threads and require byte-identical .tgs images and equal compile
// counters, on LEP n=4 TP1-TP3 (large enough to compile in parallel)
// and the Smart Light reach, cooperative and safety purposes.
//
// Each image is also pinned to a golden FNV-1a hash of its bytes, so a
// change to zone storage, the fixpoint or the compiler that alters any
// table byte fails here even when it is deterministic.
//
// A System memoizes its explored graph, so every width solves a freshly
// loaded model and explores at that width.
//
// Compile reads the solution and must leave nothing behind that a
// later compile or strategy walk could observe; one test compiles
// twice, compiles after a walk, and walks before and after compiling.
// PrefixUnions pins the decoded per-round prefix unions that both
// consumers read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "decision/compiler.h"
#include "decision/format.h"
#include "decision/serialize.h"
#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "semantics/concrete.h"
#include "support/models.h"
#include "util/rng.h"

namespace tigat::decision {
namespace {

using test_support::load_lep;
using test_support::load_smart_light;
using test_support::model_path;

lang::LoadedModel load_lep4() { return load_lep(4); }

struct Compiled {
  std::vector<std::uint8_t> bytes;
  CompileStats stats;
};

Compiled compile_at(const game::GameSolution& solution) {
  Compiled out;
  out.bytes = to_bytes(compile(solution, &out.stats));
  return out;
}

// `solve(threads)` returns a solution built with that many workers;
// `golden` is the FNV-1a hash of the expected .tgs image.
template <typename Solve>
void expect_same_table_at_any_width(const Solve& solve, std::uint64_t golden) {
  const auto base_solution = solve(1u);
  ASSERT_EQ(base_solution->worker_count(), 1u);
  const Compiled base = compile_at(*base_solution);
  ASSERT_FALSE(base.bytes.empty());
  EXPECT_EQ(fnv1a(base.bytes.data(), base.bytes.size()), golden)
      << std::hex << "image hash 0x"
      << fnv1a(base.bytes.data(), base.bytes.size());
  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto solution = solve(threads);
    EXPECT_EQ(solution->worker_count(), threads);
    EXPECT_NE(&solution->graph(), &base_solution->graph())
        << "the solve reused the base graph instead of exploring";
    const Compiled other = compile_at(*solution);
    EXPECT_TRUE(other.bytes == base.bytes) << "the .tgs image differs";
    EXPECT_EQ(other.stats.cascade_entries, base.stats.cascade_entries);
    EXPECT_EQ(other.stats.nodes_built, base.stats.nodes_built);
  }
}

std::shared_ptr<const game::GameSolution> solve(const tsystem::System& system,
                                                const tsystem::TestPurpose& p,
                                                unsigned threads) {
  game::SolverOptions options;
  options.threads = threads;
  return game::GameSolver(system, p, options).solve();
}

// Solves purpose `index` of a model loaded afresh into `kept`, which
// must outlive the solution.
template <typename Load>
std::shared_ptr<const game::GameSolution> solve_fresh(
    std::deque<lang::LoadedModel>& kept, const Load& load, std::size_t index,
    unsigned threads) {
  kept.push_back(load());
  return solve(kept.back().system, kept.back().purposes.at(index), threads);
}

class CompileDeterminismLepN4 : public ::testing::TestWithParam<int> {};

TEST_P(CompileDeterminismLepN4, CompileIsByteIdenticalAcrossThreadCounts) {
  constexpr std::uint64_t kGolden[] = {0xa68a49587483496aull,
                                       0xa11f68b554ed405cull,
                                       0xf472a316c990ee8cull};
  std::deque<lang::LoadedModel> kept;
  expect_same_table_at_any_width(
      [&](unsigned threads) {
        return solve_fresh(kept, load_lep4, GetParam(), threads);
      },
      kGolden[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(Purposes, CompileDeterminismLepN4,
                         ::testing::Values(0, 1, 2), [](const auto& info) {
                           return "TP" + std::to_string(info.param + 1);
                         });

// Reach delay leaves carry no danger slice, and their default (0, 0)
// is packed apart from the interned empty zone slice unless the game's
// first interned slice was empty.  LEP n=4 TP1 has three delay leaves
// with an empty zone slice, and the .tgs format has always placed that
// slice at zone_refs offset 6, where it is first reached.
TEST(CompileDeterminism, LepN4Tp1EmptySliceKeepsItsOffset) {
  const lang::LoadedModel lep = load_lep4();
  const auto solution = solve(lep.system, lep.purposes.at(0), 2);
  const TableData data = compile(*solution).export_data();
  std::size_t empty = 0;
  for (const TableData::Leaf& leaf : data.leaves) {
    if (leaf.kind != game::MoveKind::kDelay || leaf.zones_count != 0) continue;
    ++empty;
    EXPECT_EQ(leaf.zones_first, 6u);
  }
  EXPECT_EQ(empty, 3u);
}

TEST(CompileDeterminism, SmartLightReach) {
  std::deque<lang::LoadedModel> kept;
  expect_same_table_at_any_width([&](unsigned threads) {
    return solve_fresh(kept, [] { return load_smart_light(); }, 0, threads);
  }, 0xa08aceabe3806690ull);
}

TEST(CompileDeterminism, SmartLightCooperative) {
  const lang::LoadedModel light = load_smart_light();
  const auto purpose =
      tsystem::TestPurpose::parse(light.system, "control: A<> IUT.L6");
  // The relaxed system must outlive the solution built on it.
  std::vector<game::CooperativeResult> kept;
  expect_same_table_at_any_width([&](unsigned threads) {
    game::SolverOptions options;
    options.threads = threads;
    kept.push_back(game::solve_cooperative(light.system, purpose, options));
    return kept.back().solution;
  }, 0xbb7cc4be6396086bull);
}

TEST(CompileDeterminism, SmartLightSafety) {
  std::deque<lang::LoadedModel> kept;
  const auto load = [] {
    return lang::load_model(model_path("smart_light_safety.tg"));
  };
  expect_same_table_at_any_width([&](unsigned threads) {
    return solve_fresh(kept, load, 0, threads);
  }, 0x76a604c4cb0d97d6ull);
}

// Draws `count` states the walk can decide (not unwinnable) from the
// solution's keys, with clocks in [0, (max constant + 2) · scale].
std::vector<semantics::ConcreteState> winnable_states(
    const game::Strategy& walk, std::size_t count, std::int64_t scale) {
  const semantics::SymbolicGraph& g = walk.solution().graph();
  std::int64_t max_constant = 0;
  for (const dbm::bound_t c : g.system().max_constants()) {
    max_constant = std::max<std::int64_t>(max_constant, c);
  }
  const std::int64_t hi = (max_constant + 2) * scale;
  util::Rng rng(7);
  std::vector<semantics::ConcreteState> out;
  for (std::size_t draws = 0; out.size() < count && draws < 100 * count;
       ++draws) {
    const auto k = static_cast<std::uint32_t>(
        rng.range(0, static_cast<std::int64_t>(g.key_count()) - 1));
    semantics::ConcreteState s{g.key(k).locs, g.key(k).data,
                               std::vector<std::int64_t>(
                                   g.system().clock_count(), 0)};
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      s.clocks[c] = rng.range(0, hi);
    }
    if (walk.decide(s, scale).kind != game::MoveKind::kUnwinnable) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<game::Move> decide_all(
    const game::Strategy& walk,
    const std::vector<semantics::ConcreteState>& states, std::int64_t scale) {
  std::vector<game::Move> moves;
  for (const semantics::ConcreteState& s : states) {
    moves.push_back(walk.decide(s, scale));
  }
  return moves;
}

// Compiling reads the solution without leaving state that changes a
// later compile or walk: two compiles of one solution agree, a compile
// after a walk equals a cold compile, and the walk decides the same
// before and after a compile.
TEST(CompileDeterminism, CompileLeavesTheSolutionUnchanged) {
  constexpr std::int64_t kScale = 16;
  const lang::LoadedModel lep = load_lep4();
  const auto cold_solution = solve(lep.system, lep.purposes.at(0), 2);
  const std::vector<std::uint8_t> cold = compile_at(*cold_solution).bytes;
  EXPECT_TRUE(compile_at(*cold_solution).bytes == cold)
      << "a second compile of one solution differs";

  // Same System: the second solve shares the graph but is a solution
  // of its own, untouched by the compiles above.
  const auto solution = solve(lep.system, lep.purposes.at(0), 2);
  const game::Strategy walk(solution);
  const auto states = winnable_states(walk, 64, kScale);
  ASSERT_EQ(states.size(), 64u);
  const std::vector<game::Move> before = decide_all(walk, states, kScale);
  EXPECT_GT(walk.cached_region_bytes(), 0u);

  EXPECT_TRUE(compile_at(*solution).bytes == cold)
      << "compiling after a walk differs from a cold compile";
  EXPECT_EQ(decide_all(walk, states, kScale), before);
  EXPECT_EQ(decide_all(game::Strategy(solution), states, kScale), before)
      << "a strategy started after the compile decides differently";
}

// The decoded prefix unions are concatenations of the key's deltas in
// round order; that must be exactly the federation the
// inclusion-filtering union builds, zone for zone, since the compiler
// writes the member zones of winning_up_to into the table.  Returns
// how many keys have an intermediate prefix joining two or more deltas.
std::size_t expect_prefixes_are_unions(const game::GameSolution& solution) {
  const semantics::SymbolicGraph& g = solution.graph();
  std::size_t joined = 0;
  const auto last_round = static_cast<std::uint32_t>(solution.stats().rounds);
  dbm::Fed scratch(g.system().clock_count());
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    const auto deltas = solution.deltas(k);
    if (deltas.size() >= 3) ++joined;
    for (std::uint32_t r = 0; r <= last_round; ++r) {
      dbm::Fed expected(g.system().clock_count());
      std::size_t applied = 0;
      for (const game::GameSolution::Delta& d : deltas) {
        if (d.round > r) break;
        if (applied++ == 0) {
          expected = d.gained;
        } else {
          expected |= d.gained;
        }
      }
      EXPECT_TRUE(solution.winning_up_to(k, r, scratch).zones() ==
                  expected.zones())
          << "key " << k << " round " << r;
    }
  }
  return joined;
}

TEST(PrefixUnions, LepN4) {
  const lang::LoadedModel lep = load_lep4();
  std::size_t joined = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    SCOPED_TRACE("TP" + std::to_string(p + 1));
    joined +=
        expect_prefixes_are_unions(*solve(lep.system, lep.purposes.at(p), 2));
  }
  EXPECT_GT(joined, 0u) << "no prefix joins two deltas";
}

TEST(PrefixUnions, SmartLight) {
  const lang::LoadedModel light = load_smart_light();
  expect_prefixes_are_unions(*solve(light.system, light.purposes.at(0), 2));
  const game::CooperativeResult coop = game::solve_cooperative(
      light.system,
      tsystem::TestPurpose::parse(light.system, "control: A<> IUT.L6"));
  expect_prefixes_are_unions(*coop.solution);
  const lang::LoadedModel safety =
      lang::load_model(model_path("smart_light_safety.tg"));
  expect_prefixes_are_unions(*solve(safety.system, safety.purposes.at(0), 2));
}

}  // namespace
}  // namespace tigat::decision
