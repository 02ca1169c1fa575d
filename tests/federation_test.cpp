// Unit and property tests for Fed (unions of zones).
#include "dbm/federation.h"

#include <gtest/gtest.h>

#include <string>

#include "support/grid_oracle.h"
#include "util/rng.h"

namespace tigat::dbm {
namespace {

using test::GridOracle;

Dbm interval(std::uint32_t dim, std::uint32_t clock, bound_t lo, bound_t hi,
             Strict lo_s = Strict::kWeak, Strict hi_s = Strict::kWeak) {
  Dbm z = Dbm::universal(dim);
  EXPECT_TRUE(z.constrain(clock, 0, make_bound(hi, hi_s)));
  EXPECT_TRUE(z.constrain(0, clock, make_bound(-lo, lo_s)));
  return z;
}

TEST(Fed, AddFiltersIncludedZones) {
  Fed f(2);
  f.add(interval(2, 1, 0, 10));
  f.add(interval(2, 1, 2, 5));  // included: ignored
  EXPECT_EQ(f.size(), 1u);
  f.add(interval(2, 1, 0, 20));  // includes member: replaces it
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.contains_point({0, 15}));
}

TEST(Fed, EmptyBehaviour) {
  Fed f(3);
  EXPECT_TRUE(f.is_empty());
  EXPECT_FALSE(f.contains_point({0, 0, 0}));
  EXPECT_TRUE(f.minus(interval(3, 1, 0, 5)).is_empty());
  EXPECT_TRUE(f.is_subset_of(Fed(3)));
}

TEST(Fed, UnionAndMembership) {
  Fed f(2);
  f.add(interval(2, 1, 0, 1));
  f.add(interval(2, 1, 3, 4));
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.contains_point({0, 0}));
  EXPECT_TRUE(f.contains_point({0, 4}));
  EXPECT_FALSE(f.contains_point({0, 2}));
}

TEST(Fed, MinusSplitsAroundHole) {
  Fed f(Dbm::universal(2));
  const Fed rest = f.minus(interval(2, 1, 2, 3));
  EXPECT_TRUE(rest.contains_point({0, 1}));
  EXPECT_TRUE(rest.contains_point({0, 4}));
  EXPECT_FALSE(rest.contains_point({0, 2}));
  EXPECT_FALSE(rest.contains_point({0, 3}));
  // Boundary strictness: x < 2 and x > 3 are in.
  EXPECT_TRUE(rest.contains_point({0, 3}, 2));  // 1.5 at scale 2
  EXPECT_TRUE(rest.contains_point({0, 7}, 2));  // 3.5
}

TEST(Fed, SubsetIsExactNotPerZone) {
  // [0,4] is covered by [0,2] ∪ [1,4] although it is a subset of
  // neither member; exact (subtraction-based) inclusion must see it.
  Fed cover(2);
  cover.add(interval(2, 1, 0, 2));
  cover.add(interval(2, 1, 1, 4));
  Fed whole(2);
  whole.add(interval(2, 1, 0, 4));
  EXPECT_TRUE(whole.is_subset_of(cover));
  EXPECT_TRUE(cover.is_subset_of(whole));
  EXPECT_TRUE(cover.same_set_as(whole));
}

TEST(Fed, IntersectionDistributes) {
  Fed f(2);
  f.add(interval(2, 1, 0, 2));
  f.add(interval(2, 1, 5, 8));
  Fed g(2);
  g.add(interval(2, 1, 1, 6));
  const Fed h = f.intersection(g);
  EXPECT_TRUE(h.contains_point({0, 1}));
  EXPECT_TRUE(h.contains_point({0, 2}));
  EXPECT_TRUE(h.contains_point({0, 5}));
  EXPECT_TRUE(h.contains_point({0, 6}));
  EXPECT_FALSE(h.contains_point({0, 3}));
  EXPECT_FALSE(h.contains_point({0, 7}));
}

TEST(Fed, ReduceDropsCoveredZones) {
  Fed f(2);
  // Insert in an order the add() filter cannot catch (the big zone
  // arrives while two small ones already overlap it partially).
  f.add(interval(2, 1, 0, 2));
  f.add(interval(2, 1, 3, 5));
  f.add(interval(2, 1, 0, 5));
  f.reduce();
  EXPECT_EQ(f.size(), 1u);
}

TEST(Fed, EarliestEntryDelayOverZones) {
  Fed f(2);
  f.add(interval(2, 1, 5, 6));
  f.add(interval(2, 1, 9, 12));
  EXPECT_EQ(f.earliest_entry_delay({0, 0}), 5);
  EXPECT_EQ(f.earliest_entry_delay({0, 7}), 2);
  EXPECT_EQ(f.earliest_entry_delay({0, 10}), 0);
  EXPECT_FALSE(f.earliest_entry_delay({0, 13}).has_value());
}

TEST(Fed, UpDownOverUnions) {
  Fed f(2);
  f.add(interval(2, 1, 2, 3));
  f.add(interval(2, 1, 7, 8));
  const Fed d = f.down();
  EXPECT_TRUE(d.contains_point({0, 0}));
  EXPECT_TRUE(d.contains_point({0, 5}));  // below [7,8]
  const Fed u = f.up();
  EXPECT_TRUE(u.contains_point({0, 100}));
  EXPECT_FALSE(u.contains_point({0, 1}));
}

// heap_bytes() counts the zone vector's slots (capacity × sizeof(Dbm))
// plus the matrix of every zone too large to live inline, i.e. of
// dimension 5 and above.
TEST(Fed, HeapBytesCountSlotsAndHeapMatrices) {
  for (std::uint32_t dim = 2; dim <= 9; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const std::size_t matrix =
        dim > Dbm::kInlineDim ? std::size_t{dim} * dim * sizeof(raw_t) : 0;
    EXPECT_EQ(Fed(dim).heap_bytes(), 0u);
    EXPECT_EQ(Fed(Dbm::universal(dim)).heap_bytes(), sizeof(Dbm) + matrix);
  }
  // Equal vector histories give equal capacities, so the byte counts of
  // same-size federations differ by exactly the heap matrices.
  constexpr std::size_t kZones = 5;
  const auto grown = [](std::uint32_t dim) {
    Fed f(dim);
    for (std::size_t z = 0; z < kZones; ++z) {
      f.append_raw(interval(dim, 1, static_cast<bound_t>(3 * z),
                            static_cast<bound_t>(3 * z + 1)));
    }
    return f;
  };
  const Fed base = grown(3);
  EXPECT_EQ(base.heap_bytes() % sizeof(Dbm), 0u);
  EXPECT_GE(base.heap_bytes(), kZones * sizeof(Dbm));
  EXPECT_EQ(grown(4).heap_bytes(), base.heap_bytes());
  EXPECT_EQ(grown(6).heap_bytes(),
            base.heap_bytes() + kZones * 36 * sizeof(raw_t));
  for (std::uint32_t dim = 5; dim <= 8; ++dim) {
    EXPECT_EQ(grown(dim).heap_bytes(),
              base.heap_bytes() + kZones * dim * dim * sizeof(raw_t))
        << "dim=" << dim;
  }
}

// Randomized: federation algebra against the grid oracle.
class FedPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FedPropertyTest, MinusIntersectUnionMatchOracle) {
  constexpr std::int32_t kMax = 4;
  GridOracle grid(3, kMax);
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const Fed a = grid.random_fed(rng, kMax, 3);
    const Fed b = grid.random_fed(rng, kMax, 3);
    const Fed diff = a.minus(b);
    const Fed inter = a.intersection(b);
    Fed uni = a;
    uni |= b;
    for (const auto& p : grid.sample_points()) {
      const bool ina = a.contains_point(p, GridOracle::kScale);
      const bool inb = b.contains_point(p, GridOracle::kScale);
      EXPECT_EQ(diff.contains_point(p, GridOracle::kScale), ina && !inb);
      EXPECT_EQ(inter.contains_point(p, GridOracle::kScale), ina && inb);
      EXPECT_EQ(uni.contains_point(p, GridOracle::kScale), ina || inb);
    }
  }
}

TEST_P(FedPropertyTest, SubsetMatchesOracle) {
  constexpr std::int32_t kMax = 3;
  GridOracle grid(3, kMax);
  util::Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 20; ++iter) {
    const Fed a = grid.random_fed(rng, kMax, 3);
    const Fed b = grid.random_fed(rng, kMax, 3);
    bool sub = true;
    for (const auto& p : grid.sample_points()) {
      if (a.contains_point(p, GridOracle::kScale) &&
          !b.contains_point(p, GridOracle::kScale)) {
        sub = false;
        break;
      }
    }
    EXPECT_EQ(a.is_subset_of(b), sub)
        << a.to_string() << " vs " << b.to_string();
  }
}

TEST_P(FedPropertyTest, ReducePreservesSet) {
  constexpr std::int32_t kMax = 4;
  GridOracle grid(3, kMax);
  util::Rng rng(GetParam() + 2000);
  for (int iter = 0; iter < 20; ++iter) {
    Fed a = grid.random_fed(rng, kMax, 4);
    const Fed before = a;
    a.reduce();
    EXPECT_TRUE(a.same_set_as(before));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedPropertyTest,
                         ::testing::Values(7u, 8u, 9u, 10u));

}  // namespace
}  // namespace tigat::dbm
