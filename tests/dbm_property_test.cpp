// Property tests: every zone operator is compared against the
// discretised oracle on randomized bounded zones.  The oracle's
// sampling scheme is exact for integer-constant zones (see
// tests/support/grid_oracle.h), so any mismatch is a real bug.
#include <gtest/gtest.h>

#include "dbm/dbm.h"
#include "dbm/federation.h"
#include "support/grid_oracle.h"
#include "util/rng.h"

namespace tigat::dbm {
namespace {

using test::GridOracle;
using test::Point;

constexpr std::int32_t kMaxConst = 4;

struct Params {
  std::uint32_t dim;
  std::uint64_t seed;
};

class DbmPropertyTest : public ::testing::TestWithParam<Params> {};

TEST_P(DbmPropertyTest, CloseIsCanonicalAndSound) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    const Dbm z = grid.random_zone(rng, kMaxConst, 5);
    // Canonical: re-closing changes nothing.
    Dbm reclosed(z);
    ASSERT_TRUE(reclosed.close());
    EXPECT_EQ(reclosed.relation(z), Relation::kEqual) << z.to_string();
  }
}

TEST_P(DbmPropertyTest, DownMatchesOracle) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 30; ++iter) {
    const Dbm z = grid.random_zone(rng, kMaxConst, 5);
    Dbm d(z);
    d.down();
    const Fed f(z);
    for (const Point& p : grid.sample_points()) {
      EXPECT_EQ(d.contains_point(p, GridOracle::kScale), grid.in_down(f, p))
          << "zone: " << z.to_string();
    }
    // down must also be canonical.
    Dbm reclosed(d);
    ASSERT_TRUE(reclosed.close());
    EXPECT_EQ(reclosed.relation(d), Relation::kEqual);
  }
}

TEST_P(DbmPropertyTest, UpMatchesOracle) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 30; ++iter) {
    const Dbm z = grid.random_zone(rng, kMaxConst, 5);
    Dbm u(z);
    u.up();
    const Fed f(z);
    for (const Point& p : grid.sample_points()) {
      EXPECT_EQ(u.contains_point(p, GridOracle::kScale), grid.in_up(f, p))
          << "zone: " << z.to_string();
    }
  }
}

TEST_P(DbmPropertyTest, IntersectionMatchesOracle) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    const Dbm a = grid.random_zone(rng, kMaxConst, 4);
    const Dbm b = grid.random_zone(rng, kMaxConst, 4);
    Dbm c(a);
    const bool nonempty = c.intersect_with(b);
    for (const Point& p : grid.sample_points()) {
      const bool expect = a.contains_point(p, GridOracle::kScale) &&
                          b.contains_point(p, GridOracle::kScale);
      EXPECT_EQ(nonempty && c.contains_point(p, GridOracle::kScale), expect)
          << a.to_string() << " ∩ " << b.to_string();
    }
  }
}

// intersects() decides emptiness from the two canonical matrices alone
// (no closure); it must agree with materialising the intersection.
TEST_P(DbmPropertyTest, IntersectsAgreesWithIntersection) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  int disjoint = 0;
  int overlapping = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Dbm a = grid.random_zone(rng, kMaxConst, 5);
    const Dbm b = grid.random_zone(rng, kMaxConst, 5);
    const bool expect = Dbm(a).intersect_with(b);
    EXPECT_EQ(a.intersects(b), expect) << a.to_string() << " ∩ " << b.to_string();
    EXPECT_EQ(b.intersects(a), expect) << b.to_string() << " ∩ " << a.to_string();
    (expect ? overlapping : disjoint) += 1;
  }
  // The sweep must exercise both answers to mean anything.
  EXPECT_GT(disjoint, 0);
  EXPECT_GT(overlapping, 0);
}

TEST_P(DbmPropertyTest, SubtractMatchesOracleAndIsDisjoint) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    const Dbm a = grid.random_zone(rng, kMaxConst, 4);
    const Dbm b = grid.random_zone(rng, kMaxConst, 4);
    const auto pieces = subtract(a, b);
    for (const Point& p : grid.sample_points()) {
      const bool expect = a.contains_point(p, GridOracle::kScale) &&
                          !b.contains_point(p, GridOracle::kScale);
      int covering = 0;
      for (const Dbm& piece : pieces) {
        covering += piece.contains_point(p, GridOracle::kScale);
      }
      EXPECT_EQ(covering, expect ? 1 : 0)
          << a.to_string() << " minus " << b.to_string()
          << " (covering=" << covering << ")";
    }
  }
}

TEST_P(DbmPropertyTest, ResetMatchesOracle) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 25; ++iter) {
    const Dbm z = grid.random_zone(rng, kMaxConst, 4);
    const auto k = static_cast<std::uint32_t>(rng.range(1, dim - 1));
    Dbm r(z);
    r.reset(k);
    for (const Point& p : grid.sample_points()) {
      EXPECT_EQ(r.contains_point(p, GridOracle::kScale), grid.in_reset(z, k, p))
          << z.to_string() << " reset x" << k;
    }
  }
}

TEST_P(DbmPropertyTest, FreeMatchesOracle) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 25; ++iter) {
    const Dbm z = grid.random_zone(rng, kMaxConst, 4);
    const auto k = static_cast<std::uint32_t>(rng.range(1, dim - 1));
    Dbm f(z);
    f.free(k);
    for (const Point& p : grid.sample_points()) {
      EXPECT_EQ(f.contains_point(p, GridOracle::kScale), grid.in_free(z, k, p))
          << z.to_string() << " free x" << k;
    }
  }
}

TEST_P(DbmPropertyTest, RelationAgreesWithPointSets) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    const Dbm a = grid.random_zone(rng, kMaxConst, 4);
    const Dbm b = grid.random_zone(rng, kMaxConst, 4);
    bool sub = true;
    bool sup = true;
    for (const Point& p : grid.sample_points()) {
      const bool ina = a.contains_point(p, GridOracle::kScale);
      const bool inb = b.contains_point(p, GridOracle::kScale);
      if (ina && !inb) sub = false;
      if (inb && !ina) sup = false;
    }
    // The sampling grid is exact for these zones, so the DBM relation
    // coincides with sample-set inclusion both ways.
    EXPECT_EQ(a.is_subset_of(b), sub) << a.to_string() << " vs " << b.to_string();
    EXPECT_EQ(b.is_subset_of(a), sup) << a.to_string() << " vs " << b.to_string();
  }
}

TEST_P(DbmPropertyTest, ExtrapolationOnlyLoosens) {
  const auto [dim, seed] = GetParam();
  GridOracle grid(dim, kMaxConst);
  util::Rng rng(seed);
  std::vector<bound_t> max_consts(dim, 2);
  max_consts[0] = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const Dbm z = grid.random_zone(rng, kMaxConst, 4);
    Dbm e(z);
    e.extrapolate_max_bounds(max_consts);
    EXPECT_TRUE(z.is_subset_of(e)) << z.to_string() << " vs " << e.to_string();
    // Idempotent.
    Dbm e2(e);
    e2.extrapolate_max_bounds(max_consts);
    EXPECT_EQ(e2.relation(e), Relation::kEqual);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DbmPropertyTest,
                         ::testing::Values(Params{2, 11}, Params{2, 12},
                                           Params{3, 21}, Params{3, 22},
                                           Params{3, 23}, Params{4, 31},
                                           Params{4, 32}),
                         [](const auto& info) {
                           return "dim" + std::to_string(info.param.dim) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace tigat::dbm
