// Property tests: every zone operator is compared against the
// discretised oracle on randomized bounded zones.  The oracle's
// sampling scheme is exact for integer-constant zones (see
// tests/support/grid_oracle.h), so any mismatch is a real bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
    std::vector<Dbm> pieces;
    subtract(a, b, pieces);
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

// ── kernel exactness ──────────────────────────────────────────────────
//
// These compare the zone kernel against reference formulations matrix
// for matrix, with no grid oracle, so they also run at dimensions 5 and
// 6, whose matrices live on the heap (Dbm::kInlineDim is 4).

struct KernelParams {
  std::uint32_t dim;
  std::uint64_t seed;
};

class DbmKernelTest : public ::testing::TestWithParam<KernelParams> {};

// A closed zone inside the box [0, k]^(dim-1) with a few random
// difference constraints; empty zones are retried.
Dbm random_kernel_zone(util::Rng& rng, std::uint32_t dim, std::int32_t k) {
  while (true) {
    Dbm z = Dbm::universal(dim);
    for (std::uint32_t i = 1; i < dim; ++i) {
      z.constrain(i, 0, make_weak(static_cast<bound_t>(rng.range(1, k))));
    }
    bool alive = true;
    for (int c = 0; c < 6 && alive; ++c) {
      const auto i = static_cast<std::uint32_t>(rng.range(0, dim - 1));
      const auto j = static_cast<std::uint32_t>(rng.range(0, dim - 1));
      if (i == j) continue;
      const auto strict = rng.chance(1, 2) ? Strict::kWeak : Strict::kStrict;
      alive = z.constrain(
          i, j, make_bound(static_cast<bound_t>(rng.range(-k, k)), strict));
    }
    if (alive) return z;
  }
}

// intersect_with tightens incrementally; the reference closes the
// pointwise minimum with the O(dim³) close().  Both must agree on
// emptiness, and a non-empty result must be the same matrix.
TEST_P(DbmKernelTest, IntersectWithEqualsClosedPointwiseMinimum) {
  const auto [dim, seed] = GetParam();
  util::Rng rng(seed);
  int empty = 0;
  int nonempty = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const Dbm a = random_kernel_zone(rng, dim, 6);
    const Dbm b = random_kernel_zone(rng, dim, 6);
    Dbm reference(a);
    for (std::uint32_t i = 0; i < dim; ++i) {
      for (std::uint32_t j = 0; j < dim; ++j) {
        reference.set_raw(i, j, std::min(a.at(i, j), b.at(i, j)));
      }
    }
    const bool reference_nonempty = reference.close();
    Dbm result(a);
    const bool result_nonempty = result.intersect_with(b);
    ASSERT_EQ(result_nonempty, reference_nonempty)
        << a.to_string() << " ∩ " << b.to_string();
    EXPECT_EQ(result.is_empty(), !result_nonempty);
    (result_nonempty ? nonempty : empty) += 1;
    if (!result_nonempty) continue;
    EXPECT_TRUE(result == reference)
        << a.to_string() << " ∩ " << b.to_string() << ": "
        << result.to_string() << " vs " << reference.to_string();
  }
  // The sweep must exercise both answers to mean anything.
  EXPECT_GT(empty, 0);
  EXPECT_GT(nonempty, 0);
}

// The facet-by-facet carving subtract() has always done, returning a
// fresh vector: the reference for the appending form.
std::vector<Dbm> reference_subtract(const Dbm& z1, const Dbm& z2) {
  std::vector<Dbm> pieces;
  if (z1.is_empty()) return pieces;
  if (z2.is_empty()) return {z1};
  const std::uint32_t n = z1.dimension();
  Dbm rest(z1);
  for (std::uint32_t i = 0; i < n && !rest.is_empty(); ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const raw_t facet = z2.at(i, j);
      if (is_infinity(facet) || rest.at(i, j) <= facet) continue;
      Dbm piece(rest);
      if (piece.constrain(j, i, negate_bound(facet))) {
        pieces.push_back(std::move(piece));
      }
      if (!rest.constrain(i, j, facet)) break;
    }
  }
  return pieces;
}

// subtract() appends to the caller's vector: what was there stays, and
// the appended pieces are the reference's, in the reference's order.
TEST_P(DbmKernelTest, SubtractAppendsTheReferencePiecesInOrder) {
  const auto [dim, seed] = GetParam();
  util::Rng rng(seed);
  std::vector<Dbm> out;
  std::size_t pieces_seen = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const Dbm a = random_kernel_zone(rng, dim, 6);
    const Dbm b = random_kernel_zone(rng, dim, 6);
    const std::vector<Dbm> expected = reference_subtract(a, b);
    const std::vector<Dbm> kept = out;  // pieces of earlier iterations
    subtract(a, b, out);
    ASSERT_EQ(out.size(), kept.size() + expected.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_TRUE(out[i] == kept[i]) << "earlier piece " << i << " changed";
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(out[kept.size() + i] == expected[i])
          << a.to_string() << " minus " << b.to_string() << ", piece " << i;
    }
    pieces_seen += expected.size();
    if (out.size() > 64) out.clear();
  }
  EXPECT_GT(pieces_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dims, DbmKernelTest,
                         ::testing::Values(KernelParams{2, 41},
                                           KernelParams{3, 51},
                                           KernelParams{3, 52},
                                           KernelParams{4, 61},
                                           KernelParams{5, 71},
                                           KernelParams{6, 81},
                                           KernelParams{6, 82}),
                         [](const auto& info) {
                           return "dim" + std::to_string(info.param.dim) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace tigat::dbm
