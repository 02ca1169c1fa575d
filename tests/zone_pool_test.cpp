// dbm::ZonePool / dbm::PooledFed — dictionary-compressed zone storage.
//
// A PooledFed mirrors Fed::add's filtering and member ORDER exactly,
// so compress → materialize round-trips to a bit-identical federation
// (operator== per zone, same order); Fed is the reference throughout.
// End-to-end solver behaviour is pinned by the golden .tgs hashes of
// tests/compile_determinism_test.cpp, the region-solver cross-check
// and the thread-count determinism suites.  Here the solver is only
// checked for reporting the compressed footprint.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dbm/zone_pool.h"
#include "game/solver.h"
#include "support/models.h"
#include "util/rng.h"

namespace tigat::dbm {
namespace {

using test_support::load_lep;

// Random non-empty zone over `dim` clocks: constrain a universal zone
// with a handful of random (i, j, bound) facets; retry on emptiness.
Dbm random_zone(util::Rng& rng, std::uint32_t dim) {
  for (;;) {
    Dbm z = Dbm::universal(dim);
    bool alive = true;
    const int facets = static_cast<int>(rng.range(1, 2 * dim));
    for (int f = 0; f < facets && alive; ++f) {
      const auto i = static_cast<std::uint32_t>(rng.range(0, dim - 1));
      const auto j = static_cast<std::uint32_t>(rng.range(0, dim - 1));
      if (i == j) continue;
      const auto c = static_cast<bound_t>(rng.range(i == 0 ? -8 : 0, 10));
      const raw_t b = rng.chance(1, 2) ? make_weak(c) : make_strict(c);
      alive = z.constrain(i, j, b);
    }
    if (alive) return z;
  }
}

TEST(ZonePool, RowInterningDeduplicates) {
  ZonePool pool(3);
  const raw_t row_a[3] = {kLeZero, make_weak(-1), make_weak(-2)};
  const raw_t row_b[3] = {make_weak(5), kLeZero, kInfinity};
  const auto a1 = pool.intern_row(row_a);
  const auto b1 = pool.intern_row(row_b);
  const auto a2 = pool.intern_row(row_a);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b1);
  EXPECT_EQ(pool.row_count(), 2u);
  EXPECT_EQ(0, std::memcmp(pool.row(a1), row_a, sizeof row_a));
  EXPECT_EQ(0, std::memcmp(pool.row(b1), row_b, sizeof row_b));
}

// The core mirror property: feed the SAME random zone stream to a Fed
// (via add) and a PooledFed (via add); at every step the materialized
// PooledFed must equal the Fed bit for bit, including member order.
TEST(ZonePool, AddMirrorsFedExactly) {
  for (const std::uint32_t dim : {2u, 3u, 4u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    util::Rng rng(42 + dim);
    ZonePool pool(dim);
    for (int trial = 0; trial < 30; ++trial) {
      Fed fed(dim);
      PooledFed pooled(dim);
      Fed materialized(dim);
      for (int step = 0; step < 25; ++step) {
        const Dbm z = random_zone(rng, dim);
        fed.add(z);
        pooled.add(z, pool);
        ASSERT_EQ(pooled.size(), fed.size());
        pooled.materialize(materialized, pool);
        ASSERT_EQ(materialized.size(), fed.size());
        for (std::size_t m = 0; m < fed.size(); ++m) {
          ASSERT_TRUE(materialized.zones()[m] == fed.zones()[m])
              << "trial " << trial << " step " << step << " member " << m;
        }
      }
    }
  }
}

// add() is also the exploration's subsumption test: it must refuse a
// zone exactly when a single member contains it.
TEST(ZonePool, AddRejectsExactlyTheZonesOneMemberCovers) {
  util::Rng rng(7);
  const std::uint32_t dim = 3;
  ZonePool pool(dim);
  Fed fed(dim);
  PooledFed pooled(dim);
  for (int i = 0; i < 40; ++i) {
    const Dbm z = random_zone(rng, dim);
    fed.add(z);
    pooled.add(z, pool);
  }
  for (int i = 0; i < 200; ++i) {
    const Dbm probe = random_zone(rng, dim);
    bool plain = false;
    for (const Dbm& member : fed.zones()) {
      if (probe.is_subset_of(member)) {
        plain = true;
        break;
      }
    }
    PooledFed grown = pooled;
    EXPECT_EQ(grown.add(probe, pool), !plain) << "probe " << i;
  }
}

TEST(ZonePool, ContainsPointMatchesMaterialized) {
  util::Rng rng(11);
  const std::uint32_t dim = 3;
  ZonePool pool(dim);
  PooledFed pooled(dim);
  Fed fed(dim);
  for (int i = 0; i < 20; ++i) {
    const Dbm z = random_zone(rng, dim);
    fed.add(z);
    pooled.add(z, pool);
  }
  for (int i = 0; i < 300; ++i) {
    std::vector<std::int64_t> point(dim, 0);
    for (std::uint32_t c = 1; c < dim; ++c) point[c] = rng.range(0, 12);
    EXPECT_EQ(pooled.contains_point(point, pool), fed.contains_point(point))
        << "point trial " << i;
  }
}

TEST(ZonePool, AssignRoundTripsArbitraryFeds) {
  util::Rng rng(13);
  const std::uint32_t dim = 4;
  ZonePool pool(dim);
  for (int trial = 0; trial < 20; ++trial) {
    Fed fed(dim);
    for (int i = 0; i < 10; ++i) fed.add(random_zone(rng, dim));
    PooledFed pooled(dim);
    pooled.assign(fed, pool);
    Fed back(dim);
    pooled.materialize(back, pool);
    ASSERT_EQ(back.size(), fed.size());
    for (std::size_t m = 0; m < fed.size(); ++m) {
      EXPECT_TRUE(back.zones()[m] == fed.zones()[m]) << "member " << m;
    }
  }
}

// Decoding writes pooled rows straight into the zone's own storage:
// inline up to Dbm::kInlineDim (3, 4), one heap block above (5, 9).
// zone(i) and materialize must both reproduce the reference Fed bit
// for bit, member by member and in order, on either path.
TEST(ZonePool, DecodeRoundTripsOnBothStoragePaths) {
  for (const std::uint32_t dim : {3u, 4u, 5u, 9u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    util::Rng rng(17 + dim);
    ZonePool pool(dim);
    for (int trial = 0; trial < 10; ++trial) {
      Fed fed(dim);
      PooledFed pooled(dim);
      for (int i = 0; i < 12; ++i) {
        const Dbm z = random_zone(rng, dim);
        fed.add(z);
        pooled.add(z, pool);
      }
      ASSERT_EQ(pooled.size(), fed.size());
      Fed materialized(dim);
      pooled.materialize(materialized, pool);
      ASSERT_EQ(materialized.size(), fed.size());
      for (std::size_t m = 0; m < fed.size(); ++m) {
        const Dbm decoded = pooled.zone(m, pool);
        EXPECT_EQ(decoded.dimension(), dim);
        EXPECT_TRUE(decoded == fed.zones()[m])
            << "trial " << trial << " member " << m;
        EXPECT_TRUE(materialized.zones()[m] == fed.zones()[m])
            << "trial " << trial << " member " << m;
      }
    }
  }
}

TEST(ZonePoolSolver, CompactReportsCompressedFootprint) {
  // The Table 1 memory column must reflect the compressed store.  At
  // the end of a solve the reach and winning sets are both live, so
  // any storage as dim×dim matrices would peak at least at their
  // matrix bytes; row ids must stay below that.
  const lang::LoadedModel lep = load_lep(4);
  game::SolverOptions opt;
  opt.threads = 1;
  game::GameSolver solver(lep.system, lep.purposes[0], opt);
  const auto solution = solver.solve();
  const game::SolverStats& st = solution->stats();
  const std::size_t dim = lep.system.clock_count();
  EXPECT_GT(st.zone_pool_rows, 0u);
  const std::size_t matrix_bytes =
      (st.reach_zones + st.winning_zones) * dim * dim * sizeof(raw_t);
  EXPECT_LT(st.peak_zone_bytes, matrix_bytes);
}

}  // namespace
}  // namespace tigat::dbm
