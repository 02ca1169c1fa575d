// Unit tests for the Dbm class: construction, canonicalisation and the
// classical zone operators on hand-checked examples.
#include "dbm/dbm.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/memory_meter.h"

namespace tigat::dbm {
namespace {

// Convenience: zone over clocks {0, x=1, y=2}.
Dbm box_xy(bound_t x_lo, bound_t x_hi, bound_t y_lo, bound_t y_hi) {
  Dbm z = Dbm::universal(3);
  EXPECT_TRUE(z.constrain(1, 0, make_weak(x_hi)));
  EXPECT_TRUE(z.constrain(0, 1, make_weak(-x_lo)));
  EXPECT_TRUE(z.constrain(2, 0, make_weak(y_hi)));
  EXPECT_TRUE(z.constrain(0, 2, make_weak(-y_lo)));
  return z;
}

std::vector<std::int64_t> pt(std::int64_t x, std::int64_t y) {
  return {0, x, y};
}

TEST(Dbm, ZeroContainsOnlyOrigin) {
  const Dbm z = Dbm::zero(3);
  EXPECT_FALSE(z.is_empty());
  EXPECT_TRUE(z.contains_point(pt(0, 0)));
  EXPECT_FALSE(z.contains_point(pt(1, 0)));
  EXPECT_FALSE(z.contains_point(pt(0, 2)));
}

TEST(Dbm, UniversalContainsEverything) {
  const Dbm z = Dbm::universal(3);
  EXPECT_TRUE(z.contains_point(pt(0, 0)));
  EXPECT_TRUE(z.contains_point(pt(1000, 3)));
}

TEST(Dbm, ConstrainBuildsBox) {
  const Dbm z = box_xy(1, 4, 2, 3);
  EXPECT_TRUE(z.contains_point(pt(1, 2)));
  EXPECT_TRUE(z.contains_point(pt(4, 3)));
  EXPECT_TRUE(z.contains_point(pt(2, 2)));
  EXPECT_FALSE(z.contains_point(pt(0, 2)));
  EXPECT_FALSE(z.contains_point(pt(5, 2)));
  EXPECT_FALSE(z.contains_point(pt(2, 4)));
}

TEST(Dbm, ConstrainDetectsEmptiness) {
  Dbm z = Dbm::universal(2);
  EXPECT_TRUE(z.constrain(1, 0, make_weak(3)));   // x ≤ 3
  EXPECT_FALSE(z.constrain(0, 1, make_strict(-3)));  // x > 3 → empty
  EXPECT_TRUE(z.is_empty());
}

TEST(Dbm, StrictBoundaryExcluded) {
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(1, 0, make_strict(3)));  // x < 3
  EXPECT_TRUE(z.contains_point({0, 2}));
  EXPECT_FALSE(z.contains_point({0, 3}));
  // Scaled membership: 2.5 at scale 2 is 5 ticks.
  EXPECT_TRUE(z.contains_point({0, 5}, 2));
  EXPECT_FALSE(z.contains_point({0, 6}, 2));
}

TEST(Dbm, CloseComputesTightestDifferences) {
  // x ≤ 4, y ≥ 2 gives x − y ≤ 2 after closure.
  Dbm z = Dbm::universal(3);
  z.set_raw(1, 0, make_weak(4));
  z.set_raw(0, 2, make_weak(-2));
  ASSERT_TRUE(z.close());
  EXPECT_EQ(z.at(1, 2), make_weak(2));
}

TEST(Dbm, CloseDetectsNegativeCycle) {
  // x − y ≤ −1 together with y − x ≤ 0 is unsatisfiable.
  Dbm z = Dbm::universal(3);
  z.set_raw(1, 2, make_weak(-1));
  z.set_raw(2, 1, make_weak(0));
  EXPECT_FALSE(z.close());
  EXPECT_TRUE(z.is_empty());
}

TEST(Dbm, UpRemovesUpperBoundsKeepsDifferences) {
  Dbm z = box_xy(1, 2, 1, 2);
  z.up();
  EXPECT_TRUE(z.contains_point(pt(100, 100)));
  EXPECT_TRUE(z.contains_point(pt(100, 99)));   // |x−y| ≤ 1 preserved
  EXPECT_FALSE(z.contains_point(pt(100, 50)));  // difference violated
  EXPECT_FALSE(z.contains_point(pt(0, 0)));     // lower bounds kept
}

TEST(Dbm, DownRelaxesLowerBounds) {
  // Point (5, 10): past is the diagonal segment hitting x = 0 at y = 5.
  Dbm z = box_xy(5, 5, 10, 10);
  z.down();
  EXPECT_TRUE(z.contains_point(pt(5, 10)));
  EXPECT_TRUE(z.contains_point(pt(0, 5)));
  EXPECT_TRUE(z.contains_point(pt(3, 8)));
  EXPECT_FALSE(z.contains_point(pt(0, 4)));  // would need x = −1
  EXPECT_FALSE(z.contains_point(pt(6, 11)));
  EXPECT_FALSE(z.contains_point(pt(3, 7)));  // off the diagonal
  // Result must be canonical: y − x = 5 exactly.
  EXPECT_EQ(z.at(2, 1), make_weak(5));
  EXPECT_EQ(z.at(1, 2), make_weak(-5));
  EXPECT_EQ(z.at(0, 2), make_weak(-5));  // y ≥ 5
}

TEST(Dbm, ResetPinsClockAndKeepsOthers) {
  Dbm z = box_xy(1, 4, 2, 3);
  z.reset(1);  // x := 0
  EXPECT_TRUE(z.contains_point(pt(0, 2)));
  EXPECT_TRUE(z.contains_point(pt(0, 3)));
  EXPECT_FALSE(z.contains_point(pt(0, 1)));
  EXPECT_FALSE(z.contains_point(pt(1, 2)));
}

TEST(Dbm, ResetToValue) {
  Dbm z = box_xy(1, 4, 2, 3);
  z.reset(1, 7);  // x := 7
  EXPECT_TRUE(z.contains_point(pt(7, 2)));
  EXPECT_FALSE(z.contains_point(pt(7, 4)));
  EXPECT_FALSE(z.contains_point(pt(6, 2)));
}

TEST(Dbm, FreeRemovesAllConstraintsOnClock) {
  Dbm z = box_xy(1, 4, 2, 3);
  z.free(1);
  EXPECT_TRUE(z.contains_point(pt(0, 2)));
  EXPECT_TRUE(z.contains_point(pt(555, 3)));
  EXPECT_FALSE(z.contains_point(pt(2, 1)));  // y still bounded
}

TEST(Dbm, IntersectWith) {
  Dbm a = box_xy(0, 5, 0, 5);
  const Dbm b = box_xy(3, 8, 1, 2);
  ASSERT_TRUE(a.intersect_with(b));
  EXPECT_TRUE(a.contains_point(pt(3, 1)));
  EXPECT_TRUE(a.contains_point(pt(5, 2)));
  EXPECT_FALSE(a.contains_point(pt(6, 1)));
  EXPECT_FALSE(a.contains_point(pt(3, 3)));

  const Dbm c = box_xy(9, 10, 0, 1);
  EXPECT_FALSE(a.intersect_with(c));
  EXPECT_TRUE(a.is_empty());
}

TEST(Dbm, RelationOnNestedBoxes) {
  const Dbm small = box_xy(2, 3, 2, 3);
  const Dbm big = box_xy(0, 5, 0, 5);
  EXPECT_EQ(small.relation(big), Relation::kSubset);
  EXPECT_EQ(big.relation(small), Relation::kSuperset);
  EXPECT_EQ(big.relation(big), Relation::kEqual);
  const Dbm other = box_xy(4, 9, 0, 5);
  EXPECT_EQ(small.relation(other), Relation::kDifferent);
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
}

TEST(Dbm, EarliestEntryDelay) {
  const Dbm z = box_xy(5, 8, 0, 100);
  // From (2, 1): x reaches 5 after 3 time units.
  EXPECT_EQ(z.earliest_entry_delay(pt(2, 1)), 3);
  // Already inside.
  EXPECT_EQ(z.earliest_entry_delay(pt(6, 0)), 0);
  // Beyond: never re-enters.
  EXPECT_FALSE(z.earliest_entry_delay(pt(9, 0)).has_value());
}

TEST(Dbm, EarliestEntryDelayStrictBound) {
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(0, 1, make_strict(-5)));  // x > 5
  const std::vector<std::int64_t> origin = {0, 0};
  EXPECT_EQ(z.earliest_entry_delay(origin), 6);
  // At scale 10 (0.1-unit ticks) entry is at 5.1 units = 51 ticks.
  EXPECT_EQ(z.earliest_entry_delay(origin, 10), 51);
}

TEST(Dbm, EarliestEntryDelayRespectsDifferences) {
  // x − y ≥ 3 can never be reached by delaying (differences frozen).
  Dbm z = Dbm::universal(3);
  ASSERT_TRUE(z.constrain(0, 1, make_weak(0)));
  ASSERT_TRUE(z.constrain(2, 1, make_weak(-3)));  // y − x ≤ −3 i.e. x ≥ y+3
  EXPECT_FALSE(z.earliest_entry_delay(pt(1, 1)).has_value());
  EXPECT_EQ(z.earliest_entry_delay(pt(4, 0)), 0);
}

TEST(Dbm, LatestStayDelay) {
  const Dbm z = box_xy(0, 8, 0, 6);
  EXPECT_EQ(z.latest_stay_delay(pt(2, 1)), 5);  // y hits 6 first
  EXPECT_EQ(z.latest_stay_delay(pt(8, 6)), 0);
  const Dbm u = Dbm::universal(3);
  EXPECT_EQ(u.latest_stay_delay(pt(1, 1)), Dbm::kNoDeadline);
}

TEST(Dbm, ExtrapolationWidensLargeBounds) {
  // Max constant 5 for both clocks: x ≥ 9 must widen to x > 5.
  Dbm z = Dbm::universal(3);
  ASSERT_TRUE(z.constrain(0, 1, make_weak(-9)));  // x ≥ 9
  ASSERT_TRUE(z.constrain(1, 0, make_weak(12)));  // x ≤ 12
  ASSERT_TRUE(z.constrain(2, 0, make_weak(3)));   // y ≤ 3
  const std::vector<bound_t> max_consts = {0, 5, 5};
  z.extrapolate_max_bounds(max_consts);
  EXPECT_TRUE(z.contains_point(pt(6, 3)));     // was excluded (x < 9)
  EXPECT_TRUE(z.contains_point(pt(100, 3)));   // upper bound dropped
  EXPECT_FALSE(z.contains_point(pt(5, 3)));    // still x > 5
  EXPECT_FALSE(z.contains_point(pt(6, 4)));    // small bounds intact
}

TEST(Dbm, ExtrapolationIsIdempotent) {
  Dbm z = box_xy(1, 4, 2, 3);
  const std::vector<bound_t> max_consts = {0, 10, 10};
  Dbm before(z);
  z.extrapolate_max_bounds(max_consts);
  EXPECT_EQ(z.relation(before), Relation::kEqual);  // all bounds small
}

TEST(Dbm, SubtractDisjointPiecesReassembleDifference) {
  const Dbm a = box_xy(0, 6, 0, 6);
  const Dbm b = box_xy(2, 4, 1, 3);
  std::vector<Dbm> pieces;
  subtract(a, b, pieces);
  ASSERT_FALSE(pieces.empty());
  // Pairwise disjoint.
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      EXPECT_FALSE(pieces[i].intersects(pieces[j]));
    }
  }
  // Sample check of the set identity on the integer grid.
  for (std::int64_t x = 0; x <= 6; ++x) {
    for (std::int64_t y = 0; y <= 6; ++y) {
      const auto p = pt(x, y);
      const bool expect = a.contains_point(p) && !b.contains_point(p);
      int covering = 0;
      for (const Dbm& piece : pieces) covering += piece.contains_point(p);
      EXPECT_EQ(covering, expect ? 1 : 0) << "at (" << x << "," << y << ")";
    }
  }
}

TEST(Dbm, SubtractWhenDisjointReturnsOriginal) {
  const Dbm a = box_xy(0, 2, 0, 2);
  const Dbm b = box_xy(5, 6, 5, 6);
  std::vector<Dbm> pieces;
  subtract(a, b, pieces);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].relation(a), Relation::kEqual);
}

TEST(Dbm, SubtractWhenCoveredReturnsNothing) {
  const Dbm a = box_xy(2, 3, 2, 3);
  const Dbm b = box_xy(0, 5, 0, 5);
  std::vector<Dbm> pieces;
  subtract(a, b, pieces);
  EXPECT_TRUE(pieces.empty());
}

TEST(Dbm, ToStringReadable) {
  Dbm z = Dbm::universal(3);
  ASSERT_TRUE(z.constrain(1, 0, make_weak(4)));
  ASSERT_TRUE(z.constrain(0, 1, make_strict(-1)));
  const std::vector<std::string> names = {"0", "x", "y"};
  const std::string s = z.to_string(names);
  EXPECT_NE(s.find("x<=4"), std::string::npos);
  EXPECT_NE(s.find("x>1"), std::string::npos);
}

TEST(Dbm, HashDiscriminatesAndAgrees) {
  const Dbm a = box_xy(0, 5, 0, 5);
  const Dbm b = box_xy(0, 5, 0, 5);
  const Dbm c = box_xy(0, 5, 0, 4);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_TRUE(a == b);
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_FALSE(a == c);
}


// ── value semantics across the inline/heap boundary ─────────────────
//
// Zones up to Dbm::kInlineDim live in the object, larger ones in one
// heap block that shares the object's bytes with the inline cells.
// Every special member must handle each inline/heap pairing, keep the
// zone meter balanced and leave a moved-from object that frees nothing
// (the ASan+UBSan CI job runs this file).

// The object holds dimension ≤ 4 inline; its size follows.
static_assert(sizeof(Dbm) <= 72);
static_assert(Dbm::kInlineDim == 4);

// A closed zone over `dim` clocks whose cells depend on `seed`: x_k ≤
// seed + k for every clock k.  Two samples of one dimension (above 1)
// are equal iff their seeds are.
Dbm sample(std::uint32_t dim, bound_t seed) {
  Dbm z = Dbm::universal(dim);
  for (std::uint32_t k = 1; k < dim; ++k) {
    EXPECT_TRUE(z.constrain(k, 0, make_weak(seed + static_cast<bound_t>(k))));
  }
  return z;
}

// Zone bytes metered since `base`, as the calling thread sees them.
std::int64_t metered_since(std::size_t base) {
  return static_cast<std::int64_t>(util::zone_memory().current()) -
         static_cast<std::int64_t>(base);
}

std::int64_t cell_bytes(std::uint32_t dim) {
  return static_cast<std::int64_t>(dim) * dim * sizeof(raw_t);
}

constexpr std::uint32_t kBoundaryDims[] = {1, 3, 4, 5, 8, 9};

TEST(DbmStorage, ConstructionCopiesAndMovesEveryDimension) {
  const std::size_t base = util::zone_memory().current();
  for (const std::uint32_t dim : kBoundaryDims) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    {
      const Dbm ref = sample(dim, 3);
      Dbm src = sample(dim, 3);
      const Dbm copy(src);
      EXPECT_TRUE(copy == ref);
      EXPECT_TRUE(src == ref);
      EXPECT_EQ(metered_since(base), 3 * cell_bytes(dim));

      const Dbm moved(std::move(src));
      EXPECT_TRUE(moved == ref);
      EXPECT_EQ(src.dimension(), 0u);
      EXPECT_EQ(src.memory_bytes(), 0u);
      // The moved-from shell is no longer metered; the moved-to zone is.
      EXPECT_EQ(metered_since(base), 3 * cell_bytes(dim));
    }
    EXPECT_EQ(metered_since(base), 0);
  }
  EXPECT_EQ(util::zone_memory().current(), base);
}

TEST(DbmStorage, AssignmentsInEveryPairing) {
  const std::size_t base = util::zone_memory().current();
  // Every (from, to) pair of boundary dimensions, among them 4→5, 5→4,
  // 5→5, 5→9 and 9→5: inline→heap, heap→inline, heap→heap of equal
  // and of different size.
  for (const std::uint32_t from : kBoundaryDims) {
    for (const std::uint32_t to : kBoundaryDims) {
      SCOPED_TRACE("from=" + std::to_string(from) +
                   " to=" + std::to_string(to));
      {
        const Dbm ref = sample(from, 7);
        Dbm copied = sample(to, 2);
        copied = ref;
        EXPECT_TRUE(copied == ref);
        EXPECT_EQ(copied.dimension(), from);
        EXPECT_EQ(metered_since(base), 2 * cell_bytes(from));

        Dbm src = sample(from, 7);
        Dbm moved = sample(to, 2);
        moved = std::move(src);
        EXPECT_TRUE(moved == ref);
        EXPECT_EQ(src.dimension(), 0u);
        EXPECT_EQ(metered_since(base), 3 * cell_bytes(from));

        // Copy-assigning a zone that is then overwritten leaves both
        // independent: the storage is not shared.
        Dbm other = sample(from, 9);
        other = copied;
        other.up();
        EXPECT_TRUE(copied == ref);
      }
      EXPECT_EQ(metered_since(base), 0);
    }
  }
  EXPECT_EQ(util::zone_memory().current(), base);
}

TEST(DbmStorage, SelfAssignmentKeepsTheZone) {
  const std::size_t base = util::zone_memory().current();
  for (const std::uint32_t dim : kBoundaryDims) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    {
      const Dbm ref = sample(dim, 5);
      Dbm z = sample(dim, 5);
      Dbm& alias = z;  // hides the self-assignment from the compiler
      z = alias;
      EXPECT_TRUE(z == ref);
      z = std::move(alias);
      EXPECT_TRUE(z == ref);
      EXPECT_EQ(metered_since(base), 2 * cell_bytes(dim));
    }
    EXPECT_EQ(metered_since(base), 0);
  }
  EXPECT_EQ(util::zone_memory().current(), base);
}

TEST(DbmStorage, MovedFromObjectsAcceptAssignment) {
  const std::size_t base = util::zone_memory().current();
  for (const std::uint32_t shell_dim : kBoundaryDims) {
    for (const std::uint32_t dim : kBoundaryDims) {
      SCOPED_TRACE("shell=" + std::to_string(shell_dim) +
                   " dim=" + std::to_string(dim));
      {
        const Dbm ref = sample(dim, 4);
        Dbm shell = sample(shell_dim, 1);
        const Dbm keep(std::move(shell));
        shell = ref;  // copy into the moved-from object
        EXPECT_TRUE(shell == ref);

        Dbm shell2 = sample(shell_dim, 1);
        const Dbm keep2(std::move(shell2));
        Dbm src = sample(dim, 4);
        shell2 = std::move(src);  // move into the moved-from object
        EXPECT_TRUE(shell2 == ref);

        // A moved-from object also moves and copies as an empty shell.
        Dbm empty_shell = std::move(src);
        EXPECT_EQ(empty_shell.dimension(), 0u);
        Dbm empty_copy(empty_shell);
        EXPECT_EQ(empty_copy.dimension(), 0u);
        EXPECT_EQ(metered_since(base),
                  3 * cell_bytes(dim) + 2 * cell_bytes(shell_dim));
      }
      EXPECT_EQ(metered_since(base), 0);
    }
  }
  EXPECT_EQ(util::zone_memory().current(), base);
}

TEST(DbmStorage, FromRowsMatchesFromRaw) {
  for (const std::uint32_t dim : kBoundaryDims) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const Dbm ref = sample(dim, 6);
    std::vector<raw_t> cells(std::size_t{dim} * dim);
    for (std::uint32_t i = 0; i < dim; ++i) {
      for (std::uint32_t j = 0; j < dim; ++j) cells[i * dim + j] = ref.at(i, j);
    }
    EXPECT_TRUE(Dbm::from_raw(dim, cells.data()) == ref);
    const Dbm rows = Dbm::from_rows(dim, [&](std::uint32_t r) {
      return cells.data() + std::size_t{r} * dim;
    });
    EXPECT_TRUE(rows == ref);
  }
}

}  // namespace
}  // namespace tigat::dbm
