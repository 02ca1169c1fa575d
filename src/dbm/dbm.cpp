#include "dbm/dbm.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/text.h"

namespace tigat::dbm {

std::string bound_to_string(raw_t raw) {
  if (is_infinity(raw)) return "<inf";
  return util::format("%s%d", is_weak(raw) ? "<=" : "<", bound_value(raw));
}

Dbm Dbm::zero(std::uint32_t dim) {
  Dbm d(dim);
  std::fill(d.data(), d.data() + d.cells(), kLeZero);
  return d;
}

Dbm Dbm::from_raw(std::uint32_t dim, const raw_t* cells) {
  Dbm d(dim);
  std::memcpy(d.data(), cells, d.cells() * sizeof(raw_t));
  return d;
}

Dbm Dbm::universal(std::uint32_t dim) {
  Dbm d(dim);
  std::fill(d.data(), d.data() + d.cells(), kInfinity);
  for (std::uint32_t i = 0; i < dim; ++i) d.set_raw(i, i, kLeZero);
  for (std::uint32_t j = 0; j < dim; ++j) d.set_raw(0, j, kLeZero);
  return d;
}

bool Dbm::close() {
  TIGAT_ASSERT(dim_ != 0, "close() on a moved-from DBM");
  const std::uint32_t n = dim_;
  raw_t* m = data();
  for (std::uint32_t k = 0; k < n; ++k) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const raw_t mik = m[i * n + k];
      if (is_infinity(mik)) continue;
      for (std::uint32_t j = 0; j < n; ++j) {
        const raw_t via = add_bounds(mik, m[k * n + j]);
        if (via < m[i * n + j]) m[i * n + j] = via;
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (m[i * n + i] < kLeZero) {
      empty_ = true;
      return false;
    }
    m[i * n + i] = kLeZero;
  }
  empty_ = false;
  return true;
}

bool Dbm::constrain(std::uint32_t i, std::uint32_t j, raw_t bound) {
  TIGAT_DEBUG_ASSERT(i < dim_ && j < dim_ && i != j, "bad constraint indices");
  TIGAT_ASSERT(!empty_, "constrain() on an empty DBM");
  const std::uint32_t n = dim_;
  raw_t* m = data();
  if (bound >= m[i * n + j]) return true;  // not tighter: no-op
  if (add_bounds(m[j * n + i], bound) < kLeZero) {
    empty_ = true;
    return false;
  }
  m[i * n + j] = bound;
  // Incremental closure through the tightened edge (i → j).
  for (std::uint32_t p = 0; p < n; ++p) {
    const raw_t pi = m[p * n + i];
    if (is_infinity(pi)) continue;
    const raw_t via_i = add_bounds(pi, bound);
    for (std::uint32_t q = 0; q < n; ++q) {
      const raw_t cand = add_bounds(via_i, m[j * n + q]);
      if (cand < m[p * n + q]) m[p * n + q] = cand;
    }
  }
  return true;
}

void Dbm::up() {
  TIGAT_ASSERT(!empty_, "up() on an empty DBM");
  raw_t* m = data();
  for (std::uint32_t i = 1; i < dim_; ++i) m[i * dim_] = kInfinity;
}

void Dbm::down() {
  TIGAT_ASSERT(!empty_, "down() on an empty DBM");
  // Row 0 entries become the loosest lower bounds compatible with the
  // difference constraints; the result is closed (Bengtsson & Yi,
  // algorithm `down`).
  raw_t* m = data();
  for (std::uint32_t j = 1; j < dim_; ++j) {
    raw_t best = kLeZero;
    for (std::uint32_t i = 1; i < dim_; ++i) {
      const raw_t mij = m[i * dim_ + j];
      if (mij < best) best = mij;
    }
    m[j] = best;
  }
}

void Dbm::reset(std::uint32_t k, bound_t value) {
  TIGAT_DEBUG_ASSERT(k >= 1 && k < dim_, "cannot reset the reference clock");
  TIGAT_ASSERT(!empty_, "reset() on an empty DBM");
  const raw_t le_v = make_weak(value);
  const raw_t le_neg_v = make_weak(-value);
  raw_t* m = data();
  for (std::uint32_t j = 0; j < dim_; ++j) {
    if (j == k) continue;
    m[k * dim_ + j] = add_bounds(le_v, m[j]);          // x_k − x_j ≤ v + D(0,j)
    m[j * dim_ + k] = add_bounds(m[j * dim_], le_neg_v);  // x_j − x_k ≤ D(j,0) − v
  }
}

void Dbm::free(std::uint32_t k) {
  TIGAT_DEBUG_ASSERT(k >= 1 && k < dim_, "cannot free the reference clock");
  TIGAT_ASSERT(!empty_, "free() on an empty DBM");
  raw_t* m = data();
  for (std::uint32_t j = 0; j < dim_; ++j) {
    if (j == k) continue;
    m[k * dim_ + j] = kInfinity;
    m[j * dim_ + k] = m[j * dim_];  // x_j − x_k ≤ x_j ≤ D(j,0)
  }
}

// Tightens through each bound where `other` is stricter, with
// constrain()'s incremental O(dim²) closure, and stops at the first
// emptiness.  A non-empty zone has exactly one closed form, so the
// result is the matrix close() would make of the pointwise minimum,
// without its O(dim³) pass: most intersections tighten a bound or two.
bool Dbm::intersect_with(const Dbm& other) {
  TIGAT_ASSERT(dim_ == other.dim_, "dimension mismatch");
  TIGAT_ASSERT(!empty_ && !other.empty_, "intersect on empty DBM");
  const std::uint32_t n = dim_;
  const raw_t* o = other.data();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i != j && !constrain(i, j, o[i * n + j])) return false;
    }
  }
  return true;
}

// Two non-empty closed zones are disjoint iff one bound of each closes
// a negative cycle: Z1[i][j] + Z2[j][i] < (≤ 0) for some i, j
// (Herbreteau, Srivathsan, Walukiewicz, LICS 2012).  O(dim²), no copy
// and no O(dim³) closure of the pointwise minimum.
bool Dbm::intersects(const Dbm& other) const {
  TIGAT_ASSERT(dim_ == other.dim_, "dimension mismatch");
  TIGAT_ASSERT(!empty_ && !other.empty_, "intersects on empty DBM");
  const std::uint32_t n = dim_;
  const raw_t* m = data();
  const raw_t* o = other.data();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (add_bounds(m[i * n + j], o[j * n + i]) < kLeZero) return false;
    }
  }
  return true;
}

Relation Dbm::relation(const Dbm& other) const {
  TIGAT_ASSERT(dim_ == other.dim_, "dimension mismatch");
  bool sub = true;
  bool sup = true;
  const raw_t* m = data();
  const raw_t* o = other.data();
  const std::size_t count = cells();
  for (std::size_t idx = 0; idx < count; ++idx) {
    if (m[idx] > o[idx]) sub = false;
    if (m[idx] < o[idx]) sup = false;
    if (!sub && !sup) return Relation::kDifferent;
  }
  if (sub && sup) return Relation::kEqual;
  return sub ? Relation::kSubset : Relation::kSuperset;
}

bool Dbm::is_subset_of(const Dbm& other) const {
  const Relation r = relation(other);
  return r == Relation::kEqual || r == Relation::kSubset;
}

bool Dbm::operator==(const Dbm& other) const {
  return dim_ == other.dim_ && empty_ == other.empty_ &&
         std::equal(data(), data() + cells(), other.data());
}

void Dbm::extrapolate_max_bounds(std::span<const bound_t> max_constants) {
  TIGAT_ASSERT(max_constants.size() == dim_, "one max constant per clock");
  TIGAT_ASSERT(!empty_, "extrapolate on empty DBM");
  // Classical Extra_M (Behrmann, Bouyer, Fleury, Larsen).  All rules
  // read the ORIGINAL matrix, so decisions are taken on `before`.
  // The copy sits on the stack up to dimension 8 (256 bytes).
  raw_t before_stack[8 * 8];
  std::vector<raw_t> before_heap;
  const raw_t* before;
  if (cells() <= std::size(before_stack)) {
    std::memcpy(before_stack, data(), cells() * sizeof(raw_t));
    before = before_stack;
  } else {
    before_heap.assign(data(), data() + cells());
    before = before_heap.data();
  }
  const auto orig = [&](std::uint32_t i, std::uint32_t j) {
    return before[i * dim_ + j];
  };
  raw_t* m = data();
  bool changed = false;
  for (std::uint32_t i = 0; i < dim_; ++i) {
    for (std::uint32_t j = 0; j < dim_; ++j) {
      if (i == j) continue;
      raw_t& b = m[i * dim_ + j];
      const bool bound_above_mi =
          i != 0 && !is_infinity(b) && b > make_weak(max_constants[i]);
      // x_i is everywhere above M(x_i): its exact value is indistinguishable.
      const bool xi_above_mi = i != 0 && orig(0, i) < make_weak(-max_constants[i]);
      // x_j is everywhere above M(x_j).
      const bool xj_above_mj = orig(0, j) < make_weak(-max_constants[j]);
      if (bound_above_mi || xi_above_mi || (i != 0 && xj_above_mj)) {
        b = kInfinity;
        changed = true;
      } else if (i == 0 && xj_above_mj) {
        b = make_strict(-max_constants[j]);
        changed = true;
      }
    }
  }
  if (changed) {
    const bool ok = close();
    TIGAT_ASSERT(ok, "Extra_M can only loosen bounds; emptiness is a bug");
  }
}

bool raw_contains_point(std::uint32_t dim, const raw_t* cells,
                        std::span<const std::int64_t> point,
                        std::int64_t scale) {
  TIGAT_ASSERT(point.size() == dim, "valuation size mismatch");
  TIGAT_DEBUG_ASSERT(point[0] == 0, "reference clock must be 0");
  for (std::uint32_t i = 0; i < dim; ++i) {
    for (std::uint32_t j = 0; j < dim; ++j) {
      if (i == j) continue;
      if (!satisfies(point[i] - point[j], cells[i * dim + j], scale)) {
        return false;
      }
    }
  }
  return true;
}

std::optional<std::int64_t> raw_earliest_entry_delay(
    std::uint32_t dim, const raw_t* cells, std::span<const std::int64_t> point,
    std::int64_t scale) {
  TIGAT_ASSERT(point.size() == dim, "valuation size mismatch");
  // Difference constraints between real clocks are delay-invariant.
  for (std::uint32_t i = 1; i < dim; ++i) {
    for (std::uint32_t j = 1; j < dim; ++j) {
      if (i == j) continue;
      if (!satisfies(point[i] - point[j], cells[i * dim + j], scale)) {
        return std::nullopt;
      }
    }
  }
  std::int64_t lo = 0;
  std::int64_t hi = Dbm::kNoDeadline;
  for (std::uint32_t i = 1; i < dim; ++i) {
    // Upper bound: x_i + δ ≺ c·scale.
    const raw_t upper = cells[i * dim];
    if (!is_infinity(upper)) {
      std::int64_t limit =
          static_cast<std::int64_t>(bound_value(upper)) * scale - point[i];
      if (!is_weak(upper)) limit -= 1;  // strict: last integer tick inside
      hi = std::min(hi, limit);
    }
    // Lower bound: −(x_i + δ) ≺ c·scale  ⇔  δ ⪰ −c·scale − x_i.
    const raw_t lower = cells[i];
    if (!is_infinity(lower)) {
      std::int64_t limit =
          -static_cast<std::int64_t>(bound_value(lower)) * scale - point[i];
      if (!is_weak(lower)) limit += 1;
      lo = std::max(lo, limit);
    }
  }
  if (lo > hi) return std::nullopt;
  return lo;
}

bool Dbm::contains_point(std::span<const std::int64_t> point,
                         std::int64_t scale) const {
  if (empty_) return false;
  return raw_contains_point(dim_, data(), point, scale);
}

std::optional<std::int64_t> Dbm::earliest_entry_delay(
    std::span<const std::int64_t> point, std::int64_t scale) const {
  if (empty_) return std::nullopt;
  return raw_earliest_entry_delay(dim_, data(), point, scale);
}

std::int64_t Dbm::latest_stay_delay(std::span<const std::int64_t> point,
                                    std::int64_t scale) const {
  TIGAT_ASSERT(contains_point(point, scale), "point must be inside the zone");
  const raw_t* m = data();
  std::int64_t hi = kNoDeadline;
  for (std::uint32_t i = 1; i < dim_; ++i) {
    const raw_t upper = m[i * dim_];
    if (is_infinity(upper)) continue;
    std::int64_t limit =
        static_cast<std::int64_t>(bound_value(upper)) * scale - point[i];
    if (!is_weak(upper)) limit -= 1;
    hi = std::min(hi, limit);
  }
  return hi;
}

std::optional<DelayInterval> raw_delay_interval(
    std::uint32_t dim, const raw_t* cells, std::span<const std::int64_t> point,
    std::int64_t scale) {
  TIGAT_ASSERT(point.size() == dim, "valuation size mismatch");
  // Difference constraints between real clocks are delay-invariant: the
  // diagonal through `point` either satisfies them at every δ or never.
  for (std::uint32_t i = 1; i < dim; ++i) {
    for (std::uint32_t j = 1; j < dim; ++j) {
      if (i == j) continue;
      if (!satisfies(point[i] - point[j], cells[i * dim + j], scale)) {
        return std::nullopt;
      }
    }
  }
  DelayInterval iv{0, Dbm::kNoDeadline, false, false};
  for (std::uint32_t i = 1; i < dim; ++i) {
    // Upper bound: x_i + δ ≺ c·scale  ⇔  δ ≺ c·scale − x_i.
    const raw_t upper = cells[i * dim];
    if (!is_infinity(upper)) {
      const std::int64_t limit =
          static_cast<std::int64_t>(bound_value(upper)) * scale - point[i];
      const bool strict = !is_weak(upper);
      if (limit < iv.hi || (limit == iv.hi && strict)) {
        iv.hi = limit;
        iv.hi_strict = strict;
      }
    }
    // Lower bound: −(x_i + δ) ≺ c·scale  ⇔  δ ≻ −c·scale − x_i.
    const raw_t lower = cells[i];
    if (!is_infinity(lower)) {
      const std::int64_t limit =
          -static_cast<std::int64_t>(bound_value(lower)) * scale - point[i];
      const bool strict = !is_weak(lower);
      if (limit > iv.lo || (limit == iv.lo && strict)) {
        iv.lo = limit;
        iv.lo_strict = strict;
      }
    }
  }
  if (iv.lo < 0) {
    iv.lo = 0;
    iv.lo_strict = false;
  }
  if (iv.hi != Dbm::kNoDeadline &&
      (iv.lo > iv.hi || (iv.lo == iv.hi && (iv.lo_strict || iv.hi_strict)))) {
    return std::nullopt;
  }
  return iv;
}

std::optional<DelayInterval> Dbm::delay_interval(
    std::span<const std::int64_t> point, std::int64_t scale) const {
  if (empty_) return std::nullopt;
  return raw_delay_interval(dim_, data(), point, scale);
}

std::int64_t merge_stay_bound(std::vector<DelayInterval>& intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const DelayInterval& a, const DelayInterval& b) {
              if (a.lo != b.lo) return a.lo < b.lo;
              if (a.lo_strict != b.lo_strict) return !a.lo_strict;
              if (a.hi != b.hi) return a.hi > b.hi;
              return !a.hi_strict && b.hi_strict;
            });
  TIGAT_ASSERT(!intervals.empty() && intervals[0].lo == 0 &&
                   !intervals[0].lo_strict,
               "merge_stay_bound: delay 0 must be covered");
  std::int64_t end = intervals[0].hi;
  bool end_strict = intervals[0].hi_strict;
  for (std::size_t k = 1; k < intervals.size() && end != Dbm::kNoDeadline;
       ++k) {
    const DelayInterval& iv = intervals[k];
    // The union stays gapless iff this interval starts inside (or flush
    // against) the coverage so far; both endpoints exclusive at the
    // same value leave that value densely uncovered.
    const bool connects =
        iv.lo < end || (iv.lo == end && !(iv.lo_strict && end_strict));
    // Sorted by (lo, lo_strict): once one interval fails to connect, no
    // later one can start earlier or looser.
    if (!connects) break;
    if (iv.hi > end || (iv.hi == end && end_strict && !iv.hi_strict)) {
      end = iv.hi;
      end_strict = iv.hi_strict;
    }
  }
  if (end == Dbm::kNoDeadline) return Dbm::kNoDeadline;
  return end_strict ? end - 1 : end;
}

std::size_t Dbm::hash() const noexcept {
  std::size_t h = 0x811c9dc5u ^ dim_;
  const raw_t* m = data();
  const std::size_t count = cells();
  for (std::size_t idx = 0; idx < count; ++idx) {
    h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(m[idx]));
    h *= 0x01000193u;
  }
  return h;
}

std::int64_t Dbm::bound_signature() const noexcept {
  // Entries are bounded by kInfinity (≈2³⁰) and there are dim² ≤ 2¹⁶ of
  // them in any sane model, so a plain int64 sum cannot overflow.
  const raw_t* m = data();
  const std::size_t count = cells();
  std::int64_t sum = 0;
  for (std::size_t idx = 0; idx < count; ++idx) sum += m[idx];
  return sum;
}

std::string Dbm::to_string(std::span<const std::string> names) const {
  TIGAT_ASSERT(names.size() >= dim_, "need a name per clock");
  if (empty_) return "false";
  const raw_t* m = data();
  std::vector<std::string> parts;
  for (std::uint32_t i = 0; i < dim_; ++i) {
    for (std::uint32_t j = 0; j < dim_; ++j) {
      if (i == j) continue;
      const raw_t b = m[i * dim_ + j];
      if (is_infinity(b)) continue;
      // Suppress the implicit x ≥ 0 facts to keep output readable.
      if (i == 0 && b == kLeZero) continue;
      const char* op = is_weak(b) ? "<=" : "<";
      if (i == 0) {
        // −x_j ≺ c  printed as  x_j ≥/−c.
        parts.push_back(util::format("%s%s%d", names[j].c_str(),
                                     is_weak(b) ? ">=" : ">", -bound_value(b)));
      } else if (j == 0) {
        parts.push_back(
            util::format("%s%s%d", names[i].c_str(), op, bound_value(b)));
      } else {
        parts.push_back(util::format("%s-%s%s%d", names[i].c_str(),
                                     names[j].c_str(), op, bound_value(b)));
      }
    }
  }
  if (parts.empty()) return "true";
  return util::join(parts, " && ");
}

std::string Dbm::to_string() const {
  std::vector<std::string> names(dim_);
  for (std::uint32_t i = 0; i < dim_; ++i) names[i] = util::format("x%u", i);
  return to_string(names);
}

void subtract(const Dbm& z1, const Dbm& z2, std::vector<Dbm>& out) {
  TIGAT_ASSERT(z1.dimension() == z2.dimension(), "dimension mismatch");
  if (z1.is_empty()) return;
  if (z2.is_empty()) {
    out.push_back(z1);
    return;
  }
  const std::uint32_t n = z1.dimension();
  Dbm rest(z1);
  for (std::uint32_t i = 0; i < n && !rest.is_empty(); ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const raw_t facet = z2.at(i, j);
      if (is_infinity(facet)) continue;
      if (rest.at(i, j) <= facet) continue;  // facet does not cut `rest`
      // Piece outside this facet of z2: rest ∧ ¬(x_i − x_j ≺ c).
      Dbm piece(rest);
      if (piece.constrain(j, i, negate_bound(facet))) {
        out.push_back(std::move(piece));
      }
      // Continue carving inside the facet; keeps pieces disjoint.
      if (!rest.constrain(i, j, facet)) break;
    }
    if (rest.is_empty()) break;
  }
}

}  // namespace tigat::dbm
