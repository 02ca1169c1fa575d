#include "dbm/federation.h"

#include <algorithm>

#include "util/text.h"

namespace tigat::dbm {

Fed::Fed(Dbm zone) : dim_(zone.dimension()) {
  if (!zone.is_empty()) zones_.push_back(std::move(zone));
}

bool Fed::admit(const Dbm& zone) {
  if (zone.is_empty()) return false;
  TIGAT_ASSERT(zone.dimension() == dim_, "dimension mismatch");
  // One relation() per member decides both directions (the old
  // subset-then-erase needed two full scans); members that the new
  // zone covers are only dropped once it is certain the zone stays
  // (a later member may still cover the zone when the pairwise
  // non-inclusion invariant was weakened by in-place intersection).
  constexpr std::size_t kStackDrops = 16;
  std::size_t drop_stack[kStackDrops];
  std::size_t drops = 0;
  std::vector<std::size_t> drop_spill;  // allocates only past kStackDrops
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    switch (zones_[i].relation(zone)) {
      case Relation::kEqual:
      case Relation::kSuperset:
        return false;  // already covered; nothing was mutated yet
      case Relation::kSubset:
        if (drops < kStackDrops) {
          drop_stack[drops] = i;
        } else {
          drop_spill.push_back(i);
        }
        ++drops;
        break;
      case Relation::kDifferent:
        break;
    }
  }
  if (drops != 0) {
    const auto dropped = [&](std::size_t pos, std::size_t i) {
      return pos < kStackDrops ? drop_stack[pos] == i
                               : drop_spill[pos - kStackDrops] == i;
    };
    std::size_t w = drop_stack[0];  // drop indices are increasing
    std::size_t next = 0;
    for (std::size_t i = w; i < zones_.size(); ++i) {
      if (next < drops && dropped(next, i)) {
        ++next;
        continue;
      }
      zones_[w++] = std::move(zones_[i]);
    }
    zones_.resize(w);
  }
  return true;
}

void Fed::append_raw(Dbm zone) {
  TIGAT_ASSERT(!zone.is_empty() && zone.dimension() == dim_,
               "append_raw of an empty or mismatched zone");
  zones_.push_back(std::move(zone));
}

Fed& Fed::operator|=(const Fed& other) {
  TIGAT_ASSERT(other.dim_ == dim_, "dimension mismatch");
  zones_.reserve(zones_.size() + other.zones_.size());
  for (const Dbm& z : other.zones_) add(z);
  return *this;
}

Fed& Fed::operator|=(const Dbm& zone) {
  add(zone);
  return *this;
}

void Fed::intersection(const Fed& other, Fed& out) const {
  TIGAT_ASSERT(other.dim_ == dim_, "dimension mismatch");
  TIGAT_ASSERT(&out != this && &out != &other, "intersection into an operand");
  out.dim_ = dim_;
  out.zones_.clear();
  for (const Dbm& a : zones_) {
    for (const Dbm& b : other.zones_) {
      Dbm z(a);
      if (z.intersect_with(b)) out.add(std::move(z));
    }
  }
}

Fed Fed::minus(const Dbm& zone) const {
  TIGAT_ASSERT(zone.dimension() == dim_, "dimension mismatch");
  Fed out(dim_);
  if (zone.is_empty()) {
    out.zones_ = zones_;
    return out;
  }
  std::vector<Dbm> pieces;
  for (const Dbm& z : zones_) {
    pieces.clear();
    subtract(z, zone, pieces);
    for (Dbm& piece : pieces) out.add(std::move(piece));
  }
  return out;
}

Fed Fed::minus(const Fed& other) const {
  TIGAT_ASSERT(other.dim_ == dim_, "dimension mismatch");
  // Same zone-by-zone carving as repeated minus(Dbm), but ping-ponging
  // between two vectors so each bad zone reuses the capacity the
  // previous iteration left behind instead of allocating a fresh Fed;
  // one pieces vector serves every subtraction.
  Fed out = *this;
  std::vector<Dbm> scratch;
  std::vector<Dbm> pieces;
  for (const Dbm& g : other.zones_) {
    if (out.zones_.empty()) break;
    if (g.is_empty()) continue;
    scratch.clear();
    std::swap(out.zones_, scratch);
    for (const Dbm& z : scratch) {
      pieces.clear();
      subtract(z, g, pieces);
      for (Dbm& piece : pieces) out.add(std::move(piece));
    }
  }
  return out;
}

bool Fed::is_subset_of(const Fed& other) const {
  return minus(other).is_empty();
}

bool Fed::same_set_as(const Fed& other) const {
  return is_subset_of(other) && other.is_subset_of(*this);
}

Fed Fed::up() const {
  Fed out(dim_);
  for (const Dbm& z : zones_) {
    Dbm zz(z);
    zz.up();
    out.add(std::move(zz));
  }
  return out;
}

Fed Fed::down() const {
  Fed out(dim_);
  for (const Dbm& z : zones_) {
    Dbm zz(z);
    zz.down();
    out.add(std::move(zz));
  }
  return out;
}

Fed Fed::pred_t(const Fed& bad) const {
  Fed result(dim_);
  // Scratch for every (b, g) pair of this call: the accumulator, one
  // pair's term, the intersection's output and the subtraction pieces.
  Fed acc(dim_);
  Fed term(dim_);
  Fed meet(dim_);
  std::vector<Dbm> pieces;
  std::vector<Dbm> frags;
  for (const Dbm& b : zones_) {
    Dbm b_down(b);
    b_down.down();
    // pred_t(b, ∅) = b↓; intersect with pred_t(b, g) per bad zone.
    acc.clear();
    acc.add(b_down);
    for (const Dbm& g : bad.zones_) {
      if (acc.is_empty()) break;
      Dbm g_down(g);
      g_down.down();

      // Term 1: b↓ \ g↓.
      term.clear();
      pieces.clear();
      subtract(b_down, g_down, pieces);
      for (Dbm& piece : pieces) term.add(std::move(piece));

      // Term 2: ((b ∩ g↓) \ g)↓ \ g.
      Dbm reach_below(b);
      if (reach_below.intersect_with(g_down)) {
        pieces.clear();
        subtract(reach_below, g, pieces);
        for (Dbm& piece : pieces) {
          piece.down();
          frags.clear();
          subtract(piece, g, frags);
          for (Dbm& frag : frags) term.add(std::move(frag));
        }
      }
      acc.intersection(term, meet);  // acc := acc ∩ term
      acc.swap(meet);
    }
    result |= acc;
  }
  result.reduce();
  return result;
}

bool Fed::contains_point(std::span<const std::int64_t> point,
                         std::int64_t scale) const {
  return std::any_of(zones_.begin(), zones_.end(), [&](const Dbm& z) {
    return z.contains_point(point, scale);
  });
}

bool Fed::intersects(const Dbm& zone) const {
  return std::any_of(zones_.begin(), zones_.end(),
                     [&](const Dbm& z) { return z.intersects(zone); });
}

std::optional<std::int64_t> Fed::earliest_entry_delay(
    std::span<const std::int64_t> point, std::int64_t scale) const {
  std::optional<std::int64_t> best;
  for (const Dbm& z : zones_) {
    if (const auto d = z.earliest_entry_delay(point, scale)) {
      if (!best || *d < *best) best = d;
    }
  }
  return best;
}

std::int64_t Fed::safe_delay_bound(std::span<const std::int64_t> point,
                                   std::int64_t scale) const {
  std::vector<DelayInterval> intervals;
  intervals.reserve(zones_.size());
  for (const Dbm& z : zones_) {
    if (const auto iv = z.delay_interval(point, scale)) {
      intervals.push_back(*iv);
    }
  }
  return merge_stay_bound(intervals);
}

void Fed::extrapolate_max_bounds(std::span<const bound_t> max_constants) {
  for (Dbm& z : zones_) z.extrapolate_max_bounds(max_constants);
  reduce();
}

void Fed::reduce() {
  // Two passes: decide first (comparisons need intact zones), compact
  // after.
  const std::size_t n = zones_.size();
  if (n <= 1) return;
  // Bound-signature pre-filter: zone_i ⊆ zone_j forces sig_i ≤ sig_j
  // (canonical DBMs compare pointwise), so most of the quadratic
  // relation() scans collapse to one integer comparison.  Small
  // federations keep the signatures and flags on the stack.
  constexpr std::size_t kStackZones = 32;
  std::int64_t sig_stack[kStackZones];
  char covered_stack[kStackZones];
  std::vector<std::int64_t> sig_heap;
  std::vector<char> covered_heap;
  std::int64_t* sig = sig_stack;
  char* covered = covered_stack;
  if (n > kStackZones) {
    sig_heap.resize(n);
    covered_heap.resize(n);
    sig = sig_heap.data();
    covered = covered_heap.data();
  }
  for (std::size_t i = 0; i < n; ++i) {
    sig[i] = zones_[i].bound_signature();
    covered[i] = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n && !covered[i]; ++j) {
      if (i == j) continue;
      // Drop strict subsets; for equal zones keep only the first copy.
      if (sig[i] > sig[j]) continue;  // cannot be ⊆
      if (sig[i] == sig[j]) {
        // Equal signatures + inclusion force equal matrices.
        covered[i] = j < i && zones_[i] == zones_[j];
      } else {
        covered[i] = zones_[i].relation(zones_[j]) == Relation::kSubset;
      }
    }
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (covered[i]) continue;
    if (w != i) zones_[w] = std::move(zones_[i]);
    ++w;
  }
  zones_.resize(w);
}

std::size_t Fed::heap_bytes() const noexcept {
  std::size_t total = zones_.capacity() * sizeof(Dbm);
  for (const Dbm& z : zones_) {
    if (z.dimension() > Dbm::kInlineDim) total += z.memory_bytes();
  }
  return total;
}

std::string Fed::to_string(std::span<const std::string> names) const {
  if (zones_.empty()) return "false";
  std::vector<std::string> parts;
  parts.reserve(zones_.size());
  for (const Dbm& z : zones_) {
    parts.push_back(zones_.size() == 1 ? z.to_string(names)
                                       : "(" + z.to_string(names) + ")");
  }
  return util::join(parts, " || ");
}

std::string Fed::to_string() const {
  std::vector<std::string> names(dim_);
  for (std::uint32_t i = 0; i < dim_; ++i) names[i] = util::format("x%u", i);
  return to_string(names);
}

}  // namespace tigat::dbm
