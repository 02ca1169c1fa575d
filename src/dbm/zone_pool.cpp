#include "dbm/zone_pool.h"

#include <cstring>

#include "obs/metrics.h"
#include "util/assert.h"
#include "util/memory_meter.h"

namespace tigat::dbm {

namespace {

// Cached registry references — intern_row is hot enough that a name
// lookup per call would show up; resolved once, on the first metered
// call.
obs::Counter& row_lookups() {
  static obs::Counter& c = obs::metrics().counter("zone_pool.row_lookups");
  return c;
}
obs::Counter& row_inserts() {
  static obs::Counter& c = obs::metrics().counter("zone_pool.row_inserts");
  return c;
}

}  // namespace

ZonePool::ZonePool(std::uint32_t dim) : dim_(dim) {
  TIGAT_ASSERT(dim >= 1, "a zone pool needs at least the reference clock");
}

ZonePool::ZonePool(const ZonePool& other)
    : dim_(other.dim_), slab_(other.slab_), index_(other.index_) {
  util::zone_memory_add(slab_.size() * sizeof(raw_t));
}

ZonePool::~ZonePool() { util::zone_memory_sub(slab_.size() * sizeof(raw_t)); }

ZonePool::RowId ZonePool::intern_row(const raw_t* row) {
  if (obs::metrics_enabled()) row_lookups().add(1);
  const std::size_t bytes = dim_ * sizeof(raw_t);
  // raw_t is int32_t: its words hash as their unsigned counterparts.
  // The index asserts past 2^31 records, so ids never run out.
  const auto [id, inserted] = index_.find_or_insert(
      util::hash_words({reinterpret_cast<const std::uint32_t*>(row), dim_}),
      static_cast<RowId>(row_count()),
      [&](RowId r) { return std::memcmp(this->row(r), row, bytes) == 0; });
  if (!inserted) return id;
  if (obs::metrics_enabled()) row_inserts().add(1);
  slab_.insert(slab_.end(), row, row + dim_);
  util::zone_memory_add(bytes);
  return id;
}

PooledFed::PooledFed(const PooledFed& other)
    : dim_(other.dim_), ids_(other.ids_) {
  util::zone_memory_add(memory_bytes());
}

PooledFed::PooledFed(PooledFed&& other) noexcept
    : dim_(other.dim_), ids_(std::move(other.ids_)) {
  other.ids_.clear();
}

PooledFed& PooledFed::operator=(const PooledFed& other) {
  if (this == &other) return *this;
  meter_resize(other.ids_.size());
  dim_ = other.dim_;
  ids_ = other.ids_;
  return *this;
}

PooledFed& PooledFed::operator=(PooledFed&& other) noexcept {
  if (this == &other) return *this;
  util::zone_memory_sub(memory_bytes());
  dim_ = other.dim_;
  ids_ = std::move(other.ids_);
  other.ids_.clear();
  return *this;
}

PooledFed::~PooledFed() { util::zone_memory_sub(memory_bytes()); }

void PooledFed::meter_resize(std::size_t new_ids) {
  const std::size_t old_ids = ids_.size();
  if (new_ids > old_ids) {
    util::zone_memory_add((new_ids - old_ids) * sizeof(ZonePool::RowId));
  } else {
    util::zone_memory_sub((old_ids - new_ids) * sizeof(ZonePool::RowId));
  }
}

Relation PooledFed::member_relation(const Dbm& zone, std::size_t m,
                                    const ZonePool& pool) const {
  // relation(member, zone) with the member decoded row-by-row — the
  // same pointwise comparison as Dbm::relation, minus the copy.
  bool sub = true;  // member ⊆ zone
  bool sup = true;  // member ⊇ zone
  for (std::uint32_t r = 0; r < dim_; ++r) {
    const raw_t* row = pool.row(ids_[m * dim_ + r]);
    for (std::uint32_t c = 0; c < dim_; ++c) {
      const raw_t zb = zone.at(r, c);
      if (row[c] > zb) sub = false;
      if (row[c] < zb) sup = false;
      if (!sub && !sup) return Relation::kDifferent;
    }
  }
  if (sub && sup) return Relation::kEqual;
  return sub ? Relation::kSubset : Relation::kSuperset;
}

bool PooledFed::add(const Dbm& zone, ZonePool& pool) {
  if (zone.is_empty()) return false;
  TIGAT_ASSERT(zone.dimension() == dim_, "dimension mismatch");
  // Mirror Fed::add exactly: one relation per member decides both
  // directions; members covered by the new zone are dropped only once
  // the zone is certain to stay.
  std::vector<std::size_t> drops;
  const std::size_t members = size();
  for (std::size_t m = 0; m < members; ++m) {
    switch (member_relation(zone, m, pool)) {
      case Relation::kEqual:
      case Relation::kSuperset:
        return false;  // an existing member covers the zone
      case Relation::kSubset:
        drops.push_back(m);
        break;
      case Relation::kDifferent:
        break;
    }
  }
  if (!drops.empty()) {
    std::size_t w = drops.front() * dim_;
    std::size_t next = 0;
    for (std::size_t m = drops.front(); m < members; ++m) {
      if (next < drops.size() && drops[next] == m) {
        ++next;
        continue;
      }
      for (std::uint32_t r = 0; r < dim_; ++r) {
        ids_[w++] = ids_[m * dim_ + r];
      }
    }
    meter_resize(w);
    ids_.resize(w);
  }
  append(zone, pool);
  return true;
}

void PooledFed::append(const Dbm& zone, ZonePool& pool) {
  TIGAT_ASSERT(!zone.is_empty() && zone.dimension() == dim_,
               "append of an empty or mismatched zone");
  meter_resize(ids_.size() + dim_);
  raw_t row[64];
  TIGAT_ASSERT(dim_ <= 64, "pooled storage caps the clock count at 64");
  for (std::uint32_t r = 0; r < dim_; ++r) {
    for (std::uint32_t c = 0; c < dim_; ++c) row[c] = zone.at(r, c);
    ids_.push_back(pool.intern_row(row));
  }
}

void PooledFed::assign(const Fed& fed, ZonePool& pool) {
  TIGAT_ASSERT(fed.dimension() == dim_ || fed.is_empty(),
               "dimension mismatch");
  meter_resize(0);
  ids_.clear();
  ids_.reserve(fed.size() * dim_);
  for (const Dbm& z : fed.zones()) append(z, pool);
}

void PooledFed::clear() {
  meter_resize(0);
  ids_.clear();
}

Dbm PooledFed::zone(std::size_t i, const ZonePool& pool) const {
  const ZonePool::RowId* ids = ids_.data() + i * dim_;
  return Dbm::from_rows(dim_,
                        [&](std::uint32_t r) { return pool.row(ids[r]); });
}

void PooledFed::materialize(Fed& out, const ZonePool& pool) const {
  out.clear();
  const std::size_t members = size();
  out.reserve(members);
  for (std::size_t m = 0; m < members; ++m) {
    out.append_raw(zone(m, pool));
  }
}

bool PooledFed::contains_point(std::span<const std::int64_t> point,
                               const ZonePool& pool,
                               std::int64_t scale) const {
  TIGAT_ASSERT(point.size() == dim_, "valuation size mismatch");
  const std::size_t members = size();
  for (std::size_t m = 0; m < members; ++m) {
    bool inside = true;
    for (std::uint32_t r = 0; r < dim_ && inside; ++r) {
      const raw_t* row = pool.row(ids_[m * dim_ + r]);
      for (std::uint32_t c = 0; c < dim_; ++c) {
        if (r == c) continue;
        if (!satisfies(point[r] - point[c], row[c], scale)) {
          inside = false;
          break;
        }
      }
    }
    if (inside) return true;
  }
  return false;
}

}  // namespace tigat::dbm
