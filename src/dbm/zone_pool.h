// Dictionary-compressed zone storage — the shared-substructure "passed
// list" representation that UPPAAL-family tools use to push state-space
// limits (Behrmann et al., UPPAAL 4.0; David et al., UPPAAL-Tiga).
//
// A ZonePool hash-conses DBM ROW vectors (dim raw_t bounds each) into
// one shared dictionary; a PooledFed stores each member zone as dim
// RowIds instead of a dim×dim matrix.  Extrapolation clamps every
// stored bound into a small per-clock vocabulary, so large zone graphs
// share rows massively: a dim-3 LEP zone shrinks from a 72-byte Dbm
// (36 bytes of cells) to 12 bytes of ids, and the dictionary itself
// stays tiny.  This is what makes LEP n = 6 strategy tables fit
// in CI-class memory.  It is the solver's only bulk zone storage: the
// reach sets and exploration frontier (semantics::SymbolicGraph), the
// fixpoint's loss cache and the solution's per-round gains
// (game::GameSolution, whose pool starts as a copy of its graph's) all
// hold row ids.  Decoding (zone(), materialize) copies each dictionary
// row straight into the new Dbm's own cells (Dbm::from_rows), inline
// or heap-backed alike.  Zones of up to 64 clocks (reference clock
// included) can be pooled.
//
// Concurrency contract (matches the solving pipeline's fork-join
// structure): intern_row() and every PooledFed mutator are SERIAL-ONLY
// — they run in the serial merge sections between parallel waves /
// fixpoint rounds.  Reads (row(), materialize, contains_point)
// are safe from any number of threads as long as no write is
// concurrent; the pool never hands out pointers that survive a later
// intern_row (the slab may grow).
//
// Both the pool slab and PooledFed id vectors report their bytes to
// util::zone_memory(), so the exploration budget and the Table 1
// memory column measure the COMPRESSED footprint.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dbm/federation.h"

namespace tigat::dbm {

class ZonePool {
 public:
  using RowId = std::uint32_t;

  explicit ZonePool(std::uint32_t dim);
  // Metered copy.  The copy interns on its own from then on; every row
  // id of `other` names the same row in both.
  explicit ZonePool(const ZonePool& other);
  ZonePool& operator=(const ZonePool&) = delete;
  ~ZonePool();

  // Serial-only; returns the id of the dictionary row equal to
  // row[0..dim), interning it on first sight.
  RowId intern_row(const raw_t* row);

  // Safe for concurrent readers while no intern_row runs.  The pointer
  // is invalidated by the next intern_row.
  [[nodiscard]] const raw_t* row(RowId id) const {
    return slab_.data() + std::size_t{id} * dim_;
  }

  [[nodiscard]] std::uint32_t dimension() const noexcept { return dim_; }
  [[nodiscard]] std::size_t row_count() const noexcept {
    return slab_.size() / dim_;
  }
  // Slab + dictionary index, the pool's own footprint.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  std::uint32_t dim_;
  std::vector<raw_t> slab_;  // row r at slab_[r*dim_ .. r*dim_+dim_)
  std::unordered_map<std::size_t, std::vector<RowId>> index_;
  std::size_t metered_ = 0;  // slab bytes currently reported to the meter
};

// A federation stored as row ids into a ZonePool.  Mirrors the exact
// member-filtering semantics and member ORDER of Fed::add, so a
// PooledFed round-trips to a bit-identical Fed (tests/zone_pool_test.cpp,
// with Fed as the reference).
class PooledFed {
 public:
  PooledFed() = default;
  explicit PooledFed(std::uint32_t dim) : dim_(dim) {}
  PooledFed(const PooledFed& other);
  PooledFed(PooledFed&& other) noexcept;
  PooledFed& operator=(const PooledFed& other);
  PooledFed& operator=(PooledFed&& other) noexcept;
  ~PooledFed();

  [[nodiscard]] std::uint32_t dimension() const noexcept { return dim_; }
  [[nodiscard]] bool is_empty() const noexcept { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return dim_ == 0 ? 0 : ids_.size() / dim_;
  }

  // Union with Fed::add's semantics: drop the zone if a member covers
  // it, drop members the zone covers, append otherwise.  Serial-only
  // (interns rows).  Returns true iff the zone was appended, so the
  // result doubles as the exploration's subsumption test (matches
  // Dbm::is_subset_of against each member).
  bool add(const Dbm& zone, ZonePool& pool);

  // Row ids of the most recently appended member — lets callers reuse
  // the interning work add() already did (e.g. the exploration
  // frontier) instead of re-hashing the rows.
  [[nodiscard]] std::span<const ZonePool::RowId> last_zone_ids() const {
    return {ids_.data() + ids_.size() - dim_, dim_};
  }

  // Appends without the inclusion scan — for compressing a Fed whose
  // members are already pairwise-filtered.  Serial-only.
  void append(const Dbm& zone, ZonePool& pool);

  // Replaces the contents with `fed`'s zones (order preserved, no
  // filtering).  Serial-only.
  void assign(const Fed& fed, ZonePool& pool);

  void clear();

  // Decodes member `i`, row by row into the returned zone's storage.
  [[nodiscard]] Dbm zone(std::size_t i, const ZonePool& pool) const;

  // Decodes the whole federation into `out` (cleared first).  The
  // result is bit-identical — same zones, same order — to the Fed this
  // PooledFed mirrors.
  void materialize(Fed& out, const ZonePool& pool) const;

  [[nodiscard]] bool contains_point(std::span<const std::int64_t> point,
                                    const ZonePool& pool,
                                    std::int64_t scale = 1) const;

  // Bytes of the id vector (the pool slab is accounted separately).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return ids_.size() * sizeof(ZonePool::RowId);
  }

 private:
  // Pointwise relation of uncompressed `zone` vs member `m`.
  [[nodiscard]] Relation member_relation(const Dbm& zone, std::size_t m,
                                         const ZonePool& pool) const;
  void meter_resize(std::size_t new_ids);

  std::uint32_t dim_ = 0;
  std::vector<ZonePool::RowId> ids_;  // member z occupies [z*dim_, (z+1)*dim_)
};

}  // namespace tigat::dbm
