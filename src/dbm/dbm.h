// Difference Bound Matrices — the canonical representation of clock
// zones (convex sets of clock valuations definable by conjunctions of
// `x ≺ c`, `x − y ≺ c`).
//
// Conventions (classical; Bengtsson & Yi 2004):
//   * clock 0 is the constant-zero reference clock;
//   * entry (i, j) bounds `x_i − x_j`;
//   * a Dbm at rest is CLOSED (canonical: every entry is the tightest
//     bound implied by the others) and NON-EMPTY unless `is_empty()`;
//   * all mutators keep the closed form, either by construction
//     (`up`, `down`, `reset`, `free`) or by incremental closure
//     (`constrain`), so the O(n³) `close()` only runs after bulk edits
//     such as extrapolation.
//
// Zones carry no location/data information; that pairing happens in
// `semantics::SymbolicState`.
//
// Storage: matrices of dimension ≤ kInlineDim (3 clocks plus the
// reference) live inline in the object — no heap allocation at all —
// in a 64-byte buffer that shares its bytes with the heap pointer, so
// sizeof(Dbm) is 72.  Every model the repo ships fits (LEP at any N: 3,
// Smart Light: 4), which removes the malloc/free pair per temporary
// zone that would otherwise serialize the parallel solver on the
// allocator, and keeps Fed vectors and pooled-zone decodes free of
// padding.  Larger dimensions fall back to one heap block per zone.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dbm/bound.h"
#include "util/memory_meter.h"

namespace tigat::dbm {

// Result of comparing two zones over the same clocks.
enum class Relation : std::uint8_t {
  kEqual,
  kSubset,    // *this ⊂ other (strictly, as sets of valuations... see note)
  kSuperset,  // *this ⊃ other
  kDifferent,
};

// The dense interval of delays δ (in ticks) keeping `point + δ` inside
// one zone.  Unlike latest_stay_delay's integer answer, this preserves
// the strictness of both endpoints, which matters when intervals from
// several zones of a federation are merged: {δ < 3} ∪ {δ ≥ 3} is
// gapless while {δ ≤ 2} ∪ {δ ≥ 3} has a dense gap, yet both quantize
// to the same integer bounds.  `hi == Dbm::kNoDeadline` means upward
// unbounded (hi_strict is then meaningless).  lo is clipped at 0
// (inclusive), so lo_strict only ever records a strict zone bound.
struct DelayInterval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool lo_strict = false;
  bool hi_strict = false;
};

// Largest integer D ≥ 0 such that the dense union of `intervals` covers
// all of [0, D]; Dbm::kNoDeadline when the union is upward unbounded
// from 0.  Requires δ = 0 to be covered (the point is inside some
// zone).  Sorts `intervals` in place; the result depends only on the
// multiset, so callers feeding set-equal federations in any member
// order get bit-identical answers (the walking Strategy and the
// compiled DecisionTable share this helper for exactly that reason).
[[nodiscard]] std::int64_t merge_stay_bound(std::vector<DelayInterval>& intervals);

// ── raw-cell zone math ──────────────────────────────────────────────
//
// The point queries a decision backend runs per decide() call, as free
// functions over a bare dim×dim cell array.  `cells` must hold a
// CLOSED, NON-EMPTY matrix (row-major, entry (i,j) bounds x_i − x_j) —
// exactly what a canonical Dbm stores, what dbm::ZonePool interns, and
// what a mmapped `.tgs` v3 image exposes in place.  The Dbm methods of
// the same names forward here; decision::TgsView calls these directly
// so serving a zone costs zero construction and zero copies.
[[nodiscard]] bool raw_contains_point(std::uint32_t dim, const raw_t* cells,
                                      std::span<const std::int64_t> point,
                                      std::int64_t scale = 1);
[[nodiscard]] std::optional<std::int64_t> raw_earliest_entry_delay(
    std::uint32_t dim, const raw_t* cells, std::span<const std::int64_t> point,
    std::int64_t scale = 1);
[[nodiscard]] std::optional<DelayInterval> raw_delay_interval(
    std::uint32_t dim, const raw_t* cells, std::span<const std::int64_t> point,
    std::int64_t scale = 1);

class Dbm {
 public:
  // Largest dimension stored inline (no heap); see the file comment.
  static constexpr std::uint32_t kInlineDim = 4;

  // An empty-dimension Dbm is only useful as a moved-from shell.
  Dbm() = default;

  // The zone containing exactly the origin (all clocks = 0).
  static Dbm zero(std::uint32_t dim);
  // The zone of all valuations (clocks ≥ 0, otherwise unconstrained).
  static Dbm universal(std::uint32_t dim);
  // Rebuilds a zone from dim×dim raw cells that came out of a closed,
  // non-empty Dbm (e.g. dictionary-compressed storage, dbm/zone_pool.h).
  // No closure runs: the caller vouches the cells are canonical.
  static Dbm from_raw(std::uint32_t dim, const raw_t* cells);
  // Same contract, row by row: `row_fn(r)` yields a pointer to the dim
  // cells of row r, which are copied straight into the new zone's own
  // storage (dbm::PooledFed decodes its dictionary rows this way).
  template <typename RowFn>
  static Dbm from_rows(std::uint32_t dim, RowFn&& row_fn) {
    Dbm d(dim);
    raw_t* m = d.data();
    for (std::uint32_t r = 0; r < dim; ++r) {
      std::memcpy(m + std::size_t{r} * dim, row_fn(r), dim * sizeof(raw_t));
    }
    return d;
  }

  // The value operations are inline: the solver copies and destroys
  // millions of temporary zones per solve, and an out-of-line call (plus
  // the zone meter's) per copy costs more than the 64-byte copy itself.
  Dbm(const Dbm& other) : dim_(other.dim_), empty_(other.empty_) {
    if (on_heap()) {
      heap_ = new raw_t[cells()];
      std::memcpy(heap_, other.heap_, cells() * sizeof(raw_t));
    } else {
      std::memcpy(inline_, other.inline_, sizeof(inline_));
    }
    meter_add();
  }
  Dbm(Dbm&& other) noexcept : dim_(other.dim_), empty_(other.empty_) {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    other.dim_ = 0;
  }
  Dbm& operator=(const Dbm& other) {
    if (this == &other) return *this;
    if (!other.on_heap()) {
      if (on_heap()) delete[] heap_;
      meter_sub();
      std::memcpy(inline_, other.inline_, sizeof(inline_));
    } else {
      if (!on_heap() || cells() != other.cells()) {
        raw_t* fresh = new raw_t[other.cells()];
        if (on_heap()) delete[] heap_;
        heap_ = fresh;
      }
      meter_sub();
      std::memcpy(heap_, other.heap_, other.cells() * sizeof(raw_t));
    }
    dim_ = other.dim_;
    empty_ = other.empty_;
    meter_add();
    return *this;
  }
  Dbm& operator=(Dbm&& other) noexcept {
    if (this == &other) return *this;
    meter_sub();
    if (on_heap()) delete[] heap_;
    dim_ = other.dim_;
    empty_ = other.empty_;
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    other.dim_ = 0;
    return *this;
  }
  ~Dbm() {
    meter_sub();
    if (on_heap()) delete[] heap_;
  }

  [[nodiscard]] std::uint32_t dimension() const noexcept { return dim_; }
  [[nodiscard]] bool is_empty() const noexcept { return empty_; }

  [[nodiscard]] raw_t at(std::uint32_t i, std::uint32_t j) const {
    TIGAT_DEBUG_ASSERT(i < dim_ && j < dim_, "clock index out of range");
    return data()[i * dim_ + j];
  }

  // Raw write; leaves the matrix possibly non-canonical.  Callers must
  // run close() before using any other operation.  Exposed for the
  // construction of ad-hoc zones in tests and for extrapolation.
  void set_raw(std::uint32_t i, std::uint32_t j, raw_t b) {
    TIGAT_DEBUG_ASSERT(i < dim_ && j < dim_, "clock index out of range");
    data()[i * dim_ + j] = b;
  }

  // Full Floyd–Warshall canonicalisation.  Returns false (and marks the
  // zone empty) on inconsistency.
  bool close();

  // Adds `x_i − x_j ≺ c` and restores the closed form incrementally
  // (O(dim²)).  Returns false iff the zone became empty.
  bool constrain(std::uint32_t i, std::uint32_t j, raw_t bound);

  // Future: removes all upper bounds (`delay`, `Z↑`).
  void up();
  // Past: relaxes all lower bounds to 0 (`Z↓`).  Exact down-closure.
  void down();

  // x_k := value (model units).
  void reset(std::uint32_t k, bound_t value = 0);
  // Removes every constraint on x_k.
  void free(std::uint32_t k);

  // The intersection, in closed form: the matrix close() makes of the
  // pointwise minimum, reached by incremental tightening.  Returns false
  // iff the result is empty (in which case *this is marked empty).
  bool intersect_with(const Dbm& other);
  [[nodiscard]] bool intersects(const Dbm& other) const;

  [[nodiscard]] Relation relation(const Dbm& other) const;
  [[nodiscard]] bool is_subset_of(const Dbm& other) const;  // ⊆ (non-strict)
  [[nodiscard]] bool operator==(const Dbm& other) const;

  // Classical maximal-constant extrapolation Extra_M.  `max_constants`
  // holds M(x) per clock (index 0 unused, treated as 0).  Sound
  // abstraction for (game) reachability; see game/solver.h for the
  // discussion.  Re-closes the matrix.
  void extrapolate_max_bounds(std::span<const bound_t> max_constants);

  // Membership of a concrete valuation given in execution ticks, where
  // model-unit bounds are multiplied by `scale`.  `point[0]` must be 0.
  [[nodiscard]] bool contains_point(std::span<const std::int64_t> point,
                                    std::int64_t scale = 1) const;
  [[nodiscard]] bool contains_point(std::initializer_list<std::int64_t> point,
                                    std::int64_t scale = 1) const {
    return contains_point(std::span<const std::int64_t>(point.begin(), point.size()),
                          scale);
  }

  // Earliest δ ≥ 0 (in ticks) with `point + δ` inside this zone, if the
  // diagonal through `point` ever enters it at integer ticks.
  // Strict bounds are honoured: entering `x > 2` at scale 1 yields δ
  // such that x-value = 3.  Returns nullopt when unreachable by delay.
  [[nodiscard]] std::optional<std::int64_t> earliest_entry_delay(
      std::span<const std::int64_t> point, std::int64_t scale = 1) const;
  [[nodiscard]] std::optional<std::int64_t> earliest_entry_delay(
      std::initializer_list<std::int64_t> point, std::int64_t scale = 1) const {
    return earliest_entry_delay(
        std::span<const std::int64_t>(point.begin(), point.size()), scale);
  }

  // Latest δ ≥ 0 such that every δ' ∈ [0, δ] keeps `point + δ'` inside
  // the zone; requires the point to be inside.  kNoDeadline when the
  // zone is upward unbounded through the point.
  static constexpr std::int64_t kNoDeadline = std::int64_t{1} << 62;
  [[nodiscard]] std::int64_t latest_stay_delay(
      std::span<const std::int64_t> point, std::int64_t scale = 1) const;

  // The dense δ-interval through this zone from `point` (see
  // DelayInterval), or nullopt when no δ ≥ 0 enters it — either a
  // delay-invariant difference constraint fails or the diagonal passes
  // entirely below δ = 0.  Unlike earliest_entry_delay this does not
  // quantize to integer ticks; safety strategies merge these intervals
  // across a federation (Fed::safe_delay_bound) before quantizing.
  [[nodiscard]] std::optional<DelayInterval> delay_interval(
      std::span<const std::int64_t> point, std::int64_t scale = 1) const;

  [[nodiscard]] std::size_t hash() const noexcept;

  // Sum of all encoded bounds.  For canonical DBMs of equal dimension,
  // `a ⊆ b` implies pointwise `a ≤ b` and therefore
  // `a.bound_signature() <= b.bound_signature()`; equal signatures plus
  // inclusion force identical matrices.  Used as a cheap inclusion
  // pre-filter by Fed::reduce() (covered in bench_micro_dbm).
  [[nodiscard]] std::int64_t bound_signature() const noexcept;

  // Human-readable constraint list, e.g. "x<=2 && y-x<1".  `names[i]`
  // labels clock i; names[0] is ignored.
  [[nodiscard]] std::string to_string(std::span<const std::string> names) const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cells() * sizeof(raw_t);
  }

 private:
  explicit Dbm(std::uint32_t dim) : dim_(dim) {
    TIGAT_ASSERT(dim >= 1, "a DBM needs at least the reference clock");
    if (on_heap()) heap_ = new raw_t[cells()];
    meter_add();
  }

  [[nodiscard]] std::size_t cells() const noexcept {
    return std::size_t{dim_} * dim_;
  }
  [[nodiscard]] bool on_heap() const noexcept { return dim_ > kInlineDim; }
  [[nodiscard]] raw_t* data() noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const raw_t* data() const noexcept {
    return on_heap() ? heap_ : inline_;
  }

  void meter_add() const noexcept {
    if (dim_ != 0) util::zone_memory_add(memory_bytes());
  }
  void meter_sub() const noexcept {
    if (dim_ != 0) util::zone_memory_sub(memory_bytes());
  }

  std::uint32_t dim_ = 0;
  bool empty_ = false;
  union {
    raw_t inline_[kInlineDim * kInlineDim];
    raw_t* heap_;  // owned iff on_heap()
  };
  // inline_ spans the whole union, so copying it moves either storage
  // kind: the cells of an inline zone or the pointer of a heap one.
  static_assert(sizeof(inline_) >= sizeof(heap_));
};

// Z1 \ Z2 as a list of pairwise-disjoint, closed, non-empty zones,
// appended to `out` (whose earlier contents are kept), so hot callers
// reuse one vector's capacity.  Splits only on the facets of `z2` that
// actually cut `z1`, which keeps the fragment count near the minimum
// for typical game workloads.
void subtract(const Dbm& z1, const Dbm& z2, std::vector<Dbm>& out);

}  // namespace tigat::dbm
