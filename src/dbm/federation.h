// Federations: finite unions of zones over a common clock set.
//
// Zones are closed under intersection but not under union, complement
// or subtraction; the game solver's winning sets and the safe timed
// predecessor operator `pred_t` all live in the lattice of federations.
//
// Invariants: every member zone is closed and non-empty.  Member zones
// may overlap (subtraction produces disjoint pieces, unions generally
// do not); `reduce()` removes zones included in other members.
//
// ── pred_t: the core operator of the timed-game fixpoint ───────────────
//
// pred_t(B, G) = { s | ∃δ ≥ 0 :  s+δ ∈ B  ∧  ∀δ' ∈ [0, δ] : s+δ' ∉ G }
//
// i.e. the states that can delay into the "good" set B while never
// touching the "bad" set G on the way — including at the endpoints,
// which makes the operator conservative under any resolution of
// simultaneous moves (ties go to the opponent, exactly what black-box
// testing needs: the implementation under test controls its outputs).
//
// It is computed exactly by the decomposition proved below:
//
//  (1) union targets decompose:   pred_t(∪_j b_j, G) = ∪_j pred_t(b_j, G)
//      — a witness delay lands in some b_j.
//  (2) union avoidance intersects over convex targets:
//      pred_t(b, ∪_i g_i) = ∩_i pred_t(b, g_i)
//      — taking the minimum witness delay δ = min_i δ_i keeps the
//      endpoint in convex b and the shorter prefix avoids every g_i.
//  (3) convex/convex:
//      pred_t(b, g) = (b↓ \ g↓)  ∪  ( ((b ∩ g↓) \ g)↓ \ g )
//      — first term: reach b on a diagonal that never meets g's past
//        (so it cannot meet g);
//      — second term: endpoints below g (in g↓) but not in g; a
//        trajectory to such an endpoint cannot cross convex g, because
//        the diagonal line meets a convex set in a single interval and
//        the endpoint still has g ahead of it.
//
// Each identity is property-tested against a discretised oracle in
// tests/dbm/federation_predt_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dbm/dbm.h"

namespace tigat::dbm {

class Fed {
 public:
  explicit Fed(std::uint32_t dim) : dim_(dim) {}
  explicit Fed(Dbm zone);

  [[nodiscard]] static Fed empty(std::uint32_t dim) { return Fed(dim); }
  [[nodiscard]] static Fed universal(std::uint32_t dim) {
    return Fed(Dbm::universal(dim));
  }

  [[nodiscard]] std::uint32_t dimension() const noexcept { return dim_; }
  [[nodiscard]] bool is_empty() const noexcept { return zones_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return zones_.size(); }
  [[nodiscard]] const std::vector<Dbm>& zones() const noexcept { return zones_; }

  // Union; filters zones already included in a member (and members
  // included in the new zone).  Ignores empty zones.  An lvalue zone is
  // copied only when it is kept.
  void add(const Dbm& zone) {
    if (admit(zone)) zones_.push_back(zone);
  }
  void add(Dbm&& zone) {
    if (admit(zone)) zones_.push_back(std::move(zone));
  }
  // Appends without the inclusion scan — for decoding pooled storage
  // (dbm/zone_pool.h) whose members are already pairwise-filtered.
  // Member order is preserved exactly.
  void append_raw(Dbm zone);
  void clear() noexcept { zones_.clear(); }
  void reserve(std::size_t zones) { zones_.reserve(zones); }
  Fed& operator|=(const Fed& other);
  Fed& operator|=(const Dbm& zone);

  [[nodiscard]] Fed intersection(const Fed& other) const {
    Fed out(dim_);
    intersection(other, out);
    return out;
  }
  // this ∩ other written into `out` (cleared first; must be neither
  // operand), so a loop reuses out's capacity.  Pairs are added in
  // (this member, other member) order.
  void intersection(const Fed& other, Fed& out) const;

  [[nodiscard]] Fed minus(const Dbm& zone) const;
  [[nodiscard]] Fed minus(const Fed& other) const;

  // Exact inclusion / equality of the denoted point sets (via
  // subtraction, not per-zone inclusion).
  [[nodiscard]] bool is_subset_of(const Fed& other) const;
  [[nodiscard]] bool same_set_as(const Fed& other) const;

  [[nodiscard]] Fed up() const;
  [[nodiscard]] Fed down() const;

  // Safe timed predecessors; see the file comment.
  [[nodiscard]] Fed pred_t(const Fed& bad) const;

  [[nodiscard]] bool contains_point(std::span<const std::int64_t> point,
                                    std::int64_t scale = 1) const;
  [[nodiscard]] bool contains_point(std::initializer_list<std::int64_t> point,
                                    std::int64_t scale = 1) const {
    return contains_point(std::span<const std::int64_t>(point.begin(), point.size()),
                          scale);
  }
  [[nodiscard]] bool intersects(const Dbm& zone) const;

  // Min over member zones of Dbm::earliest_entry_delay.
  [[nodiscard]] std::optional<std::int64_t> earliest_entry_delay(
      std::span<const std::int64_t> point, std::int64_t scale = 1) const;
  [[nodiscard]] std::optional<std::int64_t> earliest_entry_delay(
      std::initializer_list<std::int64_t> point, std::int64_t scale = 1) const {
    return earliest_entry_delay(
        std::span<const std::int64_t>(point.begin(), point.size()), scale);
  }

  // Largest integer D ≥ 0 (in ticks) such that every delay in the
  // dense interval [0, D] keeps `point` inside this federation —
  // Dbm::kNoDeadline when unbounded.  Merges the member zones' dense
  // delay intervals (dbm::merge_stay_bound), so coverage split across
  // members with matching strict/weak facets is honoured exactly;
  // requires the point to be inside.  This is the wait bound a safety
  // strategy hands the executor: delaying past it would let time carry
  // the state out of the winning (safe) region.
  [[nodiscard]] std::int64_t safe_delay_bound(
      std::span<const std::int64_t> point, std::int64_t scale = 1) const;
  [[nodiscard]] std::int64_t safe_delay_bound(
      std::initializer_list<std::int64_t> point, std::int64_t scale = 1) const {
    return safe_delay_bound(
        std::span<const std::int64_t>(point.begin(), point.size()), scale);
  }

  void extrapolate_max_bounds(std::span<const bound_t> max_constants);

  // Drops member zones included in other members (quadratic; cheap for
  // the zone counts game solving produces).
  void reduce();

  void swap(Fed& other) noexcept {
    std::swap(dim_, other.dim_);
    zones_.swap(other.zones_);
  }

  // Heap bytes the federation owns: its zone vector's capacity plus
  // the matrices of zones too wide to store inline.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;
  [[nodiscard]] std::string to_string(std::span<const std::string> names) const;
  [[nodiscard]] std::string to_string() const;

 private:
  // Fed::add's filter: false when a member covers `zone` (or it is
  // empty); otherwise drops the members `zone` covers and returns true,
  // and the caller appends it.
  bool admit(const Dbm& zone);

  std::uint32_t dim_;
  std::vector<Dbm> zones_;
};

}  // namespace tigat::dbm
