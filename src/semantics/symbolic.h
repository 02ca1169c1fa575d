// Symbolic (zone-graph) semantics: forward reachability over states
// (location vector, data valuation, zone federation).
//
// Symbolic states are grouped by their discrete part (the "key"); the
// reachable clock sets accumulate in one federation per key.  Every
// stored zone is delay-closed within the invariant — `up(Z) ∩ Inv` —
// except when an urgent/committed location freezes time.  The graph
// records the discrete transitions between keys; the game solver
// back-propagates winning federations along them.
//
// Extrapolation: classical Extra_M with the per-clock maximal constants
// of the system (optionally raised by the caller).  Extra_M preserves
// reachability exactly on the region-abstraction level and is the
// abstraction UPPAAL-TIGA applies during timed-game solving; the
// region-solver cross-check in tests/game_solver_test.cpp exercises
// this implementation against an extrapolation-free oracle.
//
// Scale features (see explore() for the wave protocol):
//   * keys live in a striped concurrent interner
//     (util/striped_intern.h): workers intern during wave expansion,
//     numbering is assigned between waves in deterministic
//     first-encounter order — bit-identical at any thread count;
//   * reach federations — and the exploration frontier — are stored
//     dictionary-compressed (dbm/zone_pool.h): each stored zone is dim
//     row ids into a shared hash-consed row dictionary, which is what
//     lets LEP n ≥ 6 tables fit in CI-class memory.  Readers decode a
//     key's federation into a caller-owned scratch (reach(k, scratch));
//   * the graph does not depend on the test purpose, so it is built once
//     per (System, ExplorationOptions) and shared immutably: explored()
//     memoizes it on the System, and every purpose of that model solves
//     against the one graph.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dbm/federation.h"
#include "dbm/zone_pool.h"
#include "semantics/transition.h"
#include "tsystem/system.h"
#include "util/striped_intern.h"

namespace tigat::util {
class ThreadPool;
}

namespace tigat::semantics {

struct DiscreteKey {
  std::vector<tsystem::LocId> locs;
  tsystem::DataState data;

  [[nodiscard]] bool operator==(const DiscreteKey&) const = default;
  [[nodiscard]] std::size_t hash() const noexcept;
};

struct SymbolicEdge {
  std::uint32_t src = 0;  // key index
  std::uint32_t dst = 0;
  TransitionInstance inst;
};

// Thrown when exploration exceeds the configured limits (the Table 1
// harness converts this into the paper's "/" out-of-budget marker).
class ExplorationLimit : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ExplorationOptions {
  bool extrapolate = true;
  // Extra max constants merged over the system's (e.g. from a goal).
  std::vector<dbm::bound_t> extra_max_constants;
  // Hard count caps (runaway guards; LEP n = 6 needs ~11M keys / ~28M
  // zones, so the caps sit above that).  max_zone_bytes is the
  // mechanism for bounding actual memory.
  std::size_t max_keys = std::size_t{1} << 25;
  std::size_t max_zones = std::size_t{1} << 27;
  // Abort when the zone-memory meter exceeds this many bytes.
  std::size_t max_zone_bytes = std::numeric_limits<std::size_t>::max();
  // Wall-clock budget for exploration (seconds); 0 = unlimited.  Used
  // by the Table 1 harness to reproduce the paper's "/" cells.
  double deadline_seconds = 0.0;

  // The graph memo's key (see SymbolicGraph::explored).
  [[nodiscard]] bool operator==(const ExplorationOptions&) const = default;
};

class SymbolicGraph {
 public:
  explicit SymbolicGraph(const tsystem::System& system,
                         ExplorationOptions options = {});

  // The explored graph of `system` under `options`, shared by every
  // caller.  A hit returns the graph memoized on the System (see
  // tsystem::GraphMemo); a miss explores with `pool`, memoizes the
  // result and sets *explored_now.  ExplorationLimit propagates and
  // leaves the memo empty.  The graph must not outlive the System.
  [[nodiscard]] static std::shared_ptr<const SymbolicGraph> explored(
      const tsystem::System& system, const ExplorationOptions& options,
      util::ThreadPool* pool, bool* explored_now = nullptr);

  // Runs forward exploration to the fixpoint (or throws
  // ExplorationLimit).  Idempotent.
  //
  // With a pool, the frontier is processed in WAVES: every state of
  // the current wave expands its successors on a worker (the expensive
  // part — guard collection, resets, closure, extrapolation) and
  // interns the successor key into the striped map right there,
  // tagging it with its deterministic serial-order rank.  Between
  // waves the new keys are numbered in rank order (= the order the
  // serial FIFO would have discovered them), then a serial merge
  // records edges and applies subsumption in wave order.  Key
  // numbering, edge order and reach federations are therefore
  // bit-identical at any thread count.
  void explore(util::ThreadPool* pool = nullptr);

  [[nodiscard]] const tsystem::System& system() const { return *sys_; }
  [[nodiscard]] const ExplorationOptions& options() const { return options_; }
  [[nodiscard]] std::uint32_t key_count() const {
    return static_cast<std::uint32_t>(intern_.size());
  }
  [[nodiscard]] const DiscreteKey& key(std::uint32_t k) const {
    return intern_.entry(k)->key;
  }
  [[nodiscard]] std::uint32_t initial_key() const { return 0; }
  [[nodiscard]] std::optional<std::uint32_t> find_key(
      const DiscreteKey& key) const;

  // ── reach federations ────────────────────────────────────────────────
  [[nodiscard]] const dbm::ZonePool& zone_pool() const { return pool_; }

  // Decodes key k's reach federation into `scratch` and returns it.
  [[nodiscard]] const dbm::Fed& reach(std::uint32_t k,
                                      dbm::Fed& scratch) const {
    reach_[k].materialize(scratch, pool_);
    return scratch;
  }
  // The stored (row-id) form of key k's reach federation.
  [[nodiscard]] const dbm::PooledFed& reach_pooled(std::uint32_t k) const {
    return reach_[k];
  }

  [[nodiscard]] const std::vector<SymbolicEdge>& edges() const {
    return edges_;
  }
  [[nodiscard]] std::span<const std::uint32_t> edges_out(std::uint32_t k) const;
  [[nodiscard]] std::span<const std::uint32_t> edges_in(std::uint32_t k) const;

  // Invariant zone of a key (hash-consed per location vector at intern
  // time — invariants ignore the data valuation, so millions of keys
  // share a handful of invariant zones).
  [[nodiscard]] const dbm::Dbm& invariant(std::uint32_t k) const {
    return intern_.entry(k)->aux->invariant;
  }
  // True when time cannot elapse at key k (urgent/committed location).
  [[nodiscard]] bool time_frozen(std::uint32_t k) const {
    return intern_.entry(k)->aux->frozen;
  }

  // Predecessor through an edge: states satisfying the edge's clock
  // guards whose reset image lies in `target`, written into `out`
  // (cleared first; not `target`), so a loop reuses its capacity.  NOT
  // intersected with the source invariant or reach set; callers do
  // that.
  void pred_through(const SymbolicEdge& e, const dbm::Fed& target,
                    dbm::Fed& out) const;

  // Forward image used by exploration; exposed for tests.  Writes the
  // successor's key and zone into `key` and `zone` — caller-owned
  // scratch, overwritten, so a loop reuses their storage — and returns
  // false when the instance is disabled from `src_zone` (the outputs
  // are then unspecified).  Applies guards, resets, target invariant
  // and (unless frozen) delay closure, but no extrapolation.
  [[nodiscard]] bool successor(std::uint32_t src_key,
                               const dbm::Dbm& src_zone,
                               const TransitionInstance& inst,
                               DiscreteKey& key, dbm::Dbm& zone) const;

  struct Stats {
    std::size_t keys = 0;
    std::size_t zones = 0;
    std::size_t edges = 0;
    // Wave-expansion (parallel) vs seal+merge (serial) wall time; the
    // merge share is the Amdahl cap the striped interner attacks.
    double expand_seconds = 0.0;
    double merge_seconds = 0.0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::vector<dbm::bound_t>& max_constants() const {
    return max_constants_;
  }

 private:
  // What a key's location vector alone decides: its invariant zone,
  // the transition instances leaving it (data guards unevaluated) and
  // whether time is frozen there.
  struct LocationFacts {
    dbm::Dbm invariant;
    std::vector<TransitionInstance> instances;
    bool frozen = false;
  };
  // Key entries point at the hash-consed facts of their location
  // vector; the facts map is keyed on the location vector alone.
  using InternMap = util::StripedInternMap<DiscreteKey, const LocationFacts*>;
  using FactsMap =
      util::StripedInternMap<std::vector<tsystem::LocId>, LocationFacts>;

  // Resolves (interning if new) the location facts of a freshly
  // interned key — the inserting worker's one-time aux write.
  void fill_facts(InternMap::Entry& e) const;
  // Numbers the keys interned during the last wave and grows the
  // per-key stores; throws on the key limit.
  void seal_wave();
  void collect_guard(const EdgeRef& ref, dbm::Dbm& zone, bool& alive) const;
  void build_edge_index();

  const tsystem::System* sys_;
  ExplorationOptions options_;
  std::vector<dbm::bound_t> max_constants_;

  InternMap intern_;
  mutable FactsMap facts_{/*stripes=*/8};
  dbm::ZonePool pool_;
  std::vector<dbm::PooledFed> reach_;
  std::vector<SymbolicEdge> edges_;
  // During exploration the out-edges per key grow incrementally (the
  // dedup structure of the merge); build_edge_index() flattens both
  // directions into CSR arrays — at LEP n = 6 scale the per-key vector
  // headers alone are hundreds of MB.
  std::vector<std::vector<std::uint32_t>> out_building_;
  std::vector<std::uint32_t> out_flat_, out_off_;
  std::vector<std::uint32_t> in_flat_, in_off_;
  double expand_seconds_ = 0.0;
  double merge_seconds_ = 0.0;
  bool explored_ = false;
};

}  // namespace tigat::semantics
