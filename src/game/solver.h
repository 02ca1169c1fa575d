// The timed game solver — our re-implementation of the UPPAAL-TIGA
// core the paper builds on (Sec. 3.2; algorithm of Cassez, David,
// Fleury, Larsen, Lime, CONCUR 2005).  Reachability purposes
// (`control: A<> φ`) and safety purposes (`control: A[] φ`) share one
// attractor fixpoint; see the safety section below.
//
// Given a TIOGA network S and a test purpose `control: A<> φ`, the
// solver computes, per discrete state q of the forward-explored zone
// graph, the federation of clock valuations from which the controller
// (tester) can force φ whatever the uncontrollable (SUT) moves do.
// The fixpoint runs in synchronous rounds:
//
//   Win₀[q]   = Reach[q]                   if φ(q) else ∅
//   Winₖ₊₁[q] = Winₖ[q] ∪ ( pred_t(Bₖ[q], Gₖ[q]) ∩ Reach[q] )
//     Bₖ[q] = ( Winₖ[q] ∪ ⋃_{q →c q'} pred_e(Winₖ[q']) ) ∩ Reach[q]
//     Gₖ[q] =   ⋃_{q →u q'} pred_e(Reach[q'] \ Winₖ[q'])  ∩ Reach[q]
//
// pred_t is the safe-timed-predecessor of dbm::Fed (closed avoidance:
// simultaneous opponent moves win, the right semantics for black-box
// testing); pred_e pins resets and applies guards.  In time-frozen
// states (urgent/committed) pred_t degenerates to B \ G.
//
// B additionally contains the FORCED set: states on the (weak) upper
// boundary of the invariant where at least one uncontrollable edge is
// enabled.  There time cannot advance and — by the maximal-run
// semantics of Def. 7/8 (a blocked non-goal run only counts as maximal
// when no action is available) — the SUT must move; if no move escapes
// (the state is outside G), every outcome is winning.  This is what
// makes "wait for the forced output" strategies work, e.g. Smart Light
// L6 where the only path to Bright is the uncontrollable bright!
// bounded by Tp ≤ 2.  Deadlines induced by strict upper bounds are
// not attained and therefore never force a move (conservative).
//
// The round at which a state enters Win is its RANK.  Ranks are the
// progress measure that makes extracted strategies winning: a
// controllable action prescribed at rank r lands at rank < r, an
// uncontrollable move from a rank-r winning state lands at rank < r
// (it was avoided as an escape at r−1), and the delay prescribed by
// pred_t reaches B — rank < r territory — in bounded time.  Induction
// over ranks is exactly the paper's Def. 8 winning-strategy argument.
//
// Intersecting B with Reach[q] is not an optimisation but soundness:
// pred_t's endpoint must be a state the play can actually be in
// (delay-closed reach zones make Reach[q] ⊇ every delay successor that
// respects the invariant).  G ∩ Reach[q] is exact for the same reason.
//
// ── safety games (`control: A[] φ`) ────────────────────────────────────
//
// The tester wins a safety game by keeping φ true forever.  By
// determinacy this is the complement of a reachability game played by
// the ENVIRONMENT: compute the environment's attractor Attr to the
// ¬φ states — the very fixpoint above with the player roles swapped
// (the SUT's uncontrollable edges feed B, the tester's controllable
// edges feed G, and the FORCED set asks for an enabled CONTROLLABLE
// edge at an invariant deadline: there the TESTER must move, and if
// every tester move lands in Attr the environment wins) — and take
//
//   Safe[q] = Reach[q] \ Attr[q].
//
// One attractor loop thus serves both purpose kinds; the Jacobi round
// structure, serial in-key-order merges and pooled gain staging are
// shared verbatim, so safety solutions inherit the bit-identical-at-
// any-thread-count guarantee.  The published solution holds Safe as a
// single round-0 delta per key (a greatest fixpoint has no rank
// structure to exploit: the strategy is "stay inside Safe", not
// "descend a progress measure"), `goal_key(q)` reports whether φ
// holds at q, and `action_region(ei, 0, ·)` is the region where taking
// edge ei keeps the play inside Safe — which is exactly what
// Strategy::decide and decision::compile consume.
//
// ── the shared graph ───────────────────────────────────────────────────
//
// The zone graph does not depend on the purpose.  solve() takes it from
// semantics::SymbolicGraph::explored, which explores once per (System,
// ExplorationOptions) and memoizes the result on the System, so every
// purpose of one model solves against one immutable graph.  A solve
// that reuses the graph reports zero exploration seconds; keys, zones
// and edges are the graph's either way.
//
// ── zone storage ───────────────────────────────────────────────────────
//
// The reach sets, the fixpoint's loss cache and the solution's
// per-round gains are all stored dictionary-compressed
// (dbm/zone_pool.h): a zone costs dim row ids instead of an inline
// dim×dim matrix, which is what makes LEP n = 6 strategy tables fit in
// CI-class memory.  The graph's dictionary is never written after
// exploration: each solution owns a copy of it, so reach row ids stay
// valid in the solution's dictionary, and the fixpoint interns the
// loss and gain rows there.  A solution is read-only once solve()
// returns: every accessor decodes from the pool when called (rank tests
// the pooled rows directly) and nothing is cached, so concurrent
// readers need no synchronisation and a consumer that visits every key
// (decision::compile, Strategy::to_string) holds one key's decoded
// federations at a time.  Strategy keeps its own cache of the action
// and danger regions for the walk.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dbm/federation.h"
#include "dbm/zone_pool.h"
#include "semantics/symbolic.h"
#include "tsystem/property.h"

namespace tigat::game {

struct SolverOptions {
  semantics::ExplorationOptions exploration;
  std::size_t max_rounds = 1u << 20;
  // Worker threads for exploration and the fixpoint (the calling
  // thread included): 0 = hardware concurrency, 1 = serial.  Winning
  // federations, ranks, key numbering and strategies are bit-identical
  // at every value — work is distributed, results are merged in key
  // order (see solve()).  The resolved count is recorded on the
  // solution (GameSolution::worker_count) and reused by
  // decision::compile, whose tables are byte-identical at any value.
  unsigned threads = 0;
};

struct SolverStats {
  std::size_t keys = 0;
  std::size_t reach_zones = 0;
  std::size_t winning_zones = 0;
  std::size_t edges = 0;
  std::size_t rounds = 0;
  std::size_t peak_zone_bytes = 0;
  double solve_seconds = 0.0;
  // Exploration phase split: parallel wave expansion vs the serial
  // seal+merge remainder (the striped interner shrinks the latter).
  // Both are 0 when the solve reused a graph explored earlier.
  double explore_expand_seconds = 0.0;
  double explore_merge_seconds = 0.0;
  // The solution's zone-pool dictionary (the graph's rows included).
  std::size_t zone_pool_rows = 0;
  std::size_t zone_pool_bytes = 0;
};

// The solved game: the (shared) symbolic graph + ranked winning
// federations.  Shared (immutably) by strategies and the test executor.
class GameSolution {
 public:
  struct Delta {
    std::uint32_t round;
    dbm::Fed gained;
  };

  GameSolution(std::shared_ptr<const semantics::SymbolicGraph> graph,
               tsystem::TestPurpose purpose);

  [[nodiscard]] const semantics::SymbolicGraph& graph() const {
    return *graph_;
  }
  [[nodiscard]] const tsystem::TestPurpose& purpose() const { return purpose_; }

  [[nodiscard]] bool goal_key(std::uint32_t k) const { return goal_key_[k]; }

  // Key k's winning states (of rank ≤ round), decoded into `scratch`
  // (cleared first) like SymbolicGraph::reach: the gains in round order.
  [[nodiscard]] const dbm::Fed& winning(std::uint32_t k,
                                        dbm::Fed& scratch) const;
  [[nodiscard]] const dbm::Fed& winning_up_to(std::uint32_t k,
                                              std::uint32_t round,
                                              dbm::Fed& scratch) const;
  // Key k's per-round gains, decoded, in round order.
  [[nodiscard]] std::vector<Delta> deltas(std::uint32_t k) const {
    std::vector<Delta> out;
    (void)deltas(k, out);  // `out` grows to exactly the gains
    return out;
  }
  // The same gains, decoded into the leading entries of `scratch`,
  // which grows as needed and never shrinks, so a loop over keys reuses
  // its federations; entries past the returned span are left empty.
  std::span<const Delta> deltas(std::uint32_t k,
                                std::vector<Delta>& scratch) const;

  // Rank of a concrete valuation (ticks at `scale`), if winning.
  [[nodiscard]] std::optional<std::uint32_t> rank(
      std::uint32_t k, std::span<const std::int64_t> clocks,
      std::int64_t scale) const;

  // The federations action_region / danger_region decode into and
  // compute through.  Caller-owned, so a loop over many regions reuses
  // their capacity; they hold nothing the caller reads.
  struct RegionScratch {
    explicit RegionScratch(std::uint32_t dim)
        : decoded(dim), reach(dim), bad(dim), pred(dim) {}
    dbm::Fed decoded, reach, bad, pred;
  };

  // pred_e(Win_{≤ round}[dst]) ∩ Reach[src] for edge index `ei`, written
  // into `out` (cleared first) — the region where the strategy
  // prescribes taking `ei` from rank round+1 (safety: round 0 — the
  // region where taking `ei` keeps the play inside Safe).  `reach_src`
  // is Reach[src], decoded by the caller (graph().reach(src, scratch)),
  // so one decode serves every edge of a key.  Computed afresh on every
  // call: this is the single definition of the region, shared by
  // Strategy::decide (which caches it) and decision::compile (which
  // computes it once per key), so their results — member-zone layout
  // included — stay bit-identical.
  void action_region(std::uint32_t ei, std::uint32_t round,
                     const dbm::Fed& reach_src, dbm::Fed& out,
                     RegionScratch& scratch) const;

  // Safety games only: the sub-region of Reach[k] where some enabled
  // uncontrollable edge exits Safe, written into `out` (cleared first).
  // Inside Safe \ Danger delaying is harmless; the strategy must act no
  // later than the play enters Danger (the closed-avoidance fixpoint
  // guarantees a safe controllable escape is available by then — ties
  // go to the tester).  `reach_k` is Reach[k], decoded by the caller;
  // computed afresh on every call, like action_region.
  void danger_region(std::uint32_t k, const dbm::Fed& reach_k, dbm::Fed& out,
                     RegionScratch& scratch) const;

  // Whether the initial state (every clock 0) is winning.
  [[nodiscard]] bool winning_from_initial() const;

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  // Workers of the solve that built this solution: SolverOptions::
  // threads resolved (0 → hardware concurrency), 1 for a solution not
  // built by GameSolver.  decision::compile fans out over as many, so
  // one knob sizes the whole synthesis pipeline.
  [[nodiscard]] unsigned worker_count() const { return worker_count_; }

 private:
  friend class GameSolver;

  struct PooledDelta {
    std::uint32_t round;
    dbm::PooledFed gained;
  };

  std::shared_ptr<const semantics::SymbolicGraph> graph_;
  // The graph's dictionary plus the fixpoint's rows; decodes deltas_.
  dbm::ZonePool pool_;
  tsystem::TestPurpose purpose_;
  std::vector<bool> goal_key_;
  // Per key, the gains of each round in round order.  A key's winning
  // set is the concatenation of its gains — they are disjoint, so no
  // filtering applies.
  std::vector<std::vector<PooledDelta>> deltas_;
  SolverStats stats_;
  unsigned worker_count_ = 1;
};

// Solves `control: A<> φ` (PurposeKind::kReach) and `control: A[] φ`
// (PurposeKind::kSafety) over a finalized system, dispatching on the
// purpose kind (see the file comment for the safety reduction).
// Throws semantics::ExplorationLimit if the exploration budget is
// exceeded.
class GameSolver {
 public:
  GameSolver(const tsystem::System& system, tsystem::TestPurpose purpose,
             SolverOptions options = {});

  [[nodiscard]] std::shared_ptr<const GameSolution> solve();

 private:
  const tsystem::System* sys_;
  tsystem::TestPurpose purpose_;
  SolverOptions options_;
};

}  // namespace tigat::game
