// State-based winning strategies (Definitions 6–8 of the paper).
//
// A strategy maps concrete states to either a controllable action
// ("offer this input now") or λ ("wait").  It is extracted from the
// ranked winning sets of a GameSolution:
//
//   * rank 0          → the test purpose holds: the play is won;
//   * rank r, some controllable edge e with the current valuation in
//     pred_e(Win_{≤ r−1}[dst])   → take e (rank strictly decreases);
//   * otherwise       → λ; pred_t guarantees that delaying reaches a
//     lower-rank region or an action region in bounded time, and that
//     any SUT output fired meanwhile lands in Win_{≤ r−1}.
//
// For λ moves the strategy also reports the next *decision point* —
// the earliest tick at which the prescription changes — so a test
// executor knows how long it may sleep (Algorithm 3.1's "delay d").
//
// Safety games (`control: A[] φ`) have no rank structure: every state
// inside Safe has rank 0 and the prescription is time-driven — delay
// while delaying is harmless (Fed::safe_delay_bound over Safe,
// clipped one tick short of GameSolution::danger_region), take a
// Safe-preserving action at the boundary.  kGoalReached is never
// produced: a safety play is won by outlasting the budget, which is
// the executor's call, not the strategy's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "game/solver.h"
#include "semantics/concrete.h"

namespace tigat::game {

enum class MoveKind : std::uint8_t {
  kGoalReached,  // rank 0: purpose satisfied
  kAction,       // offer the given controllable action now
  kDelay,        // λ: wait (see next_decision_ticks)
  kUnwinnable,   // state outside the winning set (strategy undefined)
};

struct Move {
  MoveKind kind = MoveKind::kUnwinnable;
  // kAction: the symbolic edge to take (index into graph().edges()).
  std::optional<std::uint32_t> edge;
  // kDelay: ticks until the strategy's choice can change (entry into
  // an action region or a lower rank within this key).  kNoDecision if
  // progress relies on the SUT acting (e.g. a forced output window).
  static constexpr std::int64_t kNoDecision = std::int64_t{1} << 62;
  std::int64_t next_decision_ticks = kNoDecision;
  // Rank of the current state, when winning.
  std::optional<std::uint32_t> rank;

  [[nodiscard]] bool operator==(const Move&) const = default;
};

// The walk computes its action and danger regions through
// GameSolution::action_region / danger_region, and decodes a safety
// game's Safe per key, into a cache of its own, filled lazily and kept
// for the Strategy's lifetime; the solution itself holds no region
// state.
class Strategy {
 public:
  explicit Strategy(std::shared_ptr<const GameSolution> solution);

  [[nodiscard]] const GameSolution& solution() const { return *solution_; }

  // Decides at a concrete state (clock values in ticks at `scale`).
  // Safe for concurrent callers: the lazily-built region cache is
  // guarded by a shared mutex, so one Strategy can serve parallel test
  // executions (see also decision::DecisionTable for the lock-free
  // compiled backend).
  [[nodiscard]] Move decide(const semantics::ConcreteState& state,
                            std::int64_t scale) const;

  // Fig. 5-style rendering: per discrete state, zone → prescription.
  [[nodiscard]] std::string to_string() const;

  // Number of (zone, move) rows the printed strategy has — the
  // "strategy size" metric used in the benchmarks.
  [[nodiscard]] std::size_t size() const;

  // Approximate heap bytes held by the region cache.
  [[nodiscard]] std::size_t cached_region_bytes() const;

 private:
  // Node-based maps, so returned references survive rehashes; entries
  // are immutable once inserted.
  struct RegionCache {
    std::shared_mutex mutex;
    std::unordered_map<std::uint64_t, dbm::Fed> actions;  // edge << 32 | round
    std::unordered_map<std::uint32_t, dbm::Fed> danger;   // by key
    std::unordered_map<std::uint32_t, dbm::Fed> safe;     // by key
  };

  // GameSolution::action_region / danger_region, cached.
  [[nodiscard]] const dbm::Fed& action_region(std::uint32_t ei,
                                              std::uint32_t round) const;
  [[nodiscard]] const dbm::Fed& danger_region(std::uint32_t k) const;
  // GameSolution::winning of a safety game (Safe), cached.
  [[nodiscard]] const dbm::Fed& safe_region(std::uint32_t k) const;

  std::shared_ptr<const GameSolution> solution_;
  // Behind a pointer to keep the class movable.
  std::unique_ptr<RegionCache> cache_;
};

}  // namespace tigat::game
