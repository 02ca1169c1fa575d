#include "game/strategy.h"

#include <algorithm>

#include "util/assert.h"
#include "util/text.h"

namespace tigat::game {

using dbm::Fed;
using semantics::SymbolicEdge;

namespace {

// Returns map[key], computing and inserting it on a miss.  The value is
// computed outside any lock (it reads only the immutable solution); a
// racing caller may duplicate the work, but emplace keeps the first
// insertion and the loser's copy is discarded.
template <typename Map, typename Compute>
const Fed& find_or_insert(std::shared_mutex& mutex, Map& map,
                          typename Map::key_type key, const Compute& compute) {
  {
    std::shared_lock lock(mutex);
    const auto it = map.find(key);
    if (it != map.end()) return it->second;
  }
  Fed value = compute();
  std::unique_lock lock(mutex);
  return map.emplace(key, std::move(value)).first->second;
}

// A node-based map: its buckets, one node per entry, and the entries'
// federations.  An empty map owns no heap.
template <typename Map>
std::size_t map_bytes(const Map& map) {
  if (map.empty()) return 0;
  constexpr std::size_t kNode =
      sizeof(void*) + sizeof(typename Map::value_type);
  std::size_t total = map.bucket_count() * sizeof(void*) + map.size() * kNode;
  for (const auto& entry : map) total += entry.second.heap_bytes();
  return total;
}

}  // namespace

Strategy::Strategy(std::shared_ptr<const GameSolution> solution)
    : solution_(std::move(solution)),
      cache_(std::make_unique<RegionCache>()) {
  TIGAT_ASSERT(solution_ != nullptr, "strategy needs a solution");
}

const Fed& Strategy::action_region(std::uint32_t ei,
                                   std::uint32_t round) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(ei) << 32) | round;
  return find_or_insert(cache_->mutex, cache_->actions, key, [&] {
    const auto& g = solution_->graph();
    const std::uint32_t dim = g.system().clock_count();
    Fed reach(dim);
    Fed region(dim);
    GameSolution::RegionScratch scratch(dim);
    solution_->action_region(ei, round, g.reach(g.edges()[ei].src, reach),
                             region, scratch);
    return region;
  });
}

const Fed& Strategy::danger_region(std::uint32_t k) const {
  return find_or_insert(cache_->mutex, cache_->danger, k, [&] {
    const auto& g = solution_->graph();
    const std::uint32_t dim = g.system().clock_count();
    Fed reach(dim);
    Fed danger(dim);
    GameSolution::RegionScratch scratch(dim);
    solution_->danger_region(k, g.reach(k, reach), danger, scratch);
    return danger;
  });
}

const Fed& Strategy::safe_region(std::uint32_t k) const {
  return find_or_insert(cache_->mutex, cache_->safe, k, [&] {
    Fed safe(solution_->graph().system().clock_count());
    (void)solution_->winning(k, safe);  // decodes into `safe`
    return safe;
  });
}

std::size_t Strategy::cached_region_bytes() const {
  std::shared_lock lock(cache_->mutex);
  return map_bytes(cache_->actions) + map_bytes(cache_->danger) +
         map_bytes(cache_->safe);
}

Move Strategy::decide(const semantics::ConcreteState& state,
                      std::int64_t scale) const {
  const auto& g = solution_->graph();
  Move move;

  semantics::DiscreteKey key{state.locs, state.data};
  const auto k = g.find_key(key);
  if (!k) return move;  // not even discretely reachable

  const auto rank = solution_->rank(*k, state.clocks, scale);
  if (!rank) return move;
  move.rank = rank;

  if (solution_->purpose().kind == tsystem::PurposeKind::kSafety) {
    // Safety: every winning state has rank 0 (Safe is one round-0
    // delta).  The prescription is time-driven, not rank-driven:
    // delay while delaying is harmless, act before the play reaches a
    // state where an enabled SUT move exits Safe.
    const Fed& safe = safe_region(*k);
    const Fed& danger = danger_region(*k);
    // Latest harmless wait: stay inside Safe and stop one tick short
    // of Danger — arriving at the boundary with the escape already
    // prescribed beats racing the SUT at the exact threat instant.
    std::int64_t deadline = safe.safe_delay_bound(state.clocks, scale);
    const auto danger_in = danger.earliest_entry_delay(state.clocks, scale);
    if (danger_in && *danger_in > 0) {
      deadline = std::min(deadline, *danger_in - 1);
    }
    const bool threat_now = danger_in && *danger_in == 0;
    if (deadline > 0 && !threat_now) {
      move.kind = MoveKind::kDelay;
      move.next_decision_ticks = std::min(deadline, Move::kNoDecision);
      return move;
    }
    // Boundary (or live threat): take an action that keeps the play
    // inside Safe.
    for (const std::uint32_t ei : g.edges_out(*k)) {
      const SymbolicEdge& e = g.edges()[ei];
      if (!e.inst.controllable) continue;
      const Fed& region = action_region(ei, 0);
      if (region.contains_point(state.clocks, scale)) {
        move.kind = MoveKind::kAction;
        move.edge = ei;
        return move;
      }
    }
    // No safe action yet: wait for the threat instant itself (the
    // closed-avoidance fixpoint hands that tie to the tester), or —
    // when the threat is live or time is up — for the SUT's forced
    // move (next = 0; the executor resolves against the invariant).
    move.kind = MoveKind::kDelay;
    move.next_decision_ticks = danger_in && *danger_in > 0 ? *danger_in : 0;
    return move;
  }

  if (*rank == 0) {
    move.kind = MoveKind::kGoalReached;
    return move;
  }

  // A controllable edge whose target is strictly lower-ranked?
  for (const std::uint32_t ei : g.edges_out(*k)) {
    const SymbolicEdge& e = g.edges()[ei];
    if (!e.inst.controllable) continue;
    const Fed& region = action_region(ei, *rank - 1);
    if (region.contains_point(state.clocks, scale)) {
      move.kind = MoveKind::kAction;
      move.edge = ei;
      return move;
    }
  }

  // λ: wait.  The next decision point is the earliest entry into an
  // action region at this rank or into a lower rank within this key.
  move.kind = MoveKind::kDelay;
  std::int64_t next = Move::kNoDecision;
  for (const std::uint32_t ei : g.edges_out(*k)) {
    const SymbolicEdge& e = g.edges()[ei];
    if (!e.inst.controllable) continue;
    const Fed& region = action_region(ei, *rank - 1);
    if (const auto d = region.earliest_entry_delay(state.clocks, scale)) {
      next = std::min(next, *d);
    }
  }
  Fed scratch(g.system().clock_count());
  const Fed& lower = solution_->winning_up_to(*k, *rank - 1, scratch);
  if (const auto d = lower.earliest_entry_delay(state.clocks, scale)) {
    next = std::min(next, *d);
  }
  move.next_decision_ticks = next;
  return move;
}

std::size_t Strategy::size() const {
  // The solver's tally of delta-federation zones over all keys.
  return solution_->stats().winning_zones;
}

std::string Strategy::to_string() const {
  const auto& g = solution_->graph();
  const auto& sys = g.system();
  const auto& names = sys.clock_names();
  const bool safety_game =
      solution_->purpose().kind == tsystem::PurposeKind::kSafety;
  std::string out;
  out += "strategy for: " + solution_->purpose().source + "\n";

  Fed scratch(sys.clock_count());
  Fed pred(sys.clock_count());
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    // A safety key prints its Safe (decoded once, into the cache
    // decide() reads), a reach key its per-round deltas.
    std::vector<GameSolution::Delta> deltas;
    if (safety_game) {
      if (safe_region(k).is_empty()) continue;
    } else {
      deltas = solution_->deltas(k);
      if (deltas.empty()) continue;
    }

    // Discrete state header.
    std::string header = "state (";
    for (std::uint32_t p = 0; p < sys.processes().size(); ++p) {
      if (p != 0) header += ", ";
      header += sys.processes()[p].name() + "." +
                sys.processes()[p].locations()[g.key(k).locs[p]].name;
    }
    header += ")";
    for (std::uint32_t slot = 0; slot < g.key(k).data.slot_count(); ++slot) {
      header += util::format(" %s=%d", sys.data().slot_name(slot).c_str(),
                             g.key(k).data.get(slot));
    }
    out += header + ":\n";

    if (safety_game) {
      // One Safe row per key plus the prescriptions that keep the play
      // inside it: the region whose entry forces an action, and the
      // escape actions available (in edge order, like decide()).
      out += "  while " + safe_region(k).to_string(names) + " -> stay safe\n";
      const Fed& danger = danger_region(k);
      if (!danger.is_empty()) {
        out += "    act on entering " + danger.to_string(names) + "\n";
      }
      for (const std::uint32_t ei : g.edges_out(k)) {
        const SymbolicEdge& e = g.edges()[ei];
        if (!e.inst.controllable) continue;
        const Fed& region = action_region(ei, 0);
        if (region.is_empty()) continue;
        out += "    take " + e.inst.label(sys) + " while " +
               region.to_string(names) + "\n";
      }
      continue;
    }

    for (const GameSolution::Delta& d : deltas) {
      if (d.round == 0) {
        out += "  while " + d.gained.to_string(names) + " -> goal reached\n";
        continue;
      }
      // Partition the delta among the controllable actions that the
      // strategy would prescribe there; the remainder is a wait.
      Fed rest = d.gained;
      for (const std::uint32_t ei : g.edges_out(k)) {
        const SymbolicEdge& e = g.edges()[ei];
        if (!e.inst.controllable) continue;
        g.pred_through(e,
                       solution_->winning_up_to(e.dst, d.round - 1, scratch),
                       pred);
        const Fed region = pred.intersection(rest);
        if (region.is_empty()) continue;
        out += "  while " + region.to_string(names) + " -> take " +
               e.inst.label(sys) + "\n";
        rest = rest.minus(region);
        if (rest.is_empty()) break;
      }
      if (!rest.is_empty()) {
        out += "  while " + rest.to_string(names) + " -> delay\n";
      }
    }
  }
  return out;
}

}  // namespace tigat::game
