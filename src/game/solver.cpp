#include "game/solver.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/memory_meter.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tigat::game {

using dbm::Fed;
using semantics::SymbolicEdge;
using semantics::SymbolicGraph;

GameSolution::GameSolution(std::shared_ptr<const SymbolicGraph> graph,
                           tsystem::TestPurpose purpose)
    : graph_(std::move(graph)),
      pool_(graph_->zone_pool()),
      purpose_(std::move(purpose)) {}

const Fed& GameSolution::winning_up_to(std::uint32_t k, std::uint32_t round,
                                       Fed& scratch) const {
  scratch.clear();
  for (const PooledDelta& pd : deltas_[k]) {  // deltas are in round order
    if (pd.round > round) break;
    const std::size_t zones = pd.gained.size();
    for (std::size_t z = 0; z < zones; ++z) {
      scratch.append_raw(pd.gained.zone(z, pool_));
    }
  }
  return scratch;
}

const Fed& GameSolution::winning(std::uint32_t k, Fed& scratch) const {
  return winning_up_to(k, std::numeric_limits<std::uint32_t>::max(), scratch);
}

std::span<const GameSolution::Delta> GameSolution::deltas(
    std::uint32_t k, std::vector<Delta>& scratch) const {
  const std::vector<PooledDelta>& pooled = deltas_[k];
  const std::uint32_t dim = graph_->system().clock_count();
  if (scratch.size() < pooled.size()) {
    scratch.resize(pooled.size(), Delta{0, Fed(dim)});
  }
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    scratch[i].round = pooled[i].round;
    pooled[i].gained.materialize(scratch[i].gained, pool_);
  }
  for (std::size_t i = pooled.size(); i < scratch.size(); ++i) {
    scratch[i].gained.clear();
  }
  return {scratch.data(), pooled.size()};
}

void GameSolution::action_region(std::uint32_t ei, std::uint32_t round,
                                 const Fed& reach_src, Fed& out,
                                 RegionScratch& scratch) const {
  const SymbolicEdge& e = graph_->edges()[ei];
  graph_->pred_through(e, winning_up_to(e.dst, round, scratch.decoded),
                       scratch.pred);
  scratch.pred.intersection(reach_src, out);
}

void GameSolution::danger_region(std::uint32_t k, const Fed& reach_k,
                                 Fed& out, RegionScratch& scratch) const {
  Fed& danger = scratch.bad;
  danger.clear();
  for (const std::uint32_t ei : graph_->edges_out(k)) {
    const SymbolicEdge& e = graph_->edges()[ei];
    if (e.inst.controllable) continue;
    const Fed bad = graph_->reach(e.dst, scratch.reach)
                        .minus(winning(e.dst, scratch.decoded));
    if (bad.is_empty()) continue;
    graph_->pred_through(e, bad, scratch.pred);
    danger |= scratch.pred;
  }
  danger.intersection(reach_k, out);
}

std::optional<std::uint32_t> GameSolution::rank(
    std::uint32_t k, std::span<const std::int64_t> clocks,
    std::int64_t scale) const {
  for (const PooledDelta& pd : deltas_[k]) {  // deltas are in round order
    if (pd.gained.contains_point(clocks, pool_, scale)) return pd.round;
  }
  return std::nullopt;
}

bool GameSolution::winning_from_initial() const {
  const std::vector<std::int64_t> zero(graph_->system().clock_count(), 0);
  return rank(graph_->initial_key(), zero, 1).has_value();
}

GameSolver::GameSolver(const tsystem::System& system,
                       tsystem::TestPurpose purpose, SolverOptions options)
    : sys_(&system), purpose_(std::move(purpose)), options_(std::move(options)) {
  TIGAT_ASSERT(system.finalized(), "system must be finalized");
}

// Parallelisation scheme (the Jacobi structure makes this sound): a
// round-r computation reads only round-r−1 state, so every per-key
// computation of a round is independent.  Work is fanned out over the
// pool into per-item result slots and merged SERIALLY IN KEY ORDER
// afterwards; since each slot's value is a deterministic function of
// the previous round, the merged state — and hence every subsequent
// round, rank and strategy — is bit-identical at any thread count.
//
// The bulk stores (reach, loss, win/deltas) hold row ids; workers
// decode into chunk-local scratch federations, and every pool WRITE
// (compressing gains and refreshed loss sets) happens in the serial
// merge sections, in key order — so the dictionary content is
// deterministic too.
std::shared_ptr<const GameSolution> GameSolver::solve() {
  TIGAT_SPAN("solve");
  util::Stopwatch watch;
  util::zone_memory().reset_peak();
  util::ThreadPool pool(options_.threads);

  // Safety games run the SAME attractor fixpoint with the player roles
  // swapped: the attacker is the environment, its attractor seeds are
  // the ¬φ keys, and the published solution is the complement
  // Safe = Reach \ Attr (see solver.h).  `attacker_ctrl` selects which
  // edge polarity feeds the B term; the defender's edges feed G and
  // the FORCED set.
  const bool safety = purpose_.kind == tsystem::PurposeKind::kSafety;
  const bool attacker_ctrl = !safety;

  bool explored_now = false;
  auto graph = SymbolicGraph::explored(*sys_, options_.exploration, &pool,
                                       &explored_now);
  const std::uint32_t n = graph->key_count();
  const std::uint32_t dim = sys_->clock_count();

  auto solution = std::make_shared<GameSolution>(std::move(graph), purpose_);
  solution->worker_count_ = pool.worker_count();
  const SymbolicGraph& g = *solution->graph_;
  dbm::ZonePool& zpool = solution->pool_;
  auto& deltas = solution->deltas_;

  // Round 0: attractor seed keys win everywhere they are reachable
  // (reach: the φ goal keys; safety: the ¬φ keys the environment
  // drives the play towards — both are formulas over the discrete
  // part; Sec. 2.4's purposes are location/data predicates).  The scan
  // is per-key independent.  `is_goal` always records φ itself (it
  // feeds goal_key_); the seed derives from it per purpose kind.
  std::vector<dbm::PooledFed> loss(n, dbm::PooledFed(dim));  // Reach \ Win
  std::vector<char> is_goal(n, 0);
  const auto seed_key = [&](std::uint32_t k) {
    return safety ? is_goal[k] == 0 : is_goal[k] != 0;
  };
  deltas.assign(n, {});
  pool.parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto k = static_cast<std::uint32_t>(i);
      const auto& key = g.key(k);
      if (purpose_.formula.eval(key.locs, key.data, sys_->data())) {
        is_goal[k] = 1;
      }
    }
  }, "solve.goal_scan");
  solution->goal_key_.assign(n, false);
  std::vector<bool> dirty(n, false);   // winning changed in last round
  std::vector<bool> saturated(n, false);  // win == reach, nothing to gain
  // Row-id copies are cheap; run them serially so the pool stays a
  // single-writer structure.
  for (std::uint32_t k = 0; k < n; ++k) {
    if (is_goal[k]) solution->goal_key_[k] = true;
    if (!seed_key(k)) {
      loss[k] = g.reach_pooled(k);
      continue;
    }
    deltas[k].push_back({0, g.reach_pooled(k)});
    dirty[k] = true;
    saturated[k] = true;
  }

  // Forced candidates (round-independent): invariant-deadline states
  // with an enabled DEFENDER edge (reach: the SUT's uncontrollable
  // edges; safety attractor: the tester's controllable ones).  The
  // defender must move there — the attacker simply refuses to, time
  // cannot advance, and the maximal-run semantics of Def. 7/8 forbids
  // stopping while an action is enabled; the per-round G-avoidance
  // then decides whether every defender move favours the attacker.
  // Per-key independent: fanned out over the pool.
  std::vector<Fed> forced(n, Fed(dim));
  pool.parallel_for(n, 8, [&](std::size_t begin, std::size_t end) {
    Fed scratch(dim);
    Fed pred(dim);
    Fed meet(dim);
    for (std::size_t i = begin; i < end; ++i) {
      const auto k = static_cast<std::uint32_t>(i);
      // Upper invariant boundary: some weak bound x_i ≤ b holds with
      // equality.  Strict bounds have no attained deadline.
      Fed boundary(dim);
      const auto& key = g.key(k);
      const auto& procs = sys_->processes();
      for (std::uint32_t p = 0; p < procs.size(); ++p) {
        for (const tsystem::ClockConstraint& c :
             procs[p].locations()[key.locs[p]].invariant) {
          if (c.j != 0 || dbm::is_infinity(c.bound) || !dbm::is_weak(c.bound)) {
            continue;  // only weak upper bounds block delay attainably
          }
          dbm::Dbm at_deadline = g.invariant(k);
          if (at_deadline.constrain(
                  0, c.i, dbm::make_weak(-dbm::bound_value(c.bound)))) {
            boundary.add(std::move(at_deadline));
          }
        }
      }
      if (boundary.is_empty() && !g.time_frozen(k)) {
        continue;
      }
      Fed def_enabled(dim);
      for (const std::uint32_t ei : g.edges_out(k)) {
        const SymbolicEdge& e = g.edges()[ei];
        if (e.inst.controllable == attacker_ctrl) continue;  // defender only
        g.pred_through(e, g.reach(e.dst, scratch), pred);
        def_enabled |= pred;
      }
      if (def_enabled.is_empty()) continue;
      if (g.time_frozen(k)) {
        // Urgent/committed: every state is a deadline.
        def_enabled.intersection(g.reach(k, scratch), forced[k]);
      } else {
        boundary.intersection(def_enabled, meet);
        meet.intersection(g.reach(k, scratch), forced[k]);
      }
    }
  }, "solve.forced");

  // Synchronous rounds with dirtiness filtering: a key can only gain
  // in round r if itself or a successor gained in round r−1.
  std::size_t rounds = 0;
  std::vector<std::uint32_t> work;    // keys to recompute this round
  std::vector<Fed> gains;             // per-work-item staged gain
  std::vector<Fed> loss_staged;       // per-changed-key refresh
  std::vector<std::uint32_t> changed; // keys that actually gained
  // The round's gains, compressed batch by batch and applied only once
  // the round is complete.
  std::vector<std::pair<std::uint32_t, GameSolution::PooledDelta>> staged;
  const std::uint64_t reach_zone_count = g.stats().zones;
  for (std::uint32_t r = 1;; ++r) {
    if (r > options_.max_rounds) {
      throw semantics::ExplorationLimit("fixpoint round limit exceeded");
    }
    TIGAT_SPAN("fixpoint.round", r);
    obs::progress().tick("fixpoint", n, reach_zone_count, r);
    std::vector<bool> recompute(n, false);
    bool any = false;
    for (std::uint32_t k = 0; k < n; ++k) {
      if (!dirty[k]) continue;
      for (const std::uint32_t ei : g.edges_in(k)) {
        const std::uint32_t src = g.edges()[ei].src;
        if (!saturated[src]) {
          recompute[src] = true;
          any = true;
        }
      }
      if (!saturated[k]) {
        recompute[k] = true;
        any = true;
      }
    }
    if (!any) break;
    work.clear();
    for (std::uint32_t k = 0; k < n; ++k) {
      if (recompute[k]) work.push_back(k);
    }

    // Jacobi iteration: every round-r computation reads only round-r−1
    // winning sets, so the round index is a sound progress measure for
    // strategy extraction (an action prescribed at rank r provably
    // lands at rank < r) — and the per-key computations of a round are
    // independent, the source of all parallelism here.  Gains are
    // staged per work item and applied after the round.  The work
    // list is processed in batches — compute a slice in parallel,
    // compress its gains serially, move on — so the uncompressed
    // staging buffer stays bounded; the compressed stage is still
    // applied only after the WHOLE round (Jacobi reads round-r−1 state
    // throughout).
    const auto round_body = [&](std::size_t base) {
      return [&, base](std::size_t begin, std::size_t end) {
      // Chunk scratch: decodes, the B and G accumulators, one edge's
      // predecessors and an intersection's output.  It dies with the
      // chunk, so no zone outlives the round.
      Fed scratch(dim);
      Fed other(dim);  // decoded win/loss of a neighbour
      Fed win_k(dim);  // decoded win of k
      Fed b(dim);
      Fed gbad(dim);
      Fed pred(dim);
      Fed meet(dim);
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t k = work[base + i];

        // B: already-winning here, an attacker edge into winning, or a
        // deadline where the defender is forced to move (G filters out
        // forced states with a non-winning escape).
        const Fed& wk = solution->winning(k, win_k);
        b = wk;
        if (!forced[k].is_empty()) b |= forced[k];
        // G: a defender edge can escape to a non-winning state.
        gbad.clear();
        for (const std::uint32_t ei : g.edges_out(k)) {
          const SymbolicEdge& e = g.edges()[ei];
          if (e.inst.controllable == attacker_ctrl) {
            if (!deltas[e.dst].empty()) {
              g.pred_through(e, solution->winning(e.dst, other), pred);
              b |= pred;
            }
          } else if (!loss[e.dst].is_empty()) {
            loss[e.dst].materialize(other, zpool);
            g.pred_through(e, other, pred);
            gbad |= pred;
          }
        }
        // One decode serves all three intersections (materializing a
        // pooled federation per use tripled the hot-loop decode cost).
        const Fed& rk = g.reach(k, scratch);
        b.intersection(rk, meet);
        b.swap(meet);
        gbad.intersection(rk, meet);
        gbad.swap(meet);

        const Fed new_win = g.time_frozen(k) ? b.minus(gbad) : b.pred_t(gbad);
        new_win.intersection(rk, meet);

        Fed gained = meet.minus(wk);
        if (gained.is_empty()) continue;
        gained.reduce();
        gains[i] = std::move(gained);
      }
      };
    };

    // Serial merge in key index order: bit-identical to the serial
    // staged application whatever the thread count.  All pool writes
    // (compressing the gains) happen here.
    std::vector<bool> new_dirty(n, false);
    changed.clear();
    constexpr std::size_t kGainBatch = std::size_t{1} << 16;
    // Keys per chunk: enough for the chunk scratch to pay off, few
    // enough that stealing still balances keys of very uneven cost.
    constexpr std::size_t kRoundGrain = 8;
    staged.clear();
    for (std::size_t base = 0; base < work.size(); base += kGainBatch) {
      const std::size_t count = std::min(kGainBatch, work.size() - base);
      gains.assign(count, Fed(dim));
      pool.parallel_for(count, kRoundGrain, round_body(base),
                        "fixpoint.recompute");
      TIGAT_SPAN("fixpoint.compress_gains");
      for (std::size_t i = 0; i < count; ++i) {
        if (gains[i].is_empty()) continue;
        GameSolution::PooledDelta pd{r, dbm::PooledFed(dim)};
        pd.gained.assign(gains[i], zpool);
        staged.emplace_back(work[base + i], std::move(pd));
      }
    }
    // Apply only after the whole round was computed (Jacobi).
    for (auto& [k, pd] : staged) {
      deltas[k].push_back(std::move(pd));
      new_dirty[k] = true;
      changed.push_back(k);
    }
    // Loss refresh (Reach \ Win) per changed key, again independent:
    // the subtraction fans out into staging slots, the re-compression
    // (a pool write) stays serial in key order.
    for (std::size_t base = 0; base < changed.size(); base += kGainBatch) {
      const std::size_t count = std::min(kGainBatch, changed.size() - base);
      loss_staged.assign(count, Fed(dim));
      pool.parallel_for(count, 4, [&](std::size_t begin, std::size_t end) {
        Fed scratch(dim);
        Fed win_k(dim);
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t k = changed[base + i];
          loss_staged[i] =
              g.reach(k, scratch).minus(solution->winning(k, win_k));
        }
      }, "fixpoint.refresh_loss");
      // Loss sets are only read by the NEXT round's body, so batch
      // application is safe; the pool write stays serial.
      for (std::size_t i = 0; i < count; ++i) {
        loss[changed[base + i]].assign(loss_staged[i], zpool);
        loss_staged[i] = Fed(dim);
      }
    }
    for (const std::uint32_t k : changed) {
      if (loss[k].is_empty()) saturated[k] = true;
    }
    if (obs::metrics_enabled()) {
      obs::metrics().counter("solver.fixpoint.recomputed_keys")
          .add(work.size());
      obs::metrics().counter("solver.fixpoint.gained_keys")
          .add(changed.size());
      std::uint64_t gained_zones = 0;
      // `changed` has one entry per gain applied this round, so the
      // round's zones are the last delta of each changed key.
      for (const std::uint32_t k : changed) {
        gained_zones += deltas[k].back().gained.size();
      }
      obs::metrics().counter("solver.fixpoint.gained_zones").add(gained_zones);
    }
    dirty = std::move(new_dirty);
    rounds = r;
    if (std::none_of(dirty.begin(), dirty.end(), [](bool d) { return d; })) {
      break;
    }
  }

  // Safety: the rounds above computed the environment's attractor to
  // ¬φ; the published solution is its complement Safe = Reach \ Attr.
  // The loss caches hold exactly that difference already (initialised
  // to Reach off the seed, refreshed to Reach \ Attr for every key
  // that gained), so publication is a move: each key becomes a single
  // round-0 delta holding Safe.  A greatest fixpoint has no rank
  // structure — the strategy is "stay inside Safe" — so one delta is
  // the honest shape, and every downstream consumer (winning_up_to,
  // rank, action_region, decision::compile) works off round 0.  All
  // pooled writes behind `loss` happened serially in key order during
  // the rounds, so the published solution stays bit-identical at any
  // thread count.
  if (safety) {
    for (std::uint32_t k = 0; k < n; ++k) {
      deltas[k].clear();
      if (!loss[k].is_empty()) deltas[k].push_back({0, std::move(loss[k])});
    }
  }

  // Stats.
  const auto gstats = g.stats();
  SolverStats& st = solution->stats_;
  st.keys = gstats.keys;
  st.reach_zones = gstats.zones;
  st.edges = gstats.edges;
  st.rounds = rounds;
  for (const auto& pds : deltas) {
    for (const auto& pd : pds) st.winning_zones += pd.gained.size();
  }
  st.peak_zone_bytes = util::zone_memory().peak();
  if (explored_now) {
    st.explore_expand_seconds = gstats.expand_seconds;
    st.explore_merge_seconds = gstats.merge_seconds;
  }
  st.zone_pool_rows = zpool.row_count();
  st.zone_pool_bytes = zpool.memory_bytes();
  st.solve_seconds = watch.seconds();

  // Publish the finished stats into the metrics registry: same fields,
  // same values (set(), not add(), so counters equal SolverStats
  // bit-for-bit — tests/obs_test.cpp holds us to that).  The zone peak
  // is a gauge: a high-water mark whose value depends on when worker
  // threads publish their metered bytes, so two identical runs may
  // differ there and nowhere else.
  if (obs::metrics_enabled()) {
    auto& m = obs::metrics();
    m.counter("solver.keys").set(st.keys);
    m.counter("solver.reach_zones").set(st.reach_zones);
    m.counter("solver.winning_zones").set(st.winning_zones);
    m.counter("solver.edges").set(st.edges);
    m.counter("solver.rounds").set(st.rounds);
    m.gauge("solver.peak_zone_bytes")
        .set(static_cast<double>(st.peak_zone_bytes));
    m.counter("solver.zone_pool_rows").set(st.zone_pool_rows);
    m.counter("solver.zone_pool_bytes").set(st.zone_pool_bytes);
    m.gauge("solver.solve_seconds").set(st.solve_seconds);
    m.gauge("solver.explore_expand_seconds").set(st.explore_expand_seconds);
    m.gauge("solver.explore_merge_seconds").set(st.explore_merge_seconds);
  }
  // Final heartbeat so even sub-period solves report once.
  obs::progress().emit("done", st.keys, st.reach_zones, st.rounds);
  return solution;
}

}  // namespace tigat::game
