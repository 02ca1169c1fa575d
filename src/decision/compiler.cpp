#include "decision/compiler.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/flat_index.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tigat::decision {

namespace {

using dbm::Dbm;
using dbm::Fed;
using game::GameSolution;
using game::MoveKind;
using semantics::SymbolicGraph;

// Games with fewer keys compile on the caller as one fragment: Smart
// Light-sized games pay for no worker threads.
constexpr std::uint32_t kParallelKeys = 1024;
// Key ranges per worker.  Per-key cost is uneven, so a few ranges per
// worker balance the load and let packing overlap compilation; each
// range re-interns the sub-decisions it shares with the others, so
// more ranges cost memory and packing time.
constexpr std::uint32_t kRangesPerWorker = 4;

constexpr std::uint32_t kUnset = 0xffff'ffffu;

// Content keys of the interning tables: a record flattened to 32-bit
// words.
using Words = std::vector<std::uint32_t>;

// Interns word strings: each distinct key is copied once into a word
// arena, where probes compare against it in place, and maps to the id
// it was first given.
class WordsIndex {
 public:
  std::pair<std::uint32_t, bool> try_emplace(
      std::span<const std::uint32_t> key, std::uint32_t fresh) {
    const auto entry = static_cast<std::uint32_t>(ids_.size());
    const auto [found, inserted] = index_.find_or_insert(
        util::hash_words(key), entry, [&](std::uint32_t e) {
          return std::equal(key.begin(), key.end(),
                            arena_.begin() + starts_[e],
                            arena_.begin() + starts_[e + 1]);
        });
    if (!inserted) return {ids_[found], false};
    arena_.insert(arena_.end(), key.begin(), key.end());
    TIGAT_ASSERT(arena_.size() < kUnset, "interning arena overflow");
    starts_.push_back(static_cast<std::uint32_t>(arena_.size()));
    ids_.push_back(fresh);
    return {fresh, true};
  }

 private:
  util::FlatIndex index_;             // hash → entry
  std::vector<std::uint32_t> arena_;  // the keys, back to back
  // Entry e's key is arena_[starts_[e], starts_[e + 1]).
  std::vector<std::uint32_t> starts_{0};
  std::vector<std::uint32_t> ids_;  // entry → id
};

// A TableData under construction whose pools are hash-consed by
// content: interning a record equal to one already pooled returns its
// id, anything else is appended.  Slices and act runs return their
// first index (their length is the caller's).
class Pools {
 public:
  TableData data;

  std::uint32_t zone(const Dbm& zone) {
    const auto fresh = static_cast<std::uint32_t>(data.zones.size());
    const auto [id, inserted] = zone_index_.find_or_insert(
        zone.hash(), fresh,
        [&](std::uint32_t candidate) { return data.zones[candidate] == zone; });
    if (inserted) data.zones.push_back(zone);
    return id;
  }

  std::uint32_t slice(const Words& refs) {
    const auto [id, inserted] = slice_index_.try_emplace(
        refs, static_cast<std::uint32_t>(data.zone_refs.size()));
    if (inserted) {
      data.zone_refs.insert(data.zone_refs.end(), refs.begin(), refs.end());
    }
    return id;
  }

  std::uint32_t acts(const std::vector<TableData::Act>& acts) {
    key_.clear();
    for (const TableData::Act& a : acts) {
      key_.insert(key_.end(), {a.edge_slot, a.zones_first, a.zones_count});
    }
    const auto [id, inserted] = acts_index_.try_emplace(
        key_, static_cast<std::uint32_t>(data.acts.size()));
    if (inserted) data.acts.insert(data.acts.end(), acts.begin(), acts.end());
    return id;
  }

  target_t leaf(const TableData::Leaf& leaf) {
    key_.assign({static_cast<std::uint32_t>(leaf.kind), leaf.rank,
                 leaf.edge_slot, leaf.zones_first, leaf.zones_count,
                 leaf.acts_first, leaf.acts_count, leaf.danger_first,
                 leaf.danger_count});
    const auto [id, inserted] = leaf_index_.try_emplace(
        key_, static_cast<std::uint32_t>(data.leaves.size()));
    if (inserted) data.leaves.push_back(leaf);
    return leaf_target(id);
  }

  target_t node(std::uint16_t i, std::uint16_t j,
                const std::vector<TableData::Arc>& arcs) {
    key_.assign({i, j});
    for (const TableData::Arc& a : arcs) {
      key_.insert(key_.end(),
                  {static_cast<std::uint32_t>(a.bound), a.target});
    }
    const auto [id, inserted] = node_index_.try_emplace(
        key_, static_cast<std::uint32_t>(data.nodes.size()));
    if (inserted) {
      TableData::Node node;
      node.i = i;
      node.j = j;
      node.first_arc = static_cast<std::uint32_t>(data.arcs.size());
      node.arc_count = static_cast<std::uint32_t>(arcs.size());
      data.arcs.insert(data.arcs.end(), arcs.begin(), arcs.end());
      data.nodes.push_back(node);
    }
    return node_target(id);
  }

  // Edge slots are keyed by the original edge index.
  std::uint32_t edge(std::uint32_t original,
                     const semantics::TransitionInstance& inst) {
    const auto [id, inserted] = edge_index_.find_or_insert(
        util::hash_words({&original, 1}),
        static_cast<std::uint32_t>(data.edges.size()),
        [&](std::uint32_t e) { return data.edges[e].original == original; });
    if (inserted) data.edges.push_back({original, inst});
    return id;
  }

 private:
  util::FlatIndex zone_index_;  // compares against data.zones in place
  WordsIndex slice_index_;
  WordsIndex acts_index_;
  WordsIndex leaf_index_;
  WordsIndex node_index_;
  util::FlatIndex edge_index_;  // compares data.edges[].original in place
  Words key_;  // scratch for the lookups
};

// P ⊆ fed.  Most covered cells lie inside a single member zone; the
// rest are carved by the members (no pairwise dedup: only emptiness
// matters), stopping as soon as nothing is left.  `rest` and `next` are
// the caller's scratch, left empty.
bool covers(const Fed& fed, const Dbm& P, std::vector<Dbm>& rest,
            std::vector<Dbm>& next) {
  for (const Dbm& z : fed.zones()) {
    if (P.is_subset_of(z)) return true;
  }
  rest.assign(1, P);
  for (const Dbm& z : fed.zones()) {
    next.clear();
    for (Dbm& r : rest) {
      if (!r.intersects(z)) {
        next.push_back(std::move(r));
        continue;
      }
      dbm::subtract(r, z, next);
    }
    std::swap(rest, next);
    if (rest.empty()) break;
  }
  const bool covered = rest.empty();
  rest.clear();
  next.clear();
  return covered;
}

// One row of a key's decision cascade: "if the point is in `fed` (and
// in no earlier row), the prescription is `leaf`".
struct Entry {
  const Fed* fed = nullptr;
  target_t leaf = 0;
};

// The uncompacted lowering of one contiguous key range: its keys over
// pools content-interned within the range.
struct Fragment {
  TableData data;
  // Whether the range's first interned zone slice was empty; unset
  // when it interned none (see Packer::pack_slice).
  std::optional<bool> first_slice_empty;
  std::size_t cascade_entries = 0;
  std::size_t nodes_built = 0;
};

// Lowers the keys of one range into a Fragment.  Every pool is
// hash-consed by content, so equal sub-decisions get equal ids.
class Compiler {
 public:
  explicit Compiler(const GameSolution& solution)
      : sol_(solution),
        g_(solution.graph()),
        safety_(solution.purpose().kind == tsystem::PurposeKind::kSafety),
        dim_(g_.system().clock_count()),
        reach_(dim_),
        win_(dim_),
        danger_(dim_),
        region_scratch_(dim_) {}

  Fragment run(std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t k = begin; k < end; ++k) compile_key(k);
    Fragment fragment;
    fragment.data = std::move(pools_.data);
    fragment.first_slice_empty = first_slice_empty_;
    fragment.cascade_entries = cascade_entries_;
    fragment.nodes_built = nodes_built_;
    return fragment;
  }

 private:
  // ── interning ───────────────────────────────────────────────────────
  // Returns the slice's first index; its count is refs.size().
  std::uint32_t intern_slice(const Words& refs) {
    if (!first_slice_empty_) first_slice_empty_ = refs.empty();
    return pools_.slice(refs);
  }

  target_t intern_node(std::uint16_t i, std::uint16_t j,
                       const std::vector<TableData::Arc>& arcs) {
    ++nodes_built_;
    return pools_.node(i, j, arcs);
  }

  std::uint32_t edge_slot(std::uint32_t ei) {
    return pools_.edge(ei, g_.edges()[ei].inst);
  }

  // ── the per-key cascade ─────────────────────────────────────────────
  // Action and danger regions come from GameSolution::action_region /
  // danger_region — the single definitions Strategy::decide also
  // walks, including the member-zone layout (delay leaves take the
  // earliest-entry minimum over these zones, so the zone list itself
  // must match, not just the denoted set).  compile_key decodes the
  // key's reach set once, computes each region once and drops them all
  // before the next key.

  // `regions` holds the action regions at round − 1 of k's
  // controllable edges, in edges_out order.
  target_t delay_leaf(std::uint32_t k, std::uint32_t round,
                      std::span<const Fed> regions) {
    refs_.clear();
    for (const Fed& region : regions) {
      for (const Dbm& z : region.zones()) refs_.push_back(pools_.zone(z));
    }
    for (const Dbm& z : sol_.winning_up_to(k, round - 1, win_).zones()) {
      refs_.push_back(pools_.zone(z));
    }
    TableData::Leaf leaf;
    leaf.kind = MoveKind::kDelay;
    leaf.rank = round;
    leaf.zones_first = intern_slice(refs_);
    leaf.zones_count = static_cast<std::uint32_t>(refs_.size());
    return pools_.leaf(leaf);
  }

  // Safety keys compile to a single fat delay leaf over Safe (see
  // table.h): the dense stay bound comes from the Safe zones, the
  // danger region forces the boundary action, and the acts are the
  // controllable edges in edges_out order — empty action regions are
  // skipped, which is decide-equivalent since an empty region never
  // contains the point.
  target_t safety_leaf(std::uint32_t k, const Fed& reach, const Fed& safe) {
    TableData::Leaf leaf;
    leaf.kind = MoveKind::kDelay;
    leaf.rank = 0;
    refs_.clear();
    for (const Dbm& z : safe.zones()) {
      refs_.push_back(pools_.zone(z));
    }
    leaf.zones_first = intern_slice(refs_);
    leaf.zones_count = static_cast<std::uint32_t>(refs_.size());
    refs_.clear();
    sol_.danger_region(k, reach, danger_, region_scratch_);
    for (const Dbm& z : danger_.zones()) refs_.push_back(pools_.zone(z));
    leaf.danger_first = intern_slice(refs_);
    leaf.danger_count = static_cast<std::uint32_t>(refs_.size());
    acts_.clear();
    Fed& region = regions(1)[0];
    for (const std::uint32_t ei : g_.edges_out(k)) {
      if (!g_.edges()[ei].inst.controllable) continue;
      sol_.action_region(ei, 0, reach, region, region_scratch_);
      if (region.is_empty()) continue;
      TableData::Act act;
      act.edge_slot = edge_slot(ei);
      refs_.clear();
      for (const Dbm& z : region.zones()) refs_.push_back(pools_.zone(z));
      act.zones_first = intern_slice(refs_);
      act.zones_count = static_cast<std::uint32_t>(refs_.size());
      acts_.push_back(act);
    }
    leaf.acts_first = pools_.acts(acts_);
    leaf.acts_count = static_cast<std::uint32_t>(acts_.size());
    return pools_.leaf(leaf);
  }

  void compile_key(std::uint32_t k) {
    const Fed& reach = g_.reach(k, reach_);
    entries_.clear();
    if (safety_) {
      const Fed& safe = sol_.winning(k, win_);
      if (!safe.is_empty()) {
        entries_.push_back({&safe, safety_leaf(k, reach, safe)});
      }
      finish_key(k);
      return;
    }
    // The entries point into `deltas_` and `owned_`, which do not grow
    // once the key's deltas are decoded: owned_ is sized to one region
    // per (delta, controllable edge) up front.
    const std::span<const GameSolution::Delta> deltas =
        sol_.deltas(k, deltas_);
    std::size_t controllable = 0;
    for (const std::uint32_t ei : g_.edges_out(k)) {
      if (g_.edges()[ei].inst.controllable) ++controllable;
    }
    if (owned_.size() < deltas.size() * controllable) {
      owned_.resize(deltas.size() * controllable, Fed(dim_));
    }
    const std::span<Fed> regions = this->regions(controllable);
    std::size_t owned = 0;
    for (const GameSolution::Delta& d : deltas) {
      if (d.round == 0) {
        TableData::Leaf goal;
        goal.kind = MoveKind::kGoalReached;
        goal.rank = 0;
        entries_.push_back({&d.gained, pools_.leaf(goal)});
        continue;
      }
      std::size_t r = 0;
      for (const std::uint32_t ei : g_.edges_out(k)) {
        if (!g_.edges()[ei].inst.controllable) continue;
        Fed& region = regions[r++];
        sol_.action_region(ei, d.round - 1, reach, region, region_scratch_);
        Fed& acted = owned_[owned];
        region.intersection(d.gained, acted);
        if (acted.is_empty()) continue;
        ++owned;
        TableData::Leaf act;
        act.kind = MoveKind::kAction;
        act.rank = d.round;
        act.edge_slot = edge_slot(ei);
        entries_.push_back({&acted, pools_.leaf(act)});
      }
      entries_.push_back({&d.gained, delay_leaf(k, d.round, regions)});
    }
    finish_key(k);
  }

  // Lowers the key's cascade (entries_) and appends the key.
  void finish_key(std::uint32_t k) {
    cascade_entries_ += entries_.size();
    TableData::Key key;
    key.locs = g_.key(k).locs;
    key.data = g_.key(k).data;
    key.root = entries_.empty() ? unwinnable_leaf()
                                : build(Dbm::universal(dim_), entries_);
    pools_.data.keys.push_back(std::move(key));
  }

  // The first `count` region slots, grown on demand.
  std::span<Fed> regions(std::size_t count) {
    if (regions_.size() < count) regions_.resize(count, Fed(dim_));
    return {regions_.data(), count};
  }

  target_t unwinnable_leaf() { return pools_.leaf(TableData::Leaf{}); }

  // ── cascade → DAG lowering ──────────────────────────────────────────
  // `P` is the convex path zone implied by the tests taken so far (the
  // DAG's "cell"); entries whose federations miss P are dead here.
  target_t build(const Dbm& P, const std::vector<Entry>& entries) {
    for (const Entry& entry : entries) {
      const Dbm* live_zone = nullptr;
      for (const Dbm& z : entry.fed->zones()) {
        if (z.intersects(P)) {
          live_zone = &z;
          break;
        }
      }
      if (live_zone == nullptr) continue;  // dead row: cannot fire in P

      // First live row.  If it covers P the whole cell is decided (no
      // earlier row can fire anywhere in P).
      if (covers(*entry.fed, P, cover_rest_, cover_next_)) return entry.leaf;

      // Otherwise split P on a bound of a live member zone.  Some zone
      // must have one: a live zone without a P-tightening bound would
      // contain P, contradicting the failed cover test.
      for (const Dbm& z : entry.fed->zones()) {
        if (!z.intersects(P)) continue;
        for (std::uint32_t i = 0; i < P.dimension(); ++i) {
          for (std::uint32_t j = 0; j < P.dimension(); ++j) {
            if (i == j || z.at(i, j) >= P.at(i, j)) continue;
            return split(P, entries, static_cast<std::uint16_t>(i),
                         static_cast<std::uint16_t>(j), z.at(i, j));
          }
        }
      }
      util::assert_fail(__FILE__, __LINE__,
                        "uncovered cell without a splitting bound");
    }
    return unwinnable_leaf();  // no row can fire anywhere in P
  }

  target_t split(const Dbm& P, const std::vector<Entry>& entries,
                 std::uint16_t i, std::uint16_t j, dbm::raw_t bound) {
    Dbm yes = P;
    bool ok = yes.constrain(i, j, bound);
    TIGAT_ASSERT(ok, "splitter produced an empty yes-side");
    Dbm no = P;
    ok = no.constrain(j, i, dbm::negate_bound(bound));
    TIGAT_ASSERT(ok, "splitter produced an empty no-side");

    const target_t on_yes = build(yes, entries);
    const target_t on_no = build(no, entries);
    if (on_yes == on_no) return on_yes;  // the test does not discriminate

    // arcs_ is filled only after both recursive builds returned, and
    // consumed by intern_node before this call returns.
    arcs_.clear();
    arcs_.push_back({bound, on_yes});
    // Fuse a same-difference chain into one multi-arc node.  On the
    // no-side every later cut on (i, j) is strictly looser (a tighter
    // one could not intersect the no-side cell), so sortedness holds;
    // the guard keeps it an invariant even for hash-consed reuse.
    if (!is_leaf(on_no)) {
      const TableData& out = pools_.data;
      const TableData::Node& chain = out.nodes[target_index(on_no)];
      if (chain.i == i && chain.j == j &&
          out.arcs[chain.first_arc].bound > bound) {
        for (std::uint32_t a = 0; a < chain.arc_count; ++a) {
          arcs_.push_back(out.arcs[chain.first_arc + a]);
        }
        return intern_node(i, j, arcs_);
      }
    }
    arcs_.push_back({dbm::kInfinity, on_no});
    return intern_node(i, j, arcs_);
  }

  const GameSolution& sol_;
  const SymbolicGraph& g_;
  const bool safety_;
  const std::uint32_t dim_;
  Fed reach_;  // the current key's decoded reach set
  Fed win_;    // scratch for the current key's decoded winning sets
  // Per-key scratch, reused from key to key: decoded gains, action
  // regions (the current delta's, in edges_out order), their cuts by
  // the delta, the danger region, the cascade and the lowering's
  // buffers.  The Compiler dies with its key range, and its zones with
  // it.
  Fed danger_;
  GameSolution::RegionScratch region_scratch_;
  std::vector<GameSolution::Delta> deltas_;
  std::vector<Fed> regions_;
  std::vector<Fed> owned_;
  std::vector<Entry> entries_;
  Words refs_;
  std::vector<TableData::Act> acts_;
  std::vector<TableData::Arc> arcs_;
  std::vector<Dbm> cover_rest_, cover_next_;
  Pools pools_;
  std::optional<bool> first_slice_empty_;
  std::size_t cascade_entries_ = 0;
  std::size_t nodes_built_ = 0;
};

// Merges fragments, in key order, into the final table.
//
// Chain fusion and leaf sharing strand intermediate nodes, and
// different ranges intern the same sub-decisions under different ids;
// the packer keeps only what the key roots reach, renumbering every
// record in post-order DFS from the roots.  Records are hash-consed by
// content in packed space — zones by value, zone slices by packed zone
// ids, leaves, acts and nodes by their packed fields, edge slots by the
// original edge index — and every fragment pool is content-interned
// already, so the first time a record is reached does not depend on
// where the ranges were cut.  The table is the same at any fragment
// count: the mark-and-compact of a single whole-game fragment.
class Packer {
 public:
  explicit Packer(const GameSolution& solution)
      : safety_(solution.purpose().kind == tsystem::PurposeKind::kSafety) {
    const SymbolicGraph& g = solution.graph();
    TableData& out = pools_.data;
    out.fingerprint = model_fingerprint(g.system(), solution.purpose());
    out.clock_dim = g.system().clock_count();
    out.purpose_kind = safety_ ? 1 : 0;
    out.system_name = g.system().name();
    out.purpose_source = solution.purpose().source;
  }

  void pack(Fragment& fragment) {
    TIGAT_SPAN("compile.pack");
    if (!empties_shared_) empties_shared_ = fragment.first_slice_empty;
    cascade_entries_ += fragment.cascade_entries;
    nodes_built_ += fragment.nodes_built;
    frag_ = &fragment.data;
    node_map_.assign(frag_->nodes.size(), kUnset);
    leaf_map_.assign(frag_->leaves.size(), kUnset);
    zone_map_.assign(frag_->zones.size(), kUnset);
    edge_map_.assign(frag_->edges.size(), kUnset);
    for (TableData::Key& key : fragment.data.keys) {
      key.root = pack_target(key.root);
      pools_.data.keys.push_back(std::move(key));
    }
    frag_ = nullptr;
  }

  TableData finish(CompileStats* stats) {
    if (stats != nullptr) {
      stats->cascade_entries = cascade_entries_;
      stats->nodes_built = nodes_built_;
    }
    return std::move(pools_.data);
  }

 private:
  std::uint32_t pack_zone(std::uint32_t z) {
    if (zone_map_[z] == kUnset) zone_map_[z] = pools_.zone(frag_->zones[z]);
    return zone_map_[z];
  }

  std::uint32_t pack_edge(std::uint32_t slot) {
    if (edge_map_[slot] == kUnset) {
      const TableData::EdgeSlot& edge = frag_->edges[slot];
      edge_map_[slot] = pools_.edge(edge.original, edge.inst);
    }
    return edge_map_[slot];
  }

  // Reach delay leaves carry no danger slice.  That default (0, 0)
  // takes an offset of its own, apart from the interned empty slice,
  // unless the game's first interned slice was empty: then the
  // interned empty slice sits at (0, 0) too and the two are one.  Each
  // takes the offset where it is first reached, which keeps .tgs bytes
  // stable across compiler versions.
  std::uint32_t pack_slice(std::uint32_t first, std::uint32_t count,
                           bool interned) {
    TIGAT_ASSERT(empties_shared_.has_value(), "slice in a sliceless game");
    if (count == 0 && !interned && !*empties_shared_) {
      if (!default_empty_) {
        default_empty_ =
            static_cast<std::uint32_t>(pools_.data.zone_refs.size());
      }
      return *default_empty_;
    }
    refs_.clear();
    for (std::uint32_t r = 0; r < count; ++r) {
      refs_.push_back(pack_zone(frag_->zone_refs[first + r]));
    }
    return pools_.slice(refs_);
  }

  std::uint32_t pack_leaf(std::uint32_t l) {
    if (leaf_map_[l] != kUnset) return leaf_map_[l];
    TableData::Leaf leaf = frag_->leaves[l];
    if (leaf.kind == MoveKind::kAction) {
      leaf.edge_slot = pack_edge(leaf.edge_slot);
    }
    if (leaf.kind == MoveKind::kDelay) {
      leaf.zones_first = pack_slice(leaf.zones_first, leaf.zones_count, true);
      leaf.danger_first =
          pack_slice(leaf.danger_first, leaf.danger_count, safety_);
      std::vector<TableData::Act> acts;
      for (std::uint32_t a = 0; a < leaf.acts_count; ++a) {
        TableData::Act act = frag_->acts[leaf.acts_first + a];
        act.edge_slot = pack_edge(act.edge_slot);
        act.zones_first = pack_slice(act.zones_first, act.zones_count, true);
        acts.push_back(act);
      }
      leaf.acts_first = acts.empty() ? 0 : pools_.acts(acts);
    }
    leaf_map_[l] = target_index(pools_.leaf(leaf));
    return leaf_map_[l];
  }

  // Post-order: a node's targets are numbered before the node itself,
  // and its arcs land contiguously in the packed arc pool.
  target_t pack_target(target_t t) {
    if (is_leaf(t)) return leaf_target(pack_leaf(target_index(t)));
    const std::uint32_t n = target_index(t);
    if (node_map_[n] == kUnset) {
      const TableData::Node& node = frag_->nodes[n];
      std::vector<TableData::Arc> arcs;
      arcs.reserve(node.arc_count);
      for (std::uint32_t a = 0; a < node.arc_count; ++a) {
        const TableData::Arc& arc = frag_->arcs[node.first_arc + a];
        arcs.push_back({arc.bound, pack_target(arc.target)});
      }
      node_map_[n] = target_index(pools_.node(node.i, node.j, arcs));
    }
    return node_target(node_map_[n]);
  }

  const bool safety_;
  Pools pools_;
  // Whether the game's first interned slice was empty; set by the
  // first fragment that interned a slice.
  std::optional<bool> empties_shared_;
  std::optional<std::uint32_t> default_empty_;
  Words refs_;  // scratch for pack_slice

  // The fragment being packed and its id → packed id maps.
  const TableData* frag_ = nullptr;
  std::vector<std::uint32_t> node_map_, leaf_map_, zone_map_, edge_map_;

  std::size_t cascade_entries_ = 0;
  std::size_t nodes_built_ = 0;
};

}  // namespace

// Fans the key ranges out over the solve's worker count.  A finished
// fragment is packed as soon as every earlier one has been, by
// whichever worker holds the packing turn, so fragments are freed
// early and packing overlaps the remaining compilation; the packing
// order — and hence the table — is fixed whatever the schedule.
DecisionTable compile(const GameSolution& solution, CompileStats* stats) {
  TIGAT_SPAN("compile");
  util::Stopwatch watch;
  const std::uint32_t keys = solution.graph().key_count();
  const unsigned workers =
      keys < kParallelKeys ? 1 : std::max(1u, solution.worker_count());
  const std::uint32_t ranges =
      workers == 1 ? 1 : std::min(keys, workers * kRangesPerWorker);
  const auto range_begin = [&](std::size_t r) {
    return static_cast<std::uint32_t>(std::uint64_t{keys} * r / ranges);
  };

  Packer packer(solution);
  std::vector<std::optional<Fragment>> ready(ranges);
  std::mutex mutex;
  std::size_t next = 0;  // first fragment not yet packed
  bool packing = false;  // some worker holds the packing turn
  util::ThreadPool pool(workers);
  pool.parallel_for(ranges, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      Fragment fragment =
          Compiler(solution).run(range_begin(r), range_begin(r + 1));
      std::unique_lock lock(mutex);
      ready[r] = std::move(fragment);
      if (packing) continue;
      packing = true;
      while (next < ranges && ready[next]) {
        Fragment turn = std::move(*ready[next]);
        ready[next].reset();
        ++next;
        lock.unlock();
        packer.pack(turn);
        lock.lock();
      }
      packing = false;
    }
  }, "compile.keys");

  TableData table = packer.finish(stats);
  if (stats != nullptr) stats->compile_seconds = watch.seconds();
  return DecisionTable(std::move(table));
}

}  // namespace tigat::decision
