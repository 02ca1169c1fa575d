#include "decision/view.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "dbm/dbm.h"
#include "util/assert.h"
#include "util/text.h"

namespace tigat::decision {

using game::Move;
using game::MoveKind;
using semantics::ConcreteState;

namespace {

[[noreturn]] void invalid(const char* what) {
  throw SerializeError(util::format("invalid .tgs image: %s", what));
}

[[nodiscard]] const SectionRec& section(const SectionRec* table,
                                        TgsSection id) {
  // Validated to be in id order with ids 1..kSectionCount.
  return table[static_cast<std::uint32_t>(id) - 1];
}

[[nodiscard]] std::size_t record_count(const SectionRec& s) {
  return s.bytes / s.record_size;
}

}  // namespace

TgsView TgsView::open(std::span<const std::uint8_t> bytes,
                      const Options& options) {
  // ── magic / version: decided before anything else, so a v1/v2 file
  // gets the re-solve diagnostic, never a checksum or bounds error ──
  if (bytes.size() >= 8 &&
      std::memcmp(bytes.data(), kMagicLegacy, 4) == 0) {
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, 4);
    throw VersionError(util::format(
        ".tgs format v%u is a pre-v3 streamed format — re-solve with "
        "`run_model solve --strategy-out`",
        version));
  }
  if (bytes.size() < sizeof(TgsHeader) ||
      std::memcmp(bytes.data(), kMagicV3, 4) != 0) {
    throw SerializeError("not a .tgs decision file (bad magic)");
  }
  TgsView v;
  v.base_ = bytes.data();
  v.size_ = bytes.size();
  v.header_ = reinterpret_cast<const TgsHeader*>(bytes.data());
  const TgsHeader& h = *v.header_;
  if (h.version != kFormatVersion) {
    if (h.version < kFormatVersion) {
      throw VersionError(util::format(
          ".tgs format v%u is a pre-v3 format — re-solve with "
          "`run_model solve --strategy-out`",
          h.version));
    }
    throw SerializeError(util::format(
        ".tgs version %u is not supported (expected %u)", h.version,
        kFormatVersion));
  }
  if (h.file_bytes != bytes.size()) {
    throw SerializeError("decision file truncated: size mismatch");
  }
  if (options.verify_checksum &&
      fnv1a(bytes.data() + sizeof(TgsHeader),
            bytes.size() - sizeof(TgsHeader)) != h.checksum) {
    throw SerializeError("decision file corrupted: checksum mismatch");
  }
  if (h.clock_dim == 0 || h.clock_dim > 0xffff) {
    invalid("bad clock dimension");
  }
  if (h.purpose_kind > 1) invalid("unknown purpose kind");
  if (h.section_count != kSectionCount) invalid("bad section count");
  if (bytes.size() < kSectionTableEnd) {
    throw SerializeError("decision file truncated: no section table");
  }
  v.section_table_ =
      reinterpret_cast<const SectionRec*>(bytes.data() + sizeof(TgsHeader));

  // ── section table geometry: known ids in order, 8-aligned,
  // ascending, non-overlapping, inside the file ──
  static constexpr std::uint32_t kRecordSizes[kSectionCount] = {
      4, 4, 4, 4, sizeof(NodeRec), sizeof(ArcRec), sizeof(LeafRec),
      sizeof(ActRec), 4, 4, sizeof(EdgeRec), sizeof(LookupRec),
      sizeof(StrRec), 1};
  std::uint64_t cursor = kSectionTableEnd;
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const SectionRec& rec = v.section_table_[s];
    if (rec.id != s + 1) invalid("section table out of order");
    if (rec.record_size != kRecordSizes[s]) invalid("bad section record size");
    if (rec.offset % 8 != 0) invalid("misaligned section");
    if (rec.offset < cursor) invalid("overlapping sections");
    if (rec.offset > bytes.size() || rec.bytes > bytes.size() - rec.offset) {
      throw SerializeError(
          "decision file truncated: section past end of file");
    }
    if (rec.bytes % rec.record_size != 0) invalid("ragged section");
    cursor = rec.offset + rec.bytes;
  }

  // ── typed pointers + counts ──
  const auto ptr = [&](TgsSection id) {
    return v.base_ + section(v.section_table_, id).offset;
  };
  const auto count = [&](TgsSection id) {
    return record_count(section(v.section_table_, id));
  };
  v.key_locs_ = reinterpret_cast<const std::uint32_t*>(ptr(kSecKeyLocs));
  v.key_data_ = reinterpret_cast<const std::int32_t*>(ptr(kSecKeyData));
  v.key_roots_ = reinterpret_cast<const std::uint32_t*>(ptr(kSecKeyRoots));
  v.buckets_ = reinterpret_cast<const std::uint32_t*>(ptr(kSecKeyBuckets));
  v.nodes_ = reinterpret_cast<const NodeRec*>(ptr(kSecNodes));
  v.arcs_ = reinterpret_cast<const ArcRec*>(ptr(kSecArcs));
  v.leaves_ = reinterpret_cast<const LeafRec*>(ptr(kSecLeaves));
  v.acts_ = reinterpret_cast<const ActRec*>(ptr(kSecActs));
  v.zone_refs_ = reinterpret_cast<const std::uint32_t*>(ptr(kSecZoneRefs));
  v.zones_ = reinterpret_cast<const dbm::raw_t*>(ptr(kSecZones));
  v.edges_ = reinterpret_cast<const EdgeRec*>(ptr(kSecEdges));
  v.edge_lookup_ = reinterpret_cast<const LookupRec*>(ptr(kSecEdgeLookup));
  v.strings_ = reinterpret_cast<const StrRec*>(ptr(kSecStrings));
  v.string_blob_ = reinterpret_cast<const char*>(ptr(kSecStringBlob));
  v.node_count_ = count(kSecNodes);
  v.arc_count_ = count(kSecArcs);
  v.leaf_count_ = count(kSecLeaves);
  v.act_count_ = count(kSecActs);
  v.zone_ref_count_ = count(kSecZoneRefs);
  v.edge_count_ = count(kSecEdges);

  // ── per-section shape against the header ──
  const std::uint64_t keys = h.key_count;
  if (count(kSecKeyLocs) != keys * h.proc_count) invalid("key locs shape");
  if (count(kSecKeyData) != keys * h.slot_count) invalid("key data shape");
  if (count(kSecKeyRoots) != keys) invalid("key roots shape");
  if (keys != 0 && h.proc_count == 0 && h.slot_count == 0) {
    invalid("key with no discrete part");
  }
  const std::size_t cells = std::size_t{h.clock_dim} * h.clock_dim;
  if (count(kSecZones) % cells != 0) invalid("zone section shape");
  v.zone_count_ = count(kSecZones) / cells;
  if (count(kSecStrings) != kStringCount) invalid("string table shape");
  const std::size_t blob = count(kSecStringBlob);
  for (std::uint32_t s = 0; s < kStringCount; ++s) {
    const StrRec& str = v.strings_[s];
    if (str.offset > blob || str.length > blob - str.offset) {
      invalid("string slice out of bounds");
    }
  }

  // ── bucket index: a correct open-addressed table for these keys ──
  const std::size_t bucket_count = count(kSecKeyBuckets);
  if (bucket_count < 8 || (bucket_count & (bucket_count - 1)) != 0) {
    invalid("bucket table size is not a power of two");
  }
  if (bucket_count < keys * 2) invalid("bucket table too small");
  v.bucket_mask_ = bucket_count - 1;
  std::size_t occupied = 0;
  for (std::size_t b = 0; b < bucket_count; ++b) {
    if (v.buckets_[b] == 0) continue;
    if (v.buckets_[b] > keys) invalid("bucket entry out of range");
    ++occupied;
  }
  if (occupied != keys) invalid("bucket table does not cover the keys");
  for (std::uint32_t k = 0; k < keys; ++k) {
    std::size_t at = hash_discrete(v.key_locs(k), v.key_data(k)) &
                     v.bucket_mask_;
    bool found = false;
    for (std::size_t probe = 0; probe < bucket_count; ++probe) {
      const std::uint32_t entry = v.buckets_[at];
      if (entry == 0) break;
      if (entry == k + 1) {
        found = true;
        break;
      }
      at = (at + 1) & v.bucket_mask_;
    }
    if (!found) invalid("bucket table misses a key");
  }

  // ── DAG structure: the checks the v2 heap loader ran, against the
  // mapped records ──
  const auto check_target = [&](target_t t) {
    if (is_leaf(t)) {
      if (target_index(t) >= v.leaf_count_) invalid("leaf out of range");
    } else if (target_index(t) >= v.node_count_) {
      invalid("node out of range");
    }
  };
  for (std::uint32_t k = 0; k < keys; ++k) check_target(v.key_roots_[k]);
  for (std::size_t n = 0; n < v.node_count_; ++n) {
    const NodeRec& node = v.nodes_[n];
    if (node.i >= h.clock_dim || node.j >= h.clock_dim || node.i == node.j) {
      invalid("node tests a bad clock pair");
    }
    if (node.arc_count < 2 ||
        std::size_t{node.first_arc} + node.arc_count > v.arc_count_) {
      invalid("node arc range out of bounds");
    }
    // Arcs must be strictly sorted by encoded bound and end in `< ∞`,
    // so the first-satisfied-arc scan in decide() is total.
    for (std::uint32_t a = 0; a < node.arc_count; ++a) {
      const ArcRec& arc = v.arcs_[node.first_arc + a];
      check_target(arc.target);
      if (a + 1 == node.arc_count) {
        if (!dbm::is_infinity(arc.bound)) invalid("node lacks an ∞ arc");
      } else if (arc.bound >= v.arcs_[node.first_arc + a + 1].bound) {
        invalid("node arcs are not sorted");
      }
    }
  }
  for (std::size_t l = 0; l < v.leaf_count_; ++l) {
    const LeafRec& leaf = v.leaves_[l];
    if (leaf.kind > static_cast<std::uint32_t>(MoveKind::kUnwinnable)) {
      invalid("unknown leaf kind");
    }
    switch (static_cast<MoveKind>(leaf.kind)) {
      case MoveKind::kGoalReached:
        // Safety plays are won by outlasting the budget (the
        // executor's call), never by a goal prescription.
        if (h.purpose_kind == 1) invalid("goal leaf in a safety table");
        break;
      case MoveKind::kUnwinnable:
        break;
      case MoveKind::kAction:
        if (leaf.edge_slot >= v.edge_count_) {
          invalid("action leaf edge slot out of range");
        }
        break;
      case MoveKind::kDelay:
        if (std::size_t{leaf.zones_first} + leaf.zones_count >
            v.zone_ref_count_) {
          invalid("delay leaf zone slice out of bounds");
        }
        break;
      default:
        invalid("unknown leaf kind");
    }
    if (h.purpose_kind == 0 &&
        (leaf.acts_count != 0 || leaf.danger_count != 0)) {
      invalid("safety slices in a reachability table");
    }
    if (std::size_t{leaf.acts_first} + leaf.acts_count > v.act_count_) {
      invalid("leaf act slice out of bounds");
    }
    if (std::size_t{leaf.danger_first} + leaf.danger_count >
        v.zone_ref_count_) {
      invalid("leaf danger slice out of bounds");
    }
  }
  for (std::size_t a = 0; a < v.act_count_; ++a) {
    const ActRec& act = v.acts_[a];
    if (act.edge_slot >= v.edge_count_) invalid("act edge slot out of range");
    if (std::size_t{act.zones_first} + act.zones_count > v.zone_ref_count_) {
      invalid("act zone slice out of bounds");
    }
  }
  for (std::size_t r = 0; r < v.zone_ref_count_; ++r) {
    if (v.zone_refs_[r] >= v.zone_count_) invalid("zone reference out of range");
  }
  for (std::size_t e = 0; e < v.edge_count_; ++e) {
    if ((v.edges_[e].flags & ~(kEdgeControllable | kEdgeHasReceiver)) != 0) {
      invalid("unknown edge flags");
    }
  }

  // ── edge lookup: a sorted bijection onto the edge slots ──
  if (count(kSecEdgeLookup) != v.edge_count_) invalid("edge lookup shape");
  std::vector<bool> slot_seen(v.edge_count_, false);
  for (std::size_t e = 0; e < v.edge_count_; ++e) {
    const LookupRec& rec = v.edge_lookup_[e];
    if (rec.slot >= v.edge_count_ || slot_seen[rec.slot]) {
      invalid("edge lookup is not a permutation");
    }
    slot_seen[rec.slot] = true;
    if (rec.original != v.edges_[rec.slot].original) {
      invalid("edge lookup disagrees with the edge section");
    }
    if (e != 0 && v.edge_lookup_[e - 1].original >= rec.original) {
      invalid("duplicate edge slot");
    }
  }

  // ── zone canonicality: encodable, closed and non-empty ──
  // Checked in place instead of rebuilding and re-closing the zone:
  // Dbm::close() on corrupted cells can sum bounds past the int32
  // range, while one add_bounds of two encodable cells cannot.
  if (options.verify_zones) {
    const std::uint32_t dim = h.clock_dim;
    for (std::size_t z = 0; z < v.zone_count_; ++z) {
      const dbm::raw_t* m = v.zone_cells(static_cast<std::uint32_t>(z));
      for (std::size_t c = 0; c < std::size_t{dim} * dim; ++c) {
        if (m[c] != dbm::kInfinity &&
            (dbm::bound_value(m[c]) >= dbm::kMaxBoundValue ||
             dbm::bound_value(m[c]) <= -dbm::kMaxBoundValue)) {
          throw SerializeError(util::format(
              "decision file corrupted: zone bound outside the encodable "
              "range (|value| < %d, or infinity)",
              dbm::kMaxBoundValue));
        }
      }
      // Closed and non-empty: every diagonal cell is `≤ 0` and no path
      // is tighter than the direct bound — exactly when Dbm::close()
      // would change nothing.
      bool closed = true;
      for (std::uint32_t i = 0; i < dim; ++i) {
        if (m[i * dim + i] < dbm::kLeZero) {
          throw SerializeError("decision file corrupted: empty zone in pool");
        }
        closed = closed && m[i * dim + i] == dbm::kLeZero;
      }
      for (std::uint32_t k = 0; k < dim && closed; ++k) {
        for (std::uint32_t i = 0; i < dim && closed; ++i) {
          for (std::uint32_t j = 0; j < dim && closed; ++j) {
            closed = dbm::add_bounds(m[i * dim + k], m[k * dim + j]) >=
                     m[i * dim + j];
          }
        }
      }
      if (!closed) {
        throw SerializeError("decision file corrupted: non-canonical zone");
      }
    }
  }

  return v;
}

std::string_view TgsView::string(std::uint32_t index) const {
  const StrRec& rec = strings_[index];
  return {string_blob_ + rec.offset, rec.length};
}

std::optional<std::uint32_t> TgsView::find_key(
    const ConcreteState& state) const {
  const std::uint32_t procs = header_->proc_count;
  const std::uint32_t slots = header_->slot_count;
  if (state.locs.size() != procs || state.data.slot_count() != slots) {
    return std::nullopt;
  }
  const std::span<const std::uint32_t> locs(state.locs);
  const std::span<const std::int32_t> values(state.data.values());
  std::size_t at = hash_discrete(locs, values) & bucket_mask_;
  while (buckets_[at] != 0) {
    const std::uint32_t k = buckets_[at] - 1;
    const bool locs_match =
        procs == 0 || std::memcmp(key_locs_ + std::size_t{k} * procs,
                                  locs.data(), std::size_t{procs} * 4) == 0;
    const bool data_match =
        slots == 0 || std::memcmp(key_data_ + std::size_t{k} * slots,
                                  values.data(), std::size_t{slots} * 4) == 0;
    if (locs_match && data_match) return k;
    at = (at + 1) & bucket_mask_;
  }
  return std::nullopt;
}

Move TgsView::decide(const ConcreteState& state, std::int64_t scale) const {
  TIGAT_ASSERT(state.clocks.size() == header_->clock_dim,
               "state dimension mismatch");
  const std::uint32_t dim = header_->clock_dim;
  Move move;
  const auto k = find_key(state);
  if (!k) return move;  // not even discretely reachable

  target_t t = key_roots_[*k];
  while (!is_leaf(t)) {
    const NodeRec& n = nodes_[target_index(t)];
    const std::int64_t diff = state.clocks[n.i] - state.clocks[n.j];
    const ArcRec* arc = &arcs_[n.first_arc];
    while (!dbm::satisfies(diff, arc->bound, scale)) ++arc;
    t = arc->target;
  }
  const LeafRec& leaf = leaves_[target_index(t)];
  switch (static_cast<MoveKind>(leaf.kind)) {
    case MoveKind::kUnwinnable:
      return move;
    case MoveKind::kGoalReached:
      move.kind = MoveKind::kGoalReached;
      move.rank = leaf.rank;
      return move;
    case MoveKind::kAction:
      move.kind = MoveKind::kAction;
      move.rank = leaf.rank;
      move.edge = edges_[leaf.edge_slot].original;
      return move;
    case MoveKind::kDelay: {
      move.kind = MoveKind::kDelay;
      move.rank = leaf.rank;
      if (header_->purpose_kind == 1) {
        // Safety fat leaf — mirrors Strategy::decide's safety branch
        // move for move.  Latest harmless wait: the dense stay bound
        // over the Safe zones (the leaf's zone slice), clipped one
        // tick short of the danger region.
        thread_local std::vector<dbm::DelayInterval> intervals;
        intervals.clear();
        const std::uint32_t* sref = zone_refs_ + leaf.zones_first;
        for (std::uint32_t z = 0; z < leaf.zones_count; ++z) {
          if (const auto iv = dbm::raw_delay_interval(
                  dim, zone_cells(sref[z]), state.clocks, scale)) {
            intervals.push_back(*iv);
          }
        }
        // A well-formed table only routes points inside the Safe
        // region here, so some interval covers delay 0.  Checked (not
        // asserted) because a bit-rotted image can pass structural
        // validation yet route a foreign point to this leaf; such a
        // point is simply not winnable-from.
        bool covers_now = false;
        for (const dbm::DelayInterval& iv : intervals) {
          covers_now |= iv.lo == 0 && !iv.lo_strict;
        }
        if (!covers_now) return Move{};
        std::int64_t deadline = dbm::merge_stay_bound(intervals);
        std::optional<std::int64_t> danger_in;
        const std::uint32_t* dref = zone_refs_ + leaf.danger_first;
        for (std::uint32_t z = 0; z < leaf.danger_count; ++z) {
          if (const auto d = dbm::raw_earliest_entry_delay(
                  dim, zone_cells(dref[z]), state.clocks, scale)) {
            danger_in = danger_in ? std::min(*danger_in, *d) : *d;
          }
        }
        if (danger_in && *danger_in > 0) {
          deadline = std::min(deadline, *danger_in - 1);
        }
        const bool threat_now = danger_in && *danger_in == 0;
        if (deadline > 0 && !threat_now) {
          move.next_decision_ticks = std::min(deadline, Move::kNoDecision);
          return move;
        }
        // Boundary (or live threat): first action whose region holds,
        // in the same edge order Strategy::decide scans.
        for (std::uint32_t a = 0; a < leaf.acts_count; ++a) {
          const ActRec& act = acts_[leaf.acts_first + a];
          const std::uint32_t* aref = zone_refs_ + act.zones_first;
          for (std::uint32_t z = 0; z < act.zones_count; ++z) {
            if (dbm::raw_contains_point(dim, zone_cells(aref[z]),
                                        state.clocks, scale)) {
              move.kind = MoveKind::kAction;
              move.edge = edges_[act.edge_slot].original;
              return move;
            }
          }
        }
        // No safe action yet: wait for the threat instant (ties go to
        // the tester) or the SUT's forced move.
        move.next_decision_ticks =
            danger_in && *danger_in > 0 ? *danger_in : 0;
        return move;
      }
      // Min over the exact zones Strategy::decide consults (action
      // regions at rank−1, then the lower winning set of this key).
      std::int64_t next = Move::kNoDecision;
      const std::uint32_t* ref = zone_refs_ + leaf.zones_first;
      for (std::uint32_t z = 0; z < leaf.zones_count; ++z) {
        if (const auto d = dbm::raw_earliest_entry_delay(
                dim, zone_cells(ref[z]), state.clocks, scale)) {
          next = std::min(next, *d);
        }
      }
      move.next_decision_ticks = next;
      return move;
    }
  }
  return move;
}

semantics::TransitionInstance TgsView::edge_instance(
    std::uint32_t original) const {
  const LookupRec* begin = edge_lookup_;
  const LookupRec* end = edge_lookup_ + edge_count_;
  const LookupRec* it = std::lower_bound(
      begin, end, original,
      [](const LookupRec& rec, std::uint32_t e) { return rec.original < e; });
  TIGAT_ASSERT(it != end && it->original == original,
               "edge not referenced by this table");
  const EdgeRec& rec = edges_[it->slot];
  semantics::TransitionInstance inst;
  inst.primary = {rec.primary_process, rec.primary_edge};
  if ((rec.flags & kEdgeHasReceiver) != 0) {
    inst.receiver =
        semantics::EdgeRef{rec.receiver_process, rec.receiver_edge};
  }
  inst.controllable = (rec.flags & kEdgeControllable) != 0;
  return inst;
}

}  // namespace tigat::decision
