// DecisionTable — a compiled strategy as a flat, immutable decision
// structure (the ROADMAP "compiled decision structure (BDD/CDD)" item).
//
// A Strategy::decide walks ranked zone federations: find the key, find
// the rank (first delta containing the point), test each controllable
// edge's action region, and — for waits — scan federations again for
// the earliest entry delay.  Fine for one run; too much pointer
// chasing for a service executing millions of runs against one solved
// game.  The compiler (decision/compiler.h) lowers that cascade, per
// discrete key, into a CDD-style DAG of interval tests over clock
// differences:
//
//   * an inner NODE tests one difference x_i − x_j against a sorted
//     run of encoded bounds (its arcs); the first satisfied arc is
//     taken, the last arc is always `< ∞` so evaluation cannot fall
//     off the node;
//   * a LEAF is a Move prescription: goal / action(edge) / delay /
//     unwinnable, plus the rank.  Delay leaves reference a slice of
//     the shared zone pool — the exact member zones Strategy consults
//     for its next-decision point — because the wait duration depends
//     on the concrete clock values, not just on the region the point
//     is in (clock differences are delay-invariant, absolute values
//     are not).
//
// Safety tables (purpose_kind = 1) have exactly one winning row per
// key — Safe has no rank structure — and its leaf is a FAT delay
// leaf: the Safe zones (dense stay bound via dbm::merge_stay_bound),
// the danger zones (entry forces an action) and an `acts` slice of
// (edge, region) pairs evaluated in edge order at the boundary.  The
// whole time-driven safety prescription evaluates inside the leaf,
// mirroring game::Strategy's safety branch move for move.
//
// Identical subgraphs are hash-consed at compile time and shared
// across keys, so the table is a DAG, not a forest of trees.
//
// Representation: since format v3 the table IS its `.tgs` image.  The
// compiler fills a TableData (the mutable builder form below), the
// constructor flattens it through TgsWriter once, and every query —
// including decide() — runs against a bounds-validated TgsView
// (decision/view.h) over those flat bytes.  The bytes can equally be
// an owned buffer (compile / from_bytes) or a read-only file mapping
// (DecisionTable::map), which is the zero-copy serving path: cold
// start is one mmap + validation, no per-record parsing, no heap
// reconstruction, and N processes mapping one file share the pages.
//
// decide() is allocation-free, lock-free and const-thread-safe: a key
// lookup in the precomputed open-addressed index section, a
// root-to-leaf walk (one integer subtraction + a short sorted-arc scan
// per node), and for delay leaves a scan over raw DBM cells in place.
// It returns Moves bit-identical to game::Strategy::decide on every
// state with non-negative integer clock ticks
// (tests/decision_equivalence_test), across all three backings.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

#include "dbm/dbm.h"
#include "decision/source.h"
#include "decision/view.h"
#include "semantics/concrete.h"
#include "semantics/transition.h"
#include "tsystem/property.h"
#include "tsystem/system.h"
#include "util/mmap.h"

namespace tigat::decision {

inline constexpr std::uint32_t kNoEdgeSlot = 0xffff'ffffu;

// The mutable builder form of a table: what the compiler produces.
// TgsWriter flattens it to the v3 image; DecisionTable::export_data()
// materialises it back from an image (tests, tigat-serve drive).
struct TableData {
  struct Arc {
    dbm::raw_t bound = 0;  // encoded `≺ c`; kInfinity on the last arc
    target_t target = 0;
  };
  struct Node {
    std::uint16_t i = 0, j = 0;  // tests x_i − x_j
    std::uint32_t first_arc = 0;
    std::uint32_t arc_count = 0;
  };
  struct Leaf {
    game::MoveKind kind = game::MoveKind::kUnwinnable;
    std::uint32_t rank = 0;                 // valid unless kUnwinnable
    std::uint32_t edge_slot = kNoEdgeSlot;  // kAction: into `edges`
    std::uint32_t zones_first = 0;          // kDelay: into `zone_refs`
    std::uint32_t zones_count = 0;
    // Safety delay leaves only (zero elsewhere): boundary actions and
    // the danger region, as slices into `acts` / `zone_refs`.
    std::uint32_t acts_first = 0;
    std::uint32_t acts_count = 0;
    std::uint32_t danger_first = 0;
    std::uint32_t danger_count = 0;
  };
  // A safety boundary action: take `edge_slot` while the point is in
  // the referenced action-region zones (a `zone_refs` slice).
  struct Act {
    std::uint32_t edge_slot = 0;
    std::uint32_t zones_first = 0;
    std::uint32_t zones_count = 0;
  };
  struct Key {
    std::vector<tsystem::LocId> locs;
    tsystem::DataState data;
    target_t root = 0;
  };
  struct EdgeSlot {
    std::uint32_t original = 0;  // index into SymbolicGraph::edges()
    semantics::TransitionInstance inst;
  };

  std::uint64_t fingerprint = 0;  // model_fingerprint(system, purpose)
  std::uint32_t clock_dim = 0;    // clocks incl. the reference clock
  std::uint8_t purpose_kind = 0;  // 0 = reachability, 1 = safety
  // The v3 string pool: provenance carried for tgs-info and serve
  // logs.
  std::string system_name;
  std::string purpose_source;
  std::vector<Key> keys;
  std::vector<Node> nodes;
  std::vector<Arc> arcs;
  std::vector<Leaf> leaves;
  std::vector<Act> acts;                 // safety boundary actions
  std::vector<std::uint32_t> zone_refs;  // delay-leaf slices → zone pool
  std::vector<dbm::Dbm> zones;           // shared zone pool
  std::vector<EdgeSlot> edges;
};

// Semantic fingerprint of a system: names, clocks, variable ranges,
// channels with their game partition, and per edge the full guard /
// sync / reset / assignment / controllability content (data
// expressions via their rendered form).  Stored in every table and
// .tgs file so a strategy cannot silently be served against a model it
// was not solved for — editing even one timing constant changes the
// fingerprint.  Note a cooperative table fingerprints the
// all-controllable relaxation it was solved on, not the original SPEC.
[[nodiscard]] std::uint64_t model_fingerprint(const tsystem::System& system);

// Fingerprint of (system, purpose): continues the structural hash with
// the purpose kind and the rendered formula, so a reachability table
// and a safety table — or tables for two different φ — over the same
// model never pass as each other.  This is what compiled tables store.
[[nodiscard]] std::uint64_t model_fingerprint(
    const tsystem::System& system, const tsystem::TestPurpose& purpose);

class DecisionTable final : public DecisionSource {
 public:
  // Flattens builder data into an owned v3 image and validates it.
  // Throws tsystem::ModelError on structurally invalid data.
  explicit DecisionTable(TableData data);

  // Adopts a complete v3 image (e.g. the bytes of a .tgs file).
  // Throws SerializeError (VersionError for v1/v2 bytes).
  explicit DecisionTable(std::vector<std::uint8_t> image,
                         const TgsView::Options& options = {});

  // The zero-copy serving path: maps `path` read-only and serves
  // decide() straight from the page cache — no per-record parsing, no
  // heap table, cold start O(validation).  Throws SerializeError on
  // I/O or corruption, VersionError for v1/v2 files (re-solve them
  // with `run_model solve --strategy-out`).
  [[nodiscard]] static DecisionTable map(const std::string& path,
                                         const TgsView::Options& options = {});

  DecisionTable(DecisionTable&&) noexcept = default;
  DecisionTable& operator=(DecisionTable&&) noexcept = default;

  // Allocation-free compiled decide; bit-identical to
  // game::Strategy::decide for clocks[0] == 0 and clocks[i] >= 0.
  // When metrics are enabled each call lands in the "decide.latency_ns"
  // histogram — the serving-path visibility ROADMAP's daemon item
  // needs; off, the timing costs one relaxed load + branch.
  [[nodiscard]] game::Move decide(const semantics::ConcreteState& state,
                                  std::int64_t scale) const override;

  [[nodiscard]] semantics::TransitionInstance edge_instance(
      std::uint32_t edge) const override;

  [[nodiscard]] const char* backend_name() const override {
    return "compiled-table";
  }

  // True when the table was compiled against (a system structurally
  // identical to) `system` for this exact purpose; callers should
  // check before serving.
  [[nodiscard]] bool matches(const tsystem::System& system,
                             const tsystem::TestPurpose& purpose) const {
    return view_.fingerprint() == model_fingerprint(system, purpose);
  }

  // The validated zero-copy view over the image (and the image bytes
  // themselves, e.g. for serialization — to_bytes is a copy of these).
  [[nodiscard]] const TgsView& view() const { return view_; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return view_.bytes();
  }
  [[nodiscard]] bool is_mapped() const { return mapped_.is_open(); }

  [[nodiscard]] std::uint64_t fingerprint() const {
    return view_.fingerprint();
  }
  [[nodiscard]] std::uint32_t clock_dim() const { return view_.clock_dim(); }
  [[nodiscard]] std::uint8_t purpose_kind() const {
    return static_cast<std::uint8_t>(view_.purpose_kind());
  }
  [[nodiscard]] std::string_view system_name() const {
    return view_.system_name();
  }
  [[nodiscard]] std::string_view purpose_source() const {
    return view_.purpose_source();
  }
  [[nodiscard]] std::size_t key_count() const { return view_.key_count(); }
  [[nodiscard]] std::size_t node_count() const { return view_.node_count(); }
  [[nodiscard]] std::size_t arc_count() const { return view_.arc_count(); }
  [[nodiscard]] std::size_t leaf_count() const { return view_.leaf_count(); }
  [[nodiscard]] std::size_t zone_count() const { return view_.zone_count(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return view_.bytes().size();
  }

  // Materialises the builder form back from the image — the inverse of
  // the constructor.  Used by tests and `tigat-serve drive`; the
  // serving path never calls it.
  [[nodiscard]] TableData export_data() const;

 private:
  DecisionTable(std::vector<std::uint8_t> owned, util::MappedFile mapped,
                const TgsView::Options& options);

  obs::Histogram* decide_latency_ = nullptr;  // registered in the ctor
  std::vector<std::uint8_t> owned_;  // empty on the mmap path
  util::MappedFile mapped_;          // open only on the mmap path
  TgsView view_;                     // into owned_ or mapped_
};

}  // namespace tigat::decision
