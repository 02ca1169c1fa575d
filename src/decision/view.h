// TgsView — a non-owning, bounds-validated, zero-copy view over a
// `.tgs` v3 image (decision/format.h), and the decide() engine that
// runs on it.
//
// open() validates once — magic/version (old formats raise
// VersionError with the re-solve hint *before* any checksum or bounds
// check can misfire), checksum, section table geometry,
// every index/slice/target range, bucket-index correctness, arc
// sorting, zone canonicality — then caches one typed pointer per
// section.  After that every query, decide() included, reads the
// mapped records in place: no deserialization, no allocation, no locks
// (the view is const-thread-safe; a daemon shares one across all its
// worker threads).
//
// The view does not own the bytes.  DecisionTable (decision/table.h)
// pairs it with an owned buffer or a util::MappedFile; tests may open
// views over stack/vector images directly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "dbm/bound.h"
#include "decision/format.h"
#include "game/strategy.h"
#include "semantics/concrete.h"
#include "semantics/transition.h"

namespace tigat::decision {

// A DAG target: either an inner node or a leaf, tagged in the top bit.
using target_t = std::uint32_t;
inline constexpr target_t kLeafBit = 0x8000'0000u;
[[nodiscard]] constexpr bool is_leaf(target_t t) { return (t & kLeafBit) != 0; }
[[nodiscard]] constexpr std::uint32_t target_index(target_t t) {
  return t & ~kLeafBit;
}
[[nodiscard]] constexpr target_t leaf_target(std::uint32_t index) {
  return index | kLeafBit;
}
[[nodiscard]] constexpr target_t node_target(std::uint32_t index) {
  return index;
}

struct TgsOptions {
  // FNV-1a over the payload; rejects bit rot.  One sequential pass
  // over the image (which doubles as page prefault on the mmap
  // path); skippable for huge tables behind trusted storage.
  bool verify_checksum = true;
  // Re-closes every zone and requires canonical, non-empty matrices,
  // so decide() may trust the raw cells unconditionally.  Catches
  // hand-edited files whose checksum was recomputed.
  bool verify_zones = true;
};

class TgsView {
 public:
  using Options = TgsOptions;

  TgsView() = default;

  // Validates `bytes` as a v3 image and opens a view.  Throws
  // VersionError for v1/v2 images, SerializeError for anything
  // corrupt, truncated or structurally invalid.  The bytes must stay
  // alive and unchanged for the lifetime of the view.
  [[nodiscard]] static TgsView open(std::span<const std::uint8_t> bytes,
                                    const Options& options = {});

  [[nodiscard]] bool is_open() const { return base_ != nullptr; }

  // The compiled decide; semantics identical to the v2 heap table
  // (which itself is bit-identical to game::Strategy::decide).
  [[nodiscard]] game::Move decide(const semantics::ConcreteState& state,
                                  std::int64_t scale) const;

  // The transition behind a Move::edge value, decoded from the mapped
  // EdgeRec (by value: the view has no materialised instances).
  [[nodiscard]] semantics::TransitionInstance edge_instance(
      std::uint32_t original) const;

  // ── header / shape ──
  [[nodiscard]] const TgsHeader& header() const { return *header_; }
  [[nodiscard]] std::span<const SectionRec> sections() const {
    return {section_table_, kSectionCount};
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {base_, size_};
  }
  [[nodiscard]] std::uint64_t fingerprint() const {
    return header_->fingerprint;
  }
  [[nodiscard]] std::uint32_t clock_dim() const { return header_->clock_dim; }
  [[nodiscard]] std::uint32_t proc_count() const {
    return header_->proc_count;
  }
  [[nodiscard]] std::uint32_t slot_count() const {
    return header_->slot_count;
  }
  [[nodiscard]] std::uint32_t purpose_kind() const {
    return header_->purpose_kind;
  }
  [[nodiscard]] std::size_t key_count() const { return header_->key_count; }
  [[nodiscard]] std::size_t bucket_count() const { return bucket_mask_ + 1; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::size_t arc_count() const { return arc_count_; }
  [[nodiscard]] std::size_t leaf_count() const { return leaf_count_; }
  [[nodiscard]] std::size_t act_count() const { return act_count_; }
  [[nodiscard]] std::size_t zone_ref_count() const { return zone_ref_count_; }
  [[nodiscard]] std::size_t zone_count() const { return zone_count_; }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  [[nodiscard]] std::string_view string(std::uint32_t index) const;
  [[nodiscard]] std::string_view system_name() const {
    return string(kStrSystemName);
  }
  [[nodiscard]] std::string_view purpose_source() const {
    return string(kStrPurposeSource);
  }

  // ── typed record access (validated ranges; used by export/tests) ──
  [[nodiscard]] std::span<const std::uint32_t> key_locs(std::uint32_t k) const {
    return {key_locs_ + std::size_t{k} * header_->proc_count,
            header_->proc_count};
  }
  [[nodiscard]] std::span<const std::int32_t> key_data(std::uint32_t k) const {
    return {key_data_ + std::size_t{k} * header_->slot_count,
            header_->slot_count};
  }
  [[nodiscard]] target_t key_root(std::uint32_t k) const {
    return key_roots_[k];
  }
  [[nodiscard]] const NodeRec& node(std::uint32_t n) const { return nodes_[n]; }
  [[nodiscard]] const ArcRec& arc(std::uint32_t a) const { return arcs_[a]; }
  [[nodiscard]] const LeafRec& leaf(std::uint32_t l) const {
    return leaves_[l];
  }
  [[nodiscard]] const ActRec& act(std::uint32_t a) const { return acts_[a]; }
  [[nodiscard]] std::uint32_t zone_ref(std::uint32_t r) const {
    return zone_refs_[r];
  }
  // dim×dim canonical raw cells of zone `z`, served in place.
  [[nodiscard]] const dbm::raw_t* zone_cells(std::uint32_t z) const {
    return zones_ + std::size_t{z} * header_->clock_dim * header_->clock_dim;
  }
  [[nodiscard]] const EdgeRec& edge(std::uint32_t slot) const {
    return edges_[slot];
  }

 private:
  [[nodiscard]] std::optional<std::uint32_t> find_key(
      const semantics::ConcreteState& state) const;

  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
  const TgsHeader* header_ = nullptr;
  const SectionRec* section_table_ = nullptr;

  const std::uint32_t* key_locs_ = nullptr;
  const std::int32_t* key_data_ = nullptr;
  const std::uint32_t* key_roots_ = nullptr;
  const std::uint32_t* buckets_ = nullptr;
  std::size_t bucket_mask_ = 0;
  const NodeRec* nodes_ = nullptr;
  const ArcRec* arcs_ = nullptr;
  const LeafRec* leaves_ = nullptr;
  const ActRec* acts_ = nullptr;
  const std::uint32_t* zone_refs_ = nullptr;
  const dbm::raw_t* zones_ = nullptr;
  const EdgeRec* edges_ = nullptr;
  const LookupRec* edge_lookup_ = nullptr;
  const StrRec* strings_ = nullptr;
  const char* string_blob_ = nullptr;
  std::size_t node_count_ = 0;
  std::size_t arc_count_ = 0;
  std::size_t leaf_count_ = 0;
  std::size_t act_count_ = 0;
  std::size_t zone_ref_count_ = 0;
  std::size_t zone_count_ = 0;
  std::size_t edge_count_ = 0;
};

}  // namespace tigat::decision
