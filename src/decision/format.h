// The `.tgs` v3 on-disk format — a flat, little-endian, offset-based
// image a decision table serves from without deserialization.
//
// v1/v2 streamed the table field by field and every serving process
// re-parsed it into heap vectors before the first decide().  v3 lays
// the same data out as the *runtime* representation: a fixed header, a
// section table, and per section one contiguous array of fixed-size
// little-endian records addressed by u32 indices instead of pointers.
// Opening a table is `mmap` + bounds validation (decision/view.h);
// decide() walks the mapped records in place.  Even the open-addressed
// key→root bucket index — which v2 readers rebuilt on every load — is
// a section, so cold start builds nothing.
//
//   offset 0   Header (64 bytes, see below)
//   offset 64  section table: kSectionCount × SectionRec
//   then       sections, each 8-byte aligned, zero-padded between,
//              in section-id order
//
// All integers are little-endian; the reader requires a little-endian
// host (static_assert below) so records are read by pointer cast, not
// byte shuffling.  The checksum is FNV-1a over every byte after the
// header and is verified before any record is trusted.
//
// Version history: v1 (reachability only) and v2 (safety fat leaves)
// were streamed heap formats; both are recognised and rejected with a
// VersionError asking to re-solve (`run_model solve --strategy-out`).
// Every table can be rebuilt from its .tg model, so no reader for the
// old formats is kept.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "tsystem/data.h"

namespace tigat::decision {

inline constexpr std::uint32_t kFormatVersion = 3;

// A corrupted, truncated or structurally invalid .tgs (or an I/O
// failure reading one).  Derives from ModelError so pipeline-level
// catch sites keep working.
class SerializeError : public tsystem::ModelError {
 public:
  using tsystem::ModelError::ModelError;
};

// A well-formed .tgs of an *older format version* (v1/v2).  Distinct
// from SerializeError so callers can give the "re-solve" diagnostic
// (exit 1) instead of misreporting the file as corrupt (exit 2).  The
// version check runs before the checksum, so an old file always lands
// here, never in a checksum/bounds error.
class VersionError : public SerializeError {
 public:
  using SerializeError::SerializeError;
};

// Zero-copy record access requires the on-disk byte order to be the
// in-memory one.  Every supported target is little-endian; a
// big-endian port would add byte-swapping readers behind this line.
static_assert(std::endian::native == std::endian::little,
              ".tgs v3 zero-copy views require a little-endian host");

inline constexpr char kMagicV3[4] = {'T', 'G', 'S', '3'};
inline constexpr char kMagicLegacy[4] = {'T', 'G', 'S', 'D'};  // v1/v2

struct TgsHeader {
  char magic[4];              // "TGS3"
  std::uint32_t version;      // 3
  std::uint64_t file_bytes;   // total image size, header included
  std::uint64_t checksum;     // FNV-1a over bytes [sizeof(TgsHeader), file_bytes)
  std::uint64_t fingerprint;  // model_fingerprint(system, purpose)
  std::uint32_t clock_dim;    // clocks incl. the reference clock
  std::uint32_t proc_count;   // locs per discrete key
  std::uint32_t slot_count;   // data slots per discrete key
  std::uint32_t purpose_kind; // 0 = reachability, 1 = safety
  std::uint32_t key_count;
  std::uint32_t section_count;  // kSectionCount
  std::uint64_t reserved;
};
static_assert(sizeof(TgsHeader) == 64, ".tgs v3 header is 64 bytes");

// Section ids; the section table lists them in this order.
enum TgsSection : std::uint32_t {
  kSecKeyLocs = 1,     // u32[key_count × proc_count]
  kSecKeyData = 2,     // i32[key_count × slot_count]
  kSecKeyRoots = 3,    // target_t[key_count]
  kSecKeyBuckets = 4,  // u32[pow2 ≥ max(8, 2·keys)], entry = key+1, 0 empty
  kSecNodes = 5,       // NodeRec[]
  kSecArcs = 6,        // ArcRec[]
  kSecLeaves = 7,      // LeafRec[]
  kSecActs = 8,        // ActRec[]
  kSecZoneRefs = 9,    // u32[]
  kSecZones = 10,      // raw_t[zone_count × dim × dim], canonical DBMs
  kSecEdges = 11,      // EdgeRec[]
  kSecEdgeLookup = 12, // LookupRec[], sorted by original edge index
  kSecStrings = 13,    // StrRec[kStringCount]
  kSecStringBlob = 14, // UTF-8 bytes the StrRecs slice
};
inline constexpr std::uint32_t kSectionCount = 14;

struct SectionRec {
  std::uint32_t id = 0;
  std::uint32_t record_size = 0;  // bytes per record (1 for the blob)
  std::uint64_t offset = 0;       // from the start of the image; 8-aligned
  std::uint64_t bytes = 0;        // multiple of record_size
};
static_assert(sizeof(SectionRec) == 24);

inline constexpr std::size_t kSectionTableEnd =
    sizeof(TgsHeader) + kSectionCount * sizeof(SectionRec);

// ── section records ─────────────────────────────────────────────────
// Mirrors of decision/table.h's TableData records with fixed width and
// no pointers; decision/view.h reads them in place.

struct NodeRec {
  std::uint16_t i = 0, j = 0;  // tests x_i − x_j
  std::uint32_t first_arc = 0;
  std::uint32_t arc_count = 0;
};
static_assert(sizeof(NodeRec) == 12);

struct ArcRec {
  std::int32_t bound = 0;     // encoded dbm::raw_t; kInfinity on the last arc
  std::uint32_t target = 0;   // target_t (top bit = leaf)
};
static_assert(sizeof(ArcRec) == 8);

struct LeafRec {
  std::uint32_t kind = 0;  // game::MoveKind, widened for alignment
  std::uint32_t rank = 0;
  std::uint32_t edge_slot = 0;
  std::uint32_t zones_first = 0;
  std::uint32_t zones_count = 0;
  std::uint32_t acts_first = 0;
  std::uint32_t acts_count = 0;
  std::uint32_t danger_first = 0;
  std::uint32_t danger_count = 0;
};
static_assert(sizeof(LeafRec) == 36);

struct ActRec {
  std::uint32_t edge_slot = 0;
  std::uint32_t zones_first = 0;
  std::uint32_t zones_count = 0;
};
static_assert(sizeof(ActRec) == 12);

inline constexpr std::uint32_t kEdgeControllable = 1u << 0;
inline constexpr std::uint32_t kEdgeHasReceiver = 1u << 1;

struct EdgeRec {
  std::uint32_t original = 0;  // index into SymbolicGraph::edges()
  std::uint32_t primary_process = 0;
  std::uint32_t primary_edge = 0;
  std::uint32_t receiver_process = 0;  // valid iff kEdgeHasReceiver
  std::uint32_t receiver_edge = 0;
  std::uint32_t flags = 0;
};
static_assert(sizeof(EdgeRec) == 24);

struct LookupRec {
  std::uint32_t original = 0;
  std::uint32_t slot = 0;  // into the edges section
};
static_assert(sizeof(LookupRec) == 8);

struct StrRec {
  std::uint32_t offset = 0;  // into the string blob
  std::uint32_t length = 0;
};
static_assert(sizeof(StrRec) == 8);

// Fixed string-pool layout (indices into kSecStrings).
enum TgsString : std::uint32_t {
  kStrSystemName = 0,
  kStrPurposeSource = 1,
};
inline constexpr std::uint32_t kStringCount = 2;

// ── shared helpers ──────────────────────────────────────────────────

[[nodiscard]] inline std::uint64_t fnv1a(const std::uint8_t* data,
                                         std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t k = 0; k < size; ++k) {
    h ^= data[k];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Same mixing as semantics::DiscreteKey::hash / DataState::hash, over
// raw spans: the writer uses it to precompute the bucket section, the
// view and the heap table use it to probe, so all three agree on the
// slot of every key.
[[nodiscard]] inline std::size_t hash_discrete(
    std::span<const std::uint32_t> locs, std::span<const std::int32_t> values) {
  std::size_t h = 0x9e3779b9u;
  for (const std::int32_t v : values) {
    h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(v)) + 0x9e3779b9u +
         (h << 6) + (h >> 2);
  }
  for (const std::uint32_t l : locs) {
    h ^= l + 0x9e3779b9u + (h << 6) + (h >> 2);
  }
  return h;
}

// Smallest valid bucket-table size for `keys` entries: the load factor
// stays ≤ ½ so linear probing terminates fast.
[[nodiscard]] inline std::size_t bucket_capacity(std::size_t keys) {
  std::size_t cap = 8;
  while (cap < keys * 2) cap *= 2;
  return cap;
}

}  // namespace tigat::decision
