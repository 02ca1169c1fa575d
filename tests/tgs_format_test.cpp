// The .tgs v3 image contract: every byte of the file is either
// validated or checksummed, so no mutation — header field, section
// table geometry, payload bit rot, truncation — can produce a view
// that decides wrong; it throws SerializeError instead.  Plus the
// version boundary: v1/v2 stream files land in VersionError with the
// "re-solve" diagnostic (never a checksum/bounds error), and the mmap
// path is one view open with zero deserialization (counter-asserted).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "decision/compiler.h"
#include "decision/format.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "obs/metrics.h"
#include "semantics/concrete.h"
#include "support/models.h"
#include "util/rng.h"

namespace tigat::decision {
namespace {

using test_support::load_smart_light;

constexpr std::int64_t kScale = 16;
constexpr std::uint64_t kSeed = 0x763f0417ULL;

using semantics::ConcreteState;

std::shared_ptr<const game::GameSolution> solve(const tsystem::System& sys,
                                                const std::string& purpose) {
  game::GameSolver solver(sys, tsystem::TestPurpose::parse(sys, purpose));
  return solver.solve();
}

// Uniform fuzz over the discrete keys with clock grids a little past
// the maximal constants (same sampling idea as the equivalence suite,
// trimmed to what the round-trip checks need).
std::vector<ConcreteState> fuzz_states(const game::GameSolution& solution,
                                       util::Rng& rng, std::size_t count) {
  const auto& g = solution.graph();
  dbm::bound_t max_const = 1;
  for (const dbm::bound_t c : g.max_constants()) {
    max_const = std::max(max_const, c);
  }
  const std::int64_t hi = (static_cast<std::int64_t>(max_const) + 2) * kScale;
  std::vector<ConcreteState> out;
  out.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    const auto k = static_cast<std::uint32_t>(
        rng.range(0, static_cast<std::int64_t>(g.key_count()) - 1));
    ConcreteState s;
    s.locs = g.key(k).locs;
    s.data = g.key(k).data;
    s.clocks.assign(g.system().clock_count(), 0);
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      s.clocks[c] = rng.range(0, hi);
    }
    out.push_back(std::move(s));
  }
  return out;
}

void expect_identical(const DecisionTable& a, const DecisionTable& b,
                      const std::vector<ConcreteState>& states) {
  for (const ConcreteState& s : states) {
    ASSERT_EQ(a.decide(s, kScale), b.decide(s, kScale));
  }
}

// Patches the header checksum after a structural mutation, so the
// validator is forced past the checksum gate and must reject on the
// section geometry / record contents themselves.
void fix_checksum(std::vector<std::uint8_t>& image) {
  if (image.size() < sizeof(TgsHeader)) return;
  const std::uint64_t sum = fnv1a(image.data() + sizeof(TgsHeader),
                                  image.size() - sizeof(TgsHeader));
  std::memcpy(image.data() + offsetof(TgsHeader, checksum), &sum, 8);
}

void expect_rejected(std::vector<std::uint8_t> image, const char* what) {
  try {
    (void)DecisionTable(std::move(image));
    FAIL() << "mutation not rejected: " << what;
  } catch (const SerializeError&) {
    // Expected — SerializeError or its VersionError subclass; never an
    // uncaught crash, never a half-validated table.
  }
}

std::vector<std::uint8_t> smart_light_image(const std::string& purpose) {
  const auto light = load_smart_light();
  return to_bytes(compile(*solve(light.system, purpose)));
}

// ── header fuzz ─────────────────────────────────────────────────────

TEST(TgsFormat, HeaderFieldMutationsAreRejected) {
  const auto bytes = smart_light_image("control: A[] !IUT.Bright");
  TgsHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  ASSERT_EQ(header.version, 3u);
  ASSERT_EQ(header.section_count, kSectionCount);

  const auto with = [&](auto&& mutate) {
    auto bad = bytes;
    TgsHeader h;
    std::memcpy(&h, bad.data(), sizeof h);
    mutate(h);
    std::memcpy(bad.data(), &h, sizeof h);
    fix_checksum(bad);
    return bad;
  };

  expect_rejected(with([](TgsHeader& h) { h.magic[0] = 'X'; }), "magic");
  expect_rejected(with([](TgsHeader& h) { h.version = 4; }), "future version");
  expect_rejected(with([](TgsHeader& h) { h.file_bytes += 8; }), "file_bytes");
  expect_rejected(with([](TgsHeader& h) { h.clock_dim = 0; }), "clock_dim 0");
  expect_rejected(with([](TgsHeader& h) { h.clock_dim = 1u << 20; }),
                  "clock_dim huge");
  expect_rejected(with([](TgsHeader& h) { h.purpose_kind = 2; }),
                  "purpose_kind");
  expect_rejected(with([](TgsHeader& h) { h.section_count = 13; }),
                  "section_count");
  expect_rejected(with([](TgsHeader& h) { h.key_count += 1; }), "key_count");
  // An unfixed checksum must be caught by the checksum itself.
  {
    auto bad = bytes;
    bad[bytes.size() / 2] ^= 0x10;
    expect_rejected(std::move(bad), "payload bit rot");
  }
}

// A v3 magic with a v1/v2 version number is the "needs re-solving"
// case and must say so, not claim corruption.
TEST(TgsFormat, OldVersionsLandInVersionError) {
  auto bytes = smart_light_image("control: A<> IUT.Bright");
  TgsHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  h.version = 2;
  std::memcpy(bytes.data(), &h, sizeof h);
  fix_checksum(bytes);
  try {
    (void)DecisionTable(std::move(bytes));
    FAIL() << "v2 version accepted";
  } catch (const VersionError& e) {
    EXPECT_NE(std::string(e.what()).find("re-solve"), std::string::npos)
        << e.what();
  }
}

// ── section table fuzz ──────────────────────────────────────────────

// Every section's offset and length, mutated every which way (shifted,
// unaligned, overlapping, past EOF, non-multiple of the record size),
// with the checksum recomputed so only the geometry check can reject.
TEST(TgsFormat, SectionTableFuzz) {
  for (const char* purpose :
       {"control: A<> IUT.Bright", "control: A[] !IUT.Bright"}) {
    const auto bytes = smart_light_image(purpose);
    for (std::uint32_t sec = 0; sec < kSectionCount; ++sec) {
      const std::size_t rec_at =
          sizeof(TgsHeader) + sec * sizeof(SectionRec);
      SectionRec rec;
      std::memcpy(&rec, bytes.data() + rec_at, sizeof rec);
      ASSERT_EQ(rec.id, sec + 1);

      const auto with = [&](auto&& mutate, const char* what) {
        auto bad = bytes;
        SectionRec r = rec;
        mutate(r);
        std::memcpy(bad.data() + rec_at, &r, sizeof r);
        fix_checksum(bad);
        expect_rejected(std::move(bad),
                        (std::string(what) + " of section " +
                         std::to_string(sec + 1))
                            .c_str());
      };

      with([](SectionRec& r) { r.id += 1; }, "id");
      with([](SectionRec& r) { r.record_size += 1; }, "record_size");
      with([](SectionRec& r) { r.offset += 1; }, "unaligned offset");
      with([](SectionRec& r) { r.offset += 8; }, "shifted offset");
      with([](SectionRec& r) { r.offset = 0; }, "offset into header");
      with([&](SectionRec& r) { r.offset = bytes.size(); }, "offset at EOF");
      with([](SectionRec& r) { r.offset = ~0ull - 7; }, "offset overflow");
      with([](SectionRec& r) { r.bytes += 1; }, "ragged length");
      with([&](SectionRec& r) { r.bytes += 8 * r.record_size; },
           "overlong length");
      with([&](SectionRec& r) { r.bytes = ~0ull & ~7ull; },
           "length overflow");
      if (rec.bytes >= rec.record_size) {
        with([](SectionRec& r) { r.bytes -= r.record_size; },
             "short length");
      }
    }
  }
}

TEST(TgsFormat, TruncationAtEveryBoundaryIsRejected) {
  const auto bytes = smart_light_image("control: A[] !IUT.Bright");
  std::vector<std::size_t> cuts = {0, 1, 4, sizeof(TgsHeader) - 1,
                                   sizeof(TgsHeader), kSectionTableEnd - 1,
                                   kSectionTableEnd, bytes.size() - 1};
  for (std::uint32_t sec = 0; sec < kSectionCount; ++sec) {
    SectionRec rec;
    std::memcpy(&rec, bytes.data() + sizeof(TgsHeader) + sec * sizeof rec,
                sizeof rec);
    if (rec.offset > 0) cuts.push_back(rec.offset - 1);
    cuts.push_back(rec.offset + rec.bytes / 2);
  }
  for (const std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    auto bad = bytes;
    bad.resize(cut);
    expect_rejected(std::move(bad),
                    ("truncation at " + std::to_string(cut)).c_str());
  }
  // Trailing garbage is a size mismatch, not silently ignored bytes.
  auto bad = bytes;
  bad.push_back(0);
  expect_rejected(std::move(bad), "trailing garbage");
}

// Record-level rot under a fixed checksum: flip bits across the whole
// payload on a stride and demand each lands in either SerializeError
// or a table that still decides (mutations of e.g. a rank value can be
// semantically invisible — what is banned is a crash or an
// out-of-bounds walk).
TEST(TgsFormat, PayloadBitRotNeverCrashes) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A[] !IUT.Bright");
  const auto bytes = to_bytes(compile(*solution));
  util::Rng rng(kSeed);
  const auto states = fuzz_states(*solution, rng, 32);
  int rejected = 0, survived = 0;
  for (std::size_t at = kSectionTableEnd; at < bytes.size(); at += 7) {
    auto bad = bytes;
    bad[at] ^= 1u << (at % 8);
    fix_checksum(bad);
    try {
      const DecisionTable table{std::move(bad)};
      for (const ConcreteState& s : states) (void)table.decide(s, kScale);
      ++survived;
    } catch (const SerializeError&) {
      ++rejected;
    }
  }
  // The validator must be doing real work: most single-bit record
  // mutations break an invariant (sorted arcs, slice bounds, zone
  // canonicality, bucket agreement...).
  EXPECT_GT(rejected, survived);
}

// A zone cell outside the encodable bound range must be rejected by
// name before any bound arithmetic runs on it (adding such cells
// overflows int32).
TEST(TgsFormat, OutOfRangeZoneCellIsRejected) {
  auto bytes = smart_light_image("control: A[] !IUT.Bright");
  SectionRec zones;
  std::memcpy(&zones,
              bytes.data() + sizeof(TgsHeader) +
                  (kSecZones - 1) * sizeof(SectionRec),
              sizeof zones);
  ASSERT_EQ(zones.id, kSecZones);
  ASSERT_GT(zones.bytes, 0u);
  // Zone 0, row 0, column 1: an off-diagonal cell.
  const dbm::raw_t huge = std::numeric_limits<std::int32_t>::max();
  std::memcpy(bytes.data() + zones.offset + sizeof(dbm::raw_t), &huge,
              sizeof huge);
  fix_checksum(bytes);
  try {
    (void)DecisionTable(std::move(bytes));
    FAIL() << "out-of-range zone cell accepted";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("encodable range"), std::string::npos)
        << e.what();
  }
}

// ── pre-v3 files ────────────────────────────────────────────────────

TEST(TgsFormat, V2FileMapRefuses) {
  // A bare v2 header: magic "TGSD", version 2, zeroed checksum/size.
  std::vector<std::uint8_t> stub(24, 0);
  std::memcpy(stub.data(), "TGSD", 4);
  const std::uint32_t version = 2;
  std::memcpy(stub.data() + 4, &version, 4);

  const std::string path = ::testing::TempDir() + "/tgs_format_v2.tgs";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stub.data(), 1, stub.size(), f), stub.size());
    std::fclose(f);
  }

  // The zero-copy serving path refuses with the re-solve diagnostic —
  // VersionError, exit-1 class, not "corrupt file".
  try {
    (void)DecisionTable::map(path);
    FAIL() << "map() accepted a v2 stream file";
  } catch (const VersionError& e) {
    EXPECT_NE(std::string(e.what()).find("re-solve"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TgsFormat, TruncatedLegacyStubStillSaysMigrate) {
  // A bare v1/v2 header with no payload — the version verdict must
  // win over every other diagnostic.
  std::vector<std::uint8_t> stub(24, 0);
  std::memcpy(stub.data(), "TGSD", 4);
  const std::uint32_t version = 2;
  std::memcpy(stub.data() + 4, &version, 4);
  try {
    (void)DecisionTable(std::move(stub));
    FAIL() << "legacy stub accepted";
  } catch (const VersionError&) {
  }
}

// ── the zero-copy mmap path ─────────────────────────────────────────

TEST(TgsFormat, MapIsZeroCopyAndZeroMigration) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A[] !IUT.Bright");
  const DecisionTable table = compile(*solution);
  const std::string path = ::testing::TempDir() + "/tgs_format_map.tgs";
  save(table, path);

  obs::enable_metrics();  // the tgs.* counters are metrics-gated
  const std::uint64_t opens_before =
      obs::metrics().counter("tgs.view.opens").value();

  const DecisionTable mapped = DecisionTable::map(path);
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_FALSE(table.is_mapped());
  // Cold start is one mmap + validation: exactly one view open.
  EXPECT_EQ(obs::metrics().counter("tgs.view.opens").value(),
            opens_before + 1);

  EXPECT_EQ(mapped.fingerprint(), table.fingerprint());
  EXPECT_EQ(mapped.system_name(), table.system_name());
  EXPECT_EQ(mapped.purpose_source(), table.purpose_source());
  util::Rng rng(kSeed);
  expect_identical(table, mapped, fuzz_states(*solution, rng, 2000));
  std::remove(path.c_str());
}

TEST(TgsFormat, MapMissingFileIsIoError) {
  EXPECT_THROW((void)DecisionTable::map(::testing::TempDir() +
                                        "/no_such_table.tgs"),
               SerializeError);
}

// Provenance strings survive the compiler, the image and the file.
TEST(TgsFormat, ProvenanceStringsAreCarried) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A<> IUT.Bright");
  const DecisionTable table = compile(*solution);
  EXPECT_EQ(table.system_name(), "smart_light");
  EXPECT_EQ(table.purpose_source(), "control: A<> IUT.Bright");
  const DecisionTable reloaded = from_bytes(to_bytes(table));
  EXPECT_EQ(reloaded.system_name(), "smart_light");
  EXPECT_EQ(reloaded.purpose_source(), "control: A<> IUT.Bright");
}

}  // namespace
}  // namespace tigat::decision
