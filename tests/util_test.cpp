// Tests for the util module: text helpers, tables, rng, memory meter.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "dbm/dbm.h"
#include "util/flat_index.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"
#include "util/thread_pool.h"

namespace tigat::util {
namespace {

TEST(Text, JoinAndSplit) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " && "), "a && b && c");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Text, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.234), "1.23");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Text, AppendIntegersMatchPrintf) {
  constexpr std::int64_t kSigned[] = {
      0, 1, -1, 42, -1000000007, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : kSigned) {
    std::string out = "x=";
    append_int(out, v);
    EXPECT_EQ(out, format("x=%lld", static_cast<long long>(v)));
  }
  constexpr std::uint64_t kUnsigned[] = {
      0, 1, 10, std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : kUnsigned) {
    std::string out = "x=";
    append_uint(out, v);
    EXPECT_EQ(out, format("x=%llu", static_cast<unsigned long long>(v)));
  }
  std::string out;
  append_int(out, -1);
  append_uint(out, 0);
  EXPECT_EQ(out, "-10");
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string s = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(split(s, '\n').size(), 5u);  // + trailing empty
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, RangeIsInclusiveAndCovers) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) {
    const auto v = rng.range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, Uniform01InRange) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(MemoryMeter, TracksCurrentAndPeak) {
  MemoryMeter m;
  m.add(100);
  m.add(50);
  EXPECT_EQ(m.current(), 150u);
  EXPECT_EQ(m.peak(), 150u);
  m.sub(120);
  EXPECT_EQ(m.current(), 30u);
  EXPECT_EQ(m.peak(), 150u);
  m.add(10);
  EXPECT_EQ(m.peak(), 150u);  // peak unchanged below high-water
  m.reset_peak();
  EXPECT_EQ(m.peak(), 40u);
  m.reset();
  EXPECT_EQ(m.current(), 0u);
  EXPECT_EQ(m.peak(), 0u);
}

TEST(MemoryMeter, SubClampsAtZero) {
  MemoryMeter m;
  m.add(5);
  m.sub(50);
  EXPECT_EQ(m.current(), 0u);
}

// Zone bytes are batched per thread (see memory_meter.h).  Zones built
// on pool workers and destroyed on the caller must net out once every
// thread has published its delta, and the peak must have seen them.
TEST(MemoryMeter, ZoneBytesNetOutAcrossThreads) {
  constexpr std::uint32_t kDim = 8;
  constexpr std::size_t kChunks = 50;  // total bytes not a slack multiple
  constexpr std::size_t kPerChunk = 200;
  const std::size_t baseline = zone_memory().current();
  std::vector<std::vector<dbm::Dbm>> made(kChunks);
  std::size_t live = 0;
  {
    ThreadPool pool(4);
    pool.parallel_for(kChunks, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t c = begin; c < end; ++c) {
        for (std::size_t z = 0; z < kPerChunk; ++z) {
          made[c].push_back(dbm::Dbm::universal(kDim));
        }
      }
    });
  }  // workers exit and publish what they still hold
  for (const auto& chunk : made) {
    for (const dbm::Dbm& z : chunk) live += z.memory_bytes();
  }
  EXPECT_EQ(live, kChunks * kPerChunk * kDim * kDim * sizeof(dbm::raw_t));
  EXPECT_EQ(zone_memory().current(), baseline + live);
  EXPECT_GE(zone_memory().peak(), baseline + live);
  made.clear();  // destroyed on the caller, not where they were built
  EXPECT_EQ(zone_memory().current(), baseline);
}

TEST(MemoryMeter, MebibyteConversion) {
  EXPECT_DOUBLE_EQ(to_mebibytes(1 << 20), 1.0);
  EXPECT_DOUBLE_EQ(to_mebibytes(0), 0.0);
}

// A FlatIndex over records that live with the caller, as the zone pool
// and the compiler use it: `fresh` is the next record's position.
class IndexedRecords {
 public:
  std::pair<std::uint32_t, bool> intern(std::uint64_t record,
                                        std::uint64_t hash) {
    const auto [id, inserted] = index_.find_or_insert(
        hash, static_cast<std::uint32_t>(records_.size()),
        [&](std::uint32_t candidate) { return records_[candidate] == record; });
    if (inserted) records_.push_back(record);
    return {id, inserted};
  }
  [[nodiscard]] std::size_t slot_bytes() const { return index_.memory_bytes(); }

 private:
  FlatIndex index_;
  std::vector<std::uint64_t> records_;
};

// Every record hashes alike, so every probe walks one cluster of equal
// tags and only the caller's comparison tells records apart.
TEST(FlatIndex, CollidingRecordsGetFirstComeIdsAcrossGrowth) {
  constexpr std::uint32_t kRecords = 10'000;
  constexpr std::uint64_t kHash = 0x1234'5678'9abc'def0ull;
  const auto record = [](std::uint32_t i) {
    return std::uint64_t{i} * 0x9e37'79b9'7f4a'7c15ull + 1;
  };
  IndexedRecords index;
  int grows = 0;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    const std::size_t before = index.slot_bytes();
    const auto [id, inserted] = index.intern(record(i), kHash);
    ASSERT_TRUE(inserted) << "record " << i;
    ASSERT_EQ(id, i) << "ids are handed out first come, first served";
    const std::size_t grown = index.slot_bytes();
    if (grown == before) continue;
    ++grows;
    // Right after each grow(), every earlier record is found again
    // under its first id, and finding allocates nothing.
    for (std::uint32_t j = 0; j <= i; ++j) {
      const auto [again, fresh] = index.intern(record(j), kHash);
      ASSERT_FALSE(fresh) << "record " << j << " after grow " << grows;
      ASSERT_EQ(again, j) << "record " << j << " after grow " << grows;
    }
    ASSERT_EQ(index.slot_bytes(), grown);
  }
  EXPECT_GE(grows, 10);
  for (std::uint32_t j = kRecords; j-- > 0;) {
    const auto [again, fresh] = index.intern(record(j), kHash);
    ASSERT_FALSE(fresh);
    ASSERT_EQ(again, j);
  }
}

// The index keys on the low 32 bits of the hash: records whose hashes
// differ only above them share a tag and must still stay apart.
TEST(FlatIndex, EqualTagsFromDifferentHashesGetDistinctIds) {
  IndexedRecords index;
  constexpr std::uint64_t kTag = 0xdead'beefull;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto [id, inserted] = index.intern(i, std::uint64_t{i} << 32 | kTag);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, i);
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto [id, inserted] = index.intern(i, std::uint64_t{i} << 32 | kTag);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(id, i);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  // Just sanity: non-negative and monotone.
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.restart();
  EXPECT_GE(w.seconds(), 0.0);
}

}  // namespace
}  // namespace tigat::util
