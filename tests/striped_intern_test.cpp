// util::StripedInternMap — the striped concurrent interner behind the
// parallel zone-graph exploration (semantics/symbolic.cpp).
//
// The property that matters: whatever the thread count and however the
// insertion races resolve, seal_wave() must number keys in the exact
// order a serial FIFO would have first encountered them.  The tests
// hammer the map from many threads with deliberately colliding keys
// and compare the numbering against a serial reference interner,
// including across multiple waves, duplicate-heavy streams and
// single-stripe (maximum contention, forced rehash) configurations.
// The CI ThreadSanitizer job and the nightly big-n workflow run this
// file at 16 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/striped_intern.h"
#include "util/thread_pool.h"

namespace tigat::util {
namespace {

// A key whose hash collides on purpose (only kHashBuckets distinct
// hashes) so chains grow long and distinct keys fight over buckets.
struct CollidingKey {
  std::uint64_t v = 0;
  bool operator==(const CollidingKey&) const = default;
  [[nodiscard]] std::size_t hash() const noexcept { return v % 97; }
};

using Map = StripedInternMap<CollidingKey, int>;

// The serial-FIFO numbering the striped map must reproduce: scan the
// stream in order, number each key at first encounter.
std::unordered_map<std::uint64_t, std::uint32_t> serial_numbering(
    const std::vector<std::vector<std::uint64_t>>& waves) {
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  for (const auto& wave : waves) {
    for (const std::uint64_t v : wave) {
      ids.emplace(v, static_cast<std::uint32_t>(ids.size()));
    }
  }
  return ids;
}

std::vector<std::vector<std::uint64_t>> random_waves(std::uint64_t seed,
                                                     std::size_t n_waves,
                                                     std::size_t wave_len,
                                                     std::uint64_t key_span) {
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> waves(n_waves);
  for (auto& wave : waves) {
    wave.reserve(wave_len);
    for (std::size_t i = 0; i < wave_len; ++i) {
      // Heavy duplication: key_span ≪ total stream length.
      wave.push_back(static_cast<std::uint64_t>(rng.range(
          0, static_cast<std::int64_t>(key_span) - 1)));
    }
  }
  return waves;
}

// Drives the map through the waves with `threads` workers and checks
// the numbering (and the exactly-once insertion contract) against the
// serial reference.
void run_and_check(Map& map, const std::vector<std::vector<std::uint64_t>>& waves,
                   unsigned threads) {
  ThreadPool pool(threads);
  const auto expected = serial_numbering(waves);
  std::atomic<std::size_t> insertions{0};
  for (const auto& wave : waves) {
    pool.parallel_for(wave.size(), 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        CollidingKey key{wave[i]};
        const std::size_t h = key.hash();
        auto [entry, inserted] = map.intern(std::move(key), h, i);
        ASSERT_NE(entry, nullptr);
        if (inserted) {
          entry->aux = static_cast<int>(entry->key.v);  // one-time payload
          insertions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    map.seal_wave();
  }
  ASSERT_EQ(map.size(), expected.size());
  ASSERT_EQ(insertions.load(), expected.size());
  for (const auto& [v, id] : expected) {
    const CollidingKey key{v};
    const auto* e = map.find(key, key.hash());
    ASSERT_NE(e, nullptr) << "key " << v;
    EXPECT_EQ(e->id, id) << "key " << v;
    EXPECT_EQ(e->aux, static_cast<int>(v)) << "aux payload of key " << v;
    EXPECT_EQ(map.entry(id), e) << "id → entry lookup of key " << v;
  }
}

TEST(StripedIntern, SerialMatchesReference) {
  Map map;
  run_and_check(map, random_waves(/*seed=*/1, 6, 4000, 900), 1);
}

TEST(StripedIntern, NumberingIdenticalAcrossThreadCounts) {
  const auto waves = random_waves(/*seed=*/2, 5, 6000, 1500);
  for (const unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Map map;
    run_and_check(map, waves, threads);
  }
}

TEST(StripedIntern, SingleStripeMaxContentionAndRehash) {
  // One stripe: every insert fights for the same mutex, chains exceed
  // the 2× load factor and force the between-wave rehash path.
  const auto waves = random_waves(/*seed=*/3, 4, 8000, 5000);
  for (const unsigned threads : {4u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Map map(/*stripes=*/1);
    run_and_check(map, waves, threads);
  }
}

TEST(StripedIntern, RacingDuplicatesKeepMinimumRank) {
  // Every worker interns the SAME key at a different rank; the sealed
  // order must follow the minimum, i.e. the serial first encounter.
  Map map;
  ThreadPool pool(8);
  // Two fresh keys per wave, each hammered from every index; key A
  // always first.
  for (std::uint64_t wave = 0; wave < 50; ++wave) {
    const std::uint64_t a = 2 * wave, b = 2 * wave + 1;
    pool.parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        // Interleave: even indices touch B first at a HIGH rank, then
        // A at a low rank — min-rank must still order A before B.
        CollidingKey kb{b};
        map.intern(std::move(kb), CollidingKey{b}.hash(), 2 * i + 1);
        CollidingKey ka{a};
        map.intern(std::move(ka), CollidingKey{a}.hash(), 2 * i);
      }
    });
    map.seal_wave();
    const auto* ea = map.find(CollidingKey{a}, CollidingKey{a}.hash());
    const auto* eb = map.find(CollidingKey{b}, CollidingKey{b}.hash());
    ASSERT_NE(ea, nullptr);
    ASSERT_NE(eb, nullptr);
    EXPECT_EQ(ea->id, 2 * wave);
    EXPECT_EQ(eb->id, 2 * wave + 1);
  }
}

// A colliding key that counts its copies, so a test sees every time
// the map copies one.
struct CountedKey {
  static inline std::atomic<std::size_t> copies{0};

  std::uint64_t v = 0;

  explicit CountedKey(std::uint64_t value) : v(value) {}
  CountedKey(const CountedKey& other) : v(other.v) {
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  CountedKey& operator=(const CountedKey& other) {
    v = other.v;
    copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  bool operator==(const CountedKey& other) const { return v == other.v; }
  [[nodiscard]] std::size_t hash() const noexcept { return v % 97; }
};

TEST(StripedIntern, ConstReferenceInternCopiesOnlyOnInsert) {
  // Every key is interned kHits times from 8 threads, by const
  // reference, each time at a distinct rank.  Ranks fall as the index
  // rises, so a key's minimum arrives after its first insertion and
  // must win the CAS race; the minimum of key v is kKeys − 1 − v, so
  // sealing numbers the keys in reverse.
  constexpr std::uint64_t kKeys = 40;
  constexpr std::size_t kHits = 64;
  std::vector<CountedKey> keys;
  keys.reserve(kKeys);
  for (std::uint64_t v = 0; v < kKeys; ++v) keys.emplace_back(v);
  StripedInternMap<CountedKey, int> map;
  ThreadPool pool(8);
  CountedKey::copies.store(0);
  std::atomic<std::size_t> insertions{0};
  constexpr std::size_t kItems = kKeys * kHits;
  pool.parallel_for(kItems, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const CountedKey& key = keys[i % kKeys];
      const auto [entry, inserted] = map.intern(key, key.hash(), kItems - 1 - i);
      ASSERT_NE(entry, nullptr);
      if (inserted) insertions.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(insertions.load(), kKeys);
  EXPECT_EQ(CountedKey::copies.load(), kKeys) << "one copy per inserted key";
  map.seal_wave();
  EXPECT_EQ(CountedKey::copies.load(), kKeys) << "sealing copies no key";
  for (const CountedKey& key : keys) {
    const auto* e = map.find(key, key.hash());
    ASSERT_NE(e, nullptr) << "key " << key.v;
    EXPECT_EQ(e->rank.load(), kKeys - 1 - key.v) << "key " << key.v;
    EXPECT_EQ(e->id, kKeys - 1 - key.v) << "key " << key.v;
  }
}

TEST(StripedIntern, FindMissesAndUnsealedEntries) {
  Map map;
  EXPECT_EQ(map.find(CollidingKey{7}, CollidingKey{7}.hash()), nullptr);
  CollidingKey k{7};
  auto [entry, inserted] = map.intern(std::move(k), CollidingKey{7}.hash(), 0);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(entry->id, Map::kUnassigned);  // not yet sealed
  map.seal_wave();
  EXPECT_EQ(entry->id, 0u);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace tigat::util
