// A striped concurrent interner: find-or-insert of keys from many
// threads, with DETERMINISTIC global numbering.
//
// Keys are sharded by hash into S stripes.  Each stripe is a chained
// hash table whose bucket heads are atomics — lookups are lock-free
// (acquire-load the head, walk immutable chain links) and only
// insertion takes the stripe's mutex, so concurrent workers contend
// only when their keys land in the same stripe at the same time.
//
// Numbering protocol (the part the parallel zone-graph exploration
// leans on, see semantics/symbolic.cpp): work proceeds in WAVES.
// During a wave, workers intern keys carrying a caller-chosen RANK —
// the key's position in the serial processing order of the wave.  A
// racing duplicate intern keeps the MINIMUM rank (CAS loop), which is
// a deterministic function of the wave's content.  Between waves the
// (serial) caller invokes seal_wave(): the entries interned since the
// last seal are sorted by rank and numbered sequentially — exactly the
// first-encounter order a serial FIFO would have produced, whatever
// the thread count.  Ids are written and read only in serial phases
// (or after a fork-join barrier), so they stay plain fields.
//
// Each entry owns an Aux payload slot filled by the thread that won
// the insertion race (intern() returns inserted=true exactly once per
// key).  The slot is written after publication but only read after
// the wave's join barrier, which establishes the happens-before edge.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/assert.h"

namespace tigat::util {

template <class Key, class Aux>
class StripedInternMap {
 public:
  static constexpr std::uint32_t kUnassigned = 0xffffffffu;

  struct Entry {
    Entry(const Key& k, std::size_t h, Entry* n, std::uint64_t r)
        : key(k), hash(h), next(n), rank(r) {}

    Key key;                 // immutable after publication
    std::size_t hash;        // cached full hash of `key`
    Entry* next;             // bucket chain; immutable after publication
    std::atomic<std::uint64_t> rank;  // min discovery rank of the open wave
    std::uint32_t id = kUnassigned;   // global number; serial phases only
    Aux aux{};               // payload; written once by the inserting thread
  };

  explicit StripedInternMap(std::uint32_t stripes = kDefaultStripes)
      : stripe_count_(round_up_pow2(stripes)),
        stripe_mask_(stripe_count_ - 1),
        stripes_(std::make_unique<Stripe[]>(stripe_count_)) {
    for (std::uint32_t s = 0; s < stripe_count_; ++s) {
      stripes_[s].rebuild(kInitialBuckets);
    }
  }

  // Find-or-insert; safe for concurrent callers.  `hash` must be the
  // key's hash, `rank` the caller's deterministic discovery rank (see
  // the file comment).  Returns the entry and whether this call
  // inserted it (the inserting caller owns the one-time aux write).
  // The key is copied only when it is inserted: most interns of a wave
  // find a key some earlier successor already brought in.
  std::pair<Entry*, bool> intern(const Key& key, std::size_t hash,
                                 std::uint64_t rank) {
    Stripe& s = stripes_[stripe_of(hash)];
    const std::size_t b = hash & s.bucket_mask;
    // Lock-free fast path: the release-store publishing a head makes
    // the entry's fields (and every older chain member) visible.
    if (Entry* e = probe(s.buckets[b].load(std::memory_order_acquire), key,
                         hash)) {
      note_rank(*e, rank);
      return {e, false};
    }
    std::lock_guard<std::mutex> lock(s.mutex);
    // Re-probe under the lock: a racing inserter may have won.
    std::atomic<Entry*>& head = s.buckets[hash & s.bucket_mask];
    if (Entry* e = probe(head.load(std::memory_order_relaxed), key, hash)) {
      note_rank(*e, rank);
      return {e, false};
    }
    s.entries.emplace_back(key, hash, head.load(std::memory_order_relaxed),
                           rank);
    Entry* e = &s.entries.back();
    s.pending.push_back(e);
    head.store(e, std::memory_order_release);
    return {e, true};
  }

  // Lock-free lookup; nullptr when the key was never interned.
  [[nodiscard]] Entry* find(const Key& key, std::size_t hash) const {
    const Stripe& s = stripes_[stripe_of(hash)];
    const std::size_t b = hash & s.bucket_mask;
    return probe(s.buckets[b].load(std::memory_order_acquire), key, hash);
  }

  // Serial, between waves: numbers every entry interned since the last
  // seal in ascending rank order (= the serial first-encounter order;
  // ranks of distinct new keys are distinct because a key's min rank
  // is the rank of its first discovery, and each rank names exactly
  // one successor).  Also grows overloaded stripe tables — legal only
  // here, while no reader is concurrent.  Returns the new entries in
  // id order.
  std::span<Entry* const> seal_wave() {
    wave_.clear();
    for (std::uint32_t si = 0; si < stripe_count_; ++si) {
      Stripe& s = stripes_[si];
      wave_.insert(wave_.end(), s.pending.begin(), s.pending.end());
      s.pending.clear();
      if (s.entries.size() > 2 * (s.bucket_mask + 1)) {
        s.rebuild(4 * (s.bucket_mask + 1));
      }
    }
    std::sort(wave_.begin(), wave_.end(), [](const Entry* a, const Entry* b) {
      return a->rank.load(std::memory_order_relaxed) <
             b->rank.load(std::memory_order_relaxed);
    });
    for (Entry* e : wave_) {
      e->id = static_cast<std::uint32_t>(by_id_.size());
      by_id_.push_back(e);
    }
    return {by_id_.data() + by_id_.size() - wave_.size(), wave_.size()};
  }

  // Entries numbered so far (serial phases / after a join).
  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }
  [[nodiscard]] Entry* entry(std::uint32_t id) const { return by_id_[id]; }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = by_id_.capacity() * sizeof(Entry*);
    for (std::uint32_t s = 0; s < stripe_count_; ++s) {
      total += stripes_[s].entries.size() * sizeof(Entry) +
               (stripes_[s].bucket_mask + 1) * sizeof(std::atomic<Entry*>);
    }
    return total;
  }

  [[nodiscard]] std::uint32_t stripe_count() const noexcept {
    return stripe_count_;
  }

 private:
  static constexpr std::uint32_t kDefaultStripes = 64;
  static constexpr std::size_t kInitialBuckets = 1024;

  struct Stripe {
    std::mutex mutex;
    std::vector<std::atomic<Entry*>> buckets;
    std::size_t bucket_mask = 0;
    std::deque<Entry> entries;       // stable addresses
    std::vector<Entry*> pending;     // interned but not yet numbered

    // Serial only (constructor / seal_wave): no concurrent readers.
    void rebuild(std::size_t n_buckets) {
      std::vector<std::atomic<Entry*>> fresh(n_buckets);
      for (auto& b : fresh) b.store(nullptr, std::memory_order_relaxed);
      bucket_mask = n_buckets - 1;
      for (Entry& e : entries) {
        std::atomic<Entry*>& head = fresh[e.hash & bucket_mask];
        e.next = head.load(std::memory_order_relaxed);
        head.store(&e, std::memory_order_relaxed);
      }
      buckets = std::move(fresh);
    }
  };

  static std::uint32_t round_up_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  // Stripe selection remixes the hash and uses HIGH bits so stripe and
  // bucket indices (raw low bits) stay independent even for weak hashes.
  [[nodiscard]] std::uint32_t stripe_of(std::size_t hash) const noexcept {
    const std::uint64_t mixed =
        static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::uint32_t>(mixed >> 48) & stripe_mask_;
  }

  static Entry* probe(Entry* head, const Key& key, std::size_t hash) {
    for (Entry* e = head; e != nullptr; e = e->next) {
      if (e->hash == hash && e->key == key) return e;
    }
    return nullptr;
  }

  static void note_rank(Entry& e, std::uint64_t rank) {
    std::uint64_t cur = e.rank.load(std::memory_order_relaxed);
    while (rank < cur && !e.rank.compare_exchange_weak(
                             cur, rank, std::memory_order_relaxed)) {
    }
  }

  std::uint32_t stripe_count_;
  std::uint32_t stripe_mask_;
  std::unique_ptr<Stripe[]> stripes_;
  std::vector<Entry*> by_id_;   // id → entry (serial phases)
  std::vector<Entry*> wave_;    // seal_wave scratch
};

}  // namespace tigat::util
