// util::FlatIndex: the open-addressing (hash, id) index with linear
// probing behind the serial hash-consed stores, dbm::ZonePool's row
// dictionary and the strategy compiler's pools.  It stores no keys: a
// probe asks the caller whether the record with a candidate id is the
// one looked up, and ids are the caller's.  Serial only; the concurrent
// exploration interns in util::StripedInternMap (see there why).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace tigat::util {

// FNV-1a over 32-bit words, seeded with the word count.  The high half
// is folded into the low one because FlatIndex keys on the low 32 bits.
inline std::uint64_t hash_words(std::span<const std::uint32_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ words.size();
  for (const std::uint32_t w : words) h = (h ^ w) * 0x100000001b3ull;
  return h ^ (h >> 32);
}

class FlatIndex {
 public:
  // Returns the id of the record with this hash for which `same(id)`
  // holds and false, or records `fresh` under the hash and returns it
  // and true.  `fresh` must not be 0xffffffff (the empty-slot mark).
  template <typename Same>
  std::pair<std::uint32_t, bool> find_or_insert(std::uint64_t hash,
                                                std::uint32_t fresh,
                                                const Same& same) {
    const auto tag = static_cast<std::uint32_t>(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(tag);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kEmpty) {
        slot = {tag, fresh};
        // Only an insert past half load grows the table, so a lookup
        // that finds allocates nothing and every probe meets an empty slot.
        if (2 * ++count_ > slots_.size()) grow();
        return {fresh, true};
      }
      if (slot.tag == tag && same(slot.id)) return {slot.id, false};
    }
  }

  // The slot table's bytes (the records live with the caller).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffff'ffffu;

  struct Slot {
    std::uint32_t tag = 0;  // low bits of the record's hash
    std::uint32_t id = kEmpty;
  };

  // Fibonacci hashing of the tag onto the table's 2^bits_ slots.
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return (tag * 0x9e3779b9u) >> (32 - bits_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    ++bits_;
    TIGAT_ASSERT(bits_ <= 32, "interning index overflow");
    slots_.assign(std::size_t{1} << bits_, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kEmpty) continue;
      std::size_t i = home(slot.tag);
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);
  std::uint32_t bits_ = 4;  // log2 of slots_.size()
  std::size_t count_ = 0;
};

}  // namespace tigat::util
