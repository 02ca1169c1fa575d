// Byte accounting for the symbolic data structures.
//
// Table 1 of the paper reports the memory consumed by strategy
// generation.  Rather than sampling the process RSS (noisy, allocator
// dependent) the library keeps exact counters of the bytes held by
// zones, federations and symbolic-state tables.  Each counted structure
// calls `add`/`sub` from its constructor/destructor; `peak()` gives the
// high-water mark that the benchmark harness prints.
//
// The counters are relaxed atomics: the parallel solving pipeline
// (util::ThreadPool) constructs and destroys zones on every worker, so
// the meter must be race-free.  Relaxed ordering is enough — the
// counts are statistics, not synchronisation.  `current` is signed and
// clamped at zero only when read, so a `sub` that races a reset() (or
// lands on another thread before the matching `add` was published)
// costs one plain RMW.  `peak` is maintained with a CAS loop and is
// exact up to the usual concurrent-high-water caveat (two simultaneous
// `add`s may each observe the pre-update peak; the final value still
// bounds every individually observed `current`).
//
// Zones are far too numerous for one shared counter: every dbm::Dbm
// copy and destructor hitting the same cache line serialises the
// workers.  The zone layer therefore meters through `zone_memory_add`
// / `zone_memory_sub`, which batch into a per-thread signed delta and
// publish it to `zone_memory()` only once it reaches ±kZoneMeterSlack
// bytes, and when the thread exits.  Readers see every other thread's
// zone bytes up to that slack (at most workers × kZoneMeterSlack, a
// few tens of KiB against the megabytes the budget and the Table 1
// column measure); `zone_memory()` publishes the calling thread's own
// delta first, so a thread always sees its own allocations exactly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tigat::util {

class MemoryMeter {
 public:
  void add(std::size_t bytes) noexcept {
    apply(static_cast<std::int64_t>(bytes));
  }
  void sub(std::size_t bytes) noexcept {
    apply(-static_cast<std::int64_t>(bytes));
  }
  // Adds a signed byte delta; a positive one may raise the peak.
  void apply(std::int64_t delta) noexcept {
    const std::int64_t now =
        current_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta <= 0) return;
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::size_t current() const noexcept {
    return clamped(current_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t peak() const noexcept {
    return clamped(peak_.load(std::memory_order_relaxed));
  }

  // Forgets the history; used between benchmark cells.
  void reset() noexcept {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }
  // Keeps the live bytes but restarts the high-water mark from them.
  void reset_peak() noexcept {
    peak_.store(static_cast<std::int64_t>(current()),
                std::memory_order_relaxed);
  }

 private:
  static std::size_t clamped(std::int64_t bytes) noexcept {
    return bytes < 0 ? 0 : static_cast<std::size_t>(bytes);
  }

  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
};

// Process-wide meter used by the zone layer.  Publishes the calling
// thread's pending zone delta before returning it.
MemoryMeter& zone_memory() noexcept;

// Batched zone accounting (see the file comment): the per-thread delta
// is published to zone_memory() once it reaches ±kZoneMeterSlack bytes.
// Every Dbm copy and destructor calls these, so they are inline: only
// the rare publication leaves the caller.
inline constexpr std::int64_t kZoneMeterSlack = 16 * 1024;

namespace detail {

// A thread's zone bytes not yet published to zone_memory(); flushed by
// the thread's own calls and, last, by the destructor when the thread
// exits (a worker's remainder below the slack would otherwise be lost).
struct PendingZoneBytes {
  std::int64_t bytes = 0;

  void flush() noexcept {
    if (bytes != 0) publish();
  }
  void publish() noexcept;  // out of line: the slow path
  ~PendingZoneBytes() { flush(); }
};

inline thread_local PendingZoneBytes pending_zone_bytes;

}  // namespace detail

inline void zone_memory_add(std::size_t bytes) noexcept {
  detail::PendingZoneBytes& pending = detail::pending_zone_bytes;
  pending.bytes += static_cast<std::int64_t>(bytes);
  if (pending.bytes >= kZoneMeterSlack) [[unlikely]] pending.publish();
}

inline void zone_memory_sub(std::size_t bytes) noexcept {
  detail::PendingZoneBytes& pending = detail::pending_zone_bytes;
  pending.bytes -= static_cast<std::int64_t>(bytes);
  if (pending.bytes <= -kZoneMeterSlack) [[unlikely]] pending.publish();
}

// Process high-water RSS from the OS (0 where unsupported).  The
// counters above measure the zone layer exactly; this measures
// everything — keys, edges, allocator overhead — and is what the
// bench harness reports alongside them.
std::size_t peak_rss_bytes() noexcept;

double to_mebibytes(std::size_t bytes) noexcept;

}  // namespace tigat::util
