#include "util/memory_meter.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace tigat::util {

namespace {

MemoryMeter& zone_meter() noexcept {
  static MemoryMeter meter;
  return meter;
}

// A thread's zone bytes not yet published to zone_meter(); flushed by
// the thread's own calls and, last, when the thread exits.
struct PendingZoneBytes {
  std::int64_t bytes = 0;

  void flush() noexcept {
    if (bytes == 0) return;
    zone_meter().apply(bytes);
    bytes = 0;
  }
  ~PendingZoneBytes() { flush(); }
};

thread_local PendingZoneBytes pending_zone_bytes;

}  // namespace

MemoryMeter& zone_memory() noexcept {
  pending_zone_bytes.flush();
  return zone_meter();
}

void zone_memory_add(std::size_t bytes) noexcept {
  PendingZoneBytes& pending = pending_zone_bytes;
  pending.bytes += static_cast<std::int64_t>(bytes);
  if (pending.bytes >= kZoneMeterSlack) pending.flush();
}

void zone_memory_sub(std::size_t bytes) noexcept {
  PendingZoneBytes& pending = pending_zone_bytes;
  pending.bytes -= static_cast<std::int64_t>(bytes);
  if (pending.bytes <= -kZoneMeterSlack) pending.flush();
}

std::size_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

double to_mebibytes(std::size_t bytes) noexcept {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace tigat::util
