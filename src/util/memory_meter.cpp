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

}  // namespace

void detail::PendingZoneBytes::publish() noexcept {
  zone_meter().apply(bytes);
  bytes = 0;
}

MemoryMeter& zone_memory() noexcept {
  detail::pending_zone_bytes.flush();
  return zone_meter();
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
