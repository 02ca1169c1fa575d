#include "decision/serialize.h"

#include <cstdio>

#include "util/text.h"

namespace tigat::decision {

std::vector<std::uint8_t> to_bytes(const DecisionTable& table) {
  const std::span<const std::uint8_t> bytes = table.bytes();
  return {bytes.begin(), bytes.end()};
}

DecisionTable from_bytes(std::vector<std::uint8_t> bytes) {
  return DecisionTable(std::move(bytes));
}

void save(const DecisionTable& table, const std::string& path) {
  const std::span<const std::uint8_t> bytes = table.bytes();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw SerializeError(util::format("cannot write '%s'", path.c_str()));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    throw SerializeError(util::format("short write to '%s'", path.c_str()));
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SerializeError(util::format("cannot read '%s'", path.c_str()));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw SerializeError(util::format("read error on '%s'", path.c_str()));
  }
  return bytes;
}

DecisionTable load(const std::string& path) {
  return from_bytes(read_file(path));
}

}  // namespace tigat::decision
