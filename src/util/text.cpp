#include "util/text.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace tigat::util {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

template <typename Int>
void append_decimal(std::string& out, Int value) {
  char buf[24];  // fits every 64-bit value: 20 digits and a sign
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

void append_int(std::string& out, std::int64_t value) {
  append_decimal(out, value);
}

void append_uint(std::string& out, std::uint64_t value) {
  append_decimal(out, value);
}

}  // namespace tigat::util
