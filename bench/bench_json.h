// Machine-readable benchmark output, shared by every bench_*.cpp.
//
// Activation (all benches):
//   --json              write BENCH_<name>.json in the working dir
//   --json=DIR          write DIR/BENCH_<name>.json
//   --json=FILE.json    write exactly FILE.json
//   TIGAT_BENCH_JSON=…  same values via the environment (CI artifacts)
//
// Plain benches build a BenchReport (scalar fields + a "rows" array) and
// flush it in main; Google-Benchmark benches pass the resolved path to
// gbench's own JSON reporter via --benchmark_out (see gbench_main).
// Either way one run yields one BENCH_<name>.json for the perf
// trajectory to ingest.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/memory_meter.h"

namespace tigat::benchio {

// Resolved output path, or "" when JSON output was not requested.
inline std::string resolve_json_path(int argc, char** argv,
                                     const std::string& bench_name) {
  bool enabled = false;
  std::string base;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      enabled = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      enabled = true;
      base = arg.substr(7);
    }
  }
  if (!enabled) {
    if (const char* env = std::getenv("TIGAT_BENCH_JSON")) {
      enabled = *env != '\0';
      base = env;
      if (base == "1") base.clear();  // TIGAT_BENCH_JSON=1 → working dir
    }
  }
  if (!enabled) return {};
  const std::string file = "BENCH_" + bench_name + ".json";
  if (base.empty()) return file;
  if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0) {
    return base;
  }
  return base + "/" + file;
}

// Strips --json flags so they can coexist with other argument parsers
// (Google Benchmark rejects flags it does not know).
inline void strip_json_args(int& argc, char** argv) {
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) continue;
    argv[w++] = argv[i];
  }
  argc = w;
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

class JsonObject {
 public:
  void set(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    raw(key, buf);
  }
  void set(std::string_view key, long long value) {
    raw(key, std::to_string(value));
  }
  void set(std::string_view key, std::size_t value) {
    raw(key, std::to_string(value));
  }
  void set(std::string_view key, int value) {
    raw(key, std::to_string(value));
  }
  void set(std::string_view key, bool value) {
    raw(key, value ? "true" : "false");
  }
  void set(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    quoted += json_escape(value);
    quoted += "\"";
    raw(key, std::move(quoted));
  }
  void set(std::string_view key, const char* value) {
    set(key, std::string_view(value));
  }
  void raw(std::string_view key, std::string rendered) {
    fields_.emplace_back(std::string(key), std::move(rendered));
  }
  [[nodiscard]] bool has(std::string_view key) const {
    for (const auto& [k, v] : fields_) {
      if (k == key) return true;
    }
    return false;
  }

  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      out += json_escape(fields_[i].first);
      out += "\": ";
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// The build system names the build type (CMakeLists.txt); a bench
// compiled outside it reports "unknown".
#ifndef TIGAT_BUILD_TYPE
#define TIGAT_BUILD_TYPE "unknown"
#endif

// The host and build a report was measured on, as a JSON object:
// figures from different machines or build types do not compare.
inline std::string host_json() {
  JsonObject host;
  host.set("cpus", static_cast<int>(std::thread::hardware_concurrency()));
  host.set("compiler", __VERSION__);
  host.set("build_type", TIGAT_BUILD_TYPE);
  return host.render();
}

class BenchReport {
 public:
  BenchReport(std::string bench_name, int argc, char** argv)
      : name_(std::move(bench_name)),
        path_(resolve_json_path(argc, argv, name_)) {
    root_.set("bench", name_);
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }
  JsonObject& root() { return root_; }
  JsonObject& add_row() { return rows_.emplace_back(); }

  // Writes the report; returns false (with a note on stderr) on I/O
  // failure.  No-op when JSON output was not requested.
  bool flush() {
    if (!enabled()) return true;
    // Every bench reports its peak RSS (bench_gate carries it into the
    // job summary); a bench that sampled it at a more meaningful
    // moment keeps its own value.
    if (!root_.has("peak_rss_mb")) {
      root_.set("peak_rss_mb", util::to_mebibytes(util::peak_rss_bytes()));
    }
    if (!root_.has("host")) root_.raw("host", host_json());
    std::string out = root_.render();
    out.pop_back();  // reopen the root object to append "rows"
    if (out.size() > 1) out += ", ";
    out += "\"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != 0) out += ", ";
      out += rows_[i].render();
    }
    out += "]}\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench_json: wrote %s\n", path_.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string path_;
  JsonObject root_;
  std::vector<JsonObject> rows_;
};

// The median of repeated measurements and their spread: the distance
// between the quartiles over the median.  Benches that time a loop
// several times report the median, so one noisy slice cannot skew it.
struct Summary {
  double median = 0.0;
  double spread = 0.0;
};

inline Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
  };
  Summary s;
  s.median = quantile(0.5);
  if (s.median > 0) s.spread = (quantile(0.75) - quantile(0.25)) / s.median;
  return s;
}

// Shared main for Google-Benchmark benches (visible only after
// <benchmark/benchmark.h> was included): resolves --json /
// TIGAT_BENCH_JSON into gbench's own JSON reporter and keeps
// BENCHMARK_MAIN's unrecognized-argument check.
#ifdef BENCHMARK
inline int gbench_main(int argc, char** argv, const char* bench_name) {
  const std::string json = resolve_json_path(argc, argv, bench_name);
  strip_json_args(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!json.empty()) {
    out_flag = "--benchmark_out=" + json;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json.empty()) {
    // gbench owns the JSON file format; splice peak_rss_mb and host
    // into the root object after the fact so gbench benches report
    // them like the BenchReport ones do.
    if (std::FILE* f = std::fopen(json.c_str(), "r+")) {
      std::string doc;
      char buf[1 << 12];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
      const std::size_t brace = doc.find('{');
      if (brace != std::string::npos) {
        char rss[64];
        std::snprintf(rss, sizeof rss, "%.6f",
                      tigat::util::to_mebibytes(tigat::util::peak_rss_bytes()));
        doc.insert(brace + 1, std::string("\"peak_rss_mb\": ") + rss +
                                  ", \"host\": " + host_json() + ",");
        std::rewind(f);
        std::fwrite(doc.data(), 1, doc.size(), f);
      }
      std::fclose(f);
    }
  }
  return 0;
}
#endif  // BENCHMARK

}  // namespace tigat::benchio
