// Shared plumbing of the tigat benchmark: arguments, the result line,
// timing helpers, and the synthesis step every workload starts from.
//
// The benchmark drives the library only through its public headers and
// times calls into them from outside; per-layer figures come from that
// outside timing plus the stats structs the library already returns
// (SolverStats, CompileStats, Server totals, CampaignReport).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "decision/compiler.h"
#include "decision/table.h"
#include "game/solver.h"
#include "tsystem/property.h"
#include "tsystem/system.h"

namespace perfbench {

inline constexpr std::int64_t kScale = 16;  // ticks per model time unit
inline constexpr unsigned kSolverThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string model_dir;  // the shipped .tg models
  std::string data_dir;   // the benchmark's blessed reference values
  std::string work_dir;   // scratch for .tgs files and the socket
};

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// FNV-1a, for checking that outputs repeat byte for byte without
// keeping them.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t hash = kFnvBasis) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

[[nodiscard]] double median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);
// Process high-water resident set (VmHWM), MiB.
[[nodiscard]] double peak_rss_mib();
// Derives an independent 64-bit seed from the workload seed and a tag.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0);

// One run's verdict: operations attempted and failed, oracle
// violations, and the metrics of the final output line.  Per-layer
// metrics a workload does not set are reported as 0 — the workload
// bypasses that layer.
class Result {
 public:
  void attempted(std::size_t n = 1) { attempted_ += n; }
  // One operation failed its oracle.
  void failed(const std::string& why);
  // An oracle outside any single operation failed (determinism, blessed
  // counts): the run is not correct, whatever the counts say.
  void violation(const std::string& why);
  void set(const std::string& name, double value);
  void set_all(const std::map<std::string, double>& values);

  [[nodiscard]] double get(const std::string& name) const;

  // The final line: {"correct", "attempted", "failed", "metrics"} with
  // every end-to-end metric (trace off) or every per-layer metric
  // (trace on).
  [[nodiscard]] std::string to_json(bool trace) const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool violated_ = false;
  std::map<std::string, double> values_;
};

// One purpose's offline synthesis, as a user runs it: solve, compile,
// save the .tgs, map it back.  `mapped` is the table every later
// decide is served from.
struct Synthesis {
  std::shared_ptr<const tigat::game::GameSolution> solution;
  std::unique_ptr<tigat::decision::DecisionTable> mapped;
  tigat::decision::CompileStats compile;
  double solve_s = 0.0;
  double save_s = 0.0;
  double map_s = 0.0;

  [[nodiscard]] double total_s() const {
    return solve_s + compile.compile_seconds + save_s + map_s;
  }
};

[[nodiscard]] Synthesis synthesize(const tigat::tsystem::System& system,
                                   const tigat::tsystem::TestPurpose& purpose,
                                   const std::string& tgs_path);

// Concrete states drawn by `seed` from the solved game's keys, clocks
// uniform in [0, (max constant + 2) * kScale].
[[nodiscard]] std::vector<tigat::semantics::ConcreteState> sample_states(
    const tigat::game::GameSolution& solution, std::uint64_t seed,
    std::size_t count);

// Per-layer figures by metric name.
using Layers = std::map<std::string, double>;

// A purpose's solver figures, under the suffix `.p<slot>`.
void set_purpose_layers(Layers& layers, int slot,
                        const tigat::game::SolverStats& stats);
// A table's decision figures, summed over the workload's purposes.
void add_table_layers(Layers& layers, const Synthesis& synthesis);
// Per-name median over repeated measurements of the same figures.
[[nodiscard]] Layers median_layers(const std::vector<Layers>& samples);

// Moves sampled at concrete states: counts by kind.
struct MoveMix {
  std::size_t goal = 0, action = 0, delay = 0, unwinnable = 0;
  void add(const tigat::game::Move& move);
  void set_layers(Layers& layers) const;
};

int run_synth(const Args& args, Result& result);
int run_serve(const Args& args, Result& result);
int run_campaign(const Args& args, Result& result);

}  // namespace perfbench
