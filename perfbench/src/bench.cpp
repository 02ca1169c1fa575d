#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "decision/serialize.h"
#include "util/rng.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json: run.py refuses a run whose names or units
// drift from it.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},      {"alt_ops_per_s", "1/s"},
    {"op_p50_us", "us"},       {"op_p99_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"lang.load_s", "s"},
    {"semantics.expand_s.p1", "s"},
    {"semantics.expand_s.p2", "s"},
    {"semantics.expand_s.p3", "s"},
    {"semantics.merge_s.p1", "s"},
    {"semantics.merge_s.p2", "s"},
    {"semantics.merge_s.p3", "s"},
    {"semantics.keys.p1", "count"},
    {"semantics.keys.p2", "count"},
    {"semantics.keys.p3", "count"},
    {"semantics.zones.p1", "count"},
    {"semantics.zones.p2", "count"},
    {"semantics.zones.p3", "count"},
    {"semantics.edges.p1", "count"},
    {"semantics.edges.p2", "count"},
    {"semantics.edges.p3", "count"},
    {"game.solve_s.p1", "s"},
    {"game.solve_s.p2", "s"},
    {"game.solve_s.p3", "s"},
    {"game.fixpoint_s.p1", "s"},
    {"game.fixpoint_s.p2", "s"},
    {"game.fixpoint_s.p3", "s"},
    {"game.rounds.p1", "count"},
    {"game.rounds.p2", "count"},
    {"game.rounds.p3", "count"},
    {"game.winning_zones.p1", "count"},
    {"game.winning_zones.p2", "count"},
    {"game.winning_zones.p3", "count"},
    {"game.peak_zone_mb.p1", "MiB"},
    {"game.peak_zone_mb.p2", "MiB"},
    {"game.peak_zone_mb.p3", "MiB"},
    {"decision.compile_s", "s"},
    {"decision.cascade_entries", "count"},
    {"decision.nodes_built", "count"},
    {"decision.save_s", "s"},
    {"decision.map_s", "s"},
    {"decision.tgs_bytes", "B"},
    {"decision.table_nodes", "count"},
    {"decision.table_arcs", "count"},
    {"decision.table_leaves", "count"},
    {"decision.decide_ns", "ns"},
    {"decision.mix.goal", "count"},
    {"decision.mix.action", "count"},
    {"decision.mix.delay", "count"},
    {"serve.codec_ns", "ns"},
    {"serve.client_send_ns", "ns"},
    {"serve.client_flush_ns", "ns"},
    {"serve.client_read_ns", "ns"},
    {"serve.transport_us", "us"},
    {"serve.requests", "count"},
    {"serve.errors", "count"},
    {"serve.connections", "count"},
    {"testing.imp_ns", "ns"},
    {"testing.executor_self_ns", "ns"},
    {"testing.steps_per_run", "steps"},
    {"testing.attempts", "count"},
    {"testing.retries", "count"},
    {"testing.verdict.pass", "count"},
    {"testing.verdict.fail", "count"},
    {"testing.verdict.inconclusive", "count"},
    {"testing.mutants_killed", "count"},
    {"obs.recorder_s", "s"},
    {"obs.ledger_events", "events"},
    {"obs.explain_us", "us"},
    {"trace.untraced_op_us", "us"},
    {"trace.overhead_pct", "%"},
    {"share.base_op_us", "us"},
    {"share.lang", "fraction"},
    {"share.semantics", "fraction"},
    {"share.game", "fraction"},
    {"share.decision", "fraction"},
    {"share.serve", "fraction"},
    {"share.testing", "fraction"},
    {"share.obs", "fraction"},
};

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  tigat::util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (a + 1)) ^
                       (0xc2b2ae3d27d4eb4fULL * (b + 1)));
  return rng.next();
}

void Result::failed(const std::string& why) {
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Result::violation(const std::string& why) {
  violated_ = true;
  std::fprintf(stderr, "perfbench: VIOLATION: %s\n", why.c_str());
}

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

void Result::set_all(const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) values_[name] = value;
}

double Result::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Result::to_json(bool trace) const {
  std::string out = "{\"correct\": ";
  out += (!violated_ && failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(m.name) + "\": {\"value\": " +
           format_number(get(m.name)) + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  out += "}}";
  return out;
}

Synthesis synthesize(const tigat::tsystem::System& system,
                     const tigat::tsystem::TestPurpose& purpose,
                     const std::string& tgs_path) {
  namespace decision = tigat::decision;
  Synthesis out;
  tigat::game::SolverOptions options;
  options.threads = kSolverThreads;
  auto t0 = SteadyClock::now();
  tigat::game::GameSolver solver(system, purpose, options);
  out.solution = solver.solve();
  out.solve_s = seconds_since(t0);
  {
    const decision::DecisionTable compiled =
        decision::compile(*out.solution, &out.compile);
    t0 = SteadyClock::now();
    decision::save(compiled, tgs_path);
    out.save_s = seconds_since(t0);
  }
  t0 = SteadyClock::now();
  out.mapped = std::make_unique<decision::DecisionTable>(
      decision::DecisionTable::map(tgs_path));
  out.map_s = seconds_since(t0);
  return out;
}

std::vector<tigat::semantics::ConcreteState> sample_states(
    const tigat::game::GameSolution& solution, std::uint64_t seed,
    std::size_t count) {
  const auto& g = solution.graph();
  tigat::dbm::bound_t max_const = 1;
  for (const tigat::dbm::bound_t c : g.max_constants()) {
    max_const = std::max(max_const, c);
  }
  const std::int64_t hi = (static_cast<std::int64_t>(max_const) + 2) * kScale;
  tigat::util::Rng rng(seed);
  std::vector<tigat::semantics::ConcreteState> out(count);
  for (auto& s : out) {
    const auto k = static_cast<std::uint32_t>(
        rng.range(0, static_cast<std::int64_t>(g.key_count()) - 1));
    s.locs = g.key(k).locs;
    s.data = g.key(k).data;
    s.clocks.assign(g.system().clock_count(), 0);
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      s.clocks[c] = rng.range(0, hi);
    }
  }
  return out;
}

void set_purpose_layers(Layers& layers, int slot,
                        const tigat::game::SolverStats& st) {
  const std::string p = ".p" + std::to_string(slot);
  layers["semantics.expand_s" + p] = st.explore_expand_seconds;
  layers["semantics.merge_s" + p] = st.explore_merge_seconds;
  layers["semantics.keys" + p] = static_cast<double>(st.keys);
  layers["semantics.zones" + p] = static_cast<double>(st.reach_zones);
  layers["semantics.edges" + p] = static_cast<double>(st.edges);
  layers["game.solve_s" + p] = st.solve_seconds;
  layers["game.fixpoint_s" + p] = st.solve_seconds -
                                  st.explore_expand_seconds -
                                  st.explore_merge_seconds;
  layers["game.rounds" + p] = static_cast<double>(st.rounds);
  layers["game.winning_zones" + p] = static_cast<double>(st.winning_zones);
  layers["game.peak_zone_mb" + p] =
      static_cast<double>(st.peak_zone_bytes) / (1024.0 * 1024.0);
}

void add_table_layers(Layers& sums, const Synthesis& s) {
  const auto& t = *s.mapped;
  sums["decision.compile_s"] += s.compile.compile_seconds;
  sums["decision.cascade_entries"] +=
      static_cast<double>(s.compile.cascade_entries);
  sums["decision.nodes_built"] += static_cast<double>(s.compile.nodes_built);
  sums["decision.save_s"] += s.save_s;
  sums["decision.map_s"] += s.map_s;
  sums["decision.tgs_bytes"] += static_cast<double>(t.memory_bytes());
  sums["decision.table_nodes"] += static_cast<double>(t.node_count());
  sums["decision.table_arcs"] += static_cast<double>(t.arc_count());
  sums["decision.table_leaves"] += static_cast<double>(t.leaf_count());
}

void MoveMix::add(const tigat::game::Move& move) {
  using tigat::game::MoveKind;
  switch (move.kind) {
    case MoveKind::kGoalReached: ++goal; break;
    case MoveKind::kAction: ++action; break;
    case MoveKind::kDelay: ++delay; break;
    case MoveKind::kUnwinnable: ++unwinnable; break;
  }
}

void MoveMix::set_layers(Layers& layers) const {
  layers["decision.mix.goal"] = static_cast<double>(goal);
  layers["decision.mix.action"] = static_cast<double>(action);
  layers["decision.mix.delay"] = static_cast<double>(delay);
}

Layers median_layers(const std::vector<Layers>& samples) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Layers& sample : samples) {
    for (const auto& [name, value] : sample) by_name[name].push_back(value);
  }
  Layers out;
  for (auto& [name, values] : by_name) out[name] = median(std::move(values));
  return out;
}

}  // namespace perfbench
