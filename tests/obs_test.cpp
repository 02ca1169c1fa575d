// The observability layer's own contract (src/obs/):
//
//   * the exported trace is well-formed Chrome trace-event JSON whose
//     B/E events balance per thread row, even under an 8-thread solve
//     with worker threads that die before the export;
//   * a traced parallel decision::compile records its compile /
//     compile.keys / compile.pack spans and the same table bytes;
//   * worker threads appear under their OS names ("tigat-w<i>") in the
//     thread_name metadata;
//   * the metric counters the solver publishes equal SolverStats
//     EXACTLY — same integers, not approximations — at 1 and 8
//     threads;
//   * memory attribution: decision::compile leaves the metered zone
//     bytes as it found them (the solution caches nothing), and
//     run_model --stats-json reports the process peak RSS;
//   * histogram bucket boundaries follow `v <= bound` semantics at the
//     exact edges;
//   * a test run — reach or cooperative alike — emits one balanced
//     "executor.step" span per executor step and one "executor.step_ns"
//     sample per span.
//
// (Solver bit-identity with tracing on/off lives in
// solver_determinism_test.cpp, next to the other determinism
// dimensions.)
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbm/dbm.h"
#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/simulated_imp.h"
#include "util/memory_meter.h"
#include "util/thread_pool.h"

namespace tigat::obs {
namespace {

using test_support::load_lep;
using test_support::load_smart_light;

// ---- a minimal JSON reader, enough to validate and walk the trace ----

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (++pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 >= s_.size()) return false;
            pos_ += 4;  // surrogate pairs not needed for these artifacts
            out += '?';
            break;
          }
          default: return false;
        }
        ++pos_;
      } else {
        out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out.kind = JsonValue::Kind::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      for (;;) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        skip_ws();
        JsonValue child;
        if (!value(child)) return false;
        out.object.emplace(std::move(key), std::move(child));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') return ++pos_, true;
        return false;
      }
    }
    if (c == '[') {
      out.kind = JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      for (;;) {
        skip_ws();
        JsonValue child;
        if (!value(child)) return false;
        out.array.push_back(std::move(child));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') return ++pos_, true;
        return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' ||
            (s_[pos_] >= '0' && s_[pos_] <= '9'))) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::shared_ptr<const game::GameSolution> solve_lep(unsigned threads) {
  // The solution's graph refers to the system: keep it alive.
  static const lang::LoadedModel lep = load_lep(3);
  game::SolverOptions options;
  options.threads = threads;
  game::GameSolver solver(lep.system, lep.purposes[0], options);
  return solver.solve();
}

TEST(ObsTrace, ChromeTraceBalancedUnderEightThreadSolve) {
  Tracer::instance().enable();
  const auto solution = solve_lep(8);
  Tracer::instance().disable();
  ASSERT_TRUE(solution->winning_from_initial());
  EXPECT_GT(Tracer::instance().recorded_spans(), 0u);
  EXPECT_EQ(Tracer::instance().dropped_spans(), 0u);

  const std::string json = Tracer::instance().chrome_trace_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << "trace is not valid JSON";
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  // Replay every duration event against a per-tid stack: B pushes,
  // E must pop its own name, all stacks must drain.
  std::map<double, std::vector<std::string>> stacks;
  bool saw_named_worker = false;
  std::size_t duration_events = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.get("ph");
    const JsonValue* name = e.get("name");
    const JsonValue* tid = e.get("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(name, nullptr);
    ASSERT_NE(tid, nullptr);
    if (ph->string == "M") {
      if (name->string == "thread_name") {
        const JsonValue* args = e.get("args");
        ASSERT_NE(args, nullptr);
        const JsonValue* tname = args->get("name");
        ASSERT_NE(tname, nullptr);
        if (tname->string.rfind("tigat-w", 0) == 0) saw_named_worker = true;
      }
      continue;
    }
    ++duration_events;
    auto& stack = stacks[tid->number];
    if (ph->string == "B") {
      stack.push_back(name->string);
    } else {
      ASSERT_EQ(ph->string, "E");
      ASSERT_FALSE(stack.empty()) << "E without a B on tid " << tid->number;
      EXPECT_EQ(stack.back(), name->string);
      stack.pop_back();
    }
  }
  EXPECT_GT(duration_events, 0u);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
  // An 8-thread solve must have recorded at least one named worker row.
  EXPECT_TRUE(saw_named_worker);
}

// decision::compile attributes its time to the decision layer: one
// "compile" span, "compile.keys" spans on the workers that lowered key
// ranges and one "compile.pack" span per packed fragment, balanced on
// every thread.  Tracing changes no byte of the table.
TEST(ObsTrace, CompileSpansAttributeTheDecisionLayer) {
  const auto solution = solve_lep(8);
  const auto untraced = decision::to_bytes(decision::compile(*solution));
  Tracer::instance().enable();
  const auto traced = decision::to_bytes(decision::compile(*solution));
  Tracer::instance().disable();
  EXPECT_TRUE(traced == untraced) << "tracing changed the compiled table";

  JsonValue doc;
  ASSERT_TRUE(JsonParser(Tracer::instance().chrome_trace_json()).parse(doc));
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, std::vector<std::string>> stacks;
  std::map<std::string, std::size_t> opened;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.get("ph")->string;
    const std::string& name = e.get("name")->string;
    auto& stack = stacks[e.get("tid")->number];
    if (ph == "B") {
      stack.push_back(name);
      ++opened[name];
    } else if (ph == "E") {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
  EXPECT_EQ(opened["compile"], 1u);
  EXPECT_GE(opened["compile.keys"], 1u);
  // LEP n=3 is large enough to be split into several fragments.
  EXPECT_GT(opened["compile.pack"], 1u);
}

TEST(ObsTrace, ReenableDropsOldEvents) {
  Tracer::instance().enable();
  { TIGAT_SPAN("stale"); }
  Tracer::instance().enable();  // restart: the "stale" span must vanish
  { TIGAT_SPAN("fresh"); }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().recorded_spans(), 1u);
  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_EQ(json.find("stale"), std::string::npos);
  EXPECT_NE(json.find("fresh"), std::string::npos);
}

// One executor run with tracing and metrics on: the report, the
// balanced "executor.step" / "executor.run" span pairs of the trace,
// and the "executor.step_ns" sample count.
struct TracedRun {
  testing::TestReport report;
  std::size_t step_spans = 0;
  std::size_t run_spans = 0;
  std::uint64_t step_ns_samples = 0;
};

TracedRun traced_run(testing::TestExecutor& exec) {
  TracedRun out;
  enable_metrics();
  metrics().reset();
  Tracer::instance().enable();
  out.report = exec.run();
  Tracer::instance().disable();
  disable_metrics();
  out.step_ns_samples =
      metrics().histogram("executor.step_ns", latency_buckets_ns()).count();

  JsonValue doc;
  EXPECT_TRUE(JsonParser(Tracer::instance().chrome_trace_json()).parse(doc));
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr) {
    ADD_FAILURE() << "trace has no traceEvents";
    return out;
  }
  std::vector<std::string> stack;  // the run is single-threaded
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.get("ph")->string;
    const std::string& name = e.get("name")->string;
    if (ph == "B") {
      stack.push_back(name);
    } else if (ph == "E") {
      EXPECT_FALSE(stack.empty());
      if (stack.empty()) continue;
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
      if (name == "executor.step") ++out.step_spans;
      if (name == "executor.run") ++out.run_spans;
    }
  }
  EXPECT_TRUE(stack.empty()) << "unbalanced spans";
  return out;
}

// Cooperative mode runs the same executor loop as a reach run, so its
// trace and step histogram have the same shape: one step span per
// loop iteration (the verdict-earning one included) and one
// "executor.step_ns" sample per span.
TEST(ObsTrace, CooperativeRunTracesStepsLikeReachRun) {
  constexpr std::int64_t kScale = 16;
  const lang::LoadedModel spec = load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);
  game::GameSolver solver(
      spec.system,
      tsystem::TestPurpose::parse(spec.system, "control: A<> IUT.Bright"));
  const game::Strategy reach_plan(solver.solve());
  const game::CooperativeResult coop = game::solve_cooperative(
      spec.system,
      tsystem::TestPurpose::parse(spec.system, "control: A<> IUT.L6"));
  ASSERT_TRUE(coop.reachable);
  const game::Strategy coop_plan(coop.solution);

  testing::SimulatedImplementation reach_imp(
      plant, kScale, testing::ImpPolicy{2 * kScale, {}});
  testing::TestExecutor reach_exec(reach_plan, reach_imp, kScale);
  testing::SimulatedImplementation coop_imp(
      plant, kScale, testing::ImpPolicy{2 * kScale, {}});
  auto coop_exec = testing::TestExecutor::cooperative(spec.system, coop_plan,
                                                      coop_imp, kScale);

  for (testing::TestExecutor* exec : {&reach_exec, &coop_exec}) {
    SCOPED_TRACE(exec == &coop_exec ? "cooperative" : "reach");
    const TracedRun run = traced_run(*exec);
    ASSERT_EQ(run.report.verdict, testing::Verdict::kPass)
        << run.report.detail;
    EXPECT_EQ(run.run_spans, 1u);
    EXPECT_EQ(run.step_spans, run.report.steps + 1);
    EXPECT_EQ(run.step_ns_samples, run.step_spans);
  }
}

TEST(ObsMetrics, SolverCountersEqualSolverStatsExactly) {
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    enable_metrics();
    metrics().reset();
    const auto solution = solve_lep(threads);
    disable_metrics();
    const game::SolverStats& st = solution->stats();
    EXPECT_EQ(metrics().counter("solver.keys").value(), st.keys);
    EXPECT_EQ(metrics().counter("solver.reach_zones").value(),
              st.reach_zones);
    EXPECT_EQ(metrics().counter("solver.winning_zones").value(),
              st.winning_zones);
    EXPECT_EQ(metrics().counter("solver.edges").value(), st.edges);
    EXPECT_EQ(metrics().counter("solver.rounds").value(), st.rounds);
    // The per-round gain counters must account for every winning zone
    // except round 0's goal seeds.
    EXPECT_GT(metrics().counter("solver.fixpoint.gained_keys").value(), 0u);
    EXPECT_LE(metrics().counter("solver.fixpoint.gained_zones").value(),
              st.winning_zones);
  }
}

// The solution is read-only: compile decodes each key's federations
// into its own scratch and frees them before the next key, so the zone
// bytes held after a compile are those held before it.  A 4-thread
// solve makes compile fan its key ranges out over 4 workers (LEP n=3
// has more than a thousand keys); the meter is still exact once the
// workers have exited and published their slack.
TEST(ObsMetrics, CompileLeavesZoneMemoryUnchanged) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto solution = solve_lep(threads);
    ASSERT_EQ(solution->worker_count(), threads);
    const std::size_t before = util::zone_memory().current();
    const decision::DecisionTable table = decision::compile(*solution);
    ASSERT_GT(table.key_count(), 0u);
    EXPECT_EQ(util::zone_memory().current(), before);
  }
}

// A worker's zone bytes below kZoneMeterSlack stay in its per-thread
// delta until the thread exits; the delta's destructor must publish
// them then.  Each item of the parallel_for waits until every item has
// started, so each runs on a thread of its own: three pool workers plus
// the caller.
TEST(ObsMetrics, WorkerZoneBytesBelowTheSlackArePublishedAtThreadExit) {
  constexpr unsigned kThreads = 4;
  const std::size_t zone_bytes = dbm::Dbm::universal(3).memory_bytes();
  ASSERT_LT(static_cast<std::int64_t>(kThreads * zone_bytes),
            util::kZoneMeterSlack);
  const std::size_t before = util::zone_memory().current();
  std::vector<dbm::Dbm> zones(kThreads);  // moved-from shells: unmetered
  {
    util::ThreadPool pool(kThreads);
    ASSERT_EQ(pool.worker_count(), kThreads);
    std::atomic<unsigned> started{0};
    pool.parallel_for(kThreads, 1, [&](std::size_t begin, std::size_t end) {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (std::size_t i = begin; i < end; ++i) {
        zones[i] = dbm::Dbm::universal(3);
      }
    });
  }  // the workers exit here
  EXPECT_EQ(util::zone_memory().current(), before + kThreads * zone_bytes);
  zones.clear();
  EXPECT_EQ(util::zone_memory().current(), before);
}

TEST(ObsMetrics, StatsJsonReportsPeakRss) {
  const std::string cmd = std::string(TIGAT_RUN_MODEL_BIN) + " solve " +
                          TIGAT_MODEL_DIR + "/smart_light.tg --stats-json";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    output.append(buf, got);
  }
  const int rc = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << output;
  const std::size_t start = output.find("{\"schema\"");
  ASSERT_NE(start, std::string::npos) << output;
  JsonValue doc;
  ASSERT_TRUE(JsonParser(output.substr(start)).parse(doc)) << output;
  const JsonValue* gauges = doc.get("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* rss = gauges->get("process.peak_rss_bytes");
  ASSERT_NE(rss, nullptr) << output;
  // A running process holds at least its binary's pages; a Smart Light
  // solve stays far below a gigabyte.
  EXPECT_GT(rss->number, 1024.0 * 1024.0);
  EXPECT_LT(rss->number, 1024.0 * 1024.0 * 1024.0);
}

TEST(ObsMetrics, SnapshotIsValidVersionedJson) {
  enable_metrics();
  metrics().reset();
  metrics().counter("test.counter").add(3);
  metrics().gauge("test.gauge").set(1.5);
  metrics().histogram("test.hist", latency_buckets_ns()).record(17);
  disable_metrics();

  JsonValue doc;
  ASSERT_TRUE(JsonParser(metrics().snapshot_json()).parse(doc));
  ASSERT_NE(doc.get("schema"), nullptr);
  EXPECT_EQ(doc.get("schema")->string, "tigat.metrics");
  ASSERT_NE(doc.get("version"), nullptr);
  EXPECT_EQ(doc.get("version")->number, 1.0);
  const JsonValue* counters = doc.get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->get("test.counter"), nullptr);
  EXPECT_EQ(counters->get("test.counter")->number, 3.0);
  const JsonValue* gauges = doc.get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->get("test.gauge")->number, 1.5);
  const JsonValue* hists = doc.get("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* hist = hists->get("test.hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->get("bounds"), nullptr);
  ASSERT_NE(hist->get("counts"), nullptr);
  EXPECT_EQ(hist->get("counts")->array.size(),
            hist->get("bounds")->array.size() + 1);
  EXPECT_EQ(hist->get("count")->number, 1.0);
  EXPECT_EQ(hist->get("sum")->number, 17.0);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  const std::vector<std::uint64_t> bounds{10, 100, 1000};
  // le semantics: bucket i counts v <= bounds[i]; the implicit last
  // bucket counts the overflow.
  EXPECT_EQ(Histogram::bucket_index(bounds, 0), 0u);
  EXPECT_EQ(Histogram::bucket_index(bounds, 9), 0u);
  EXPECT_EQ(Histogram::bucket_index(bounds, 10), 0u);   // exact edge
  EXPECT_EQ(Histogram::bucket_index(bounds, 11), 1u);
  EXPECT_EQ(Histogram::bucket_index(bounds, 100), 1u);  // exact edge
  EXPECT_EQ(Histogram::bucket_index(bounds, 101), 2u);
  EXPECT_EQ(Histogram::bucket_index(bounds, 1000), 2u);
  EXPECT_EQ(Histogram::bucket_index(bounds, 1001), 3u);  // overflow
  EXPECT_EQ(Histogram::bucket_index(bounds, UINT64_MAX), 3u);

  Histogram h(bounds);
  h.record(10);
  h.record(11);
  h.record(5000);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 10u + 11u + 5000u);

  // The shared latency vocabulary is strictly increasing powers of 2.
  const auto latency = latency_buckets_ns();
  ASSERT_FALSE(latency.empty());
  EXPECT_EQ(latency.front(), 16u);
  for (std::size_t i = 1; i < latency.size(); ++i) {
    EXPECT_EQ(latency[i], latency[i - 1] * 2);
  }
}

TEST(ObsProgress, HeartbeatEmitsJsonLines) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  progress().enable(/*period_seconds=*/3600.0, tmp);
  progress().tick("explore", 10, 20, 1);   // first tick: immediate
  progress().tick("explore", 11, 21, 2);   // inside the period: dropped
  progress().emit("done", 12, 22, 3);      // final line: unconditional
  progress().disable();

  std::rewind(tmp);
  std::string content;
  char buf[512];
  while (std::fgets(buf, sizeof buf, tmp) != nullptr) content += buf;
  std::fclose(tmp);

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t nl = content.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "unterminated heartbeat line";
    lines.push_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    JsonValue doc;
    ASSERT_TRUE(JsonParser(line).parse(doc)) << line;
    ASSERT_NE(doc.get("tigat_hb"), nullptr);
    ASSERT_NE(doc.get("elapsed_s"), nullptr);
    ASSERT_NE(doc.get("phase"), nullptr);
    ASSERT_NE(doc.get("rss_mb"), nullptr);
  }
  JsonValue last;
  ASSERT_TRUE(JsonParser(lines.back()).parse(last));
  EXPECT_EQ(last.get("phase")->string, "done");
  EXPECT_EQ(last.get("keys")->number, 12.0);
  EXPECT_EQ(last.get("zones")->number, 22.0);
  EXPECT_EQ(last.get("round")->number, 3.0);
}

}  // namespace
}  // namespace tigat::obs
