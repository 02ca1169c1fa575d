// The serving-path numbers the .tgs v3 redesign is for:
//
//   * cold_start_ms        — DecisionTable::map over a saved Smart
//                            Light table: one mmap + validation, the
//                            daemon's time-to-first-decide.
//   * decide_per_s         — aggregate in-process decide() throughput
//                            across N threads sharing one mapped
//                            table (the shared-nothing ceiling).
//   * socket_decide_per_s  — the same states answered over the
//                            Unix-domain socket by an in-process
//                            Server, N pipelining clients (batch
//                            --batch requests per flush).
//   * decide_p99_ns        — server-side decide latency p99 from the
//                            decide.latency_ns histogram.
//
// Each throughput runs for at least 0.5 s, --reps times; the figure is
// the median of the repetitions and `<name>_spread` their quartile
// distance over that median.
//
//   bench_serve [--threads=N] [--states=K] [--batch=B] [--reps=R]
//               [--socket=PATH]   # drive an external daemon instead
//               [--json[=PATH]]   # gated by tools/bench_gate.py
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "obs/metrics.h"
#include "semantics/concrete.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/models.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

constexpr std::int64_t kScale = 16;
constexpr double kMinSeconds = 0.5;  // per repetition of a throughput

using tigat::semantics::ConcreteState;

std::vector<ConcreteState> fuzz_states(const tigat::game::GameSolution& sol,
                                       std::size_t count) {
  const auto& g = sol.graph();
  tigat::dbm::bound_t max_const = 1;
  for (const tigat::dbm::bound_t c : g.max_constants()) {
    max_const = std::max(max_const, c);
  }
  const std::int64_t hi = (static_cast<std::int64_t>(max_const) + 2) * kScale;
  tigat::util::Rng rng(0xbe7c5e77eULL);
  std::vector<ConcreteState> out;
  out.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    const auto k = static_cast<std::uint32_t>(
        rng.range(0, static_cast<std::int64_t>(g.key_count()) - 1));
    ConcreteState s;
    s.locs = g.key(k).locs;
    s.data = g.key(k).data;
    s.clocks.assign(g.system().clock_count(), 0);
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      s.clocks[c] = rng.range(0, hi);
    }
    out.push_back(std::move(s));
  }
  return out;
}

// Runs `worker(stop)` on `threads` threads for at least kMinSeconds:
// each worker loops until `stop` is set and returns the operations it
// completed.  Returns operations per second over the whole run.
template <class Worker>
double timed_rate(unsigned threads, const Worker& worker) {
  std::atomic<bool> stop{false};
  std::vector<std::size_t> ops(threads, 0);
  std::vector<std::thread> pool;
  tigat::util::Stopwatch watch;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { ops[t] = worker(stop); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kMinSeconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : pool) t.join();
  const double secs = watch.seconds();
  double total = 0.0;
  for (const std::size_t n : ops) total += static_cast<double>(n);
  return total / secs;
}

// Repeats `worker` reps times under timed_rate and records the median
// rate as `name` and its spread as `name_spread`.
template <class Worker>
tigat::benchio::Summary measure(tigat::benchio::BenchReport& report,
                                const std::string& name, unsigned threads,
                                std::size_t reps, const Worker& worker) {
  std::vector<double> rates;
  for (std::size_t r = 0; r < reps; ++r) {
    rates.push_back(timed_rate(threads, worker));
  }
  const auto s = tigat::benchio::summarize(std::move(rates));
  report.root().set(name, s.median);
  report.root().set(name + "_spread", s.spread);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tigat;
  benchio::BenchReport report("serve", argc, argv);

  unsigned threads = 8;
  std::size_t states_n = 512;
  std::size_t batch = 64;
  std::size_t reps = 5;  // repetitions of each throughput
  std::string external_socket;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--states=", 9) == 0) {
      states_n = static_cast<std::size_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = static_cast<std::size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<std::size_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      external_socket = argv[i] + 9;
    }
  }
  if (threads == 0) threads = 1;
  if (reps == 0) reps = 1;

  // ── solve + save the Smart Light table ──
  const auto light = test_support::load_smart_light();
  const auto purpose =
      tsystem::TestPurpose::parse(light.system, "control: A<> IUT.Bright");
  game::GameSolver solver(light.system, purpose);
  const auto solution = solver.solve();
  const decision::DecisionTable compiled = decision::compile(*solution);
  const std::string tgs = "/tmp/bench_serve_smart_light.tgs";
  decision::save(compiled, tgs);
  report.root().set("model", "smart_light");
  report.root().set("keys", compiled.key_count());
  report.root().set("tgs_bytes", compiled.memory_bytes());
  report.root().set("threads", static_cast<int>(threads));

  // ── cold start: mmap + validation, best of 5 ──
  double cold_best = 1e9;
  for (int r = 0; r < 5; ++r) {
    util::Stopwatch watch;
    const decision::DecisionTable mapped = decision::DecisionTable::map(tgs);
    cold_best = std::min(cold_best, watch.seconds() * 1e3);
    if (mapped.key_count() != compiled.key_count()) return 1;
  }
  report.root().set("cold_start_ms", cold_best);
  std::printf("cold start (mmap + validate): %.3f ms (%zu bytes)\n",
              cold_best, compiled.memory_bytes());

  const decision::DecisionTable table = decision::DecisionTable::map(tgs);
  const auto states = fuzz_states(*solution, states_n);

  // ── direct N-thread decide throughput over the mapped table ──
  {
    const benchio::Summary direct = measure(
        report, "decide_per_s", threads, reps,
        [&](const std::atomic<bool>& stop) {
          std::size_t done = 0;
          std::int64_t sink = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            for (const ConcreteState& s : states) {
              sink += static_cast<std::int64_t>(table.decide(s, kScale).kind);
            }
            done += states.size();
          }
          // Defeat dead-code elimination without atomics in the loop.
          if (sink == -1) std::abort();
          return done;
        });
    std::printf("direct decide: %.0f/s aggregate (%u threads, median of "
                "%zu x %.1f s, spread %.3f)\n",
                direct.median, threads, reps, kMinSeconds, direct.spread);
  }

  // ── socket throughput: pipelining clients against the daemon ──
  obs::enable_metrics();  // decide.latency_ns lands server-side
  std::unique_ptr<serve::Server> server;
  std::string socket_path = external_socket;
  if (socket_path.empty()) {
    socket_path = "/tmp/bench_serve.sock";
    server = std::make_unique<serve::Server>(
        table, serve::ServerConfig{.socket_path = socket_path});
    server->start();
  }
  {
    const benchio::Summary socket = measure(
        report, "socket_decide_per_s", threads, reps,
        [&](const std::atomic<bool>& stop) {
          serve::Client client = serve::Client::connect(socket_path);
          std::size_t done = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            for (std::size_t at = 0; at < states.size(); at += batch) {
              const std::size_t end = std::min(at + batch, states.size());
              for (std::size_t i = at; i < end; ++i) {
                client.send_decide(states[i], kScale);
              }
              client.flush();
              for (std::size_t i = at; i < end; ++i) {
                (void)client.read_move();
              }
            }
            done += states.size();
          }
          return done;
        });
    report.root().set("batch", batch);
    std::printf("socket decide: %.0f/s aggregate (%u clients, batch %zu, "
                "median of %zu x %.1f s, spread %.3f)\n",
                socket.median, threads, batch, reps, kMinSeconds,
                socket.spread);
  }
  const auto& latency =
      obs::metrics().histogram("decide.latency_ns", obs::latency_buckets_ns());
  report.root().set("decide_p50_ns", latency.percentile(0.50));
  report.root().set("decide_p99_ns", latency.percentile(0.99));
  std::printf("server-side decide latency: p50 <= %llu ns, p99 <= %llu ns "
              "(%llu samples)\n",
              static_cast<unsigned long long>(latency.percentile(0.50)),
              static_cast<unsigned long long>(latency.percentile(0.99)),
              static_cast<unsigned long long>(latency.count()));
  if (server) server->stop();
  std::remove(tgs.c_str());

  return report.flush() ? 0 : 1;
}
