// Workload serve_lep4: the decide daemon path.  An in-process
// serve::Server with 2 workers serves the mapped LEP n=4 TP1 table over
// its Unix socket; the clients are closed loops in this process, and
// every thread shares one CPU (see run_serve).
//
//   bulk phase: 2 connections, each keeps 32..64 requests in flight
//               (refilled 32 at a time) — ops_per_s is replies/s;
//   step phase: 1 lock-step connection, the way a live executor waits
//               for each move — op_p50_us / op_p99_us are its round
//               trips, alt_ops_per_s its replies/s.
//
// Both phases run in kRounds short rounds on fresh connections, because
// the worker that accepts a connection varies (all workers share one
// listen socket): spread over 4 CPUs, a single bulk round came out near
// 2.0 M or near 3.4 M replies/s.  Figures pool every round, so they
// average over placements instead of depending on one draw.
//
// Oracle: every reply equals in-process decide on the same state; an
// exception or a missing reply fails the outstanding requests.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "lang/lang.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

namespace {

namespace game = tigat::game;
namespace serve = tigat::serve;
using tigat::semantics::ConcreteState;

constexpr std::size_t kStates = 4096;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kRefill = 32;
constexpr unsigned kBulkClients = 2;
constexpr int kRounds = 60;  // per kind, each on fresh connections
constexpr int kSetupReps = 3;

struct Served {
  Synthesis syn;
  std::unique_ptr<serve::Server> server;
  std::vector<ConcreteState> states;
  std::vector<game::Move> expected;
  MoveMix mix;
  double load_s = 0.0;
};

// The whole set-up a daemon user pays before the first request: load,
// solve, compile, save, map, start the server, and draw the states.
Served set_up(const Args& args) {
  Served s;
  tigat::lang::CompileOptions options;
  options.params = {{"N", 4}};
  const auto t0 = SteadyClock::now();
  const tigat::lang::LoadedModel model =
      tigat::lang::load_model(args.model_dir + "/lep.tg", options);
  s.load_s = seconds_since(t0);
  s.syn = synthesize(model.system, model.purposes.at(0),
                     args.work_dir + "/serve_tp1.tgs");
  s.server = std::make_unique<serve::Server>(
      *s.syn.mapped, serve::ServerConfig{.socket_path = args.work_dir + "/s.sock",
                                         .threads = 2});
  s.server->start();
  // An executor never asks from outside the winning region: keep only
  // states whose decide is not unwinnable.
  std::uint64_t draw = 0;
  while (s.states.size() < kStates) {
    for (ConcreteState& st :
         sample_states(*s.syn.solution, derive_seed(args.seed, draw++), 1024)) {
      const game::Move move = s.syn.mapped->decide(st, kScale);
      if (move.kind == game::MoveKind::kUnwinnable) continue;
      s.mix.add(move);
      s.states.push_back(std::move(st));
      s.expected.push_back(move);
      if (s.states.size() == kStates) break;
    }
  }
  return s;
}

struct Tally {
  std::size_t sent = 0;
  std::size_t replies = 0;
  std::size_t wrong = 0;
  std::size_t lost = 0;
};

// One bulk client: a window of in-flight requests, refilled kRefill at
// a time, until `deadline`; then drained.
void bulk_client(const Served& s, const std::string& path, std::size_t first,
                 SteadyClock::time_point deadline, Tally& tally) {
  std::vector<std::size_t> ring(kWindow);
  std::size_t head = 0, tail = 0;  // ring indices, tail - head in flight
  std::size_t next = first;
  try {
    serve::Client client = serve::Client::connect(path);
    const auto send = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = next++ % s.states.size();
        client.send_decide(s.states[idx], kScale);
        ring[tail++ % kWindow] = idx;
        ++tally.sent;
      }
      client.flush();
    };
    const auto receive = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const game::Move move = client.read_move();
        tally.wrong += !(move == s.expected[ring[head++ % kWindow]]);
        ++tally.replies;
      }
    };
    send(kWindow);
    while (SteadyClock::now() < deadline) {
      receive(kRefill);
      send(kRefill);
    }
    receive(tail - head);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bulk client: %s\n", e.what());
  }
  tally.lost = tally.sent - tally.replies;
}

struct Bulk {
  double seconds = 0.0;
  Tally tally;
};

// One bulk round on fresh connections, until `deadline`.
void bulk_round(const Served& s, SteadyClock::time_point deadline, Bulk& out) {
  std::vector<Tally> tallies(kBulkClients);
  std::vector<std::thread> clients;
  const auto t0 = SteadyClock::now();
  for (unsigned c = 0; c < kBulkClients; ++c) {
    clients.emplace_back(bulk_client, std::cref(s), s.server->socket_path(),
                         c * s.states.size() / kBulkClients, deadline,
                         std::ref(tallies[c]));
  }
  for (auto& t : clients) t.join();
  for (const Tally& t : tallies) {
    out.tally.sent += t.sent;
    out.tally.replies += t.replies;
    out.tally.wrong += t.wrong;
    out.tally.lost += t.lost;
  }
  out.seconds += seconds_since(t0);
}

struct Step {
  std::vector<double> rtt_us;
  std::vector<double> send_ns, flush_ns, read_ns;  // traced only
  double seconds = 0.0;
  std::size_t next = 0;  // next state index
  Tally tally;
};

// One lock-step round on a fresh connection, until `deadline`.
void step_round(const Served& s, SteadyClock::time_point deadline, bool traced,
                Step& out) {
  const auto t0 = SteadyClock::now();
  std::size_t sent = 0, replies = 0;
  try {
    serve::Client client = serve::Client::connect(s.server->socket_path());
    while (SteadyClock::now() < deadline) {
      const std::size_t idx = out.next++ % s.states.size();
      ++sent;
      const auto a = SteadyClock::now();
      client.send_decide(s.states[idx], kScale);
      const auto b = traced ? SteadyClock::now() : a;
      client.flush();
      const auto c = traced ? SteadyClock::now() : a;
      const game::Move move = client.read_move();
      const auto d = SteadyClock::now();
      ++replies;
      out.tally.wrong += !(move == s.expected[idx]);
      out.rtt_us.push_back(std::chrono::duration<double, std::micro>(d - a).count());
      if (traced) {
        using ns = std::chrono::duration<double, std::nano>;
        out.send_ns.push_back(ns(b - a).count());
        out.flush_ns.push_back(ns(c - b).count());
        out.read_ns.push_back(ns(d - c).count());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step client: %s\n", e.what());
  }
  out.tally.sent += sent;
  out.tally.replies += replies;
  out.tally.lost += sent - replies;
  out.seconds += seconds_since(t0);
}

void account(Result& result, const Tally& t) {
  result.attempted(t.sent);
  for (std::size_t i = 0; i < t.wrong + t.lost; ++i) {
    result.failed("reply missing or different from in-process decide");
  }
}

// Per-state cost of the wire codecs: request encode + decode, reply
// encode + decode, through the public protocol functions.
double codec_ns(const Served& s) {
  ConcreteState scratch;
  std::int64_t scale = 0;
  std::size_t n = 0, sink = 0;
  const auto t0 = SteadyClock::now();
  while (seconds_since(t0) < 0.25) {
    for (std::size_t i = 0; i < s.states.size(); ++i, ++n) {
      const auto request = serve::encode_decide_request(s.states[i], kScale);
      serve::decode_decide_request(
          std::span<const std::uint8_t>(request).subspan(1), scratch, scale);
      const auto reply = serve::encode_move_reply(s.expected[i]);
      sink += static_cast<std::size_t>(serve::decode_move_reply(reply).kind);
    }
  }
  const double elapsed = seconds_since(t0);
  if (sink == static_cast<std::size_t>(-1)) std::abort();
  return elapsed * 1e9 / static_cast<double>(n);
}

// Single-thread in-process decide over the same states.
double decide_ns(const Served& s) {
  std::size_t n = 0, sink = 0;
  const auto t0 = SteadyClock::now();
  while (seconds_since(t0) < 0.25) {
    for (const ConcreteState& st : s.states) {
      sink += static_cast<std::size_t>(s.syn.mapped->decide(st, kScale).kind);
      ++n;
    }
  }
  const double elapsed = seconds_since(t0);
  if (sink == static_cast<std::size_t>(-1)) std::abort();
  return elapsed * 1e9 / static_cast<double>(n);
}

}  // namespace

int run_serve(const Args& args, Result& result) {
  // Server workers and clients share the CPU this starts on.  Across
  // vCPUs of a shared host every request pays two cross-CPU wakeups,
  // whose cost swings with the neighbours' load (round-trip p99 moved
  // 4x between runs); on one CPU the figures measure the serve path.
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(::sched_getcpu(), &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0) {
    std::perror("sched_setaffinity");
    return 1;
  }
  std::vector<double> setup;
  Served s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.server.reset();  // stops before the table it serves goes away
    s = Served{};
    ::malloc_trim(0);  // each set-up starts from the same heap
    const auto t0 = SteadyClock::now();
    s = set_up(args);
    setup.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(setup));
  std::printf("serve_lep4: %zu keys, %zu bytes, %zu states "
              "(goal %zu, action %zu, delay %zu)\n",
              s.syn.mapped->key_count(), s.syn.mapped->memory_bytes(),
              s.states.size(), s.mix.goal, s.mix.action, s.mix.delay);

  // Rounds of every kind interleave, so a drift in host speed moves
  // them alike.
  Bulk bulk, traced_bulk;
  Step step, traced;
  const int kinds = args.trace ? 4 : 2;
  const auto round_length =
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double>(args.seconds / kRounds / kinds));
  const auto t0 = SteadyClock::now();
  for (int round = 0; round < kRounds; ++round) {
    bulk_round(s, SteadyClock::now() + round_length, bulk);
    step_round(s, SteadyClock::now() + round_length, false, step);
    if (!args.trace) continue;
    bulk_round(s, SteadyClock::now() + round_length, traced_bulk);
    step_round(s, SteadyClock::now() + round_length, true, traced);
  }
  const double elapsed = seconds_since(t0);
  for (const Tally* t : {&bulk.tally, &step.tally, &traced_bulk.tally,
                         &traced.tally}) {
    account(result, *t);
  }
  const double step_p50 = median(step.rtt_us);
  std::printf("%d rounds in %.1f s: bulk %.0f replies/s, step p50 %.2f us, "
              "p99 %.2f us over %zu round trips\n",
              kRounds, elapsed,
              static_cast<double>(bulk.tally.replies) / bulk.seconds, step_p50,
              percentile(step.rtt_us, 0.99), step.rtt_us.size());

  if (!args.trace) {
    result.set("ops_per_s",
               static_cast<double>(bulk.tally.replies) / bulk.seconds);
    result.set("alt_ops_per_s",
               static_cast<double>(step.tally.replies) / step.seconds);
    result.set("op_p50_us", step_p50);
    result.set("op_p99_us", percentile(step.rtt_us, 0.99));
    result.set("peak_rss_mb", peak_rss_mib());
    s.server->stop();
    return 0;
  }

  Layers layers;
  set_purpose_layers(layers, 1, s.syn.solution->stats());
  add_table_layers(layers, s.syn);
  s.mix.set_layers(layers);
  layers["lang.load_s"] = s.load_s;
  const double decide = decide_ns(s);
  const double codec = codec_ns(s);
  const double rtt_us = median(traced.rtt_us);
  layers["decision.decide_ns"] = decide;
  layers["serve.codec_ns"] = codec;
  layers["serve.client_send_ns"] = median(traced.send_ns);
  layers["serve.client_flush_ns"] = median(traced.flush_ns);
  layers["serve.client_read_ns"] = median(traced.read_ns);
  layers["serve.transport_us"] = rtt_us - (decide + codec) / 1e3;
  s.server->stop();
  layers["serve.requests"] = static_cast<double>(s.server->requests_total());
  layers["serve.errors"] = static_cast<double>(s.server->errors_total());
  layers["serve.connections"] =
      static_cast<double>(s.server->connections_total());
  layers["trace.untraced_op_us"] = step_p50;
  layers["share.base_op_us"] = rtt_us;
  layers["trace.overhead_pct"] = (rtt_us - step_p50) / step_p50 * 100.0;
  layers["share.decision"] = decide / 1e3 / rtt_us;
  layers["share.serve"] = 1.0 - decide / 1e3 / rtt_us;
  result.set_all(layers);
  return 0;
}

}  // namespace perfbench
