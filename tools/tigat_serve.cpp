// tigat-serve — the .tgs decide daemon and format tool.
//
//   tigat-serve serve --table=T.tgs --socket=PATH [--threads=N]
//                     [--metrics-out=FILE] [--progress[=SECS]]
//                     [--no-verify]
//   tigat-serve drive --table=T.tgs --socket=PATH [--clients=N]
//                     [--requests=R] [--batch=B] [--seed=S]
//   tigat-serve info FILE.tgs
//
// `serve` maps the table read-only (DecisionTable::map — one mmap,
// zero deserialization) and answers decide() over a Unix-domain
// socket until SIGINT/SIGTERM; see src/serve/ for the wire protocol.
// `drive` is the matching load generator: it maps the SAME table,
// checks the daemon's hello fingerprint against it, synthesises
// concrete states from the table's own discrete keys, and pushes
// --requests pipelined decide()s from each of --clients concurrent
// connections, verifying every reply agrees with the local mapped
// table (model-agnostic: CI uses it against Smart Light and LEP
// daemons alike).
// `--no-verify` skips the checksum + zone-canonicality passes for the
// fastest possible cold start on trusted files (the structural bounds
// checks always run).  `info` prints the v3 header and section table
// without touching payload bytes beyond validation.
//
// Exit codes follow run_model's taxonomy where it applies:
//   0  served and shut down cleanly / info printed
//   1  usage error, or the table needs re-solving (old format)
//   2  I/O or socket failure, or a corrupt image
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <system_error>

#include <atomic>
#include <thread>
#include <vector>

#include "decision/format.h"
#include "decision/table.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "semantics/concrete.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitIo = 2;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: tigat-serve serve --table=T.tgs --socket=PATH [--threads=N]\n"
      "                         [--metrics-out=FILE] [--progress[=SECS]]\n"
      "                         [--no-verify]\n"
      "       tigat-serve drive --table=T.tgs --socket=PATH [--clients=N]\n"
      "                         [--requests=R] [--batch=B] [--seed=S]\n"
      "       tigat-serve info FILE.tgs\n");
  return kExitUsage;
}

const char* section_name(std::uint32_t id) {
  using namespace tigat::decision;
  switch (id) {
    case kSecKeyLocs: return "key_locs";
    case kSecKeyData: return "key_data";
    case kSecKeyRoots: return "key_roots";
    case kSecKeyBuckets: return "key_buckets";
    case kSecNodes: return "nodes";
    case kSecArcs: return "arcs";
    case kSecLeaves: return "leaves";
    case kSecActs: return "acts";
    case kSecZoneRefs: return "zone_refs";
    case kSecZones: return "zones";
    case kSecEdges: return "edges";
    case kSecEdgeLookup: return "edge_lookup";
    case kSecStrings: return "strings";
    case kSecStringBlob: return "string_blob";
    default: return "?";
  }
}

// `tigat-serve info` — the header, section table and provenance of a
// .tgs v3 image, fully validated first (so the dump is trustworthy).
int run_info(const std::string& path) {
  namespace decision = tigat::decision;
  decision::DecisionTable table = decision::DecisionTable::map(path);
  const decision::TgsView& view = table.view();
  std::printf("file:            %s\n", path.c_str());
  std::printf("format:          .tgs v3 (flat, little-endian, mmap)\n");
  std::printf("bytes:           %zu\n", view.bytes().size());
  std::printf("fingerprint:     %016llx\n",
              static_cast<unsigned long long>(view.fingerprint()));
  std::printf("system:          %.*s\n",
              static_cast<int>(view.system_name().size()),
              view.system_name().data());
  std::printf("purpose:         %.*s\n",
              static_cast<int>(view.purpose_source().size()),
              view.purpose_source().data());
  std::printf("purpose_kind:    %s\n",
              view.purpose_kind() == 1 ? "safety" : "reachability");
  std::printf("clock_dim:       %u\n", view.clock_dim());
  std::printf("processes:       %u\n", view.proc_count());
  std::printf("data_slots:      %u\n", view.slot_count());
  std::printf("keys:            %zu\n", view.key_count());
  std::printf("nodes:           %zu   arcs: %zu   leaves: %zu\n",
              view.node_count(), view.arc_count(), view.leaf_count());
  std::printf("zones:           %zu   edges: %zu\n", view.zone_count(),
              view.edge_count());
  std::printf("sections:\n");
  std::printf("  %-12s %10s %12s %10s\n", "name", "offset", "bytes",
              "records");
  for (const decision::SectionRec& sec : view.sections()) {
    std::printf("  %-12s %10llu %12llu %10llu\n", section_name(sec.id),
                static_cast<unsigned long long>(sec.offset),
                static_cast<unsigned long long>(sec.bytes),
                static_cast<unsigned long long>(sec.bytes / sec.record_size));
  }
  return kExitOk;
}

// `tigat-serve drive` — a model-agnostic load generator: states come
// from the mapped table's own discrete keys (so it works against any
// daemon whose .tgs it shares), replies are checked against the local
// table, byte-for-byte via Move's equality.
int run_drive(int argc, char** argv) {
  namespace decision = tigat::decision;
  namespace serve = tigat::serve;
  using tigat::semantics::ConcreteState;
  constexpr std::int64_t kScale = 16;

  std::string table_path, socket_path;
  unsigned clients = 4;
  std::size_t requests = 2000;  // per client
  std::size_t batch = 32;
  std::uint64_t seed = 0x7165a7d51beULL;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--table=", 8) == 0) {
      table_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<std::size_t>(std::atoll(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = static_cast<std::size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[i] + 7));
    } else {
      std::fprintf(stderr, "tigat-serve: unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }
  if (table_path.empty() || socket_path.empty()) return usage();
  if (clients == 0) clients = 1;
  if (batch == 0) batch = 1;

  const decision::DecisionTable table = decision::DecisionTable::map(table_path);
  const decision::TableData data = table.export_data();

  // States over the table's own keys, clocks fuzzed well past any
  // constant a real model uses (decide() is total either way).
  tigat::util::Rng rng(seed);
  std::vector<ConcreteState> states;
  states.reserve(256);
  for (std::size_t n = 0; n < 256; ++n) {
    const auto& key =
        data.keys[static_cast<std::size_t>(rng.range(
            0, static_cast<std::int64_t>(data.keys.size()) - 1))];
    ConcreteState s;
    s.locs = key.locs;
    s.data = key.data;
    s.clocks.assign(table.clock_dim(), 0);
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      s.clocks[c] = rng.range(0, 64 * kScale);
    }
    states.push_back(std::move(s));
  }

  std::atomic<std::size_t> mismatches{0};
  std::atomic<bool> io_failed{false};
  std::vector<std::thread> pool;
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  for (unsigned t = 0; t < clients; ++t) {
    pool.emplace_back([&, t] {
      try {
        serve::Client client = serve::Client::connect(socket_path);
        if (client.hello().fingerprint != table.fingerprint()) {
          std::fprintf(stderr,
                       "tigat-serve: daemon fingerprint %016llx != table "
                       "%016llx\n",
                       static_cast<unsigned long long>(
                           client.hello().fingerprint),
                       static_cast<unsigned long long>(table.fingerprint()));
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::size_t base = t, in_flight = 0;
        std::vector<const ConcreteState*> window;
        for (std::size_t r = 0; r < requests; ++r) {
          const ConcreteState& s = states[(base + r) % states.size()];
          client.send_decide(s, kScale);
          window.push_back(&s);
          if (++in_flight == batch || r + 1 == requests) {
            client.flush();
            for (const ConcreteState* sent : window) {
              if (client.read_move() != table.decide(*sent, kScale)) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
            window.clear();
            in_flight = 0;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tigat-serve: client %u: %s\n", t, e.what());
        io_failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pool) th.join();
  clock_gettime(CLOCK_MONOTONIC, &t1);
  const double secs =
      (t1.tv_sec - t0.tv_sec) + (t1.tv_nsec - t0.tv_nsec) * 1e-9;
  const double total = static_cast<double>(clients) *
                       static_cast<double>(requests);
  std::fprintf(stderr,
               "tigat-serve: drove %.0f decide(s) over %u clients in %.3f s "
               "(%.0f/s), %zu mismatch(es)\n",
               total, clients, secs, secs > 0 ? total / secs : 0.0,
               mismatches.load());
  if (io_failed.load()) return kExitIo;
  return mismatches.load() == 0 ? kExitOk : kExitUsage;
}

int run_serve(int argc, char** argv) {
  namespace decision = tigat::decision;
  namespace obs = tigat::obs;
  std::string table_path;
  tigat::serve::ServerConfig config;
  std::string metrics_out;
  double progress_secs = -1.0;
  decision::TgsView::Options options;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--table=", 8) == 0) {
      table_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      config.socket_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      config.threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress_secs = 5.0;
    } else if (std::strncmp(argv[i], "--progress=", 11) == 0) {
      progress_secs = std::atof(argv[i] + 11);
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      options.verify_checksum = false;
      options.verify_zones = false;
    } else {
      std::fprintf(stderr, "tigat-serve: unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }
  if (table_path.empty() || config.socket_path.empty()) return usage();

  if (!metrics_out.empty()) obs::enable_metrics();
  if (progress_secs >= 0.0) obs::progress().enable(progress_secs);

  // Cold start: one mmap + validation.  Time it for the startup line —
  // this is the number the v3 format exists to keep flat.
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  decision::DecisionTable table = [&] {
    try {
      return decision::DecisionTable::map(table_path, options);
    } catch (const decision::VersionError& e) {
      std::fprintf(stderr, "tigat-serve: cannot serve '%s': %s\n",
                   table_path.c_str(), e.what());
      std::exit(kExitUsage);
    } catch (const decision::SerializeError& e) {
      std::fprintf(stderr, "tigat-serve: cannot serve '%s': %s\n",
                   table_path.c_str(), e.what());
      std::exit(kExitIo);
    }
  }();
  clock_gettime(CLOCK_MONOTONIC, &t1);
  const double cold_ms = (t1.tv_sec - t0.tv_sec) * 1e3 +
                         (t1.tv_nsec - t0.tv_nsec) * 1e-6;

  tigat::serve::Server server(table, config);
  try {
    server.start();
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "tigat-serve: cannot listen on '%s': %s\n",
                 config.socket_path.c_str(), e.what());
    return kExitIo;
  }
  std::fprintf(stderr,
               "tigat-serve: serving '%.*s' (%s, %zu keys, fingerprint "
               "%016llx) on %s, %u workers, cold start %.2f ms\n",
               static_cast<int>(table.system_name().size()),
               table.system_name().data(),
               table.purpose_kind() == 1 ? "safety" : "reachability",
               table.key_count(),
               static_cast<unsigned long long>(table.fingerprint()),
               config.socket_path.c_str(), server.worker_count(), cold_ms);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop) {
    struct timespec nap = {0, 100 * 1000 * 1000};
    nanosleep(&nap, nullptr);
  }
  std::fprintf(stderr, "tigat-serve: shutting down (%llu connections, "
                       "%llu requests, %llu errors)\n",
               static_cast<unsigned long long>(server.connections_total()),
               static_cast<unsigned long long>(server.requests_total()),
               static_cast<unsigned long long>(server.errors_total()));
  server.stop();
  if (!metrics_out.empty() &&
      !obs::metrics().write_snapshot(metrics_out)) {
    std::fprintf(stderr, "tigat-serve: cannot write metrics to '%s'\n",
                 metrics_out.c_str());
    return kExitIo;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  namespace decision = tigat::decision;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  try {
    if (mode == "serve") return run_serve(argc, argv);
    if (mode == "drive") return run_drive(argc, argv);
    if (mode == "info") {
      if (argc != 3) return usage();
      return run_info(argv[2]);
    }
  } catch (const decision::VersionError& e) {
    std::fprintf(stderr, "tigat-serve: %s\n", e.what());
    return kExitUsage;
  } catch (const decision::SerializeError& e) {
    std::fprintf(stderr, "tigat-serve: %s\n", e.what());
    // Unreadable or corrupt bytes: the file could not be used.
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tigat-serve: %s\n", e.what());
    return kExitIo;
  }
  std::fprintf(stderr, "tigat-serve: unknown command '%s'\n", mode.c_str());
  return usage();
}
