// The tigat-serve contract: a decide() answered over the socket is the
// decide() of the in-process DecisionTable — same Move, every state,
// every client, under pipelining and under concurrency.  Plus the
// protocol edges (hello identity, ping/info, malformed frames closing
// the stream with kBadRequest, a client's receive buffer staying
// bounded on a long chunked stream, multi-MiB pipelines served, a
// client that never reads dropped past the output backlog) and the
// daemon binary end to end (serve/info subcommands, signal shutdown,
// exit taxonomy).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "semantics/concrete.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/models.h"
#include "util/rng.h"

namespace tigat::serve {
namespace {

constexpr std::int64_t kScale = 16;
constexpr std::uint64_t kSeed = 0x5e57e5ULL;

using decision::DecisionTable;
using semantics::ConcreteState;
using test_support::load_lep;
using test_support::load_smart_light;

std::shared_ptr<const game::GameSolution> solve(const tsystem::System& sys,
                                                const std::string& purpose) {
  game::GameSolver solver(sys, tsystem::TestPurpose::parse(sys, purpose));
  return solver.solve();
}

std::vector<ConcreteState> fuzz_states(const game::GameSolution& solution,
                                       util::Rng& rng, std::size_t count) {
  const auto& g = solution.graph();
  dbm::bound_t max_const = 1;
  for (const dbm::bound_t c : g.max_constants()) {
    max_const = std::max(max_const, c);
  }
  const std::int64_t hi = (static_cast<std::int64_t>(max_const) + 2) * kScale;
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

// A unique abstract-adjacent path under the test tmpdir (sun_path is
// only ~100 bytes, so keep it short).
std::string socket_path(const char* tag) {
  return ::testing::TempDir() + "/tigat_" + tag + ".sock";
}

struct ServedTable {
  std::shared_ptr<const game::GameSolution> solution;
  DecisionTable table;
  Server server;

  ServedTable(const tsystem::System& sys, const std::string& purpose,
              const char* tag, unsigned threads = 2)
      : solution(solve(sys, purpose)),
        table(decision::compile(*solution)),
        server(table, {.socket_path = socket_path(tag),
                       .threads = threads}) {
    server.start();
  }
};

TEST(Serve, HelloCarriesTableIdentity) {
  const auto light = load_smart_light();
  ServedTable served(light.system, "control: A<> IUT.Bright", "hello");
  Client client = Client::connect(served.server.socket_path());
  EXPECT_EQ(client.hello().proto, kProtoVersion);
  EXPECT_EQ(client.hello().fingerprint, served.table.fingerprint());
  EXPECT_EQ(client.hello().clock_dim, served.table.clock_dim());
  EXPECT_EQ(client.hello().purpose_kind, served.table.purpose_kind());
  // info() re-fetches the same body over the wire.
  EXPECT_EQ(client.info(), client.hello());
  client.ping();
}

// The core equivalence: N concurrent clients, each streaming fuzz
// states, every reply equal to the in-process table's decide — on the
// reachability table and on the safety table (the fat-leaf path runs
// server-side too).
void check_concurrent_equivalence(const tsystem::System& sys,
                                  const std::string& purpose,
                                  const char* tag, std::size_t per_client) {
  ServedTable served(sys, purpose, tag);
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(kSeed + static_cast<std::uint64_t>(c));
      const auto states = fuzz_states(*served.solution, rng, per_client);
      Client client = Client::connect(served.server.socket_path());
      for (const ConcreteState& s : states) {
        const game::Move remote = client.decide(s, kScale);
        const game::Move local = served.table.decide(s, kScale);
        if (!(remote == local)) {
          failures[c] = "client " + std::to_string(c) +
                        ": served move differs from in-process decide";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_GE(served.server.connections_total(), kClients);
  EXPECT_GE(served.server.requests_total(),
            kClients * per_client + 0u);
  EXPECT_EQ(served.server.errors_total(), 0u);
}

TEST(Serve, SmartLightConcurrentClientsMatchInProcess) {
  const auto light = load_smart_light();
  check_concurrent_equivalence(light.system, "control: A<> IUT.Bright",
                               "sl_reach", 400);
}

TEST(Serve, SmartLightSafetyConcurrentClientsMatchInProcess) {
  const auto light = load_smart_light();
  check_concurrent_equivalence(light.system, "control: A[] !IUT.Bright",
                               "sl_safe", 400);
}

TEST(Serve, LepN3ConcurrentClientsMatchInProcess) {
  const auto lep = load_lep(3);
  check_concurrent_equivalence(lep.system, lep.purposes[0].source, "lep3",
                               150);  // TP1
}

// Replies come back in request order: pipeline a burst, then drain.
TEST(Serve, PipelinedRepliesStayInOrder) {
  const auto light = load_smart_light();
  ServedTable served(light.system, "control: A<> IUT.Bright", "pipe");
  util::Rng rng(kSeed);
  const auto states = fuzz_states(*served.solution, rng, 300);
  Client client = Client::connect(served.server.socket_path());
  for (const ConcreteState& s : states) client.send_decide(s, kScale);
  client.flush();
  for (const ConcreteState& s : states) {
    EXPECT_EQ(client.read_move(), served.table.decide(s, kScale));
  }
}

// A served table mapped from disk answers exactly like the compiled
// one it was saved from — the zero-copy daemon path end to end,
// in-process.
TEST(Serve, MappedTableServesIdentically) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A[] !IUT.Bright");
  const DecisionTable compiled = decision::compile(*solution);
  const std::string path = ::testing::TempDir() + "/serve_mapped.tgs";
  decision::save(compiled, path);
  const DecisionTable mapped = DecisionTable::map(path);
  ASSERT_TRUE(mapped.is_mapped());

  Server server(mapped, {.socket_path = socket_path("map"), .threads = 1});
  server.start();
  util::Rng rng(kSeed);
  const auto states = fuzz_states(*solution, rng, 500);
  Client client = Client::connect(server.socket_path());
  for (const ConcreteState& s : states) {
    EXPECT_EQ(client.decide(s, kScale), compiled.decide(s, kScale));
  }
  client.close();
  server.stop();
  std::remove(path.c_str());
}

// ── protocol edges ──────────────────────────────────────────────────

// Raw socket access for malformed-frame tests.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

std::vector<std::uint8_t> read_all(int fd) {
  std::vector<std::uint8_t> out;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

TEST(Serve, MalformedFramesGetBadRequestAndClose) {
  const auto light = load_smart_light();
  ServedTable served(light.system, "control: A<> IUT.Bright", "bad", 1);

  const auto expect_rejected = [&](std::vector<std::uint8_t> wire,
                                   const char* what) {
    const int fd = raw_connect(served.server.socket_path());
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()))
        << what;
    // hello frame, then the error reply, then EOF (server closed).
    const std::vector<std::uint8_t> got = read_all(fd);
    ::close(fd);
    std::size_t at = 0;
    const auto hello = next_frame(got, at);
    ASSERT_TRUE(hello.has_value()) << what;
    (void)decode_hello(*hello);
    const auto reply = next_frame(got, at);
    ASSERT_TRUE(reply.has_value()) << what;
    ASSERT_FALSE(reply->empty()) << what;
    EXPECT_EQ((*reply)[0], kStatusBadRequest) << what;
    EXPECT_EQ(at, got.size()) << what;  // nothing after the error
  };

  {
    std::vector<std::uint8_t> wire;
    const std::uint8_t op = 0x7f;  // unknown op
    append_frame(wire, std::span<const std::uint8_t>(&op, 1));
    expect_rejected(std::move(wire), "unknown op");
  }
  {
    std::vector<std::uint8_t> wire;
    append_frame(wire, std::span<const std::uint8_t>());  // empty request
    expect_rejected(std::move(wire), "empty frame");
  }
  {
    // A decide body truncated mid-count.
    std::vector<std::uint8_t> wire;
    const std::uint8_t body[] = {kOpDecide, 1, 2, 3};
    append_frame(wire, body);
    expect_rejected(std::move(wire), "truncated decide");
  }
  {
    // Shape mismatch: right structure, wrong loc vector length.
    ConcreteState s;
    s.locs = {0};  // table expects proc_count locs
    s.clocks = {0, 0, 0};
    std::vector<std::uint8_t> wire;
    append_frame(wire, encode_decide_request(s, kScale));
    expect_rejected(std::move(wire), "wrong shape");
  }
  {
    // An oversized length prefix must not allocate or hang.
    std::vector<std::uint8_t> wire(4);
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::memcpy(wire.data(), &huge, 4);
    expect_rejected(std::move(wire), "oversized frame");
  }
  EXPECT_GT(served.server.errors_total(), 0u);
}

// A long pipelined stream whose recv boundaries fall mid-frame: a fake
// server sends the hello and then thousands of replies, each send
// ending 7 bytes into a reply, so no recv ever ends on a frame
// boundary.  Every move decodes, and the client's receive buffer does
// not grow with the bytes received.
TEST(Serve, ClientReceiveBufferStaysBoundedOnChunkedStream) {
  const std::string path = socket_path("chunks");
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  constexpr std::uint32_t kReplies = 20000;
  const auto move_at = [](std::uint32_t i) {
    game::Move m;
    m.kind = static_cast<game::MoveKind>(i % 4);
    if (i % 3 == 0) m.edge = i;
    if (i % 5 != 0) m.rank = i / 2;
    m.next_decision_ticks = std::int64_t{i} * 1000 - 7;
    return m;
  };
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> cuts;  // where each send ends
  append_frame(stream, encode_hello({kProtoVersion, 42, 3, 2, 1, 0}));
  for (std::uint32_t i = 0; i < kReplies; ++i) {
    cuts.push_back(stream.size() + 7);
    append_move_reply(stream, move_at(i));
  }
  cuts.push_back(stream.size());
  std::thread fake_server([&] {
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;
    std::size_t at = 0;
    for (const std::size_t cut : cuts) {
      if (::send(fd, stream.data() + at, cut - at, MSG_NOSIGNAL) !=
          static_cast<ssize_t>(cut - at)) {
        break;
      }
      at = cut;
    }
    ::close(fd);
  });

  Client client = Client::connect(path);
  EXPECT_EQ(client.hello().fingerprint, 42u);
  std::size_t peak = 0;
  try {
    for (std::uint32_t i = 0; i < kReplies; ++i) {
      const game::Move move = client.read_move();
      if (!(move == move_at(i))) {
        ADD_FAILURE() << "reply " << i << " decoded wrong";
        break;
      }
      peak = std::max(peak, client.receive_buffer_bytes());
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  client.close();  // a fake server still sending fails and returns
  fake_server.join();
  ::close(listener);
  ::unlink(path.c_str());
  EXPECT_GT(stream.size(), 4 * RecvBuffer::kInitialBytes);
  EXPECT_LE(peak, RecvBuffer::kInitialBytes);
}

// A client may pipeline far more than kMaxFrameBytes between two reads:
// every request is still answered, in order.
TEST(Serve, PipelineOfSeveralMiBBetweenReadsIsServed) {
  const auto light = load_smart_light();
  ServedTable served(light.system, "control: A<> IUT.Bright", "bigpipe", 1);
  util::Rng rng(kSeed);
  const auto states = fuzz_states(*served.solution, rng, 1000);
  constexpr std::size_t kRequests = 60000;
  std::size_t request_bytes = 0;
  Client client = Client::connect(served.server.socket_path());
  for (std::size_t i = 0; i < kRequests; ++i) {
    const ConcreteState& s = states[i % states.size()];
    request_bytes += 4 + encode_decide_request(s, kScale).size();
    client.send_decide(s, kScale);
  }
  ASSERT_GT(request_bytes, 2 * std::size_t{kMaxFrameBytes});
  client.flush();
  for (std::size_t i = 0; i < kRequests; ++i) {
    const ConcreteState& s = states[i % states.size()];
    const game::Move move = client.read_move();
    if (!(move == served.table.decide(s, kScale))) {
      ADD_FAILURE() << "reply " << i << " differs from in-process decide";
      break;
    }
  }
  client.ping();
  EXPECT_EQ(served.server.errors_total(), 0u);
}

// A client that writes requests and never reads its replies is dropped
// once its unsent replies pass the server's 64 MiB output backlog, while
// another client on the same (single) worker keeps being answered.  The
// flood uses info requests: a 5-byte request earns a 33-byte reply, so
// about 10 MiB of writing reaches the backlog.  A flooder that has
// written kWriteCap without being dropped fails the test.  Whether a
// server that checks the backlog only between readiness events drops
// the flooder in time depends on scheduling, so the flood runs three
// times.
TEST(Serve, ClientThatNeverReadsIsDroppedPastTheBacklog) {
  const auto light = load_smart_light();
  ServedTable served(light.system, "control: A<> IUT.Bright", "flood", 1);
  util::Rng rng(kSeed);
  const auto states = fuzz_states(*served.solution, rng, 200);
  Client other = Client::connect(served.server.socket_path());

  constexpr std::size_t kWriteCap = 16u << 20;
  std::vector<std::uint8_t> chunk;
  const std::uint8_t info = kOpInfo;
  while (chunk.size() < (64u << 10)) {
    append_frame(chunk, std::span<const std::uint8_t>(&info, 1));
  }
  for (int round = 0; round < 3; ++round) {
    std::atomic<bool> flooding{true};
    std::size_t written = 0;
    int send_errno = 0;
    std::thread flooder([&] {
      const int fd = raw_connect(served.server.socket_path());
      while (written < kWriteCap) {
        const ssize_t n =
            ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) {
          send_errno = errno;
          break;
        }
        written += static_cast<std::size_t>(n);
      }
      ::close(fd);
      flooding.store(false);
    });

    // Answered while the flood runs, and after it is dropped.
    std::size_t answered = 0;
    std::string failure;
    try {
      do {
        const ConcreteState& s = states[answered % states.size()];
        if (!(other.decide(s, kScale) == served.table.decide(s, kScale))) {
          failure = "served move differs from in-process decide";
          break;
        }
        ++answered;
      } while (flooding.load() || answered < states.size());
    } catch (const std::exception& e) {
      failure = e.what();
    }
    flooder.join();
    EXPECT_EQ(failure, "") << "round " << round;
    EXPECT_TRUE(send_errno == EPIPE || send_errno == ECONNRESET)
        << "round " << round << ": flooder wrote " << written
        << " bytes and was not dropped";
  }
  EXPECT_EQ(served.server.errors_total(), 0u);
}

TEST(Serve, StopWhileClientsConnectedIsClean) {
  const auto light = load_smart_light();
  auto served = std::make_unique<ServedTable>(
      light.system, "control: A<> IUT.Bright", "stop");
  Client client = Client::connect(served->server.socket_path());
  client.ping();
  served->server.stop();
  // The socket is gone and the connection is dead — but the process
  // and the client object are fine.
  EXPECT_THROW((void)Client::connect(socket_path("stop")),
               std::system_error);
}

// ── the tigat-serve binary ──────────────────────────────────────────

#ifdef TIGAT_SERVE_BIN

struct Daemon {
  pid_t pid = -1;

  static Daemon spawn(const std::vector<std::string>& args) {
    Daemon d;
    d.pid = ::fork();
    if (d.pid == 0) {
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(TIGAT_SERVE_BIN));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(TIGAT_SERVE_BIN, argv.data());
      ::_exit(127);
    }
    return d;
  }

  int terminate() {
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }
};

bool wait_for_socket(const std::string& path, int tries = 100) {
  for (int t = 0; t < tries; ++t) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

TEST(ServeBinary, ServesSavedTableAndShutsDownCleanly) {
  const auto light = load_smart_light();
  const auto solution = solve(light.system, "control: A[] !IUT.Bright");
  const DecisionTable table = decision::compile(*solution);
  const std::string tgs = ::testing::TempDir() + "/serve_bin.tgs";
  decision::save(table, tgs);
  const std::string sock = socket_path("bin");

  Daemon daemon = Daemon::spawn(
      {"serve", "--table=" + tgs, "--socket=" + sock, "--threads=2"});
  ASSERT_TRUE(wait_for_socket(sock));

  {
    Client client = Client::connect(sock);
    EXPECT_EQ(client.hello().fingerprint, table.fingerprint());
    util::Rng rng(kSeed);
    for (const ConcreteState& s : fuzz_states(*solution, rng, 200)) {
      EXPECT_EQ(client.decide(s, kScale), table.decide(s, kScale));
    }
  }
  EXPECT_EQ(daemon.terminate(), 0);
  std::remove(tgs.c_str());
}

TEST(ServeBinary, LegacyTableIsRefusedWithMigrateDiagnostic) {
  // A bare v2 stub: serve must exit 1 (re-solve class), not 2.
  const std::string tgs = ::testing::TempDir() + "/serve_bin_v2.tgs";
  {
    std::vector<std::uint8_t> stub(24, 0);
    std::memcpy(stub.data(), "TGSD", 4);
    const std::uint32_t version = 2;
    std::memcpy(stub.data() + 4, &version, 4);
    std::FILE* f = std::fopen(tgs.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(stub.data(), 1, stub.size(), f);
    std::fclose(f);
  }
  Daemon daemon = Daemon::spawn(
      {"serve", "--table=" + tgs, "--socket=" + socket_path("binv2")});
  int status = 0;
  ::waitpid(daemon.pid, &status, 0);
  daemon.pid = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::remove(tgs.c_str());
}

#endif  // TIGAT_SERVE_BIN

}  // namespace
}  // namespace tigat::serve
