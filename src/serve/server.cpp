#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "serve/protocol.h"
#include "util/assert.h"

namespace tigat::serve {

namespace {

// Output backlog past which a non-reading client is dropped instead of
// buffered further (64 MiB: far above any sane pipelining window).
constexpr std::size_t kMaxOutputBacklog = 64u << 20;

// Unflushed replies past which the read loop flushes (and so checks
// the backlog) before it reads on.
constexpr std::size_t kFlushBytes = 64u << 10;

// Bytes one readiness event reads from one connection before the
// worker moves on to its other connections.
constexpr std::size_t kMaxReadPerEvent = 1u << 20;

[[noreturn]] void raise(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

// One connection, owned by exactly one worker thread (no locking).
struct Connection {
  int fd = -1;
  RecvBuffer in;  // recv() writes here; requests decode in place
  std::vector<std::uint8_t> out;
  std::size_t out_at = 0;  // flushed prefix of `out`
  bool want_write = false;
  // Scratch state reused across decide requests (allocation-free once
  // warm).
  semantics::ConcreteState state;
};

struct Server::Worker {
  int epoll_fd = -1;
  std::unordered_map<int, Connection> conns;
};

Server::Server(const decision::DecisionTable& table, ServerConfig config)
    : table_(&table), config_(std::move(config)) {}

Server::~Server() { stop(); }

void Server::start() {
  TIGAT_ASSERT(!running_.load(), "server already started");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) raise("socket");
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = ENAMETOOLONG;
    raise("socket path");
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config_.listen_backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    raise("bind/listen");
  }
  stop_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_event_fd_ < 0) raise("eventfd");

  unsigned n = config_.threads;
  if (n == 0) {
    const unsigned cores = std::thread::hardware_concurrency();
    n = cores ? cores : 1;
  }
  running_.store(true);
  workers_.reserve(n);
  threads_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0) raise("epoll_create1");
    // Every worker polls the shared listening socket (level-triggered;
    // EPOLLEXCLUSIVE needs a newer kernel than we target).  A wakeup
    // that loses the accept race reads EAGAIN and moves on.
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      raise("epoll_ctl listen");
    }
    ev.events = EPOLLIN;
    ev.data.fd = stop_event_fd_;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, stop_event_fd_, &ev) !=
        0) {
      raise("epoll_ctl stop event");
    }
    workers_.push_back(std::move(worker));
  }
  for (unsigned w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { run_worker(*workers_[w]); });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) {
    // Never started (or already stopped): still release any fds from a
    // start() that threw halfway.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (stop_event_fd_ >= 0) {
      ::close(stop_event_fd_);
      stop_event_fd_ = -1;
    }
    return;
  }
  const std::uint64_t one = 1;
  // Each worker consumes no bytes from the eventfd (it only observes
  // readability and re-checks running_), so one write wakes them all.
  (void)!::write(stop_event_fd_, &one, sizeof(one));
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  for (auto& worker : workers_) {
    for (auto& [fd, conn] : worker->conns) ::close(fd);
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
  }
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(stop_event_fd_);
  stop_event_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  obs::progress().emit_serve("serve-done", connections_total(),
                             requests_total(), errors_total());
}

void Server::run_worker(Worker& worker) {
  const bool metrics = obs::metrics_enabled();
  obs::Counter* req_counter =
      metrics ? &obs::metrics().counter("serve.requests") : nullptr;
  obs::Counter* conn_counter =
      metrics ? &obs::metrics().counter("serve.connections") : nullptr;
  obs::Counter* err_counter =
      metrics ? &obs::metrics().counter("serve.errors") : nullptr;

  const std::vector<std::uint8_t> hello_payload = encode_hello({
      kProtoVersion,
      table_->fingerprint(),
      table_->clock_dim(),
      static_cast<std::uint32_t>(table_->view().proc_count()),
      static_cast<std::uint32_t>(table_->view().slot_count()),
      table_->purpose_kind(),
  });

  const auto drop = [&](int fd) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    worker.conns.erase(fd);
  };

  // Flush as much of conn.out as the socket takes; arms/disarms
  // EPOLLOUT as the backlog dictates.  False = connection died.
  const auto flush = [&](Connection& conn) {
    while (conn.out_at < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_at,
                 conn.out.size() - conn.out_at, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_at += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // peer went away
    }
    if (conn.out_at == conn.out.size()) {
      conn.out.clear();
      conn.out_at = 0;
    } else if (conn.out_at > (16u << 10) && conn.out_at * 2 > conn.out.size()) {
      // Compact the flushed prefix occasionally so a long-lived
      // pipelining client does not grow the buffer monotonically.
      conn.out.erase(conn.out.begin(),
                     conn.out.begin() +
                         static_cast<std::ptrdiff_t>(conn.out_at));
      conn.out_at = 0;
    }
    const bool want_write = !conn.out.empty();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      epoll_event ev = {};
      ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
      ev.data.fd = conn.fd;
      ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    }
    return conn.out.size() <= kMaxOutputBacklog;
  };

  // Parses and answers every complete frame buffered on `conn`,
  // appending the replies to conn.out.  False = protocol violation
  // (connection must close after the error reply drains as far as one
  // flush can take it).
  const auto process = [&](Connection& conn) {
    bool ok = true;
    while (ok) {
      std::optional<std::span<const std::uint8_t>> frame;
      try {
        frame = conn.in.next_frame();
      } catch (const ProtocolError& e) {
        const auto reply = encode_error_reply(e.what());
        append_frame(conn.out, reply);
        ok = false;
        break;
      }
      if (!frame) break;
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (req_counter) req_counter->add(1);
      if (frame->empty()) {
        append_frame(conn.out, encode_error_reply("empty request"));
        ok = false;
        break;
      }
      const std::uint8_t op = (*frame)[0];
      const std::span<const std::uint8_t> body = frame->subspan(1);
      switch (op) {
        case kOpDecide: {
          std::int64_t scale = 1;
          try {
            decode_decide_request(body, conn.state, scale);
          } catch (const ProtocolError& e) {
            append_frame(conn.out, encode_error_reply(e.what()));
            ok = false;
            break;
          }
          if (conn.state.clocks.size() != table_->clock_dim() ||
              scale <= 0) {
            append_frame(conn.out,
                         encode_error_reply("state shape mismatch"));
            ok = false;
            break;
          }
          append_move_reply(conn.out, table_->decide(conn.state, scale));
          break;
        }
        case kOpPing: {
          const std::uint8_t okb = kStatusOk;
          append_frame(conn.out, std::span<const std::uint8_t>(&okb, 1));
          break;
        }
        case kOpInfo: {
          std::vector<std::uint8_t> reply;
          reply.reserve(1 + hello_payload.size());
          reply.push_back(kStatusOk);
          reply.insert(reply.end(), hello_payload.begin(),
                       hello_payload.end());
          append_frame(conn.out, reply);
          break;
        }
        default:
          append_frame(conn.out, encode_error_reply("unknown op"));
          ok = false;
          break;
      }
    }
    return ok;
  };

  epoll_event events[64];
  while (running_.load(std::memory_order_relaxed)) {
    const int ready =
        ::epoll_wait(worker.epoll_fd, events, 64, /*timeout ms=*/500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int e = 0; e < ready; ++e) {
      const int fd = events[e].data.fd;
      if (fd == stop_event_fd_) continue;  // running_ re-checked above
      if (fd == listen_fd_) {
        for (;;) {
          const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (client < 0) break;  // EAGAIN: another worker won the race
          Connection conn;
          conn.fd = client;
          append_frame(conn.out, hello_payload);
          epoll_event ev = {};
          ev.events = EPOLLIN;
          ev.data.fd = client;
          if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, client, &ev) != 0) {
            ::close(client);
            continue;
          }
          connections_.fetch_add(1, std::memory_order_relaxed);
          if (conn_counter) conn_counter->add(1);
          auto [it, inserted] = worker.conns.emplace(client, std::move(conn));
          if (!flush(it->second)) drop(client);
        }
        continue;
      }
      const auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      Connection& conn = it->second;
      bool alive = true;
      if (events[e].events & (EPOLLHUP | EPOLLERR)) {
        alive = false;
      }
      // Each recv lands in the connection's buffer and is answered
      // before the next one, so at most one partial frame stays
      // buffered (next_frame rejects a length past kMaxFrameBytes).
      // The replies are flushed, and the backlog checked, whenever
      // kFlushBytes of them pile up, and one event reads at most
      // kMaxReadPerEvent: a client that writes faster than it is
      // answered neither grows conn.out past kMaxOutputBacklog nor
      // starves the worker's other connections (level-triggered epoll
      // reports the rest of its input again).
      std::size_t read_this_event = 0;
      while (alive && (events[e].events & EPOLLIN) &&
             read_this_event < kMaxReadPerEvent) {
        const std::span<std::uint8_t> space = conn.in.space();
        const ssize_t n = ::recv(fd, space.data(), space.size(), 0);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          alive = false;  // orderly shutdown from the client, or an error
          break;
        }
        conn.in.commit(static_cast<std::size_t>(n));
        read_this_event += static_cast<std::size_t>(n);
        if (!process(conn)) {
          errors_.fetch_add(1, std::memory_order_relaxed);
          if (err_counter) err_counter->add(1);
          flush(conn);  // best-effort error reply
          alive = false;
        } else if (conn.out.size() - conn.out_at > kFlushBytes &&
                   !flush(conn)) {
          alive = false;  // peer gone, or backlog past kMaxOutputBacklog
        }
        // A short read drained the socket: another recv would only
        // return EAGAIN.  Level-triggered epoll reports later bytes (or
        // the peer's shutdown) as a new event.
        if (static_cast<std::size_t>(n) < space.size()) break;
      }
      if (alive && !flush(conn)) alive = false;
      if (!alive) drop(fd);
    }
    obs::progress().tick_serve(connections_total(), requests_total(),
                               errors_total());
  }
}

}  // namespace tigat::serve
