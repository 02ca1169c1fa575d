// Server — the tigat-serve decide daemon core.
//
// One read-only DecisionTable (usually DecisionTable::map over a .tgs
// v3 file — zero-copy, page-cache shared) answered over a Unix-domain
// stream socket by a thread-per-core epoll pool.  decide() is
// const-thread-safe and allocation-free, so the workers share the
// table with no locks; each worker owns its connections outright
// (accepted on the worker that saw them first), giving a
// shared-nothing data path: the only cross-thread state is the
// listening socket and the atomic stats below.
//
// The data path copies no payload: each recv() lands in the
// connection's RecvBuffer, a decide request decodes from there into a
// per-connection scratch state, and the reply is written straight into
// the connection's output buffer, so a warm request allocates nothing.
// Every recv is answered before the next, so at most one partial frame
// stays buffered on the input side.
//
// Responses are written in request order per connection, and clients
// may pipeline arbitrarily many requests; when a client stops reading,
// the per-connection output buffer absorbs the burst and the worker
// falls back to EPOLLOUT-driven draining (backpressure, not memory
// growth without bound: the connection is dropped past
// kMaxOutputBacklog).  The read loop flushes, and so checks that
// backlog, every 64 KiB of replies, and reads at most 1 MiB per
// readiness event, so a client that writes without reading cannot
// outrun the check or starve the worker's other connections.
//
// Observability: request counts and decide latency land in the global
// obs registry ("serve.requests", "serve.connections", "serve.errors"
// counters; "decide.latency_ns" comes from the table itself), and the
// workers feed obs::Progress serve heartbeats when enabled.
//
// start() binds and spawns the workers and returns; stop() (or
// destruction) wakes every worker, joins them, and unlinks the socket
// path.  The table must outlive the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decision/table.h"

namespace tigat::serve {

struct ServerConfig {
  std::string socket_path;
  // Worker threads; 0 = one per online core.
  unsigned threads = 0;
  // Connections queued in the kernel before accept.
  int listen_backlog = 128;
};

class Server {
 public:
  Server(const decision::DecisionTable& table, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket (unlinking a stale path first) and spawns the
  // workers.  Throws std::system_error on socket/bind/listen failure.
  void start();

  // Signals every worker, joins them, closes all connections and
  // unlinks the socket path.  Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }
  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  // Lifetime totals across all workers.
  [[nodiscard]] std::uint64_t connections_total() const {
    return connections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_total() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t errors_total() const {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;

  void run_worker(Worker& worker);

  const decision::DecisionTable* table_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int stop_event_fd_ = -1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace tigat::serve
