// Client — a blocking tigat-serve connection for tests, tools and
// benchmarks.
//
// connect() dials the daemon's Unix-domain socket and reads the hello
// frame, so table identity (fingerprint, shape) is available before
// the first request.  decide() is the simple call-response form;
// send_decide()/read_move() split the two halves so callers can
// pipeline a window of requests per syscall batch — the server
// guarantees in-order replies.  Requests are written straight into the
// send buffer and replies decoded where recv() left them, so a warm
// round trip allocates nothing.  One Client is one socket and is not
// thread-safe; spawn one per client thread.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "game/strategy.h"
#include "semantics/concrete.h"
#include "serve/protocol.h"

namespace tigat::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Dials `socket_path` and consumes the hello frame.  Throws
  // std::system_error on connection failure, ProtocolError on a bad
  // hello (including a protocol version mismatch).
  [[nodiscard]] static Client connect(const std::string& socket_path);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const Hello& hello() const { return hello_; }

  // One decide round trip.
  [[nodiscard]] game::Move decide(const semantics::ConcreteState& state,
                                  std::int64_t scale);

  // Pipelining: queue a request into the send buffer...
  void send_decide(const semantics::ConcreteState& state, std::int64_t scale);
  // ...push the queued bytes to the socket...
  void flush();
  // ...and read the next in-order reply (flushes first if needed).
  [[nodiscard]] game::Move read_move();

  // Liveness round trip; throws on any failure.
  void ping();
  // The info op — the hello body, re-fetched over the wire.
  [[nodiscard]] Hello info();

  void close();

  // Bytes held by the receive buffer; stays bounded on an endless
  // pipelined stream.
  [[nodiscard]] std::size_t receive_buffer_bytes() const {
    return recv_.capacity();
  }

 private:
  // The next reply payload, read into and left in the receive buffer:
  // valid until the next read.
  [[nodiscard]] std::span<const std::uint8_t> read_frame();

  int fd_ = -1;
  Hello hello_;
  std::vector<std::uint8_t> send_buffer_;
  RecvBuffer recv_;
};

}  // namespace tigat::serve
