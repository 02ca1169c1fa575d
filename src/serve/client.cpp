#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace tigat::serve {

namespace {

[[noreturn]] void raise(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      hello_(other.hello_),
      send_buffer_(std::move(other.send_buffer_)),
      recv_(std::exchange(other.recv_, {})) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    hello_ = other.hello_;
    send_buffer_ = std::move(other.send_buffer_);
    recv_ = std::exchange(other.recv_, {});
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  send_buffer_.clear();
  recv_.clear();
}

Client Client::connect(const std::string& socket_path) {
  Client client;
  client.fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (client.fd_ < 0) raise("socket");
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    raise("socket path");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(client.fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    raise("connect");
  }
  client.hello_ = decode_hello(client.read_frame());
  if (client.hello_.proto != kProtoVersion) {
    throw ProtocolError("server speaks an unsupported protocol version");
  }
  return client;
}

std::span<const std::uint8_t> Client::read_frame() {
  for (;;) {
    try {
      if (const auto frame = recv_.next_frame()) return *frame;
    } catch (const ProtocolError&) {
      close();
      throw;
    }
    const std::span<std::uint8_t> space = recv_.space();
    const ssize_t n = ::recv(fd_, space.data(), space.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("recv");
    }
    if (n == 0) {
      close();
      throw ProtocolError("server closed the connection");
    }
    recv_.commit(static_cast<std::size_t>(n));
  }
}

void Client::send_decide(const semantics::ConcreteState& state,
                         std::int64_t scale) {
  append_decide_request(send_buffer_, state, scale);
}

void Client::flush() {
  std::size_t at = 0;
  while (at < send_buffer_.size()) {
    const ssize_t n = ::send(fd_, send_buffer_.data() + at,
                             send_buffer_.size() - at, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("send");
    }
    at += static_cast<std::size_t>(n);
  }
  send_buffer_.clear();
}

game::Move Client::read_move() {
  if (!send_buffer_.empty()) flush();
  return decode_move_reply(read_frame());
}

game::Move Client::decide(const semantics::ConcreteState& state,
                          std::int64_t scale) {
  send_decide(state, scale);
  return read_move();
}

void Client::ping() {
  const std::uint8_t op = kOpPing;
  append_frame(send_buffer_, std::span<const std::uint8_t>(&op, 1));
  flush();
  const std::span<const std::uint8_t> reply = read_frame();
  if (reply.size() != 1 || reply[0] != kStatusOk) {
    throw ProtocolError("bad ping reply");
  }
}

Hello Client::info() {
  const std::uint8_t op = kOpInfo;
  append_frame(send_buffer_, std::span<const std::uint8_t>(&op, 1));
  flush();
  const std::span<const std::uint8_t> reply = read_frame();
  if (reply.empty() || reply[0] != kStatusOk) {
    throw ProtocolError("bad info reply");
  }
  return decode_hello(reply.subspan(1));
}

}  // namespace tigat::serve
