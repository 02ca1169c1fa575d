// The tigat-serve wire protocol (proto v1).
//
// A client connects to the daemon's Unix-domain socket and speaks
// little-endian, length-prefixed frames:
//
//   frame   := u32 length | payload[length]
//   hello   := u32 proto | u64 fingerprint | u32 clock_dim
//            | u32 proc_count | u32 slot_count | u32 purpose_kind
//   request := u8 op | op-specific body
//   reply   := u8 status | status/op-specific body
//
// On connect the server immediately sends one hello frame, so a client
// can check the protocol version and the table identity (the model
// fingerprint) before issuing requests.  Requests:
//
//   kDecide (1): i64 scale | u32 nl, nl×u32 locs | u32 ns, ns×i32 data
//                | u32 nc, nc×i64 clocks
//     → kOk + move: u8 kind | u8 has_edge | u32 edge | u8 has_rank
//                 | u32 rank | i64 next_decision_ticks
//   kPing   (2): empty → kOk, empty (liveness / latency probe)
//   kInfo   (3): empty → kOk + the hello body again
//
// Replies come back in request order, so clients may pipeline any
// number of requests before reading (bench_serve drives the daemon
// this way).  A malformed frame gets kBadRequest with a u32 reason
// length + UTF-8 reason, after which the server closes the connection
// — desync recovery inside one stream is not attempted.
//
// Everything here is transport-free and works in place.  The append_*
// writers size a frame, grow the caller's send buffer once and write
// the length prefix and payload straight into it; locs and clocks are
// copied as whole arrays.  The decoders read words with memcpy from
// the bytes where they lie, so a payload span into a RecvBuffer (the
// receive side: sockets recv straight into it) is decoded without a
// copy.  encode_* return one payload (no length prefix) in a fresh
// vector, written by the same writer as the matching append_*.  Words
// are little-endian on any host.  serve/server.h and serve/client.h own
// the sockets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "game/strategy.h"
#include "semantics/concrete.h"

namespace tigat::serve {

inline constexpr std::uint32_t kProtoVersion = 1;

// Upper bound on any frame this implementation sends or accepts.  A
// decide request for a big model is a few KiB; 1 MiB leaves slack
// without letting a corrupt length prefix allocate gigabytes.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum Op : std::uint8_t {
  kOpDecide = 1,
  kOpPing = 2,
  kOpInfo = 3,
};

enum Status : std::uint8_t {
  kStatusOk = 0,
  kStatusBadRequest = 1,
};

// The hello / info body: protocol + table identity.
struct Hello {
  std::uint32_t proto = kProtoVersion;
  std::uint64_t fingerprint = 0;
  std::uint32_t clock_dim = 0;
  std::uint32_t proc_count = 0;
  std::uint32_t slot_count = 0;
  std::uint32_t purpose_kind = 0;

  [[nodiscard]] bool operator==(const Hello&) const = default;
};

// Raised by decoders on malformed frames (short body, counts past the
// frame, unknown op/status).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ── framing ─────────────────────────────────────────────────────────

// Appends `payload` to `out` as one frame (u32 length prefix).
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

// If `in` starting at `at` holds a complete frame, returns its payload
// (pointing into `in`) and advances `at` past it; std::nullopt when
// more bytes are needed.  Throws ProtocolError when the length prefix
// exceeds kMaxFrameBytes.
[[nodiscard]] std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> in, std::size_t& at);

// The receive side of one connection: a socket recv()s straight into
// space(), and next_frame() hands out payloads where they lie.  A
// payload stays valid until the next space() call.  Consumed bytes are
// dropped by moving the unparsed tail to the front when the free space
// runs short, so however long the stream runs the buffer stays at its
// initial 16 KiB unless one frame needs more.
class RecvBuffer {
 public:
  // At least kMinSpace free bytes past the received ones.
  [[nodiscard]] std::span<std::uint8_t> space();
  // Marks `n` bytes of space() as received.
  void commit(std::size_t n) { end_ += n; }
  // next_frame() over the received, unparsed bytes.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> next_frame() {
    return serve::next_frame(
        std::span<const std::uint8_t>(bytes_.data(), end_), at_);
  }
  void clear() { at_ = end_ = 0; }
  // Bytes the buffer holds, received or free.
  [[nodiscard]] std::size_t capacity() const { return bytes_.size(); }

  static constexpr std::size_t kMinSpace = 4u << 10;
  static constexpr std::size_t kInitialBytes = 16u << 10;

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t at_ = 0;   // parsed prefix
  std::size_t end_ = 0;  // received prefix
};

// ── payload codecs ──────────────────────────────────────────────────
//
// append_* write one whole frame (length prefix + payload) at the end
// of `out`, growing it once.  encode_* return the bare payload, for
// append_frame or for tests and benchmarks.

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] Hello decode_hello(std::span<const std::uint8_t> payload);

void append_decide_request(std::vector<std::uint8_t>& out,
                           const semantics::ConcreteState& state,
                           std::int64_t scale);
[[nodiscard]] std::vector<std::uint8_t> encode_decide_request(
    const semantics::ConcreteState& state, std::int64_t scale);
// Decodes a kDecide body (everything after the op byte) into `state`
// (resized/overwritten — reuse one scratch state per connection).
void decode_decide_request(std::span<const std::uint8_t> body,
                           semantics::ConcreteState& state,
                           std::int64_t& scale);

void append_move_reply(std::vector<std::uint8_t>& out,
                       const game::Move& move);
[[nodiscard]] std::vector<std::uint8_t> encode_move_reply(
    const game::Move& move);
[[nodiscard]] game::Move decode_move_reply(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_error_reply(
    const std::string& reason);

}  // namespace tigat::serve
