// The proto-v1 codec on its own, without sockets: the exact wire bytes
// of each message, round trips of edge shapes through the in-place
// writers and decoders, a receive buffer that stays bounded on an
// endless stream, and a deterministic mutation sweep over the decoders
// (every truncation, single-byte flips at every offset, forged counts
// and lengths) in which each decode either succeeds or throws
// ProtocolError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "game/strategy.h"
#include "semantics/concrete.h"
#include "serve/protocol.h"

namespace tigat::serve {
namespace {

using semantics::ConcreteState;
using Bytes = std::vector<std::uint8_t>;

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

ConcreteState make_state(std::vector<tsystem::LocId> locs,
                         std::vector<std::int32_t> data,
                         std::vector<std::int64_t> clocks) {
  ConcreteState s;
  s.locs = std::move(locs);
  s.data = tsystem::DataState(std::move(data));
  s.clocks = std::move(clocks);
  return s;
}

game::Move make_move(game::MoveKind kind, std::optional<std::uint32_t> edge,
                     std::optional<std::uint32_t> rank, std::int64_t ticks) {
  game::Move m;
  m.kind = kind;
  m.edge = edge;
  m.rank = rank;
  m.next_decision_ticks = ticks;
  return m;
}

// The payload part of one frame appended by an append_* writer.
Bytes payload_of(const Bytes& frame) {
  EXPECT_GE(frame.size(), 4u);
  std::uint32_t length = 0;
  std::memcpy(&length, frame.data(), 4);
  EXPECT_EQ(length + 4u, frame.size());
  return Bytes(frame.begin() + 4, frame.end());
}

// ── golden wire bytes (captured from the byte-at-a-time encoder the
// in-place writers replaced; they must never change within proto v1) ──

const ConcreteState kGoldenState =
    make_state({1, 258}, {-3, 7}, {0, 37, 65536});
const game::Move kGoldenMove =
    make_move(game::MoveKind::kAction, 0x01020304u, 5u, -2);

const Bytes kGoldenRequest = {
    0x3d, 0x00, 0x00, 0x00,                          // length 61
    0x01,                                            // op decide
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // scale 16
    0x02, 0x00, 0x00, 0x00,                          // 2 locs
    0x01, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00,  // 1, 258
    0x02, 0x00, 0x00, 0x00,                          // 2 data slots
    0xfd, 0xff, 0xff, 0xff, 0x07, 0x00, 0x00, 0x00,  // -3, 7
    0x03, 0x00, 0x00, 0x00,                          // 3 clocks
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0
    0x25, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 37
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,  // 65536
};

const Bytes kGoldenReply = {
    0x14, 0x00, 0x00, 0x00,                          // length 20
    0x00,                                            // status ok
    0x01,                                            // kind action
    0x01, 0x04, 0x03, 0x02, 0x01,                    // edge 0x01020304
    0x01, 0x05, 0x00, 0x00, 0x00,                    // rank 5
    0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // ticks -2
};

const Hello kGoldenHello{1, 0x1122334455667788ull, 3, 2, 1, 0};
const Bytes kGoldenHelloPayload = {
    0x01, 0x00, 0x00, 0x00,                          // proto 1
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // fingerprint
    0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  // clock_dim, procs
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // slots, purpose
};

const Bytes kGoldenErrorPayload = {0x01, 0x03, 0x00, 0x00, 0x00,
                                   'b',  'a',  'd'};

TEST(ServeProtocol, DecideRequestWireBytesAreGolden) {
  Bytes frame;
  append_decide_request(frame, kGoldenState, 16);
  EXPECT_EQ(frame, kGoldenRequest);
  EXPECT_EQ(encode_decide_request(kGoldenState, 16), payload_of(frame));
}

TEST(ServeProtocol, MoveReplyWireBytesAreGolden) {
  Bytes frame;
  append_move_reply(frame, kGoldenMove);
  EXPECT_EQ(frame, kGoldenReply);
  EXPECT_EQ(encode_move_reply(kGoldenMove), payload_of(frame));
}

TEST(ServeProtocol, HelloAndErrorWireBytesAreGolden) {
  EXPECT_EQ(encode_hello(kGoldenHello), kGoldenHelloPayload);
  EXPECT_EQ(decode_hello(kGoldenHelloPayload), kGoldenHello);
  EXPECT_EQ(encode_error_reply("bad"), kGoldenErrorPayload);
  try {
    (void)decode_move_reply(kGoldenErrorPayload);
    ADD_FAILURE() << "an error reply decoded as a move";
  } catch (const ProtocolError& e) {
    EXPECT_STREQ(e.what(), "server rejected request: bad");
  }
  Bytes frame;
  append_frame(frame, kGoldenErrorPayload);
  EXPECT_EQ(payload_of(frame), kGoldenErrorPayload);
}

// ── round trips ─────────────────────────────────────────────────────

TEST(ServeProtocol, DecideRequestRoundTripsEdgeShapes) {
  struct Shape {
    ConcreteState state;
    std::int64_t scale;
  };
  const std::vector<Shape> shapes = {
      {make_state({}, {}, {0}), 1},                   // 0 locs, 0 slots, dim 1
      {make_state({7}, {}, {0}), kI64Max},            // no data
      {make_state({}, {-1}, {0}), kI64Min},           // no locs
      {make_state({0, 1, 2}, {-1, kI32Min, kI32Max, 0},
                  {0, kI64Max, kI64Min, -1}),
       16},
      {make_state({0xffffffffu}, {-5}, {0, 1}), 16},  // same slot count again
      {kGoldenState, 16},
  };
  // Frames are appended behind bytes already in the buffer, and one
  // scratch state is reused, so both the resize and the in-place data
  // paths of the decoder run.
  Bytes wire = {0xaa, 0xbb};
  ConcreteState scratch;
  for (const Shape& shape : shapes) {
    const std::size_t before = wire.size();
    append_decide_request(wire, shape.state, shape.scale);
    const Bytes frame(wire.begin() + static_cast<std::ptrdiff_t>(before),
                      wire.end());
    EXPECT_EQ(encode_decide_request(shape.state, shape.scale),
              payload_of(frame));
    std::size_t at = before;
    const auto payload = next_frame(wire, at);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(at, wire.size());
    ASSERT_FALSE(payload->empty());
    EXPECT_EQ((*payload)[0], kOpDecide);
    std::int64_t scale = 0;
    decode_decide_request(payload->subspan(1), scratch, scale);
    EXPECT_EQ(scratch, shape.state);
    EXPECT_EQ(scale, shape.scale);
  }
  EXPECT_EQ(wire[0], 0xaa);
  EXPECT_EQ(wire[1], 0xbb);
}

TEST(ServeProtocol, MoveReplyRoundTripsEveryFlagCombination) {
  using game::MoveKind;
  Bytes wire;
  std::vector<game::Move> moves;
  for (const MoveKind kind : {MoveKind::kGoalReached, MoveKind::kAction,
                              MoveKind::kDelay, MoveKind::kUnwinnable}) {
    for (const bool has_edge : {false, true}) {
      for (const bool has_rank : {false, true}) {
        for (const std::int64_t ticks :
             {std::int64_t{0}, kI64Min, kI64Max, game::Move::kNoDecision}) {
          game::Move m = make_move(
              kind, has_edge ? std::optional<std::uint32_t>(0xfffffffeu)
                             : std::nullopt,
              has_rank ? std::optional<std::uint32_t>(0u) : std::nullopt,
              ticks);
          const std::size_t before = wire.size();
          append_move_reply(wire, m);
          EXPECT_EQ(encode_move_reply(m),
                    Bytes(wire.begin() + static_cast<std::ptrdiff_t>(before) +
                              4,
                          wire.end()));
          moves.push_back(m);
        }
      }
    }
  }
  std::size_t at = 0;
  for (const game::Move& m : moves) {
    const auto payload = next_frame(wire, at);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(decode_move_reply(*payload), m);
  }
  EXPECT_EQ(at, wire.size());
  EXPECT_FALSE(next_frame(wire, at).has_value());
}

// ── the receive buffer ──────────────────────────────────────────────

// Every read ends 7 bytes into a reply, so the buffer never drains: one
// that only resets when empty would grow by every byte received.
TEST(ServeProtocol, RecvBufferStaysBoundedOnAnEndlessStream) {
  Bytes stream;
  constexpr std::uint32_t kReplies = 20000;
  for (std::uint32_t i = 0; i < kReplies; ++i) {
    append_move_reply(stream, make_move(game::MoveKind::kDelay, std::nullopt,
                                        i, std::int64_t{i} * 3));
  }
  constexpr std::size_t kFrame = 24;  // length prefix + 20-byte move
  ASSERT_EQ(stream.size(), kReplies * kFrame);
  RecvBuffer in;
  std::size_t fed = 0;
  std::uint32_t decoded = 0;
  std::size_t peak = 0;
  while (fed < stream.size()) {
    const std::span<std::uint8_t> space = in.space();
    ASSERT_GE(space.size(), RecvBuffer::kMinSpace);
    const std::size_t n =
        std::min<std::size_t>(fed == 0 ? 7 : kFrame, stream.size() - fed);
    std::memcpy(space.data(), stream.data() + fed, n);
    in.commit(n);
    fed += n;
    while (const auto payload = in.next_frame()) {
      const game::Move m = decode_move_reply(*payload);
      ASSERT_EQ(m.rank, decoded);
      ASSERT_EQ(m.next_decision_ticks, std::int64_t{decoded} * 3);
      ++decoded;
    }
    peak = std::max(peak, in.capacity());
  }
  EXPECT_EQ(decoded, kReplies);
  EXPECT_GT(stream.size(), 4 * RecvBuffer::kInitialBytes);
  EXPECT_EQ(peak, RecvBuffer::kInitialBytes);
}

// A frame larger than the initial buffer grows it, and the payload
// stays intact across the moves that compact the buffer.
TEST(ServeProtocol, RecvBufferGrowsForOneLargeFrame) {
  Bytes big(200000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Bytes stream;
  append_move_reply(stream, kGoldenMove);
  append_frame(stream, big);
  append_move_reply(stream, kGoldenMove);
  RecvBuffer in;
  std::size_t fed = 0;
  std::vector<Bytes> frames;
  while (fed < stream.size()) {
    const std::span<std::uint8_t> space = in.space();
    const std::size_t n = std::min(space.size(), stream.size() - fed);
    std::memcpy(space.data(), stream.data() + fed, n);
    in.commit(n);
    fed += n;
    while (const auto payload = in.next_frame()) {
      frames.emplace_back(payload->begin(), payload->end());
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(decode_move_reply(frames[0]), kGoldenMove);
  EXPECT_EQ(frames[1], big);
  EXPECT_EQ(decode_move_reply(frames[2]), kGoldenMove);
  EXPECT_LE(in.capacity(), 2 * (big.size() + RecvBuffer::kMinSpace));
}

// ── deterministic decoder fuzzing ───────────────────────────────────

struct Outcomes {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
};

// Runs `decode`, which must either return or throw ProtocolError.
template <class Decode>
void survive(Decode&& decode, Outcomes& out, const std::string& what) {
  try {
    decode();
    ++out.decoded;
  } catch (const ProtocolError&) {
    ++out.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-protocol exception: " << e.what();
  }
}

// Feeds `wire` (one frame, possibly damaged) to next_frame, and its
// payload bytes to every payload decoder, whatever the prefix says.  A
// decide body that decodes must re-encode to the same bytes: the
// request format has one encoding per state.
void decode_everything(std::span<const std::uint8_t> wire,
                       ConcreteState& scratch, Outcomes& out,
                       const std::string& what) {
  std::size_t at = 0;
  std::optional<std::span<const std::uint8_t>> framed;
  survive([&] { framed = next_frame(wire, at); }, out, what + " next_frame");
  std::vector<std::span<const std::uint8_t>> payloads;
  if (wire.size() >= 4) payloads.push_back(wire.subspan(4));
  if (framed) payloads.push_back(*framed);
  for (const auto payload : payloads) {
    survive([&] { (void)decode_hello(payload); }, out, what + " hello");
    survive([&] { (void)decode_move_reply(payload); }, out, what + " move");
    if (payload.empty()) continue;
    survive(
        [&] {
          std::int64_t scale = 0;
          decode_decide_request(payload.subspan(1), scratch, scale);
          Bytes again = encode_decide_request(scratch, scale);
          again[0] = payload[0];
          EXPECT_EQ(again, Bytes(payload.begin(), payload.end())) << what;
        },
        out, what + " decide");
  }
}

std::vector<Bytes> seed_frames() {
  std::vector<Bytes> seeds;
  seeds.push_back(kGoldenRequest);
  Bytes frame;
  append_decide_request(frame, make_state({}, {}, {0}), 1);
  seeds.push_back(frame);
  frame.clear();
  append_decide_request(frame,
                        make_state({3, 0, 9}, {kI32Min, 1}, {0, kI64Max}),
                        kI64Min);
  seeds.push_back(frame);
  seeds.push_back(kGoldenReply);
  frame.clear();
  append_move_reply(frame, make_move(game::MoveKind::kDelay, std::nullopt,
                                     std::nullopt, game::Move::kNoDecision));
  seeds.push_back(frame);
  frame.clear();
  append_frame(frame, kGoldenHelloPayload);
  seeds.push_back(frame);
  frame.clear();
  append_frame(frame, kGoldenErrorPayload);
  seeds.push_back(frame);
  return seeds;
}

TEST(ServeProtocolFuzz, EveryTruncationDecodesOrThrowsProtocolError) {
  ConcreteState scratch;
  Outcomes out;
  for (const Bytes& seed : seed_frames()) {
    for (std::size_t len = 0; len <= seed.size(); ++len) {
      decode_everything(std::span<const std::uint8_t>(seed.data(), len),
                        scratch, out, "truncated to " + std::to_string(len));
    }
  }
  EXPECT_GT(out.decoded, 0u);
  EXPECT_GT(out.rejected, 0u);
}

TEST(ServeProtocolFuzz, EverySingleByteFlipDecodesOrThrowsProtocolError) {
  ConcreteState scratch;
  Outcomes out;
  for (const Bytes& seed : seed_frames()) {
    for (std::size_t at = 0; at < seed.size(); ++at) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        Bytes damaged = seed;
        damaged[at] ^= mask;
        decode_everything(damaged, scratch, out,
                          "byte " + std::to_string(at) + " ^ " +
                              std::to_string(mask));
      }
    }
  }
  EXPECT_GT(out.decoded, 0u);
  EXPECT_GT(out.rejected, 0u);
}

void expect_protocol_error(const std::function<void()>& decode,
                           const char* message) {
  try {
    decode();
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const ProtocolError& e) {
    EXPECT_STREQ(e.what(), message);
  }
}

void put_u32(Bytes& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, 4);
}

TEST(ServeProtocolFuzz, ForgedCountsAndLengthsAreRejected) {
  // kGoldenRequest: nl at 13, ns at 13 + 4 + 2*4 = 25, nc at 25 + 4 +
  // 2*4 = 37 (offsets in the frame, length prefix included).
  ConcreteState scratch;
  std::int64_t scale = 0;
  for (const std::size_t count_at : {13u, 25u, 37u}) {
    for (const std::uint32_t forged : {0xffffffffu, 0x40000000u, 1000u}) {
      Bytes wire = kGoldenRequest;
      put_u32(wire, count_at, forged);
      expect_protocol_error(
          [&] {
            decode_decide_request(
                std::span<const std::uint8_t>(wire).subspan(5), scratch,
                scale);
          },
          "frame count exceeds payload");
    }
  }
  // A reason length past the payload in an error reply.
  Bytes error = kGoldenErrorPayload;
  put_u32(error, 1, 0xffffffffu);
  expect_protocol_error([&] { (void)decode_move_reply(error); },
                        "frame count exceeds payload");
  // Length prefixes past the frame limit, with and without the bytes.
  for (const std::uint32_t length :
       {kMaxFrameBytes + 1, 0x80000000u, 0xffffffffu}) {
    Bytes wire = kGoldenReply;
    put_u32(wire, 0, length);
    std::size_t at = 0;
    expect_protocol_error([&] { (void)next_frame(wire, at); },
                          "frame length exceeds limit");
    EXPECT_EQ(at, 0u);
  }
  // At the limit, a short buffer just needs more bytes.
  Bytes wire(16);
  put_u32(wire, 0, kMaxFrameBytes);
  std::size_t at = 0;
  EXPECT_FALSE(next_frame(wire, at).has_value());
  // The other length checks keep their messages.
  expect_protocol_error([&] { (void)decode_hello(Bytes(27)); },
                        "frame truncated");
  expect_protocol_error([&] { (void)decode_hello(Bytes(29)); },
                        "trailing bytes in frame");
  Bytes reply = payload_of(kGoldenReply);
  reply[1] = 4;
  expect_protocol_error([&] { (void)decode_move_reply(reply); },
                        "bad move kind in reply");
}

}  // namespace
}  // namespace tigat::serve
