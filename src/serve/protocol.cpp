#include "serve/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace tigat::serve {

namespace {

static_assert(sizeof(tsystem::LocId) == 4, "locs travel as u32");

// The one byte-order helper: copies `n` words of type T from `from` to
// `to`, reversing each word's bytes on a big-endian host, since wire
// words are little-endian.  Stores and loads both go through it; on a
// little-endian host it is a single memcpy.
template <class T>
void copy_le(void* to, const void* from, std::size_t n) {
  if (n == 0) return;  // an empty vector's data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(to, from, n * sizeof(T));
  } else {
    auto* dst = static_cast<std::uint8_t*>(to);
    const auto* src = static_cast<const std::uint8_t*>(from);
    for (std::size_t i = 0; i < n; ++i, dst += sizeof(T), src += sizeof(T)) {
      std::reverse_copy(src, src + sizeof(T), dst);
    }
  }
}

// Writes words into a region the caller has already sized.
class Writer {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  template <class T>
  void put(T v) {
    copy_le<T>(at_, &v, 1);
    at_ += sizeof(T);
  }
  template <class T>
  void put_all(std::span<const T> words) {
    copy_le<T>(at_, words.data(), words.size());
    at_ += words.size_bytes();
  }

 private:
  std::uint8_t* at_;
};

// Appends one frame of `payload_bytes` that `write` fills: `out` grows
// once, and the length prefix and payload are written in place.
template <class Write>
void append_framed(std::vector<std::uint8_t>& out, std::size_t payload_bytes,
                   Write write) {
  const std::size_t at = out.size();
  out.resize(at + 4 + payload_bytes);
  Writer w(out.data() + at);
  w.put(static_cast<std::uint32_t>(payload_bytes));
  write(w);
}

// The same payload as append_framed, alone in a fresh vector.
template <class Write>
std::vector<std::uint8_t> encoded(std::size_t payload_bytes, Write write) {
  std::vector<std::uint8_t> out(payload_bytes);
  Writer w(out.data());
  write(w);
  return out;
}

// Bounds-checked little-endian cursor over a payload.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <class T>
  [[nodiscard]] T get() {
    T v{};
    get_all(&v, 1);
    return v;
  }
  // The next `n` words into `out`; throws when fewer remain.
  template <class T>
  void get_all(T* out, std::size_t n) {
    need(n * sizeof(T));
    copy_le<T>(out, bytes_.data() + at_, n);
    at_ += n * sizeof(T);
  }
  // A count of `element_size`-byte records that must still fit in the
  // remaining payload — rejects forged counts before any allocation.
  [[nodiscard]] std::uint32_t count(std::size_t element_size) {
    const auto n = get<std::uint32_t>();
    if (std::size_t{n} > (bytes_.size() - at_) / element_size) {
      throw ProtocolError("frame count exceeds payload");
    }
    return n;
  }
  // The next `n` raw bytes.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    at_ += n;
    return bytes_.subspan(at_ - n, n);
  }
  void expect_end() const {
    if (at_ != bytes_.size()) throw ProtocolError("trailing bytes in frame");
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - at_ < n) throw ProtocolError("frame truncated");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

constexpr std::size_t kHelloBytes = 4 + 8 + 4 * 4;
constexpr std::size_t kMoveReplyBytes = 1 + 1 + 1 + 4 + 1 + 4 + 8;

std::size_t decide_request_bytes(const semantics::ConcreteState& state) {
  return 1 + 8 + 12 + 4 * state.locs.size() + 4 * state.data.slot_count() +
         8 * state.clocks.size();
}

void write_decide_request(Writer& w, const semantics::ConcreteState& state,
                          std::int64_t scale) {
  w.put(std::uint8_t{kOpDecide});
  w.put(scale);
  w.put(static_cast<std::uint32_t>(state.locs.size()));
  w.put_all(std::span<const tsystem::LocId>(state.locs));
  w.put(static_cast<std::uint32_t>(state.data.slot_count()));
  w.put_all(std::span<const std::int32_t>(state.data.values()));
  w.put(static_cast<std::uint32_t>(state.clocks.size()));
  w.put_all(std::span<const std::int64_t>(state.clocks));
}

void write_move_reply(Writer& w, const game::Move& move) {
  w.put(std::uint8_t{kStatusOk});
  w.put(static_cast<std::uint8_t>(move.kind));
  w.put(std::uint8_t{move.edge.has_value()});
  w.put(move.edge.value_or(0));
  w.put(std::uint8_t{move.rank.has_value()});
  w.put(move.rank.value_or(0));
  w.put(move.next_decision_ticks);
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  append_framed(out, payload.size(),
                [&](Writer& w) { w.put_all(payload); });
}

std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> in, std::size_t& at) {
  if (in.size() - at < 4) return std::nullopt;
  std::uint32_t length = 0;
  copy_le<std::uint32_t>(&length, in.data() + at, 1);
  if (length > kMaxFrameBytes) {
    throw ProtocolError("frame length exceeds limit");
  }
  if (in.size() - at - 4 < length) return std::nullopt;
  const std::span<const std::uint8_t> payload = in.subspan(at + 4, length);
  at += 4 + std::size_t{length};
  return payload;
}

std::span<std::uint8_t> RecvBuffer::space() {
  if (at_ == end_) {
    at_ = end_ = 0;
  } else if (bytes_.size() - end_ < kMinSpace) {
    std::memmove(bytes_.data(), bytes_.data() + at_, end_ - at_);
    end_ -= at_;
    at_ = 0;
  }
  if (bytes_.size() - end_ < kMinSpace) {
    bytes_.resize(
        std::max({kInitialBytes, 2 * bytes_.size(), end_ + kMinSpace}));
  }
  return std::span<std::uint8_t>(bytes_).subspan(end_);
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  return encoded(kHelloBytes, [&](Writer& w) {
    w.put(hello.proto);
    w.put(hello.fingerprint);
    w.put(hello.clock_dim);
    w.put(hello.proc_count);
    w.put(hello.slot_count);
    w.put(hello.purpose_kind);
  });
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  Hello hello;
  hello.proto = c.get<std::uint32_t>();
  hello.fingerprint = c.get<std::uint64_t>();
  hello.clock_dim = c.get<std::uint32_t>();
  hello.proc_count = c.get<std::uint32_t>();
  hello.slot_count = c.get<std::uint32_t>();
  hello.purpose_kind = c.get<std::uint32_t>();
  c.expect_end();
  return hello;
}

void append_decide_request(std::vector<std::uint8_t>& out,
                           const semantics::ConcreteState& state,
                           std::int64_t scale) {
  append_framed(out, decide_request_bytes(state),
                [&](Writer& w) { write_decide_request(w, state, scale); });
}

std::vector<std::uint8_t> encode_decide_request(
    const semantics::ConcreteState& state, std::int64_t scale) {
  return encoded(decide_request_bytes(state),
                 [&](Writer& w) { write_decide_request(w, state, scale); });
}

void decode_decide_request(std::span<const std::uint8_t> body,
                           semantics::ConcreteState& state,
                           std::int64_t& scale) {
  Cursor c(body);
  scale = c.get<std::int64_t>();
  const std::uint32_t nl = c.count(4);
  state.locs.resize(nl);
  c.get_all(state.locs.data(), nl);
  const std::uint32_t ns = c.count(4);
  if (state.data.slot_count() == ns) {
    for (std::uint32_t k = 0; k < ns; ++k) {
      state.data.set(k, c.get<std::int32_t>());
    }
  } else {
    std::vector<std::int32_t> values(ns);
    c.get_all(values.data(), ns);
    state.data = tsystem::DataState(std::move(values));
  }
  const std::uint32_t nc = c.count(8);
  state.clocks.resize(nc);
  c.get_all(state.clocks.data(), nc);
  c.expect_end();
}

void append_move_reply(std::vector<std::uint8_t>& out,
                       const game::Move& move) {
  append_framed(out, kMoveReplyBytes,
                [&](Writer& w) { write_move_reply(w, move); });
}

std::vector<std::uint8_t> encode_move_reply(const game::Move& move) {
  return encoded(kMoveReplyBytes,
                 [&](Writer& w) { write_move_reply(w, move); });
}

game::Move decode_move_reply(std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  const auto status = c.get<std::uint8_t>();
  if (status != kStatusOk) {
    const std::span<const std::uint8_t> reason = c.bytes(c.count(1));
    throw ProtocolError(
        "server rejected request: " +
        std::string(reinterpret_cast<const char*>(reason.data()),
                    reason.size()));
  }
  game::Move move;
  const auto kind = c.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(game::MoveKind::kUnwinnable)) {
    throw ProtocolError("bad move kind in reply");
  }
  move.kind = static_cast<game::MoveKind>(kind);
  const bool has_edge = c.get<std::uint8_t>() != 0;
  const auto edge = c.get<std::uint32_t>();
  if (has_edge) move.edge = edge;
  const bool has_rank = c.get<std::uint8_t>() != 0;
  const auto rank = c.get<std::uint32_t>();
  if (has_rank) move.rank = rank;
  move.next_decision_ticks = c.get<std::int64_t>();
  c.expect_end();
  return move;
}

std::vector<std::uint8_t> encode_error_reply(const std::string& reason) {
  return encoded(1 + 4 + reason.size(), [&](Writer& w) {
    w.put(std::uint8_t{kStatusBadRequest});
    w.put(static_cast<std::uint32_t>(reason.size()));
    w.put_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(reason.data()), reason.size()));
  });
}

}  // namespace tigat::serve
