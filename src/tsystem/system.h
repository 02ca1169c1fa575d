// Timed I/O Game Automata networks (Definitions 1–3 of the paper).
//
// A System is a network of processes sharing global clocks, bounded
// integer data and binary synchronisation channels, in the style of
// UPPAAL / UPPAAL-TIGA models:
//
//   * each Process is a timed automaton: locations (with invariants and
//     urgency), edges with clock guards, data guards, clock resets and
//     data assignments;
//   * edges either synchronise on a channel (`send` a!, `receive` a?)
//     or are internal (τ);
//   * the game partition (Definition 3): every action is either
//     controllable (an input the tester may offer) or uncontrollable
//     (an output the implementation decides).  Channels carry the
//     partition; internal edges default to their process's role and
//     can be overridden per edge.
//
// Build with the fluent API, then `finalize()` validates the model and
// freezes it for the semantics layer:
//
//   System sys("light");
//   const Clock x = sys.add_clock("x");
//   const ChannelId touch = sys.add_channel("touch", Controllability::kControllable);
//   Process& p = sys.add_process("IUT", Controllability::kUncontrollable);
//   const LocId off = p.add_location("Off");
//   p.add_edge(off, dim).receive(touch).guard(x >= 20).reset(x);
//   sys.finalize();
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dbm/bound.h"
#include "tsystem/data.h"
#include "tsystem/expr.h"

namespace tigat::semantics {
class SymbolicGraph;
}

namespace tigat::tsystem {

// ── clocks and clock constraints ──────────────────────────────────────

// Global clock handle; id 0 is the reference clock and is never handed
// out.  DBM dimension = clock_count() (reference included).
struct Clock {
  std::uint32_t id = 0;
};

// x_i − x_j ≺ bound, in DBM index space.
struct ClockConstraint {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  dbm::raw_t bound = dbm::kInfinity;
};

// Builder sugar: `x >= 20`, `x - y < 4`, ...
struct ClockDiff {
  std::uint32_t i, j;
};
inline ClockDiff operator-(Clock a, Clock b) { return {a.id, b.id}; }

inline ClockConstraint operator<(Clock x, dbm::bound_t c) {
  return {x.id, 0, dbm::make_strict(c)};
}
inline ClockConstraint operator<=(Clock x, dbm::bound_t c) {
  return {x.id, 0, dbm::make_weak(c)};
}
inline ClockConstraint operator>(Clock x, dbm::bound_t c) {
  return {0, x.id, dbm::make_strict(-c)};
}
inline ClockConstraint operator>=(Clock x, dbm::bound_t c) {
  return {0, x.id, dbm::make_weak(-c)};
}
inline ClockConstraint operator==(Clock x, dbm::bound_t c) = delete;
inline ClockConstraint operator<(ClockDiff d, dbm::bound_t c) {
  return {d.i, d.j, dbm::make_strict(c)};
}
inline ClockConstraint operator<=(ClockDiff d, dbm::bound_t c) {
  return {d.i, d.j, dbm::make_weak(c)};
}
inline ClockConstraint operator>(ClockDiff d, dbm::bound_t c) {
  return {d.j, d.i, dbm::make_strict(-c)};
}
inline ClockConstraint operator>=(ClockDiff d, dbm::bound_t c) {
  return {d.j, d.i, dbm::make_weak(-c)};
}

// ── channels and the game partition ───────────────────────────────────

enum class Controllability : std::uint8_t {
  kControllable,    // tester-chosen (input actions, Act_in = Act_c)
  kUncontrollable,  // SUT-chosen (output actions, Act_out = Act_u)
};

struct ChannelId {
  std::uint32_t id = 0;
};

struct ChannelDecl {
  std::string name;
  Controllability control = Controllability::kControllable;
};

// ── locations and edges ───────────────────────────────────────────────

using LocId = std::uint32_t;

enum class LocationKind : std::uint8_t {
  kNormal,
  kUrgent,     // time may not elapse while the process is here
  kCommitted,  // urgent + the process must move before non-committed ones
};

struct Location {
  std::string name;
  LocationKind kind = LocationKind::kNormal;
  std::vector<ClockConstraint> invariant;
};

enum class SyncKind : std::uint8_t { kNone, kSend, kReceive };

struct ClockReset {
  std::uint32_t clock = 0;
  dbm::bound_t value = 0;
};

struct Assignment {
  VarId var;
  Expr index;  // null for scalars
  Expr rhs;
};

struct Edge {
  LocId src = 0;
  LocId dst = 0;
  SyncKind sync = SyncKind::kNone;
  ChannelId channel;
  std::vector<ClockConstraint> guard;
  Expr data_guard;  // null = true
  std::vector<ClockReset> resets;
  std::vector<Assignment> assignments;
  std::optional<bool> controllable_override;
  std::string comment;
};

class Process;

// Fluent edge construction; returned by Process::add_edge.
class EdgeBuilder {
 public:
  EdgeBuilder& guard(ClockConstraint c);
  EdgeBuilder& guard(std::initializer_list<ClockConstraint> cs);
  EdgeBuilder& provided(Expr data_guard);  // conjoined if called twice
  EdgeBuilder& send(ChannelId chan);
  EdgeBuilder& receive(ChannelId chan);
  EdgeBuilder& reset(Clock x, dbm::bound_t value = 0);
  EdgeBuilder& assign(VarId var, Expr rhs);
  EdgeBuilder& assign_elem(VarId var, Expr index, Expr rhs);
  EdgeBuilder& controllable(bool value);
  EdgeBuilder& comment(std::string text);

 private:
  friend class Process;
  EdgeBuilder(Process& process, std::size_t edge_index)
      : process_(&process), edge_(edge_index) {}
  Edge& edge();
  Process* process_;
  std::size_t edge_;
};

// ── processes ─────────────────────────────────────────────────────────

class System;

class Process {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Controllability default_control() const { return default_control_; }

  LocId add_location(std::string name,
                     LocationKind kind = LocationKind::kNormal);
  // Conjoined with any existing invariant.
  void set_invariant(LocId loc, ClockConstraint c);
  void set_invariant(LocId loc, std::initializer_list<ClockConstraint> cs);
  void set_initial(LocId loc);

  EdgeBuilder add_edge(LocId src, LocId dst);

  [[nodiscard]] LocId initial() const;
  [[nodiscard]] const std::vector<Location>& locations() const {
    return locations_;
  }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] std::optional<LocId> find_location(const std::string& n) const;

 private:
  friend class System;
  friend class EdgeBuilder;
  Process(std::string name, Controllability default_control)
      : name_(std::move(name)), default_control_(default_control) {}

  std::string name_;
  Controllability default_control_;
  std::vector<Location> locations_;
  std::vector<Edge> edges_;
  std::optional<LocId> initial_;
};

// ── the network ───────────────────────────────────────────────────────

// The explored zone graph of a System, memoized on it so that every
// purpose solved on one model explores once (see
// semantics::SymbolicGraph::explored, its only reader and writer).
// One slot, keyed by the graph's ExplorationOptions; the mutex makes
// concurrent solvers of one System wait for a single exploration.  A
// moved System starts with an empty slot, and so does its source: the
// graph points at the System it was explored from.
class GraphMemo {
 public:
  GraphMemo() = default;
  GraphMemo(GraphMemo&& other) noexcept { other.clear(); }
  GraphMemo& operator=(GraphMemo&& other) noexcept {
    if (this != &other) {
      clear();
      other.clear();
    }
    return *this;
  }

  std::mutex mutex;
  std::shared_ptr<const semantics::SymbolicGraph> graph;  // under `mutex`

 private:
  void clear() noexcept {
    const std::lock_guard<std::mutex> lock(mutex);
    graph.reset();
  }
};

class System {
 public:
  explicit System(std::string name) : name_(std::move(name)) {}

  // Not copyable: processes hand out stable references.
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  System(System&&) = default;
  System& operator=(System&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  Clock add_clock(std::string name);
  ChannelId add_channel(std::string name, Controllability control);
  Process& add_process(std::string name, Controllability default_control);

  [[nodiscard]] DataLayout& data() { return data_; }
  [[nodiscard]] const DataLayout& data() const { return data_; }

  // Validates the model, resolves edge controllability and computes the
  // per-clock maximal constants.  Must be called before the semantics
  // layer touches the system; throws ModelError on inconsistencies.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  // ── accessors (post-finalize) ───────────────────────────────────────
  [[nodiscard]] std::uint32_t clock_count() const {  // DBM dimension
    return static_cast<std::uint32_t>(clock_names_.size());
  }
  [[nodiscard]] const std::vector<std::string>& clock_names() const {
    return clock_names_;
  }
  [[nodiscard]] const std::vector<ChannelDecl>& channels() const {
    return channels_;
  }
  [[nodiscard]] const std::deque<Process>& processes() const {
    return processes_;
  }
  [[nodiscard]] std::optional<std::uint32_t> find_process(
      const std::string& name) const;
  [[nodiscard]] std::optional<ChannelId> find_channel(
      const std::string& name) const;
  [[nodiscard]] std::optional<Clock> find_clock(const std::string& name) const;

  // True when the edge is controllable under the game partition.
  [[nodiscard]] bool edge_controllable(const Process& p, const Edge& e) const;

  // Max constant per clock index (index 0 → 0), over guards, invariants
  // and reset values; the solver merges goal constraints on top.
  [[nodiscard]] const std::vector<dbm::bound_t>& max_constants() const {
    return max_constants_;
  }

  // Multi-line description of the network (used by --print-models).
  [[nodiscard]] std::string to_string() const;

  // The explored-graph memo.  Mutable through a const System: caching
  // the graph does not change the model.
  [[nodiscard]] GraphMemo& graph_memo() const { return graph_memo_; }

 private:
  void validate_constraint(const ClockConstraint& c, const std::string& where) const;
  void bump_max_constant(const ClockConstraint& c);

  std::string name_;
  std::vector<std::string> clock_names_ = {"t0"};  // index 0 = reference
  std::vector<ChannelDecl> channels_;
  // deque: add_process hands out stable references across growth.
  std::deque<Process> processes_;
  DataLayout data_;
  std::vector<dbm::bound_t> max_constants_ = {0};
  bool finalized_ = false;
  mutable GraphMemo graph_memo_;
};

}  // namespace tigat::tsystem
