#include "semantics/concrete.h"

#include <algorithm>

#include "dbm/bound.h"
#include "util/assert.h"
#include "util/text.h"

namespace tigat::semantics {

using dbm::satisfies;
using tsystem::ClockConstraint;
using tsystem::Edge;
using tsystem::LocId;

ConcreteSemantics::ConcreteSemantics(const tsystem::System& system,
                                     std::int64_t scale)
    : sys_(&system), scale_(scale) {
  TIGAT_ASSERT(system.finalized(), "system must be finalized");
  TIGAT_ASSERT(scale >= 1, "scale must be positive");
}

ConcreteState ConcreteSemantics::initial() const {
  ConcreteState s;
  s.locs.reserve(sys_->processes().size());
  for (const auto& p : sys_->processes()) s.locs.push_back(p.initial());
  s.data = sys_->data().initial_state();
  s.clocks.assign(sys_->clock_count(), 0);
  return s;
}

namespace {

bool constraint_holds(const ConcreteState& s, const ClockConstraint& c,
                      std::int64_t scale) {
  return satisfies(s.clocks[c.i] - s.clocks[c.j], c.bound, scale);
}

}  // namespace

bool ConcreteSemantics::invariant_holds(const ConcreteState& s) const {
  const auto& procs = sys_->processes();
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    for (const ClockConstraint& c : procs[p].locations()[s.locs[p]].invariant) {
      if (!constraint_holds(s, c, scale_)) return false;
    }
  }
  return true;
}

std::int64_t ConcreteSemantics::max_delay(const ConcreteState& s) const {
  if (time_frozen(*sys_, s.locs)) return 0;
  std::int64_t limit = kNoDeadline;
  const auto& procs = sys_->processes();
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    for (const ClockConstraint& c : procs[p].locations()[s.locs[p]].invariant) {
      if (dbm::is_infinity(c.bound)) continue;
      // Delay shifts x_i and x_j together unless one is the reference.
      if (c.i != 0 && c.j != 0) continue;
      if (c.i == 0) continue;  // lower bounds only get slacker with time
      std::int64_t d = static_cast<std::int64_t>(dbm::bound_value(c.bound)) *
                           scale_ -
                       s.clocks[c.i];
      if (!dbm::is_weak(c.bound)) d -= 1;
      limit = std::min(limit, d);
    }
  }
  return std::max<std::int64_t>(limit, 0);
}

void ConcreteSemantics::delay(ConcreteState& s, std::int64_t ticks) const {
  TIGAT_ASSERT(ticks >= 0, "negative delay");
  TIGAT_ASSERT(can_delay(s, ticks), "delay violates invariant/urgency");
  for (std::uint32_t i = 1; i < s.clocks.size(); ++i) s.clocks[i] += ticks;
}

const Edge& ConcreteSemantics::edge(const EdgeRef& ref) const {
  return sys_->processes()[ref.process].edges()[ref.edge];
}

bool ConcreteSemantics::edge_guard_holds(const ConcreteState& s,
                                         const EdgeRef& ref) const {
  const Edge& e = edge(ref);
  for (const ClockConstraint& c : e.guard) {
    if (!constraint_holds(s, c, scale_)) return false;
  }
  return e.data_guard.eval_bool(s.data, sys_->data());
}

bool ConcreteSemantics::enabled(const ConcreteState& s,
                                const TransitionInstance& t) const {
  if (!edge_guard_holds(s, t.primary)) return false;
  if (t.receiver && !edge_guard_holds(s, *t.receiver)) return false;
  const Edge& primary = edge(t.primary);
  const Edge* receiver = t.receiver ? &edge(*t.receiver) : nullptr;
  // Invariants constrain clocks only, so the data effects run just for
  // their range checks, which throw here exactly as fire() would.  The
  // scratch valuation keeps its capacity from call to call.
  if (!primary.assignments.empty() ||
      (receiver != nullptr && !receiver->assignments.empty())) {
    thread_local tsystem::DataState scratch;
    scratch = s.data;
    apply_assignments(scratch, primary);
    if (receiver != nullptr) apply_assignments(scratch, *receiver);
  }
  // The target state must satisfy its invariant.  Clock i after the
  // jump: its last reset wins, the receiver's after the sender's.
  const auto clock_after = [&](std::uint32_t i) {
    std::int64_t v = s.clocks[i];
    for (const Edge* e : {&primary, receiver}) {
      if (e == nullptr) continue;
      for (const auto& r : e->resets) {
        if (r.clock == i) v = static_cast<std::int64_t>(r.value) * scale_;
      }
    }
    return v;
  };
  const auto& procs = sys_->processes();
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    LocId loc = s.locs[p];
    if (p == t.primary.process) loc = primary.dst;
    if (receiver != nullptr && p == t.receiver->process) loc = receiver->dst;
    for (const ClockConstraint& c : procs[p].locations()[loc].invariant) {
      if (!satisfies(clock_after(c.i) - clock_after(c.j), c.bound, scale_)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<TransitionInstance> ConcreteSemantics::enabled_instances(
    const ConcreteState& s) const {
  std::vector<TransitionInstance> out;
  for (TransitionInstance& t : instances_from(*sys_, s.locs)) {
    if (enabled(s, t)) out.push_back(std::move(t));
  }
  return out;
}

void ConcreteSemantics::apply_assignments(tsystem::DataState& data,
                                          const Edge& e) const {
  for (const auto& a : e.assignments) {
    const std::int64_t index =
        a.index.is_null() ? 0 : a.index.eval(data, sys_->data());
    const std::int64_t value = a.rhs.eval(data, sys_->data());
    sys_->data().checked_store(data, a.var, index, value);
  }
}

void ConcreteSemantics::apply_edge_effects(ConcreteState& s,
                                           const EdgeRef& ref) const {
  const Edge& e = edge(ref);
  s.locs[ref.process] = e.dst;
  for (const auto& r : e.resets) {
    s.clocks[r.clock] = static_cast<std::int64_t>(r.value) * scale_;
  }
  apply_assignments(s.data, e);
}

void ConcreteSemantics::fire(ConcreteState& s,
                             const TransitionInstance& t) const {
  TIGAT_DEBUG_ASSERT(enabled(s, t), "firing a disabled transition");
  apply_edge_effects(s, t.primary);
  if (t.receiver) apply_edge_effects(s, *t.receiver);
}

std::string ConcreteSemantics::to_string(const ConcreteState& s) const {
  std::string out = "(";
  const auto& procs = sys_->processes();
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    if (p != 0) out += ",";
    out += procs[p].name() + "." + procs[p].locations()[s.locs[p]].name;
  }
  out += ")";
  for (std::uint32_t i = 1; i < s.clocks.size(); ++i) {
    out += util::format(" %s=%.3f", sys_->clock_names()[i].c_str(),
                        static_cast<double>(s.clocks[i]) /
                            static_cast<double>(scale_));
  }
  for (std::uint32_t slot = 0; slot < s.data.slot_count(); ++slot) {
    out += util::format(" %s=%d", sys_->data().slot_name(slot).c_str(),
                        s.data.get(slot));
  }
  return out;
}

}  // namespace tigat::semantics
