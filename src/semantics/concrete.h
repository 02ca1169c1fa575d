// Concrete TIOTS semantics (Definition 4 of the paper).
//
// States pair a location vector, a data valuation and exact clock
// values.  Time is integral: clock values are held in ticks, where
// `scale` ticks make one model time unit.  Model constants are integer,
// so with scale ≥ 2 every strict/weak guard distinction is observable
// at tick resolution; the default scale of 16 also leaves headroom for
// implementations that answer "somewhere inside the window" at
// sub-unit instants.  Zones remain dense and exact — only *execution*
// is sampled, which mirrors testing real systems with a digital clock.
//
// The interpreter enforces the sanity constraints of Def. 4 (time
// determinism and additivity hold by construction) plus invariants and
// urgent/committed-location urgency.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "semantics/transition.h"
#include "tsystem/system.h"

namespace tigat::semantics {

struct ConcreteState {
  std::vector<tsystem::LocId> locs;
  tsystem::DataState data;
  std::vector<std::int64_t> clocks;  // clocks[0] == 0, ticks

  [[nodiscard]] bool operator==(const ConcreteState&) const = default;
};

class ConcreteSemantics {
 public:
  // No deadline / unbounded delay marker.
  static constexpr std::int64_t kNoDeadline = std::int64_t{1} << 62;

  ConcreteSemantics(const tsystem::System& system, std::int64_t scale = 16);

  [[nodiscard]] const tsystem::System& system() const { return *sys_; }
  [[nodiscard]] std::int64_t scale() const { return scale_; }

  [[nodiscard]] ConcreteState initial() const;

  // Invariant conjunction of all current locations.
  [[nodiscard]] bool invariant_holds(const ConcreteState& s) const;

  // Largest delay (ticks) permitted by invariants and urgency; 0 when
  // time is frozen, kNoDeadline when unbounded.
  [[nodiscard]] std::int64_t max_delay(const ConcreteState& s) const;

  [[nodiscard]] bool can_delay(const ConcreteState& s, std::int64_t ticks) const {
    return ticks <= max_delay(s);
  }
  // Requires can_delay.
  void delay(ConcreteState& s, std::int64_t ticks) const;

  // Guard check (clock + data) for an instance from s's locations.
  [[nodiscard]] bool enabled(const ConcreteState& s,
                             const TransitionInstance& t) const;

  // All guard-enabled instances (committed priority already applied).
  [[nodiscard]] std::vector<TransitionInstance> enabled_instances(
      const ConcreteState& s) const;

  // Fires a transition; requires enabled().
  void fire(ConcreteState& s, const TransitionInstance& t) const;

  [[nodiscard]] std::string to_string(const ConcreteState& s) const;

 private:
  [[nodiscard]] const tsystem::Edge& edge(const EdgeRef& ref) const;
  [[nodiscard]] bool edge_guard_holds(const ConcreteState& s,
                                      const EdgeRef& ref) const;
  // Runs e's data assignments in order; throws ModelError out of range.
  void apply_assignments(tsystem::DataState& data,
                         const tsystem::Edge& e) const;
  void apply_edge_effects(ConcreteState& s, const EdgeRef& ref) const;

  const tsystem::System* sys_;
  std::int64_t scale_;
};

}  // namespace tigat::semantics
