// The SPEC monitor: tracks `s0 After σ` for the observed timed trace σ
// and answers the tioco question "is this output (or this much silence)
// allowed here?" (Definition 5).
//
// The paper restricts SPECs to deterministic, strongly input-enabled
// TIOGA (Sec. 2.2), so After σ is a single concrete state once the
// trace fixes every delay — timing uncertainty in the model collapses
// against the observed timestamps.  The monitor enforces determinism
// at runtime: two simultaneously enabled instances on one observable
// channel raise ModelError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "semantics/concrete.h"

namespace tigat::testing {

class SpecMonitor {
 public:
  SpecMonitor(const tsystem::System& spec, std::int64_t scale);

  void reset();

  [[nodiscard]] const semantics::ConcreteState& state() const { return state_; }
  [[nodiscard]] const semantics::ConcreteSemantics& semantics() const {
    return sem_;
  }

  // Largest delay the SPEC allows from here (invariants); observing
  // quiescence beyond it is a tioco violation (a promised output never
  // came).
  [[nodiscard]] std::int64_t allowed_delay() const {
    return sem_.max_delay(state_);
  }

  // Advances the monitor; false iff the SPEC forbids this much delay.
  [[nodiscard]] bool apply_delay(std::int64_t ticks);

  // Observed SUT output on `channel` at the current instant.  Returns
  // false iff no uncontrollable instance with that channel is enabled —
  // i.e. o ∉ Out(s After σ), the Algorithm 3.1 fail condition.
  [[nodiscard]] bool apply_output(const std::string& channel);

  // Tester input on `channel`; the SPEC must accept (input-enabled);
  // false when it cannot (indicates a bad strategy/model, not an IMP
  // fault).
  [[nodiscard]] bool apply_input(const std::string& channel);

  // Fires a specific controllable instance (used for environment-
  // internal moves the strategy prescribes, which have no channel and
  // never touch the IMP).  Returns false when it is not enabled.
  [[nodiscard]] bool apply_instance(const semantics::TransitionInstance& t);

  // Out(s After σ) at the current instant: the sorted, deduplicated
  // channel names of every enabled uncontrollable instance.  This is
  // the "expected" half of an expected-vs-observed post-mortem — an
  // output outside this set is exactly the Algorithm 3.1 fail
  // condition apply_output rejects.
  [[nodiscard]] std::vector<std::string> expected_outputs() const;

 private:
  // Unique enabled instance on `channel` with the given direction;
  // throws ModelError when two are enabled.  Instances on other
  // channels or of the other direction are not evaluated.
  [[nodiscard]] std::optional<semantics::TransitionInstance> unique_enabled(
      const std::string& channel, bool controllable);

  semantics::ConcreteSemantics sem_;
  semantics::ConcreteState state_;
};

}  // namespace tigat::testing
