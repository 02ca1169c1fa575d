#include "testing/monitor.h"

#include <algorithm>

#include "util/assert.h"

namespace tigat::testing {

SpecMonitor::SpecMonitor(const tsystem::System& spec, std::int64_t scale)
    : sem_(spec, scale), state_(sem_.initial()) {}

void SpecMonitor::reset() { state_ = sem_.initial(); }

bool SpecMonitor::apply_delay(std::int64_t ticks) {
  if (!sem_.can_delay(state_, ticks)) return false;
  sem_.delay(state_, ticks);
  return true;
}

std::optional<semantics::TransitionInstance> SpecMonitor::unique_enabled(
    const std::string& channel, bool controllable) {
  const tsystem::System& sys = sem_.system();
  const auto chan = sys.find_channel(channel);
  if (!chan) return std::nullopt;
  std::optional<semantics::TransitionInstance> found;
  // Channel and polarity first: only candidates on `channel` pay for
  // their guards and target invariants.
  for (const auto& t :
       semantics::sync_instances_from(sys, state_.locs, *chan)) {
    if (t.controllable != controllable) continue;
    if (!sem_.enabled(state_, t)) continue;
    if (found) {
      throw tsystem::ModelError(
          "SPEC is nondeterministic on channel '" + channel +
          "' — the monitor requires a deterministic specification");
    }
    found = t;
  }
  return found;
}

bool SpecMonitor::apply_output(const std::string& channel) {
  const auto t = unique_enabled(channel, /*controllable=*/false);
  if (!t) return false;
  sem_.fire(state_, *t);
  return true;
}

bool SpecMonitor::apply_input(const std::string& channel) {
  const auto t = unique_enabled(channel, /*controllable=*/true);
  if (!t) return false;
  sem_.fire(state_, *t);
  return true;
}

bool SpecMonitor::apply_instance(const semantics::TransitionInstance& t) {
  if (!sem_.enabled(state_, t)) return false;
  sem_.fire(state_, t);
  return true;
}

std::vector<std::string> SpecMonitor::expected_outputs() const {
  std::vector<std::string> out;
  for (const auto& t : sem_.enabled_instances(state_)) {
    if (t.controllable) continue;
    const auto chan = t.channel_name(sem_.system());
    if (chan) out.push_back(*chan);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tigat::testing
