// Transition instances of a network: the atomic discrete steps shared
// by the concrete interpreter (TIOTS semantics, Def. 4) and the
// symbolic zone-graph explorer.
//
// An instance is either an internal (τ) edge of one process or a
// binary synchronisation (sender `a!` + receiver `a?` in two distinct
// processes).  Controllability is resolved from the system's game
// partition: for synchronisations the channel decides; the sender and
// receiver sides always agree because the channel is shared.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tsystem/system.h"

namespace tigat::semantics {

struct EdgeRef {
  std::uint32_t process = 0;
  std::uint32_t edge = 0;

  [[nodiscard]] bool operator==(const EdgeRef&) const = default;
};

struct TransitionInstance {
  EdgeRef primary;                  // internal edge, or the sender
  std::optional<EdgeRef> receiver;  // set for synchronisations
  bool controllable = false;

  [[nodiscard]] bool is_sync() const { return receiver.has_value(); }
  [[nodiscard]] bool operator==(const TransitionInstance&) const = default;

  // "touch!" for syncs (channel view), "P.tau(A->B)" for internal.
  [[nodiscard]] std::string label(const tsystem::System& sys) const;
  // Observable action name for the tester/IMP boundary: the channel
  // name for syncs, nullopt for internal moves.
  [[nodiscard]] std::optional<std::string> channel_name(
      const tsystem::System& sys) const;
};

// Enumerates every transition instance of the network that is
// syntactically possible from the given location vector (guards are NOT
// evaluated here), honouring committed-location priority: if any
// process is in a committed location, only instances involving at least
// one committed process are returned.
[[nodiscard]] std::vector<TransitionInstance> instances_from(
    const tsystem::System& sys, std::span<const tsystem::LocId> locs);

// The synchronisations on `channel` among instances_from(sys, locs), in
// the same order.
[[nodiscard]] std::vector<TransitionInstance> sync_instances_from(
    const tsystem::System& sys, std::span<const tsystem::LocId> locs,
    tsystem::ChannelId channel);

// True when some process is in an urgent or committed location (time
// must not elapse).
[[nodiscard]] bool time_frozen(const tsystem::System& sys,
                               std::span<const tsystem::LocId> locs);

}  // namespace tigat::semantics
