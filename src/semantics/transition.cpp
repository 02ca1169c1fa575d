#include "semantics/transition.h"

#include "util/assert.h"
#include "util/text.h"

namespace tigat::semantics {

using tsystem::LocationKind;
using tsystem::SyncKind;

std::string TransitionInstance::label(const tsystem::System& sys) const {
  const auto& p = sys.processes()[primary.process];
  const auto& e = p.edges()[primary.edge];
  if (is_sync()) {
    return sys.channels()[e.channel.id].name + "!";
  }
  return p.name() + ".tau(" + p.locations()[e.src].name + "->" +
         p.locations()[e.dst].name + ")";
}

std::optional<std::string> TransitionInstance::channel_name(
    const tsystem::System& sys) const {
  if (!is_sync()) return std::nullopt;
  const auto& e = sys.processes()[primary.process].edges()[primary.edge];
  return sys.channels()[e.channel.id].name;
}

namespace {

// instances_from; with `only` set, just the synchronisations on that
// channel.
std::vector<TransitionInstance> collect_instances(
    const tsystem::System& sys, std::span<const tsystem::LocId> locs,
    std::optional<tsystem::ChannelId> only) {
  TIGAT_ASSERT(locs.size() == sys.processes().size(),
               "location vector size mismatch");
  const auto& procs = sys.processes();

  bool any_committed = false;
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    if (procs[p].locations()[locs[p]].kind == LocationKind::kCommitted) {
      any_committed = true;
      break;
    }
  }
  const auto committed = [&](std::uint32_t p) {
    return procs[p].locations()[locs[p]].kind == LocationKind::kCommitted;
  };

  std::vector<TransitionInstance> out;
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    for (std::uint32_t ei = 0; ei < procs[p].edges().size(); ++ei) {
      const tsystem::Edge& e = procs[p].edges()[ei];
      if (e.src != locs[p]) continue;
      if (only &&
          (e.sync != SyncKind::kSend || e.channel.id != only->id)) {
        continue;
      }
      if (e.sync == SyncKind::kNone) {
        if (any_committed && !committed(p)) continue;
        TransitionInstance t;
        t.primary = {p, ei};
        t.controllable = sys.edge_controllable(procs[p], e);
        out.push_back(std::move(t));
      } else if (e.sync == SyncKind::kSend) {
        // Pair with every matching receiver in another process.
        for (std::uint32_t q = 0; q < procs.size(); ++q) {
          if (q == p) continue;
          for (std::uint32_t ej = 0; ej < procs[q].edges().size(); ++ej) {
            const tsystem::Edge& r = procs[q].edges()[ej];
            if (r.src != locs[q] || r.sync != SyncKind::kReceive ||
                r.channel.id != e.channel.id) {
              continue;
            }
            if (any_committed && !committed(p) && !committed(q)) continue;
            TransitionInstance t;
            t.primary = {p, ei};
            t.receiver = EdgeRef{q, ej};
            t.controllable = sys.edge_controllable(procs[p], e);
            out.push_back(std::move(t));
          }
        }
      }
      // kReceive edges are enumerated from their senders.
    }
  }
  return out;
}

}  // namespace

std::vector<TransitionInstance> instances_from(
    const tsystem::System& sys, std::span<const tsystem::LocId> locs) {
  return collect_instances(sys, locs, std::nullopt);
}

std::vector<TransitionInstance> sync_instances_from(
    const tsystem::System& sys, std::span<const tsystem::LocId> locs,
    tsystem::ChannelId channel) {
  return collect_instances(sys, locs, channel);
}

bool time_frozen(const tsystem::System& sys,
                 std::span<const tsystem::LocId> locs) {
  const auto& procs = sys.processes();
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    const LocationKind k = procs[p].locations()[locs[p]].kind;
    if (k == LocationKind::kUrgent || k == LocationKind::kCommitted) {
      return true;
    }
  }
  return false;
}

}  // namespace tigat::semantics
