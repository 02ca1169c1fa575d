#include "testing/mutants.h"

#include <algorithm>
#include <functional>

#include "tsystem/rebuild.h"

#include "util/assert.h"
#include "util/text.h"

namespace tigat::testing {

using tsystem::ClockConstraint;
using tsystem::Controllability;
using tsystem::Edge;
using tsystem::LocId;
using tsystem::Process;
using tsystem::SyncKind;
using tsystem::System;

const char* to_string(MutationKind kind) {
  switch (kind) {
    case MutationKind::kGuardShift: return "guard-shift";
    case MutationKind::kGuardFlip: return "guard-flip";
    case MutationKind::kTargetSwap: return "target-swap";
    case MutationKind::kOutputSwap: return "output-swap";
    case MutationKind::kEdgeDrop: return "edge-drop";
    case MutationKind::kResetDrop: return "reset-drop";
    case MutationKind::kInvariantWiden: return "invariant-widen";
  }
  return "?";
}

std::vector<MutantDescriptor> enumerate_mutants(const System& plant) {
  TIGAT_ASSERT(plant.finalized(), "mutants require a finalized system");
  std::vector<MutantDescriptor> out;
  for (std::uint32_t p = 0; p < plant.processes().size(); ++p) {
    const Process& proc = plant.processes()[p];
    const auto loc_name = [&](LocId l) { return proc.locations()[l].name; };
    for (std::uint32_t ei = 0; ei < proc.edges().size(); ++ei) {
      const Edge& e = proc.edges()[ei];
      const std::string where =
          proc.name() + ":" + loc_name(e.src) + "->" + loc_name(e.dst);

      for (std::uint32_t gi = 0; gi < e.guard.size(); ++gi) {
        for (const std::int32_t amount : {-1, +1}) {
          out.push_back({MutationKind::kGuardShift, p, ei, 0, gi, amount,
                         util::format("%s guard#%u by %+d", where.c_str(), gi,
                                      amount)});
        }
        out.push_back({MutationKind::kGuardFlip, p, ei, 0, gi, 0,
                       util::format("%s guard#%u strictness", where.c_str(),
                                    gi)});
      }

      // Transfer fault: retarget to every other location.
      for (LocId alt = 0; alt < proc.locations().size(); ++alt) {
        if (alt == e.dst) continue;
        out.push_back({MutationKind::kTargetSwap, p, ei, 0, 0,
                       static_cast<std::int32_t>(alt),
                       util::format("%s retarget to %s", where.c_str(),
                                    loc_name(alt).c_str())});
      }

      // Output fault: another uncontrollable channel.
      if (e.sync == SyncKind::kSend) {
        for (std::uint32_t ch = 0; ch < plant.channels().size(); ++ch) {
          if (ch == e.channel.id) continue;
          if (plant.channels()[ch].control != Controllability::kUncontrollable) {
            continue;
          }
          out.push_back({MutationKind::kOutputSwap, p, ei, 0, 0,
                         static_cast<std::int32_t>(ch),
                         util::format("%s emits %s instead", where.c_str(),
                                      plant.channels()[ch].name.c_str())});
        }
      }

      out.push_back({MutationKind::kEdgeDrop, p, ei, 0, 0, 0,
                     util::format("drop %s", where.c_str())});

      for (std::uint32_t ri = 0; ri < e.resets.size(); ++ri) {
        out.push_back({MutationKind::kResetDrop, p, ei, 0, ri, 0,
                       util::format("%s forget reset of %s", where.c_str(),
                                    plant.clock_names()[e.resets[ri].clock]
                                        .c_str())});
      }
    }

    for (LocId l = 0; l < proc.locations().size(); ++l) {
      const auto& inv = proc.locations()[l].invariant;
      for (std::uint32_t ci = 0; ci < inv.size(); ++ci) {
        out.push_back({MutationKind::kInvariantWiden, p, 0, l, ci, +1,
                       util::format("%s.%s invariant#%u widened by 1",
                                    proc.name().c_str(),
                                    loc_name(l).c_str(), ci)});
      }
    }
  }
  return out;
}

System apply_mutant(const System& plant, const MutantDescriptor& m) {
  const tsystem::EdgeRebuildHook edge_hook = [&](std::uint32_t p, std::uint32_t ei,
                                 Edge& copy) {
    if (p != m.process || ei != m.edge) return true;
    switch (m.kind) {
      case MutationKind::kGuardShift: {
        ClockConstraint& c = copy.guard.at(m.index);
        c.bound = dbm::make_bound(dbm::bound_value(c.bound) + m.amount,
                                  dbm::strictness(c.bound));
        return true;
      }
      case MutationKind::kGuardFlip: {
        ClockConstraint& c = copy.guard.at(m.index);
        c.bound = dbm::make_bound(dbm::bound_value(c.bound),
                                  dbm::is_weak(c.bound)
                                      ? dbm::Strict::kStrict
                                      : dbm::Strict::kWeak);
        return true;
      }
      case MutationKind::kTargetSwap:
        copy.dst = static_cast<LocId>(m.amount);
        return true;
      case MutationKind::kOutputSwap:
        copy.channel = tsystem::ChannelId{static_cast<std::uint32_t>(m.amount)};
        return true;
      case MutationKind::kEdgeDrop:
        return false;
      case MutationKind::kResetDrop:
        copy.resets.erase(copy.resets.begin() + m.index);
        return true;
      case MutationKind::kInvariantWiden:
        return true;  // handled by the invariant hook
    }
    return true;
  };
  const tsystem::InvariantRebuildHook inv_hook = [&](std::uint32_t p, LocId l,
                                     std::vector<ClockConstraint>& inv) {
    if (m.kind != MutationKind::kInvariantWiden || p != m.process ||
        l != m.location) {
      return;
    }
    ClockConstraint& c = inv.at(m.index);
    c.bound = dbm::make_bound(dbm::bound_value(c.bound) + m.amount,
                              dbm::strictness(c.bound));
  };
  return tsystem::rebuild_system(plant, edge_hook, inv_hook,
                                 "__mut_" + std::string(to_string(m.kind)));
}

}  // namespace tigat::testing
