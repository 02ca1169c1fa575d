// Mutation operators for fault-detection experiments (the paper's
// future-work item 3: "evaluating strategy-based test effectiveness in
// terms of fault detecting capability").
//
// A mutant is a systematically faulted copy of the plant model,
// simulating classical implementation errors of real-time systems:
//
//   kGuardShift       — an off-by-k timing constant in a guard
//   kGuardFlip        — strict/weak boundary confusion (x<c vs x≤c)
//   kTargetSwap       — a transfer fault (edge goes to a wrong state)
//   kOutputSwap       — a wrong output action on an edge
//   kEdgeDrop         — a missing transition (output fault / ignored
//                       input)
//   kResetDrop        — a forgotten timer reset
//   kInvariantWiden   — a lazy output window (deadline missed by k)
//
// Not every mutant is observably faulty (some are tioco-equivalent to
// the SPEC along every trace, e.g. widening an already-slack bound);
// the kill-rate experiments report detected / total.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tsystem/system.h"

namespace tigat::testing {

enum class MutationKind : std::uint8_t {
  kGuardShift,
  kGuardFlip,
  kTargetSwap,
  kOutputSwap,
  kEdgeDrop,
  kResetDrop,
  kInvariantWiden,
};

[[nodiscard]] const char* to_string(MutationKind kind);

struct MutantDescriptor {
  MutationKind kind;
  std::uint32_t process = 0;
  std::uint32_t edge = 0;      // edge-based mutations
  std::uint32_t location = 0;  // invariant mutations
  std::uint32_t index = 0;     // which guard / reset / constraint
  std::int32_t amount = 0;     // shift distance, swap target, ...
  std::string description;
};

// All applicable mutants of the given (plant) system.
[[nodiscard]] std::vector<MutantDescriptor> enumerate_mutants(
    const tsystem::System& plant);

// A copy of `plant` with one mutation applied.
[[nodiscard]] tsystem::System apply_mutant(const tsystem::System& plant,
                                           const MutantDescriptor& m);

}  // namespace tigat::testing
