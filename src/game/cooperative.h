// Cooperative testing — the paper's future-work item 4: "if there does
// not exist a winning strategy, we hope to make a small retreat by
// doing cooperative testing".
//
// When `control: A<> φ` has no winning strategy, the tester can still
// try: solve the game PRETENDING every action is controllable (a plain
// reachability plan).  The resulting cooperative strategy prescribes
// both tester inputs and hoped-for SUT outputs.  Executing it (see
// testing::TestExecutor::cooperative):
//
//   * reaching φ            → PASS      (purpose exercised)
//   * a tioco violation     → FAIL      (still sound: the monitor only
//                                        rejects SPEC-forbidden output)
//   * the SUT deviating from the hoped path, or silence where output
//     was hoped for         → INCONCLUSIVE (the SUT was within its
//                                        rights; the test just didn't
//                                        reach its purpose)
//
// Safety purposes (`control: A[] φ`) relax the same way: the
// all-controllable game computes the largest region the play can keep
// φ in when the SUT cooperates.  Execution flips accordingly — PASS by
// outlasting the budget with φ intact, FAIL when a SPEC-legal move
// (even a hoped-for one the SUT drifted from) lands in ¬φ — see the
// safety section of testing/executor.h.
#pragma once

#include <memory>

#include "game/solver.h"
#include "game/strategy.h"

namespace tigat::game {

struct CooperativeResult {
  // The all-controllable copy the plan was computed on.  The strategy
  // below holds zone references into its graph; keep it alive.
  std::unique_ptr<tsystem::System> relaxed_system;
  std::shared_ptr<const GameSolution> solution;
  // True when φ is reachable at all under full cooperation; false
  // means the purpose is infeasible and testing it is pointless.
  bool reachable = false;
};

// Builds the all-controllable relaxation of `system` and solves the
// (now one-player) reachability game for `purpose`.
[[nodiscard]] CooperativeResult solve_cooperative(
    const tsystem::System& system, const tsystem::TestPurpose& purpose,
    SolverOptions options = {});

}  // namespace tigat::game
