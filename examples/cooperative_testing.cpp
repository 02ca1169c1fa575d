// Cooperative testing (paper future-work item 4): what to do when no
// winning strategy exists.
//
// `control: A<> IUT.L6` is NOT controllable for the Smart Light: L6 is
// only entered by touching during the L5 output window, and the light
// may answer dim!/bright! before the user's reaction time allows a
// second touch.  The tester "makes a small retreat": it computes a
// cooperative plan (all actions treated as controllable) and hopes the
// light plays along.
//
//   * a patient light (output latency ≥ 1) cooperates → PASS
//   * an eager light (latency 0) answers first     → INCONCLUSIVE
//   * a broken light still gets caught             → FAIL (sound)
//
// The model is examples/models/smart_light.tg; the lights are its
// process "IUT" alone (tsystem::extract_process).
//
// Build & run:  ./build/examples/cooperative_testing
#include <cstdio>
#include <string>

#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"

#ifndef TIGAT_MODEL_DIR
#error "TIGAT_MODEL_DIR must point at examples/models"
#endif

int main() {
  using namespace tigat;
  constexpr std::int64_t kScale = 16;

  // The Smart Light as shipped in examples/models/smart_light.tg, and
  // its process "IUT" alone: the plant the simulated black boxes run.
  const lang::LoadedModel spec =
      lang::load_model(std::string(TIGAT_MODEL_DIR) + "/smart_light.tg");
  const tsystem::System plant = tsystem::extract_process(spec.system, "IUT");
  const auto purpose =
      tsystem::TestPurpose::parse(spec.system, "control: A<> IUT.L6");

  // No winning strategy exists...
  game::GameSolver solver(spec.system, purpose);
  const auto strict = solver.solve();
  std::printf("winning strategy for %s: %s\n", purpose.source.c_str(),
              strict->winning_from_initial() ? "exists" : "none");

  // ...so retreat to a cooperative plan.
  game::CooperativeResult coop = game::solve_cooperative(spec.system, purpose);
  std::printf("cooperatively reachable: %s\n\n",
              coop.reachable ? "yes" : "no");
  if (!coop.reachable) return 1;
  game::Strategy plan(coop.solution);

  const auto run_against = [&](const char* label, const tsystem::System& sys,
                               std::int64_t latency) {
    testing::SimulatedImplementation imp(sys, kScale,
                                         testing::ImpPolicy{latency, {}});
    auto exec =
        testing::TestExecutor::cooperative(spec.system, plan, imp, kScale);
    const auto report = exec.run();
    std::printf("%-16s verdict: %-13s %s\n", label,
                testing::to_string(report.verdict), report.detail.c_str());
    std::printf("%-16s trace:   %s\n\n", "", report.trace_string().c_str());
  };

  run_against("patient light", plant, 2 * kScale);
  run_against("eager light", plant, 0);

  // Soundness carries over: against a plan with output obligations
  // (A<> Bright hopes for bright!), a genuinely faulty box still fails.
  game::CooperativeResult coop2 = game::solve_cooperative(
      spec.system,
      tsystem::TestPurpose::parse(spec.system, "control: A<> IUT.Bright"));
  game::Strategy plan2(coop2.solution);
  for (const auto& m : testing::enumerate_mutants(plant)) {
    const tsystem::System mutated = testing::apply_mutant(plant, m);
    testing::SimulatedImplementation imp(mutated, kScale,
                                         testing::ImpPolicy{3 * kScale, {}});
    auto exec =
        testing::TestExecutor::cooperative(spec.system, plan2, imp, kScale);
    const auto report = exec.run();
    if (report.verdict == testing::Verdict::kFail) {
      std::printf("faulty light     verdict: fail          %s\n",
                  report.detail.c_str());
      std::printf("                 fault:   %s\n", m.description.c_str());
      break;
    }
  }
  return 0;
}
