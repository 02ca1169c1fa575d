// The paper's running example end to end: the Smart Light (Fig. 2/3)
// tested for several purposes against a family of conforming
// implementations — every combination must PASS (Theorem 10 in
// action), whatever latency and output preference the implementation
// exhibits inside the SPEC's uncertainty windows.
//
// The model is examples/models/smart_light.tg; the implementations
// simulate its process "IUT" alone (tsystem::extract_process).
//
// Build & run:  ./build/examples/smart_light_campaign
#include <cstdio>
#include <string>
#include <vector>

#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "testing/executor.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"
#include "util/table_printer.h"
#include "util/text.h"

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

  const std::vector<std::string> purposes = {
      "control: A<> IUT.Bright",
      "control: A<> IUT.Dim",
      "control: A<> IUT.L5",
      "control: A<> IUT.L6",
  };

  const std::vector<std::pair<std::string, testing::ImpPolicy>> imps = {
      {"urgent", {0, {}}},
      {"half-window", {kScale, {}}},
      {"deadline", {2 * kScale, {}}},
      {"dim-lover", {kScale / 2, {"dim", "off", "bright"}}},
      {"bright-lover", {kScale / 2, {"bright", "dim", "off"}}},
  };

  util::TablePrinter table({"purpose", "imp", "verdict", "ticks", "trace"});
  int failures = 0;

  for (const auto& prop : purposes) {
    game::GameSolver solver(spec.system,
                            tsystem::TestPurpose::parse(spec.system, prop));
    const auto solution = solver.solve();
    if (!solution->winning_from_initial()) {
      std::printf("%s: not controllable — skipped\n", prop.c_str());
      continue;
    }
    game::Strategy strategy(solution);
    for (const auto& [imp_name, policy] : imps) {
      testing::SimulatedImplementation imp(plant, kScale, policy);
      testing::TestExecutor exec(strategy, imp, kScale);
      const auto report = exec.run();
      failures += report.verdict != testing::Verdict::kPass;
      std::string trace = report.trace_string();
      if (trace.size() > 48) trace = trace.substr(0, 45) + "...";
      table.add_row({prop.substr(std::string("control: A<> ").size()),
                     imp_name, testing::to_string(report.verdict),
                     util::format("%lld", static_cast<long long>(
                                              report.total_ticks)),
                     trace});
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  if (failures == 0) {
    std::printf("all conforming implementations passed — soundness holds.\n");
  } else {
    std::printf("UNEXPECTED: %d failing runs against conforming IMPs!\n",
                failures);
  }
  return failures == 0 ? 0 : 1;
}
