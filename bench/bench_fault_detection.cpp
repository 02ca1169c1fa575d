// Extension A4 (DESIGN.md; paper future-work item 3): fault-detection
// capability of strategy-based testing, measured by a mutation
// campaign on the Smart Light (examples/models/smart_light.tg; the
// mutants are taken of its process "IUT" alone).
//
// For every mutant of the plant and every IMP timing policy, a single
// strategy-driven test run is executed; the table reports kill rates
// per mutation operator.  PASS rows are mutants that are conforming
// (or not observably faulty) along the strategy's chosen behaviour —
// targeted testing is complete only w.r.t. its purpose (Thm 11).
#include <cstdio>
#include <map>

#include "bench_json.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "support/models.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "util/table_printer.h"
#include "util/text.h"

int main(int argc, char** argv) {
  using namespace tigat;
  constexpr std::int64_t kScale = 16;
  benchio::BenchReport report("fault_detection", argc, argv);

  const lang::LoadedModel spec = test_support::load_smart_light();
  const tsystem::System plant = test_support::plant(spec.system);

  const std::vector<std::string> purposes = {
      "control: A<> IUT.Bright",
      "control: A<> IUT.Dim",
  };
  std::vector<game::Strategy> strategies;
  for (const auto& p : purposes) {
    game::GameSolver solver(spec.system,
                            tsystem::TestPurpose::parse(spec.system, p));
    strategies.emplace_back(solver.solve());
  }

  const auto mutants = testing::enumerate_mutants(plant);
  std::printf("Mutation campaign on the Smart Light: %zu mutants, %zu "
              "purposes, 4 timing policies each\n\n",
              mutants.size(), purposes.size());

  std::map<testing::MutationKind, std::pair<int, int>> per_kind;  // kill/total
  int killed_total = 0;
  for (const auto& m : mutants) {
    const tsystem::System mutated = testing::apply_mutant(plant, m);
    bool killed = false;
    for (const auto& strategy : strategies) {
      // 3·kScale exceeds the SPEC's 2-unit window: against the true
      // plant it is clamped into conformance, against lazy mutants it
      // exploits their widened windows.
      for (const std::int64_t latency :
           {std::int64_t{0}, kScale, 2 * kScale, 3 * kScale}) {
        testing::SimulatedImplementation imp(mutated, kScale,
                                             testing::ImpPolicy{latency, {}});
        testing::TestExecutor exec(strategy, imp, kScale);
        if (exec.run().verdict == testing::Verdict::kFail) {
          killed = true;
          break;
        }
      }
      if (killed) break;
    }
    auto& [kills, total] = per_kind[m.kind];
    kills += killed;
    total += 1;
    killed_total += killed;
  }

  util::TablePrinter table({"operator", "mutants", "killed", "kill rate"});
  for (const auto& [kind, counts] : per_kind) {
    table.add_row({testing::to_string(kind), util::format("%d", counts.second),
                   util::format("%d", counts.first),
                   util::format("%.0f%%", 100.0 * counts.first /
                                              counts.second)});
    auto& row = report.add_row();
    row.set("operator", testing::to_string(kind));
    row.set("mutants", counts.second);
    row.set("killed", counts.first);
  }
  report.root().set("total_mutants", mutants.size());
  report.root().set("total_killed", killed_total);
  table.add_row({"TOTAL", util::format("%zu", mutants.size()),
                 util::format("%d", killed_total),
                 util::format("%.0f%%",
                              100.0 * killed_total /
                                  static_cast<double>(mutants.size()))});
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "surviving mutants are tioco-equivalent along the exercised\n"
      "behaviour (e.g. faults on edges the purposes never drive the\n"
      "light through) — targeted testing is purpose-complete, not\n"
      "exhaustive (Sec. 3.4).\n");
  report.flush();
  return 0;
}
