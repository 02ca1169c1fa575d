// Ablation A1 (DESIGN.md): zone-based solver vs. the region-graph
// baseline of Maler–Pnueli–Sifakis.  This is the comparison that
// motivated on-the-fly zone algorithms in the first place (the paper
// cites a "dramatic performance improvement" of UPPAAL-TIGA over
// earlier approaches): region graphs blow up with the magnitude of the
// clock constants, zones don't.
//
// The Smart Light's idle constant Tidle is swept (an override of the
// `Tidle` constant of examples/models/smart_light.tg); region counts
// grow with it while the zone solver's state count stays flat.
#include <cstdio>

#include "bench_json.h"
#include "game/region_solver.h"
#include "game/solver.h"
#include "support/models.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"

int main(int argc, char** argv) {
  using namespace tigat;
  benchio::BenchReport report("ablation_solver", argc, argv);

  std::printf(
      "Ablation: zone solver (UPPAAL-TIGA style) vs region-graph baseline\n"
      "model: Smart Light, purpose: control: A<> IUT.Bright, sweeping "
      "Tidle\n\n");

  util::TablePrinter table({"Tidle", "zone states", "zone time (s)",
                            "region nodes", "region time (s)", "agree"});

  for (const dbm::bound_t t_idle : {5, 10, 20, 40, 80}) {
    const lang::LoadedModel light =
        test_support::load_smart_light({{"Tidle", t_idle}});
    const auto purpose =
        tsystem::TestPurpose::parse(light.system, "control: A<> IUT.Bright");

    util::Stopwatch zone_watch;
    game::GameSolver zone_solver(light.system, purpose);
    const auto zone = zone_solver.solve();
    const double zone_time = zone_watch.seconds();

    util::Stopwatch region_watch;
    game::RegionGameSolver region_solver(light.system, purpose);
    region_solver.solve();
    const double region_time = region_watch.seconds();

    table.add_row({util::format("%d", t_idle),
                   util::format("%zu", zone->stats().keys),
                   util::format("%.4f", zone_time),
                   util::format("%zu", region_solver.stats().nodes),
                   util::format("%.4f", region_time),
                   zone->winning_from_initial() ==
                           region_solver.winning_from_initial()
                       ? "yes"
                       : "NO"});
    auto& row = report.add_row();
    row.set("t_idle", static_cast<int>(t_idle));
    row.set("zone_states", zone->stats().keys);
    row.set("zone_s", zone_time);
    row.set("region_nodes", region_solver.stats().nodes);
    row.set("region_s", region_time);
    row.set("agree", zone->winning_from_initial() ==
                         region_solver.winning_from_initial());
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "expected shape: region nodes grow roughly linearly in Tidle (and\n"
      "multiplicatively per clock), zone states stay constant — the\n"
      "motivation for zone-based on-the-fly timed-game solving.\n");
  report.flush();
  return 0;
}
