// The Leader Election Protocol case study (Sec. 4): synthesize winning
// strategies for the paper's purposes TP1–TP3 on a small instance and
// inspect what game-based test generation produces.
//
// Build & run:  ./build/examples/lep_testing [nodes]
#include <cstdio>
#include <cstdlib>

#include "game/solver.h"
#include "game/strategy.h"
#include "models/lep.h"
#include "util/memory_meter.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"

int main(int argc, char** argv) {
  using namespace tigat;
  const std::uint32_t nodes =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3;

  models::Lep lep = models::make_lep({.nodes = nodes});
  std::printf("LEP instance: %u nodes, buffer capacity %u, IUT address %u\n\n",
              nodes, nodes, nodes - 1);

  const std::vector<std::pair<std::string, std::string>> purposes = {
      {"TP1", models::lep_tp1()},
      {"TP2", models::lep_tp2()},
      {"TP3", models::lep_tp3()},
  };

  util::TablePrinter table({"purpose", "controllable", "states", "rounds",
                            "strategy rows", "time (s)", "mem (MB)"});

  for (const auto& [label, prop] : purposes) {
    util::Stopwatch watch;
    game::GameSolver solver(lep.system,
                            tsystem::TestPurpose::parse(lep.system, prop));
    const auto solution = solver.solve();
    game::Strategy strategy(solution);
    table.add_row({label, solution->winning_from_initial() ? "yes" : "no",
                   util::format("%zu", solution->stats().keys),
                   util::format("%zu", solution->stats().rounds),
                   util::format("%zu", strategy.size()),
                   util::format("%.3f", watch.seconds()),
                   util::format("%.1f", util::to_mebibytes(
                                            solution->stats().peak_zone_bytes))});

    if (label == "TP1") {
      // Show the first prescriptions of the TP1 strategy: how the
      // tester starts driving the node towards a forward of better
      // information.
      const std::string full = strategy.to_string();
      std::printf("--- %s: %s\n", label.c_str(), prop.c_str());
      std::size_t shown = 0, pos = 0;
      while (shown < 12 && pos < full.size()) {
        const std::size_t nl = full.find('\n', pos);
        std::printf("%s\n", full.substr(pos, nl - pos).c_str());
        pos = nl + 1;
        ++shown;
      }
      std::printf("... (%zu rows total)\n\n", strategy.size());
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "TP1 drives the node to forward better information; TP2 fills\n"
      "every buffer slot; TP3 additionally requires the node to be\n"
      "idle.  All three are controllable despite the node's timeout\n"
      "window and free choice of forwarding slots.\n");
  return 0;
}
