// End-to-end .tg pipeline timing: parse → elaborate → solve on the
// shipped model files, one JSON-ish line per (model, purpose) so the
// perf trajectory can track the language frontend next to the solver:
//
//   {"bench": "lang_pipeline", "model": "smart_light", "purpose": 0,
//    "compile_s": 0.000123, "solve_s": 0.000456, "states": 10,
//    "winning": true, "mem_mb": 0.0}
//
// Environment overrides:
//   TIGAT_LANG_BENCH_REPS  compile repetitions for the timing (default 32)
//
// --json / TIGAT_BENCH_JSON additionally writes the same rows to
// BENCH_lang_pipeline.json (see bench_json.h).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "game/solver.h"
#include "lang/lang.h"
#include "util/memory_meter.h"
#include "util/stopwatch.h"

#ifndef TIGAT_MODEL_DIR
#define TIGAT_MODEL_DIR "examples/models"
#endif

namespace {

using namespace tigat;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = std::max(1, env_int("TIGAT_LANG_BENCH_REPS", 32));
  benchio::BenchReport report("lang_pipeline", argc, argv);
  report.root().set("reps", reps);
  const std::vector<std::string> models = {"smart_light", "lep"};

  for (const std::string& name : models) {
    const std::string path = std::string(TIGAT_MODEL_DIR) + "/" + name + ".tg";

    // Compile (parse + elaborate + purpose parse), amortised over reps.
    util::Stopwatch compile_watch;
    for (int r = 0; r < reps - 1; ++r) {
      const lang::LoadedModel warm = lang::load_model(path);
      (void)warm;
    }
    lang::LoadedModel model = lang::load_model(path);
    const double compile_s = compile_watch.seconds() / reps;

    for (std::size_t i = 0; i < model.purposes.size(); ++i) {
      util::Stopwatch solve_watch;
      game::GameSolver solver(model.system, model.purposes[i]);
      const auto solution = solver.solve();
      const double solve_s = solve_watch.seconds();
      std::printf(
          "{\"bench\": \"lang_pipeline\", \"model\": \"%s\", "
          "\"purpose\": %zu, \"compile_s\": %.6f, \"solve_s\": %.6f, "
          "\"states\": %zu, \"rounds\": %zu, \"winning\": %s, "
          "\"mem_mb\": %.2f}\n",
          name.c_str(), i, compile_s, solve_s, solution->stats().keys,
          solution->stats().rounds,
          solution->winning_from_initial() ? "true" : "false",
          util::to_mebibytes(solution->stats().peak_zone_bytes));
      auto& row = report.add_row();
      row.set("model", name);
      row.set("purpose", i);
      row.set("compile_s", compile_s);
      row.set("solve_s", solve_s);
      row.set("states", solution->stats().keys);
      row.set("rounds", solution->stats().rounds);
      row.set("winning", solution->winning_from_initial());
      row.set("mem_mb",
              util::to_mebibytes(solution->stats().peak_zone_bytes));
    }
  }
  report.flush();
  return 0;
}
