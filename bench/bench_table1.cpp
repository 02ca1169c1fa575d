// Reproduces TABLE 1 of the paper: winning-strategy generation for the
// Leader Election Protocol, test purposes TP1–TP3, n = 3..8 nodes —
// time (s) and memory (MB) per cell, "/" when the cell exceeds the
// budget (the paper's machine ran out of memory at n = 8; a budget
// plays that role here, see EXPERIMENTS.md).
//
// Every cell is elaborated from the ONE shipped template
// (examples/models/lep.tg with `N` overridden per column) — the same
// path `run_model --param N=n` takes; its three `control:` lines are
// TP1–TP3.  tests/lang_template_test.cpp pins every instance's shape.
//
// Each column elaborates ONE System and solves TP1–TP3 on it.  The
// zone graph does not depend on the purpose, so TP1 explores it and
// TP2/TP3 solve against the same graph: their cells exclude the
// shared exploration (see game/solver.h).
//
// Environment overrides:
//   TIGAT_TABLE1_MAX_N    largest n to attempt            (default 6)
//   TIGAT_TABLE1_BUDGET   per-cell wall-clock budget, s   (default 60)
//   TIGAT_TABLE1_MEM_MB   per-cell zone-memory budget, MB (default 1024)
//   TIGAT_TABLE1_THREADS  solver threads; 0 = hardware    (default 0)
//   TIGAT_TABLE1_SPEEDUP  0 disables the 1-vs-N rerun     (default 1)
//
// Once a cell blows the budget, larger n in the same row are reported
// "/" without being run (the growth is monotone).  A model error in a
// column (n outside the template's parameter range) fails every live
// cell of that column.
//
// With --json (or TIGAT_BENCH_JSON, see bench_json.h) every cell lands
// in BENCH_table1.json with its deterministic shape counters (keys,
// zones, edges, rounds — what the CI bench gate pins), the zone-pool
// dictionary counters and the process peak RSS, plus the
// 1-thread-vs-N-thread speedup figure with its merge-phase split (the
// serial share the striped interner attacks).
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "game/solver.h"
#include "lang/lang.h"
#include "support/models.h"
#include "util/memory_meter.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"
#include "util/thread_pool.h"

namespace {

using namespace tigat;

struct Cell {
  bool ran = false;
  bool completed = false;
  bool winning = false;
  double seconds = 0.0;
  double mebibytes = 0.0;
  game::SolverStats stats;
};

// Solves purpose `purpose` (0-2: TP1-TP3) of one LEP column.
Cell run_cell(const lang::LoadedModel& lep, std::uint32_t nodes,
              std::size_t purpose, double budget,
              std::size_t mem_budget_bytes, unsigned threads) {
  Cell cell;
  cell.ran = true;
  try {
    game::SolverOptions options;
    options.exploration.deadline_seconds = budget;
    options.exploration.max_zone_bytes = mem_budget_bytes;
    options.threads = threads;
    util::Stopwatch watch;
    game::GameSolver solver(lep.system, lep.purposes.at(purpose), options);
    const auto solution = solver.solve();
    cell.completed = true;
    cell.seconds = watch.seconds();
    cell.stats = solution->stats();
    cell.mebibytes = util::to_mebibytes(solution->stats().peak_zone_bytes);
    cell.winning = solution->winning_from_initial();
    if (!cell.winning) {
      std::fprintf(stderr, "warning: %s not controllable at n=%u\n",
                   lep.purposes[purpose].source.c_str(), nodes);
    }
  } catch (const semantics::ExplorationLimit&) {
    cell.completed = false;
  } catch (const tsystem::ModelError& e) {
    std::fprintf(stderr, "error: n=%u: %s\n", nodes, e.what());
    cell.completed = false;
  }
  return cell;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_n = env_int("TIGAT_TABLE1_MAX_N", 6);
  const double budget = env_int("TIGAT_TABLE1_BUDGET", 60);
  const auto mem_budget =
      static_cast<std::size_t>(env_int("TIGAT_TABLE1_MEM_MB", 1024)) << 20;
  const auto threads =
      static_cast<unsigned>(env_int("TIGAT_TABLE1_THREADS", 0));
  const bool with_speedup = env_int("TIGAT_TABLE1_SPEEDUP", 1) != 0;

  benchio::BenchReport report("table1", argc, argv);
  report.root().set("max_n", max_n);
  report.root().set("budget_s", budget);
  report.root().set("mem_budget_mb", static_cast<long long>(mem_budget >> 20));
  report.root().set(
      "threads",
      static_cast<long long>(threads == 0 ? util::ThreadPool::hardware_threads()
                                          : threads));

  // lep.tg's `control:` lines, in order.
  const std::vector<std::string> purposes = {"TP1", "TP2", "TP3"};

  std::printf("Table 1: strategy generation for the LEP protocol\n");
  std::printf("(cells elaborated from the lep.tg template, N overridden "
              "per column;\n");
  std::printf(" budget per cell: %.0fs / %zu MB; '/' = out of budget, the\n",
              budget, mem_budget >> 20);
  std::printf(" paper's '/' cells were out-of-memory on 4 GB in 2008;\n");
  std::printf(" TP1 explores each column's graph; the TP2/TP3 cells reuse\n");
  std::printf(" it and exclude that shared exploration)\n\n");

  std::vector<std::string> header = {""};
  for (int n = 3; n <= max_n; ++n) header.push_back("n=" + std::to_string(n));
  util::TablePrinter time_table(header);
  util::TablePrinter mem_table(header);

  // cells[p][n - 3]; a cell that did not run (its row died) is "/".
  std::vector<std::vector<Cell>> cells(purposes.size());
  std::vector<bool> dead(purposes.size(), false);
  for (int n = 3; n <= max_n; ++n) {
    const auto nodes = static_cast<std::uint32_t>(n);
    std::optional<lang::LoadedModel> lep;
    try {
      lep.emplace(test_support::load_lep(n));
    } catch (const tsystem::ModelError& e) {
      // E.g. n outside the template's declared parameter range: report
      // the column as infeasible instead of killing the whole table.
      std::fprintf(stderr, "error: n=%d: %s\n", n, e.what());
    }
    for (std::size_t p = 0; p < purposes.size(); ++p) {
      Cell cell;
      if (!dead[p]) {
        cell.ran = true;
        if (lep) {
          cell = run_cell(*lep, nodes, p, budget, mem_budget, threads);
        }
        dead[p] = !cell.completed;  // larger n cannot fit either
        std::fprintf(stderr, "  %s n=%d done\n", purposes[p].c_str(), n);
      }
      cells[p].push_back(cell);
    }
  }

  // Largest cell that completed, for the speedup figure below.
  int best_n = 0;
  std::size_t best_p = 0;

  for (std::size_t p = 0; p < purposes.size(); ++p) {
    const std::string& label = purposes[p];
    std::vector<std::string> time_row = {label};
    std::vector<std::string> mem_row = {label};
    for (int n = 3; n <= max_n; ++n) {
      const Cell& cell = cells[p][static_cast<std::size_t>(n - 3)];
      if (!cell.completed) {
        time_row.push_back("/");
        mem_row.push_back("/");
      }
      if (!cell.ran) continue;
      auto& row = report.add_row();
      row.set("purpose", label);
      row.set("n", n);
      row.set("completed", cell.completed);
      if (!cell.completed) continue;
      row.set("seconds", cell.seconds);
      row.set("mem_mb", cell.mebibytes);
      row.set("winning", cell.winning);
      // Deterministic shape counters — identical across machines and
      // thread counts; what tools/bench_gate.py pins hardest.
      row.set("keys", cell.stats.keys);
      row.set("reach_zones", cell.stats.reach_zones);
      row.set("winning_zones", cell.stats.winning_zones);
      row.set("edges", cell.stats.edges);
      row.set("rounds", cell.stats.rounds);
      row.set("pool_rows", cell.stats.zone_pool_rows);
      row.set("pool_mb", util::to_mebibytes(cell.stats.zone_pool_bytes));
      time_row.push_back(util::format("%.2f", cell.seconds));
      mem_row.push_back(util::format("%.1f", cell.mebibytes));
      if (n > best_n) {
        best_n = n;
        best_p = p;
      }
    }
    time_table.add_row(std::move(time_row));
    mem_table.add_row(std::move(mem_row));
  }

  std::printf("Time (s)\n%s\n", time_table.to_string().c_str());
  std::printf("Memory (MB)\n%s\n", mem_table.to_string().c_str());
  std::printf(
      "shape check: rows grow superlinearly in n and die within two\n"
      "steps of the last feasible instance, as in the paper.\n");

  // Speedup figure: the largest completing cell, solved serially and
  // with the full pool, each on a freshly elaborated System so that
  // both runs explore.  Verdicts must agree (determinism contract).
  if (with_speedup && best_n != 0) {
    const unsigned many =
        threads > 1 ? threads : util::ThreadPool::hardware_threads();
    const auto nodes = static_cast<std::uint32_t>(best_n);
    const Cell serial = run_cell(test_support::load_lep(best_n), nodes,
                                 best_p, budget, mem_budget, 1);
    const Cell pooled = run_cell(test_support::load_lep(best_n), nodes,
                                 best_p, budget, mem_budget, many);
    if (serial.completed && pooled.completed) {
      const double speedup =
          pooled.seconds > 0.0 ? serial.seconds / pooled.seconds : 0.0;
      // The exploration's serial remainder (seal + merge + subsumption)
      // is the Amdahl cap of the parallel pipeline; with the striped
      // interner the hashing/equality work left this phase, so the
      // split is worth tracking next to the end-to-end figure.
      const double merge_speedup =
          pooled.stats.explore_merge_seconds > 0.0
              ? serial.stats.explore_merge_seconds /
                    pooled.stats.explore_merge_seconds
              : 0.0;
      std::printf(
          "\nspeedup (%s, n=%d): 1 thread %.2fs vs %u threads %.2fs "
          "→ %.2fx  (explore merge phase %.2fs vs %.2fs → %.2fx)%s\n",
          purposes[best_p].c_str(), best_n, serial.seconds, many,
          pooled.seconds, speedup, serial.stats.explore_merge_seconds,
          pooled.stats.explore_merge_seconds, merge_speedup,
          serial.winning == pooled.winning ? "" : "  VERDICT MISMATCH!");
      std::string blob = "{\"purpose\": \"";
      blob += purposes[best_p];
      blob += "\", \"n\": " + std::to_string(best_n);
      blob += ", \"serial_s\": " + util::format("%.4f", serial.seconds);
      blob += ", \"pooled_s\": " + util::format("%.4f", pooled.seconds);
      blob += ", \"threads\": " + std::to_string(many);
      blob += ", \"speedup\": " + util::format("%.3f", speedup);
      blob += ", \"serial_expand_s\": " +
              util::format("%.4f", serial.stats.explore_expand_seconds);
      blob += ", \"pooled_expand_s\": " +
              util::format("%.4f", pooled.stats.explore_expand_seconds);
      blob += ", \"serial_merge_s\": " +
              util::format("%.4f", serial.stats.explore_merge_seconds);
      blob += ", \"pooled_merge_s\": " +
              util::format("%.4f", pooled.stats.explore_merge_seconds);
      blob += ", \"merge_speedup\": " + util::format("%.3f", merge_speedup);
      blob += ", \"verdicts_equal\": ";
      blob += serial.winning == pooled.winning ? "true" : "false";
      blob += "}";
      report.root().raw("speedup", std::move(blob));
    }
  }

  // Whole-process high-water RSS (ru_maxrss never decreases, so this
  // is a run-level figure — the largest cell dominates it — not a
  // per-cell one).
  report.root().set("peak_rss_mb", util::to_mebibytes(util::peak_rss_bytes()));

  report.flush();
  return 0;
}
