// Generic model runner: the full parse → elaborate → solve pipeline
// from a .tg file path — no C++ modelling required.  The first
// argument names the pipeline stage; anything else is a usage error:
//
//   run_model solve    model.tg [--strategy-out=F.tgs] ...
//   run_model serve    model.tg --strategy-in=F.tgs ...
//   run_model run      model.tg ...        # one test run (campaign K=1)
//   run_model campaign model.tg --runs=K ...
//   run_model explain  model.tg ...        # campaign + post-mortems
//
//   ./build/examples/run_model solve examples/models/smart_light.tg
//   ./build/examples/run_model solve examples/models/lep.tg --print-model
//   ./build/examples/run_model solve model.tg "control: A<> IUT.Bright"
//   ./build/examples/run_model solve model.tg --threads=4  # 0 = hardware
//
// An argument starting with `--` that names no option is a usage error
// (exit 1), reported before the model is loaded.
//
// `serve` opens the .tgs with the zero-copy v3 reader
// (DecisionTable::map): a v1/v2 file exits 1 with a "re-solve"
// diagnostic, a corrupt file exits 2.
//
// Templated models rescale from the command line: --param NAME=VALUE
// overrides a `const` declaration before elaboration, so one file
// serves every instance size (the whole of Table 1 is
// `run_model solve examples/models/lep.tg --param N=3..8`):
//
//   run_model solve examples/models/lep.tg --param N=5
//
// Every `control:` declaration in the file is solved, then any extra
// purposes given on the command line (in the model's scope: they see
// its constants, --param overrides applied); for each one the
// winnability verdict, solver statistics and strategy size are
// reported.  Both purpose kinds solve: `control: A<> φ` (reachability)
// and `control: A[] φ` (safety).  Safety campaigns PASS by keeping φ true
// for --pass-ticks of model time (default: the step budget) and FAIL
// the moment a run breaks φ.
//
// Compiled strategies (the offline/online split):
//
//   # solve once, compile the first purpose's strategy, save it
//   run_model solve model.tg --strategy-out=model.tgs
//   # serving path: load the compiled strategy — no solving at all
//   run_model serve model.tg --strategy-in=model.tgs
//
// --strategy-in validates the .tgs fingerprint against the model,
// reports the table shape and times the compiled decide() at the
// initial state, which is the whole per-step cost a test-execution
// service pays once the game is solved offline.
//
// Observability (see src/obs/): all opt-in, near-zero cost when off.
//
//   --trace-out=FILE    Chrome trace-event JSON of the run (open in
//                       Perfetto / chrome://tracing): per-worker spans
//                       for expand, merge, fixpoint rounds, decide.
//   --metrics-out=FILE  versioned metrics snapshot (counters, gauges,
//                       histograms; superset of the solver stats).
//   --progress[=SECS]   heartbeat JSONL on stderr every SECS (default
//                       5) with keys/zones/round/RSS while solving.
//   --stats-json        print the metrics snapshot to stdout instead
//                       of the human table (parse from the line
//                       starting with {"schema").
//   Both snapshots carry the process high-water RSS as the gauge
//   process.peak_rss_bytes, taken when the snapshot is written.
//
// Test campaigns (see src/testing/campaign.h): solve the first purpose,
// extract one process as the IUT (simulated), run it K times behind an
// optionally fault-injected boundary, and emit the deterministic
// campaign JSON:
//
//   run_model campaign model.tg --runs=50 --faults="drop=0.05,delay=0..8"
//       --fault-seed=7 --run-deadline-ms=2000 --retries=2
//       --campaign-out=campaign.json
//   run_model campaign model.tg --runs=20 --mutant=3  # a mutated IUT
//
// Flight recorder + post-mortems (src/obs/recorder.h, explain.h):
// every non-PASS attempt's full step journal becomes a replayable,
// self-explaining artifact.
//
//   --ledger-out=DIR    write runR_attemptA.ledger.jsonl (tigat.ledger
//                       v1) and the matching .explain.json
//                       (tigat.explain v1) for every non-PASS attempt;
//                       validate with tools/explain_check.py --dir DIR.
//   --explain           print a human post-mortem per non-PASS attempt
//                       to stderr (stdout keeps the campaign JSON).
//
// Both flags imply campaign mode (default --runs=1).
//
// Exit codes (stable; scripts may branch on them):
//   0  all purposes winnable / campaign verdict PASS
//   1  usage error, model error, or unwinnable purpose
//   2  I/O error (cannot read model / write a requested artifact)
//   3  solver resource limit hit (semantics::ExplorationLimit)
//   4  campaign verdict FAIL (sound evidence of non-conformance)
//   5  campaign verdict FLAKY or UNRESPONSIVE (inconclusive)
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "semantics/concrete.h"
#include "semantics/symbolic.h"
#include "testing/campaign.h"
#include "testing/faults.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"
#include "util/memory_meter.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"

namespace {

// Exit taxonomy — documented in the header comment; keep both in sync.
constexpr int kExitPass = 0;
constexpr int kExitUsageOrModel = 1;
constexpr int kExitIo = 2;
constexpr int kExitSolverLimit = 3;
constexpr int kExitFailVerdict = 4;
constexpr int kExitInconclusive = 5;

// Exports whatever telemetry was requested; called on every exit path
// that completed the pipeline (solve and serve).  Returns false only
// if a requested artifact could not be written.
bool write_obs_artifacts(const std::string& trace_out,
                         const std::string& metrics_out, bool stats_json) {
  bool ok = true;
  if (!metrics_out.empty() || stats_json) {
    tigat::obs::metrics().gauge("process.peak_rss_bytes")
        .set(static_cast<double>(tigat::util::peak_rss_bytes()));
  }
  if (!trace_out.empty()) {
    tigat::obs::Tracer::instance().disable();
    ok &= tigat::obs::Tracer::instance().write_chrome_trace(trace_out);
  }
  if (!metrics_out.empty()) {
    ok &= tigat::obs::metrics().write_snapshot(metrics_out);
  }
  if (stats_json) {
    const std::string json = tigat::obs::metrics().snapshot_json();
    std::fwrite(json.data(), 1, json.size(), stdout);
  }
  return ok;
}

int serve_strategy(const tigat::lang::LoadedModel& model,
                   const std::vector<tigat::tsystem::TestPurpose>& purposes,
                   const std::string& path) {
  using namespace tigat;
  // The zero-copy path: mmap + validate, no deserialization.  Old
  // formats are a usage condition (the file is fine, just outdated),
  // not an I/O failure.
  const decision::DecisionTable table = [&] {
    try {
      return decision::DecisionTable::map(path);
    } catch (const decision::VersionError& e) {
      std::fprintf(stderr, "cannot serve '%s': %s\n", path.c_str(), e.what());
      std::exit(kExitUsageOrModel);
    } catch (const decision::SerializeError& e) {
      std::fprintf(stderr, "cannot load '%s': %s\n", path.c_str(), e.what());
      std::exit(kExitIo);
    }
  }();
  // The fingerprint covers system AND purpose, so the serve check finds
  // which of the model's purposes this table was compiled for (a safety
  // table never passes as a reachability one, or vice versa).
  const tsystem::TestPurpose* purpose = nullptr;
  for (const tsystem::TestPurpose& p : purposes) {
    if (table.matches(model.system, p)) {
      purpose = &p;
      break;
    }
  }
  if (purpose == nullptr) {
    std::fprintf(stderr,
                 "'%s' was compiled for a different model or purpose "
                 "(fingerprint mismatch)\n",
                 path.c_str());
    return kExitUsageOrModel;
  }
  std::printf("loaded compiled strategy %s for '%s' (%s game): %zu keys, "
              "%zu nodes, %zu arcs, %zu leaves, %zu zones (%.1f KiB "
              "resident)\n",
              path.c_str(), purpose->source.c_str(),
              table.purpose_kind() == 1 ? "safety" : "reachability",
              table.key_count(), table.node_count(), table.arc_count(),
              table.leaf_count(), table.zone_count(),
              static_cast<double>(table.memory_bytes()) / 1024.0);

  constexpr std::int64_t kScale = 16;
  semantics::ConcreteSemantics sem(model.system, kScale);
  const auto initial = sem.initial();
  const game::Move move = table.decide(initial, kScale);
  const char* kinds[] = {"goal reached", "action", "delay", "unwinnable"};
  std::printf("decision at the initial state: %s\n",
              kinds[static_cast<int>(move.kind)]);

  constexpr int kReps = 200000;
  util::Stopwatch watch;
  std::int64_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    sink += static_cast<std::int64_t>(table.decide(initial, kScale).kind);
  }
  const double ns = watch.seconds() * 1e9 / kReps;
  std::printf("compiled decide(): %.0f ns/decision (%d reps, checksum %lld)\n",
              ns, kReps, static_cast<long long>(sink));
  return kExitPass;
}

int usage() {
  std::fprintf(stderr,
               "usage: run_model solve|serve|run|campaign|explain "
               "<model.tg> [--print-model] "
               "[--threads=N] [--param NAME=VALUE]... "
               "[--strategy-out=FILE.tgs] "
               "[--strategy-in=FILE.tgs] "
               "[--trace-out=FILE] [--metrics-out=FILE] "
               "[--progress[=SECS]] [--stats-json] "
               "[--runs=K] [--faults=SPEC] [--fault-seed=N] "
               "[--run-deadline-ms=M] [--retries=R] [--iut=NAME] "
               "[--mutant=K] [--pass-ticks=T] [--campaign-out=FILE] "
               "[--ledger-out=DIR] [--explain] "
               "[\"control: A<> ...\" | \"control: A[] ...\"]...\n"
               "exit codes: 0 pass, 1 usage/model, 2 I/O, "
               "3 solver limit, 4 FAIL, 5 flaky/inconclusive\n");
  return kExitUsageOrModel;
}

// Subcommand dispatch: argv[1] names the pipeline stage.  The
// subcommand pins the mode the flags would otherwise imply, so scripts
// spell intent without learning new options.
enum class Mode { kSolve, kServe, kRun, kCampaign, kExplain };

std::optional<Mode> parse_mode(const char* arg) {
  if (std::strcmp(arg, "solve") == 0) return Mode::kSolve;
  if (std::strcmp(arg, "serve") == 0) return Mode::kServe;
  if (std::strcmp(arg, "run") == 0) return Mode::kRun;
  if (std::strcmp(arg, "campaign") == 0) return Mode::kCampaign;
  if (std::strcmp(arg, "explain") == 0) return Mode::kExplain;
  return std::nullopt;
}

int run_main(int argc, char** argv) {
  using namespace tigat;

  const std::optional<Mode> parsed =
      argc > 1 ? parse_mode(argv[1]) : std::nullopt;
  if (!parsed) return usage();
  const Mode mode = *parsed;

  std::string path;
  bool print_model = false;
  unsigned threads = 0;  // 0 = hardware concurrency
  std::string strategy_out;
  std::string strategy_in;
  std::string trace_out;
  std::string metrics_out;
  bool stats_json = false;
  double progress_secs = -1.0;  // < 0: heartbeat off
  bool campaign_mode = false;   // set by --runs / --faults
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  long runs = 0;
  long long run_deadline_ms = 0;
  long retries = 0;
  long long pass_ticks = 0;     // safety: PASS after this much model time
  int mutant = -1;              // < 0: test the unmutated IUT
  std::string iut_name = "IUT";
  std::string campaign_out;
  std::string ledger_out;       // directory for ledger + explain files
  bool explain = false;         // human post-mortems on stderr
  lang::CompileOptions compile_options;
  std::vector<std::string> extra_purposes;
  const auto add_param = [&](const char* spec) {
    const char* eq = spec ? std::strchr(spec, '=') : nullptr;
    char* end = nullptr;
    errno = 0;
    const long long value = eq ? std::strtoll(eq + 1, &end, 10) : 0;
    if (!eq || eq == spec || end == eq + 1 || (end && *end != '\0') ||
        errno == ERANGE) {
      std::fprintf(stderr, "--param expects NAME=VALUE, got '%s'\n",
                   spec ? spec : "");
      std::exit(kExitUsageOrModel);
    }
    compile_options.params.emplace_back(std::string(spec, eq),
                                        static_cast<std::int64_t>(value));
  };
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-model") == 0) {
      print_model = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--strategy-out=", 15) == 0) {
      strategy_out = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--strategy-in=", 14) == 0) {
      strategy_in = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      stats_json = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress_secs = 5.0;
    } else if (std::strncmp(argv[i], "--progress=", 11) == 0) {
      progress_secs = std::atof(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      fault_spec = argv[i] + 9;
      campaign_mode = true;
    } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      fault_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      runs = std::atol(argv[i] + 7);
      campaign_mode = true;
    } else if (std::strncmp(argv[i], "--run-deadline-ms=", 18) == 0) {
      run_deadline_ms = std::atoll(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      retries = std::atol(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--pass-ticks=", 13) == 0) {
      pass_ticks = std::atoll(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--mutant=", 9) == 0) {
      mutant = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--iut=", 6) == 0) {
      iut_name = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--campaign-out=", 15) == 0) {
      campaign_out = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--ledger-out=", 13) == 0) {
      ledger_out = argv[i] + 13;
      campaign_mode = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
      campaign_mode = true;
    } else if (std::strncmp(argv[i], "--param=", 8) == 0) {
      add_param(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--param") == 0) {
      add_param(i + 1 < argc ? argv[++i] : nullptr);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "run_model: unknown option '%s'\n", argv[i]);
      return usage();
    } else if (path.empty()) {
      path = argv[i];
    } else {
      extra_purposes.emplace_back(argv[i]);
    }
  }
  // Mode overrides: the subcommand pins what the flags would otherwise
  // have to imply, and rejects contradictions up front.
  switch (mode) {
    case Mode::kSolve:
      if (campaign_mode || !strategy_in.empty()) {
        std::fprintf(stderr,
                     "run_model solve: campaign/serve flags do not apply "
                     "(use `run_model campaign` or `run_model serve`)\n");
        return kExitUsageOrModel;
      }
      break;
    case Mode::kServe:
      if (strategy_in.empty()) {
        std::fprintf(stderr,
                     "run_model serve: --strategy-in=FILE.tgs is required\n");
        return kExitUsageOrModel;
      }
      break;
    case Mode::kRun:
      campaign_mode = true;
      runs = 1;
      break;
    case Mode::kCampaign:
      campaign_mode = true;
      break;
    case Mode::kExplain:
      campaign_mode = true;
      explain = true;
      break;
  }

  if (path.empty()) return usage();

  // Arm the requested telemetry before any pipeline work runs.
  obs::set_thread_name("tigat-main");
  if (!trace_out.empty()) obs::Tracer::instance().enable();
  if (!metrics_out.empty() || stats_json) obs::enable_metrics();
  if (progress_secs >= 0.0) obs::progress().enable(progress_secs);

  lang::LoadedModel model = [&] {
    try {
      return lang::load_model(path, compile_options, extra_purposes);
    } catch (const lang::LangError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(kExitUsageOrModel);
    }
  }();

  std::printf("loaded %s: system '%s', %u clock(s), %zu channel(s), "
              "%zu process(es), %zu purpose(s)\n",
              path.c_str(), model.system.name().c_str(),
              model.system.clock_count() - 1, model.system.channels().size(),
              model.system.processes().size(), model.purposes.size());
  if (print_model) std::printf("\n%s\n", model.system.to_string().c_str());

  std::vector<tsystem::TestPurpose> purposes = std::move(model.purposes);

  // Serving path: a compiled strategy replaces solving entirely.  The
  // purposes are parsed first so the fingerprint check can tell which
  // one the table was compiled for.  In campaign modes the table is
  // consumed below as the campaign's decide source instead.
  if (!strategy_in.empty() && !campaign_mode) {
    const int rc = serve_strategy(model, purposes, strategy_in);
    if (!write_obs_artifacts(trace_out, metrics_out, stats_json)) return kExitIo;
    return rc;
  }
  if (purposes.empty()) {
    if (campaign_mode) {
      std::fprintf(stderr, "campaign mode needs a test purpose (add "
                   "'control: A<> ...;' to the model or pass one)\n");
      return kExitUsageOrModel;
    }
    std::printf("no test purposes (add 'control: A<> ...;' to the model "
                "or pass one on the command line)\n");
    if (!strategy_out.empty()) {
      std::fprintf(stderr,
                   "--strategy-out: nothing to compile, '%s' was not "
                   "written\n",
                   strategy_out.c_str());
      return kExitUsageOrModel;
    }
    return kExitPass;
  }

  // Campaign mode: solve the first purpose, run its strategy against a
  // simulated IUT (one process of the model, optionally mutated) behind
  // an optionally fault-injected boundary.
  if (campaign_mode) {
    if (runs <= 0) runs = 1;
    // The campaign's decide source: a freshly solved strategy walk, or
    // a compiled .tgs mapped zero-copy (`campaign --strategy-in=`) —
    // the DecisionTable IS a DecisionSource, so the executor cannot
    // tell the difference.
    std::shared_ptr<const game::GameSolution> solution;
    std::unique_ptr<game::Strategy> strategy;
    std::unique_ptr<decision::StrategySource> walk_source;
    std::unique_ptr<decision::DecisionTable> table_source;
    const decision::DecisionSource* source = nullptr;
    const tsystem::TestPurpose* purpose = &purposes.front();
    if (!strategy_in.empty()) {
      try {
        table_source = std::make_unique<decision::DecisionTable>(
            decision::DecisionTable::map(strategy_in));
      } catch (const decision::VersionError& e) {
        std::fprintf(stderr, "cannot serve '%s': %s\n", strategy_in.c_str(),
                     e.what());
        return kExitUsageOrModel;
      } catch (const decision::SerializeError& e) {
        std::fprintf(stderr, "cannot load '%s': %s\n", strategy_in.c_str(),
                     e.what());
        return kExitIo;
      }
      purpose = nullptr;
      for (const tsystem::TestPurpose& p : purposes) {
        if (table_source->matches(model.system, p)) {
          purpose = &p;
          break;
        }
      }
      if (purpose == nullptr) {
        std::fprintf(stderr,
                     "'%s' was compiled for a different model or purpose "
                     "(fingerprint mismatch)\n",
                     strategy_in.c_str());
        return kExitUsageOrModel;
      }
      source = table_source.get();
    } else {
      game::SolverOptions options;
      options.threads = threads;
      game::GameSolver solver(model.system, purposes.front(), options);
      solution = solver.solve();
      if (!solution->winning_from_initial()) {
        std::fprintf(stderr,
                     "campaign: purpose '%s' is not winnable from the "
                     "initial state — no sound strategy to execute\n",
                     purposes.front().source.c_str());
        return kExitUsageOrModel;
      }
      strategy = std::make_unique<game::Strategy>(solution);
      walk_source = std::make_unique<decision::StrategySource>(*strategy);
      source = walk_source.get();
    }

    tsystem::System plant = tsystem::extract_process(model.system, iut_name);
    if (mutant >= 0) {
      const auto mutants = testing::enumerate_mutants(plant);
      if (static_cast<std::size_t>(mutant) >= mutants.size()) {
        std::fprintf(stderr, "--mutant=%d out of range (%zu mutants)\n",
                     mutant, mutants.size());
        return kExitUsageOrModel;
      }
      plant = testing::apply_mutant(plant, mutants[mutant]);
    }
    constexpr std::int64_t kScale = 16;
    testing::SimulatedImplementation imp(plant, kScale);

    testing::CampaignOptions copts;
    copts.runs = static_cast<std::size_t>(runs);
    copts.retries = static_cast<std::size_t>(retries);
    copts.run_deadline_ms = run_deadline_ms;
    copts.backoff_base_ms = 25;
    copts.fault_spec = fault_spec;
    copts.fault_seed = fault_seed;
    copts.record_ledgers = !ledger_out.empty() || explain;
    // The executor needs the purpose to know whether this is a safety
    // run (φ checked after every discrete move, PASS by outlasting the
    // budget); the DecisionSource alone cannot provide the formula.
    copts.executor.purpose = *purpose;
    copts.executor.pass_ticks = pass_ticks;
    const testing::CampaignReport report = [&] {
      try {
        return testing::campaign_run(*source, model.system, imp, kScale, copts);
      } catch (const testing::FaultSpecError& e) {
        std::fprintf(stderr, "--faults: %s\n", e.what());
        std::exit(kExitUsageOrModel);
      }
    }();

    const std::string json = report.to_json();
    if (!campaign_out.empty()) {
      std::FILE* f = std::fopen(campaign_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write campaign report to %s\n",
                     campaign_out.c_str());
        return kExitIo;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fwrite(json.data(), 1, json.size(), stdout);
    }
    // Flight-recorder artifacts: one ledger + explain JSON per
    // non-PASS attempt, named runR_attemptA so a campaign directory is
    // self-describing.
    if (!ledger_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(ledger_out, ec);
      if (ec) {
        std::fprintf(stderr, "cannot create ledger directory %s: %s\n",
                     ledger_out.c_str(), ec.message().c_str());
        return kExitIo;
      }
      const auto write_file = [&](const std::string& file,
                                  const std::string& body) {
        std::FILE* f = std::fopen(file.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot write %s\n", file.c_str());
          return false;
        }
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        return true;
      };
      std::size_t written = 0;
      for (const testing::RunOutcome& o : report.outcomes) {
        for (const obs::RunLedger& led : o.ledgers) {
          const std::string stem = util::format(
              "%s/run%zu_attempt%zu", ledger_out.c_str(), led.run,
              led.attempt);
          if (!write_file(stem + ".ledger.jsonl", led.to_jsonl()) ||
              !write_file(stem + ".explain.json",
                          obs::explain(led).to_json())) {
            return kExitIo;
          }
          ++written;
        }
      }
      std::fprintf(stderr, "ledger-out: %zu non-PASS attempt(s) -> %s\n",
                   written, ledger_out.c_str());
    }
    if (explain) {
      for (const testing::RunOutcome& o : report.outcomes) {
        for (const obs::RunLedger& led : o.ledgers) {
          const std::string text = obs::explain(led).to_text();
          std::fwrite(text.data(), 1, text.size(), stderr);
        }
      }
    }
    std::fprintf(stderr,
                 "campaign: %s (%zu runs: %zu pass, %zu fail, "
                 "%zu inconclusive; %zu attempts, %zu deadline hits)\n",
                 testing::to_string(report.verdict), report.runs,
                 report.passes, report.fails, report.inconclusive,
                 report.attempts, report.deadline_hits);
    if (!write_obs_artifacts(trace_out, metrics_out, stats_json)) {
      return kExitIo;
    }
    switch (report.verdict) {
      case testing::CampaignVerdict::kPass: return kExitPass;
      case testing::CampaignVerdict::kFail: return kExitFailVerdict;
      case testing::CampaignVerdict::kFlaky:
      case testing::CampaignVerdict::kUnresponsive: return kExitInconclusive;
    }
    return kExitInconclusive;
  }

  util::TablePrinter table({"purpose", "controllable", "states", "rounds",
                            "strategy rows", "time (s)", "mem (MB)"});
  bool all_winning = true;
  for (const tsystem::TestPurpose& purpose : purposes) {
    util::Stopwatch watch;
    try {
      game::SolverOptions options;
      options.threads = threads;
      game::GameSolver solver(model.system, purpose, options);
      const auto solution = solver.solve();
      game::Strategy strategy(solution);
      all_winning &= solution->winning_from_initial();
      table.add_row(
          {purpose.source, solution->winning_from_initial() ? "yes" : "no",
           util::format("%zu", solution->stats().keys),
           util::format("%zu", solution->stats().rounds),
           util::format("%zu", strategy.size()),
           util::format("%.3f", watch.seconds()),
           util::format("%.1f",
                        util::to_mebibytes(solution->stats().peak_zone_bytes))});

      // Offline compile of the first purpose's strategy.
      if (!strategy_out.empty()) {
        decision::CompileStats stats;
        const decision::DecisionTable compiled =
            decision::compile(*solution, &stats);
        decision::save(compiled, strategy_out);
        std::printf("compiled '%s' in %.3f s: %zu keys, %zu nodes, %zu arcs, "
                    "%zu leaves, %zu zones -> %s\n",
                    purpose.source.c_str(), stats.compile_seconds,
                    compiled.key_count(), compiled.node_count(),
                    compiled.arc_count(), compiled.leaf_count(),
                    compiled.zone_count(), strategy_out.c_str());
        strategy_out.clear();  // first purpose only
      }
    } catch (const tsystem::ModelError& e) {
      // A purpose the model rejects at solve time (e.g. a formula whose
      // bindings no longer elaborate) is a model error, not a solver
      // limit: report it and exit 1 via all_winning.
      std::fprintf(stderr, "cannot solve '%s': %s\n", purpose.source.c_str(),
                   e.what());
      all_winning = false;
    }
  }
  if (!stats_json) std::printf("\n%s\n", table.to_string().c_str());
  const bool obs_ok = write_obs_artifacts(trace_out, metrics_out, stats_json);
  if (!strategy_out.empty()) {
    // Never silently skip the artifact the caller asked for: a later
    // --strategy-in would fail far from the actual cause.
    std::fprintf(stderr,
                 "--strategy-out: no purpose was solved, '%s' was not "
                 "written\n",
                 strategy_out.c_str());
    return kExitUsageOrModel;
  }
  if (!obs_ok) return kExitIo;
  return all_winning ? kExitPass : kExitUsageOrModel;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const tigat::semantics::ExplorationLimit& e) {
    std::fprintf(stderr, "solver limit: %s\n", e.what());
    return kExitSolverLimit;
  } catch (const tigat::tsystem::ModelError& e) {
    std::fprintf(stderr, "model error: %s\n", e.what());
    return kExitUsageOrModel;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsageOrModel;
  }
}
