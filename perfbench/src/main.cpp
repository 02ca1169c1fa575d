// tigat_perfbench — one benchmark run of one workload.
//
//   tigat_perfbench --workload synth_lep4|serve_lep4|campaign_smartlight
//                   --seed N --seconds S --trace 0|1
//                   --model-dir DIR --data-dir DIR --work-dir DIR
//
// Prints a stamp line (build and host), progress lines, and as its last
// line the result object {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

#ifndef TIGAT_PERFBENCH_BUILD_TYPE
#define TIGAT_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Timings from anything but an optimised, unsanitised build are not
// comparable; refuse to report them.
const char* unfit_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "not an optimised NDEBUG build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strcmp(TIGAT_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return "build type is not Release";
  }
  return nullptr;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: tigat_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --model-dir DIR --data-dir DIR --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc % 2 == 0) return usage();  // every flag takes one value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--model-dir") {
      args.model_dir = value;
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.model_dir.empty() ||
      args.data_dir.empty() || args.work_dir.empty() || !(args.seconds > 0)) {
    return usage();
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "tigat_perfbench: refusing to time this build: %s\n",
                 why);
    return 3;
  }

  std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"compiler\": \"gcc %s\", "
              "\"build_type\": \"%s\", \"hardware_threads\": %u}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, __VERSION__,
              TIGAT_PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  std::fflush(stdout);

  perfbench::Result result;
  int rc = 0;
  try {
    if (args.workload == "synth_lep4") {
      rc = perfbench::run_synth(args, result);
    } else if (args.workload == "serve_lep4") {
      rc = perfbench::run_serve(args, result);
    } else if (args.workload == "campaign_smartlight") {
      rc = perfbench::run_campaign(args, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tigat_perfbench: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  std::printf("%s\n", result.to_json(args.trace).c_str());
  return 0;
}
