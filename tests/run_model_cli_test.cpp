// Exit-code taxonomy of the run_model CLI, pinned end to end against
// the real binary (TIGAT_RUN_MODEL_BIN, wired in CMakeLists.txt):
//
//   0  all purposes winnable / campaign PASS
//   1  usage error, model error, or unwinnable purpose
//   2  I/O error
//   3  solver resource limit
//   4  campaign FAIL
//   5  campaign FLAKY / UNRESPONSIVE
//
// The regression this guards: an unsupported purpose/option combo must
// exit with the usage/model code 1 — never leak out as the solver-limit
// code 3 — and safety purposes (`control: A[] φ`) go through the whole
// solve → compile → serve → campaign pipeline with the same taxonomy
// as reachability ones.  The smart_light_safety watchdog model solves
// in milliseconds, so driving the real binary stays cheap.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace {

const std::string kBin = TIGAT_RUN_MODEL_BIN;
const std::string kSafetyModel =
    std::string(TIGAT_MODEL_DIR) + "/smart_light_safety.tg";
const std::string kReachModel =
    std::string(TIGAT_MODEL_DIR) + "/smart_light.tg";

int run_cli(const std::string& args) {
  const std::string cmd = kBin + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// Like run_cli, but also returns stdout and stderr, interleaved.
int run_cli_output(const std::string& args, std::string& output) {
  const std::string cmd = kBin + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    output.append(buf, got);
  }
  const int rc = pclose(pipe);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(RunModelCli, NoArgumentsIsUsageError) {
  EXPECT_EQ(run_cli(""), 1);
}

// The first argument must name a subcommand: a bare model path is a
// usage error, like an unknown subcommand.
TEST(RunModelCli, BareModelPathIsUsageError) {
  EXPECT_EQ(run_cli(kSafetyModel), 1);
}

TEST(RunModelCli, MissingModelFileIsModelError) {
  EXPECT_EQ(run_cli("solve /no/such/model.tg"), 1);
}

TEST(RunModelCli, MalformedPurposeIsModelError) {
  EXPECT_EQ(run_cli("solve " + kSafetyModel + " \"control: A[] IUT.Nowhere\""),
            1);
}

// Command-line purposes compile in the model's scope after the file's
// own: they see its constants with --param applied (`MaxAddr` is N-1,
// so the purpose is winnable at N=4 and unwinnable at the file's N=3).
// One that is not exactly one purpose is still a model error.
TEST(RunModelCli, CommandLinePurposeSeesModelConstants) {
  const std::string lep = std::string(TIGAT_MODEL_DIR) + "/lep.tg";
  const std::string purpose =
      " \"control: A<> inUse[MaxAddr] == 1 && MaxAddr == 3\"";
  std::string output;
  EXPECT_EQ(run_cli_output("solve " + lep + " --param N=4" + purpose, output),
            0)
      << output;
  EXPECT_NE(output.find("inUse[MaxAddr] == 1 && MaxAddr == 3"),
            std::string::npos)
      << output;
  EXPECT_EQ(run_cli("solve " + lep + purpose), 1);
  EXPECT_EQ(run_cli("solve " + lep + " \"control: A<> IUT.idle; clock z\""),
            1);
  EXPECT_EQ(run_cli("solve " + lep + " \"control: A<> Nope == 1\""), 1);
}

TEST(RunModelCli, WinnableSafetyPurposeSolves) {
  EXPECT_EQ(run_cli("solve " + kSafetyModel), 0);
}

// `A[] IUT.Off` is unwinnable (the lamp starts On): must be the
// usage/model code 1, not the solver-limit code 3.
TEST(RunModelCli, UnwinnableSafetyPurposeIsNotSolverLimit) {
  EXPECT_EQ(run_cli("solve " + kSafetyModel + " \"control: A[] IUT.Off\""),
            1);
}

TEST(RunModelCli, OutOfRangeMutantIsUsageError) {
  EXPECT_EQ(run_cli("campaign " + kSafetyModel + " --runs=1 --mutant=99"), 1);
}

TEST(RunModelCli, SafetyCampaignPassesOnConformingIut) {
  EXPECT_EQ(run_cli("campaign " + kSafetyModel + " --runs=1 --pass-ticks=2000"),
            0);
}

// Mutant 1 emits off! before its watchdog window opens — a sound
// safety FAIL, surfaced as the campaign FAIL code 4.
TEST(RunModelCli, SafetyCampaignFailsOnMutant) {
  EXPECT_EQ(run_cli("campaign " + kSafetyModel +
                    " --runs=1 --pass-ticks=2000 --mutant=1"),
            4);
}

// A safety .tgs round-trips through the serving path against its own
// model, and is rejected (code 1, fingerprint mismatch) against a
// different one.
TEST(RunModelCli, SafetyStrategyServesAndPinsItsModel) {
  const std::string tgs =
      ::testing::TempDir() + "/run_model_cli_safety.tgs";
  ASSERT_EQ(run_cli("solve " + kSafetyModel + " --strategy-out=" + tgs), 0);
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 0);
  EXPECT_EQ(run_cli("serve " + kReachModel + " --strategy-in=" + tgs), 1);
  std::remove(tgs.c_str());
}

// ── subcommand rules ────────────────────────────────────────────────
// `run_model solve|serve|run|campaign|explain MODEL`: the subcommand
// pins the mode and rejects flags that contradict it.

TEST(RunModelCli, UnknownSubcommandIsUsageError) {
  EXPECT_EQ(run_cli("frobnicate " + kSafetyModel), 1);
}

// An unknown `--` flag is named, with the usage text, before the model
// is loaded — it must not fall through to the purpose parser.
TEST(RunModelCli, UnknownOptionIsUsageError) {
  for (const char* flag : {"--bogus", "--threads"}) {
    SCOPED_TRACE(flag);
    std::string output;
    EXPECT_EQ(run_cli_output("solve " + kSafetyModel + " " + flag, output), 1);
    EXPECT_NE(output.find(std::string("unknown option '") + flag + "'"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("usage: run_model"), std::string::npos) << output;
    EXPECT_EQ(output.find("loaded "), std::string::npos) << output;
    EXPECT_EQ(output.find("bad purpose"), std::string::npos) << output;
  }
}

TEST(RunModelCli, SolveSubcommandRejectsCampaignFlags) {
  EXPECT_EQ(run_cli("solve " + kSafetyModel + " --runs=1"), 1);
}

TEST(RunModelCli, ServeSubcommandRequiresStrategyIn) {
  EXPECT_EQ(run_cli("serve " + kSafetyModel), 1);
}

TEST(RunModelCli, SubcommandPipelineRoundTrips) {
  const std::string tgs =
      ::testing::TempDir() + "/run_model_cli_sub.tgs";
  ASSERT_EQ(run_cli("solve " + kSafetyModel + " --strategy-out=" + tgs), 0);
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 0);
  EXPECT_EQ(run_cli("run " + kSafetyModel + " --strategy-in=" + tgs +
                    " --pass-ticks=2000"),
            0);
  EXPECT_EQ(run_cli("campaign " + kSafetyModel + " --strategy-in=" + tgs +
                    " --runs=2 --pass-ticks=2000"),
            0);
  EXPECT_EQ(run_cli("campaign " + kSafetyModel + " --strategy-in=" + tgs +
                    " --runs=1 --pass-ticks=2000 --mutant=1"),
            4);
  std::remove(tgs.c_str());
}

// ── .tgs format versioning at the CLI boundary ──────────────────────

// An old-format (v1/v2) strategy file is a "re-solve" usage/model
// condition — exit 1 — never the I/O/corruption code 2.
TEST(RunModelCli, LegacyStrategyFileSaysMigrateNotCorrupt) {
  const std::string tgs = ::testing::TempDir() + "/run_model_cli_v2.tgs";
  {
    // A bare v2 header: magic "TGSD", version 2, zeroed checksum/size.
    unsigned char stub[24] = {'T', 'G', 'S', 'D', 2, 0, 0, 0};
    std::FILE* f = std::fopen(tgs.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stub, 1, sizeof stub, f), sizeof stub);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 1);
  std::remove(tgs.c_str());
}

// A corrupt v3 image (bad checksum) is the I/O/corruption code 2.
TEST(RunModelCli, CorruptStrategyFileIsIoError) {
  const std::string tgs =
      ::testing::TempDir() + "/run_model_cli_corrupt.tgs";
  ASSERT_EQ(run_cli("solve " + kSafetyModel + " --strategy-out=" + tgs), 0);
  {
    std::FILE* f = std::fopen(tgs.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 2);
  std::remove(tgs.c_str());
}

}  // namespace
