// Structure-aware mutation fuzzing of the .tg front end.  Every mutant
// of the shipped models and of the diagnostics corpus must either
// compile to a model or yield diagnostics: no crash, no exception, no
// silent failure.  Mutations work on token boundaries (truncation at
// every boundary, duplicating or deleting a token, splicing a run of
// tokens from another file, nesting parentheses 100 000 deep, chaining
// 100 000 operands of one binary operator), so most
// mutants get past the lexer and reach the parser and the elaborator,
// `control:` formulas included.  A second pass feeds mutated purposes
// to TestPurpose::parse, which must return or throw ModelError.
//
// The run is deterministic (fixed seed).  A failed expectation names
// the seed and the mutant index; a crash is reported by the signal
// handler below, which prints the same before the process dies.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lang/lang.h"
#include "lang/lexer.h"
#include "tsystem/property.h"
#include "util/rng.h"
#include "util/text.h"

#ifndef TIGAT_MODEL_DIR
#error "TIGAT_MODEL_DIR must point at examples/models"
#endif

namespace tigat::lang {
namespace {

constexpr std::uint64_t kSeed = 0x7467'2d66'757a'7aULL;
constexpr int kRandomMutants = 3000;
constexpr int kNestingMutants = 12;
constexpr int kChainMutants = 8;
constexpr std::size_t kNestingDepth = 100000;

// `1 op 1 op … 1 op ` with kNestingDepth operands: inserted before a
// token that starts an operand, it extends that operand's expression
// into one left-deep chain.
std::string operator_chain(const char* op) {
  std::string chain;
  for (std::size_t i = 0; i < kNestingDepth; ++i) {
    chain += "1 ";
    chain += op;
    chain += ' ';
  }
  return chain;
}

// One seed file: its text, and the byte offset where each token starts
// and its kind (the last entry is the end of the text).  A "token"
// below is the range from one start to the next, trailing blanks and
// comments included.
struct SeedFile {
  std::string name;
  std::string text;
  std::vector<std::size_t> starts;
  std::vector<TokKind> kinds;

  SeedFile(std::string file, std::string source_text)
      : name(std::move(file)), text(std::move(source_text)) {
    const Source source(name, text);
    DiagnosticSink sink(source);
    for (const Token& t : lex(source, sink)) {
      starts.push_back(t.pos.offset);
      kinds.push_back(t.kind);
    }
  }

  [[nodiscard]] std::size_t token_count() const { return starts.size() - 1; }
  [[nodiscard]] std::string token(std::size_t k) const {
    return text.substr(starts[k], starts[k + 1] - starts[k]);
  }
};

std::vector<SeedFile> load_seeds() {
  const std::filesystem::path models(TIGAT_MODEL_DIR);
  std::vector<std::filesystem::path> paths;
  for (const auto& dir : {models, models / ".." / ".." / "tests" / "corpus"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".tg") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SeedFile> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    seeds.emplace_back(path.filename().string(), text.str());
  }
  return seeds;
}

// What the signal handler prints: the mutant under test.
char g_current[160] = "lang_fuzz: no mutant under test\n";

extern "C" void report_fatal_signal(int sig) {
  const ssize_t ignored =
      ::write(STDERR_FILENO, g_current, std::strlen(g_current));
  (void)ignored;
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

// Installs report_fatal_signal, on an alternate stack so that a stack
// overflow can still run it, for the lifetime of the object.
class CrashReporter {
 public:
  CrashReporter() {
    stack_t alt{};
    alt.ss_sp = alt_stack_.data();
    alt.ss_size = alt_stack_.size();
    sigaltstack(&alt, &old_alt_);
    struct sigaction action {};
    action.sa_handler = report_fatal_signal;
    action.sa_flags = SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    for (std::size_t k = 0; k < kSignals.size(); ++k) {
      sigaction(kSignals[k], &action, &old_[k]);
    }
  }
  ~CrashReporter() {
    for (std::size_t k = 0; k < kSignals.size(); ++k) {
      sigaction(kSignals[k], &old_[k], nullptr);
    }
    sigaltstack(&old_alt_, nullptr);
  }
  CrashReporter(const CrashReporter&) = delete;
  CrashReporter& operator=(const CrashReporter&) = delete;

 private:
  static constexpr std::array<int, 4> kSignals = {SIGSEGV, SIGBUS, SIGABRT,
                                                  SIGFPE};
  std::vector<char> alt_stack_ = std::vector<char>(1 << 16);
  stack_t old_alt_{};
  std::array<struct sigaction, kSignals.size()> old_{};
};

std::string describe(int index, const char* kind, const std::string& file) {
  return util::format("lang_fuzz: seed %#llx mutant %d (%s of %s)",
                      static_cast<unsigned long long>(kSeed), index, kind,
                      file.c_str());
}

void set_current(const std::string& description) {
  std::snprintf(g_current, sizeof g_current, "%s\n", description.c_str());
}

// Token kinds after which an expression starts, where deep nesting
// reaches the expression parser instead of a declaration-level error.
bool opens_expression(TokKind kind) {
  switch (kind) {
    case TokKind::kLParen: case TokKind::kBang: case TokKind::kAssignOp:
    case TokKind::kEqEq: case TokKind::kNotEq: case TokKind::kLt:
    case TokKind::kLe: case TokKind::kGt: case TokKind::kGe:
    case TokKind::kAndAnd: case TokKind::kOrOr: case TokKind::kPlus:
    case TokKind::kMinus: case TokKind::kStar:
      return true;
    default:
      return false;
  }
}

// Compiles one mutant; it must yield a model or at least one
// diagnostic.  Returns the diagnostics.
std::vector<Diagnostic> check_mutant(int index, const char* kind,
                                     const SeedFile& seed,
                                     const std::string& text) {
  const std::string description = describe(index, kind, seed.name);
  set_current(description);
  std::vector<Diagnostic> diagnostics;
  const auto model = compile_model(text, seed.name, diagnostics);
  EXPECT_TRUE(model.has_value() || !diagnostics.empty()) << description;
  return diagnostics;
}

TEST(LangFuzz, EveryTgMutantCompilesOrReportsDiagnostics) {
  const std::vector<SeedFile> seeds = load_seeds();
  ASSERT_GE(seeds.size(), 10u);
  const CrashReporter reporter;
  std::printf("lang_fuzz: seed %#llx, %zu seed files\n",
              static_cast<unsigned long long>(kSeed), seeds.size());
  util::Rng rng(kSeed);
  int index = 0;

  for (const SeedFile& seed : seeds) {
    for (std::size_t k = 0; k < seed.token_count(); ++k) {
      check_mutant(index++, "truncation", seed,
                   seed.text.substr(0, seed.starts[k]));
    }
  }

  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int m = 0; m < kRandomMutants; ++m) {
    const SeedFile& seed = seeds[pick(seeds.size())];
    const std::size_t k = pick(seed.token_count());
    std::string text = seed.text;
    const char* kind = nullptr;
    switch (rng.range(0, 2)) {
      case 0:
        kind = "duplication";
        text.insert(seed.starts[k], seed.token(k));
        break;
      case 1:
        kind = "deletion";
        text.erase(seed.starts[k], seed.starts[k + 1] - seed.starts[k]);
        break;
      default: {
        kind = "splice";
        const SeedFile& donor = seeds[pick(seeds.size())];
        const std::size_t from = pick(donor.token_count());
        const std::size_t to =
            std::min(donor.token_count(), from + 1 + pick(8));
        text.insert(seed.starts[k],
                    donor.text.substr(donor.starts[from],
                                      donor.starts[to] - donor.starts[from]));
        break;
      }
    }
    check_mutant(index++, kind, seed, text);
  }

  // Nest right after a token that opens an expression (an operator or
  // `(`), so the nesting reaches the expression parser; every other
  // mutant nests at the start of a `control:` formula.
  std::vector<std::pair<const SeedFile*, std::size_t>> openers, formulas;
  for (const SeedFile& seed : seeds) {
    for (std::size_t k = 1; k < seed.token_count(); ++k) {
      if (opens_expression(seed.kinds[k - 1])) openers.emplace_back(&seed, k);
      if (k >= 4 && seed.kinds[k - 4] == TokKind::kColon &&
          util::trim(seed.token(k - 3)) == "A") {
        formulas.emplace_back(&seed, k);  // after `control: A<>` / `A[]`
      }
    }
  }
  ASSERT_FALSE(formulas.empty());
  int too_deep = 0;
  for (int m = 0; m < kNestingMutants; ++m) {
    const auto& sites = m % 2 == 0 ? formulas : openers;
    const auto [seed_ptr, k] = sites[pick(sites.size())];
    const SeedFile& seed = *seed_ptr;
    std::string text = seed.text;
    text.insert(seed.starts[k],
                std::string(kNestingDepth, m % 4 < 2 ? '(' : '!'));
    for (const Diagnostic& d : check_mutant(index++, "nesting", seed, text)) {
      too_deep += d.message.find("too deeply nested") != std::string::npos;
    }
  }
  EXPECT_GE(too_deep, kNestingMutants / 2);
  // Operator chains loop in the parser rather than recurse; they are
  // charged to the same nesting budget.
  constexpr std::array<const char*, 4> kChainOps = {"&&", "||", "+", "*"};
  int too_long = 0;
  for (int m = 0; m < kChainMutants; ++m) {
    const auto& sites = m % 2 == 0 ? formulas : openers;
    const auto [seed_ptr, k] = sites[pick(sites.size())];
    const SeedFile& seed = *seed_ptr;
    std::string text = seed.text;
    text.insert(seed.starts[k], operator_chain(kChainOps[m % kChainOps.size()]));
    for (const Diagnostic& d : check_mutant(index++, "chain", seed, text)) {
      too_long += d.message.find("too deeply nested") != std::string::npos;
    }
  }
  EXPECT_GE(too_long, kChainMutants / 2);
  std::printf("lang_fuzz: %d mutants\n", index);
  set_current("lang_fuzz: no mutant under test");
}

// Mutated purposes against the shipped models, through the text entry
// point: TestPurpose::parse returns a purpose or throws ModelError.
TEST(LangFuzz, EveryPurposeMutantParsesOrThrowsModelError) {
  const CrashReporter reporter;
  int index = 0;
  for (const char* file :
       {"smart_light.tg", "smart_light_safety.tg", "lep.tg"}) {
    const LoadedModel model =
        load_model(std::string(TIGAT_MODEL_DIR) + "/" + file);
    for (const tsystem::TestPurpose& purpose : model.purposes) {
      const SeedFile seed(file, purpose.source);
      std::vector<std::pair<const char*, std::string>> mutants;
      for (std::size_t k = 0; k < seed.token_count(); ++k) {
        mutants.emplace_back("truncation", seed.text.substr(0, seed.starts[k]));
        std::string dup = seed.text;
        dup.insert(seed.starts[k], seed.token(k));
        mutants.emplace_back("duplication", dup);
        std::string del = seed.text;
        del.erase(seed.starts[k], seed.starts[k + 1] - seed.starts[k]);
        mutants.emplace_back("deletion", del);
      }
      mutants.emplace_back(
          "nesting", "control: A<> " + std::string(kNestingDepth, '(') + "1");
      mutants.emplace_back("chain",
                           "control: A<> " + operator_chain("&&") + "1");
      for (const auto& [kind, text] : mutants) {
        const std::string description = describe(index++, kind, purpose.source);
        set_current(description);
        try {
          (void)tsystem::TestPurpose::parse(model.system, text);
        } catch (const tsystem::ModelError&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << description << ": " << e.what();
        }
      }
    }
  }
  set_current("lang_fuzz: no mutant under test");
}

}  // namespace
}  // namespace tigat::lang
