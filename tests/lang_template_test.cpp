// The template contract, quantified over n: elaborating the ONE
// shipped LEP template (examples/models/lep.tg) with `--param N=n`
// must produce, at every n, exactly the model the hand-built C++ LEP
// builder produced: its decision-table fingerprint (which hashes
// locations, invariants, edges, guard/assignment expression text and
// controllability) is pinned below to the builder's value, recorded
// before the builder was retired.
//
// Plus unit coverage of the template machinery itself: comprehension
// stamping, `as` naming, whole-array assignment expansion, channel
// arrays, and the instantiation trace on diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decision/table.h"
#include "game/solver.h"
#include "lang/lang.h"
#include "support/models.h"

namespace tigat::lang {
namespace {

using test_support::load_lep;
using tsystem::System;
using tsystem::TestPurpose;

std::string lep_path() { return test_support::model_path("lep.tg"); }

// ── the quantified roundtrip ──────────────────────────────────────────

TEST(LangTemplate, LepTemplateFingerprintIsPinnedForEveryN) {
  // decision::model_fingerprint of the C++ builder's instance, n = 2..5.
  constexpr std::uint64_t kFingerprint[] = {
      0xcc1aef9c456f009dULL, 0x7edea141f5db2790ULL, 0x97b6e2de72843969ULL,
      0x0386f9f3f2fb0c3eULL};
  for (std::int64_t n = 2; n <= 5; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const LoadedModel parsed = load_lep(n);
    EXPECT_EQ(parsed.system.clock_names(),
              (std::vector<std::string>{"t0", "w", "e"}));
    // The fingerprint hashes the *text* of every data guard and
    // assignment, so stamped expressions must be byte-identical to the
    // builder's.
    EXPECT_EQ(decision::model_fingerprint(parsed.system), kFingerprint[n - 2]);
    ASSERT_EQ(parsed.purposes.size(), 3u);  // TP1-TP3 at every n
  }
}

TEST(LangTemplate, LepTemplateVerdictsArePinnedAtN2) {
  // n = 2 is the instance the roundtrip suite does NOT cover (it pins
  // n = 3); solving it is cheap enough for every purpose.  The C++
  // builder won all three over 76 keys.
  constexpr std::size_t kKeys = 76;
  const LoadedModel parsed = load_lep(2);
  for (const TestPurpose& purpose : parsed.purposes) {
    SCOPED_TRACE(purpose.source);
    game::GameSolver a(parsed.system, purpose);
    const auto sa = a.solve();
    EXPECT_TRUE(sa->winning_from_initial());
    EXPECT_EQ(sa->stats().keys, kKeys);
  }
}

TEST(LangTemplate, DefaultNIsThreeAndOverrideRescalesEverything) {
  const LoadedModel def = load_model(lep_path());
  EXPECT_EQ(def.system.data().decl(*def.system.data().find("inUse")).size, 3u);
  const LoadedModel five = load_lep(5);
  const auto& data = five.system.data();
  EXPECT_EQ(data.decl(*data.find("inUse")).size, 5u);
  EXPECT_EQ(data.decl(*data.find("msgAddr")).hi, 4);  // MaxAddr = N - 1
  EXPECT_EQ(data.decl(*data.find("best")).init, 4);
}

// ── template machinery ────────────────────────────────────────────────

constexpr const char* kRing = R"(
clock x;
const N = 3;
template P(i : 0..7) controlled {
  loc A { inv x <= i + 1; }
  loc B;
  init A;
  edge A -> B when x >= i;
}
system P(k) for k in 0..N-1;
)";

TEST(LangTemplate, ComprehensionStampsOneProcessPerValue) {
  const LoadedModel model = load_model_from_string(kRing, "ring.tg");
  ASSERT_EQ(model.system.processes().size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const tsystem::Process& p = model.system.processes()[i];
    EXPECT_EQ(p.name(), "P" + std::to_string(i));
    // The parameter folded into the invariant: inv x <= i + 1.
    ASSERT_EQ(p.locations()[0].invariant.size(), 1u);
    EXPECT_EQ(p.locations()[0].invariant[0].bound,
              dbm::make_weak(static_cast<dbm::bound_t>(i + 1)));
  }
}

TEST(LangTemplate, ExplicitInstantiationAndAsNames) {
  const LoadedModel model = load_model_from_string(
      "clock x;\n"
      "template P(i : 0..7) controlled { loc A; init A; }\n"
      "system P(2), P(5) as Five;\n",
      "two.tg");
  ASSERT_EQ(model.system.processes().size(), 2u);
  EXPECT_EQ(model.system.processes()[0].name(), "P2");
  EXPECT_EQ(model.system.processes()[1].name(), "Five");
}

TEST(LangTemplate, ForBlocksNestAndPreserveEdgeOrder) {
  const LoadedModel model = load_model_from_string(
      "int[0, 9] a[4];\n"
      "process P controlled {\n"
      "  loc A; init A;\n"
      "  edge A -> A when a[0] == 9;\n"  // before the loops
      "  for (i : 0..1) { for (j : 0..1) {\n"
      "    edge A -> A when a[2 * i + j] == i do a[j] := i + j;\n"
      "  } }\n"
      "  edge A -> A when a[3] == 9;\n"  // after the loops
      "}\n",
      "nest.tg");
  const tsystem::Process& p = model.system.processes()[0];
  ASSERT_EQ(p.edges().size(), 6u);  // 1 + 2*2 + 1, in declaration order
}

TEST(LangTemplate, EmptyForRangeStampsNothing) {
  const LoadedModel model = load_model_from_string(
      "process P controlled {\n"
      "  loc A; init A;\n"
      "  for (i : 0..-1) { edge A -> A; }\n"
      "}\n",
      "empty.tg");
  EXPECT_TRUE(model.system.processes()[0].edges().empty());
}

TEST(LangTemplate, WholeArrayAssignmentExpandsPerCell) {
  const LoadedModel model = load_model_from_string(
      "int[0, 9] a[3];\n"
      "process P controlled {\n"
      "  loc A; init A;\n"
      "  edge A -> A do a[] := 7;\n"
      "}\n",
      "wa.tg");
  const tsystem::Edge& e = model.system.processes()[0].edges()[0];
  ASSERT_EQ(e.assignments.size(), 3u);  // one per cell, in index order
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(e.assignments[k].index.to_string(model.system.data()),
              std::to_string(k));
  }
}

TEST(LangTemplate, ChannelArraysStampMembersAndResolveIndexedSyncs) {
  const LoadedModel model = load_model_from_string(
      "const N = 2;\n"
      "chan ctrl send[N];\n"
      "chan unctrl ack;\n"
      "template P(i : 0..1) uncontrolled {\n"
      "  loc A; init A;\n"
      "  edge A -> A on send[i]?;\n"
      "  edge A -> A on ack!;\n"
      "}\n"
      "system P(j) for j in 0..N-1;\n",
      "chan.tg");
  ASSERT_EQ(model.system.channels().size(), 3u);  // send[0], send[1], ack
  EXPECT_EQ(model.system.channels()[0].name, "send[0]");
  EXPECT_EQ(model.system.channels()[1].name, "send[1]");
  // P0 listens on send[0], P1 on send[1].
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(model.system.processes()[i].edges()[0].channel.id, i);
  }
}

// ── diagnostics carry the instantiation trace ─────────────────────────

TEST(LangTemplate, ErrorsInsideTemplatesNameTheInstantiation) {
  std::vector<Diagnostic> diags;
  const auto model = compile_model(
      "template P(i : 0..7) controlled {\n"
      "  loc A; init A;\n"
      "  edge A -> A when nosuch == i;\n"
      "}\n"
      "system P(3);\n",
      "trace.tg", diags);
  EXPECT_FALSE(model.has_value());
  ASSERT_FALSE(diags.empty());
  const Diagnostic& d = diags.front();
  EXPECT_NE(d.message.find("unknown identifier 'nosuch'"), std::string::npos);
  ASSERT_EQ(d.notes.size(), 1u);
  EXPECT_NE(d.notes[0].message.find("in P(3), instantiated"),
            std::string::npos);
  EXPECT_EQ(d.notes[0].line, 5u);  // the `system P(3);` line
  const std::string rendered = d.render("trace.tg");
  EXPECT_NE(rendered.find("note: in P(3), instantiated at trace.tg:5:"),
            std::string::npos);
}

TEST(LangTemplate, NestedForIterationsStackOnTheTrace) {
  std::vector<Diagnostic> diags;
  const auto model = compile_model(
      "template P(i : 0..3) controlled {\n"
      "  loc A; init A;\n"
      "  for (a : 0..1) {\n"
      "    edge A -> A do a := i;\n"  // loop var is not assignable
      "  }\n"
      "}\n"
      "system P(2);\n",
      "nested.tg", diags);
  EXPECT_FALSE(model.has_value());
  ASSERT_FALSE(diags.empty());
  const Diagnostic& d = diags.front();
  EXPECT_NE(d.message.find("cannot be assigned"), std::string::npos);
  ASSERT_EQ(d.notes.size(), 2u);  // innermost first
  EXPECT_NE(d.notes[0].message.find("'for' iteration a = 0"),
            std::string::npos);
  EXPECT_NE(d.notes[1].message.find("in P(2), instantiated"),
            std::string::npos);
}

TEST(LangTemplate, OutOfRangeInstantiationIsRejected) {
  EXPECT_THROW(load_lep(1), LangError);   // template range is 2..16
  EXPECT_THROW(load_lep(17), LangError);
  try {
    (void)load_lep(1);
  } catch (const LangError& e) {
    EXPECT_NE(std::string(e.what()).find("outside the declared parameter "
                                         "range 2..16"),
              std::string::npos);
  }
}

TEST(LangTemplate, UnknownParamOverrideIsRejected) {
  CompileOptions options;
  options.params = {{"NoSuchConst", 4}};
  EXPECT_THROW((void)load_model(lep_path(), options), LangError);
}

}  // namespace
}  // namespace tigat::lang
