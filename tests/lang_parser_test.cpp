// Tests for the .tg language frontend: token coverage, AST shape,
// elaboration onto tsystem::System, and — most importantly — that
// malformed inputs produce positioned diagnostics without crashing and
// that one parse reports several independent errors (recovery).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lang/lang.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "tsystem/property.h"

namespace tigat::lang {
namespace {

using tsystem::LocationKind;
using tsystem::SyncKind;

// ── helpers ───────────────────────────────────────────────────────────

std::optional<LoadedModel> compile(std::string_view src,
                                   std::vector<Diagnostic>& diags) {
  return compile_model(src, "test.tg", diags);
}

std::optional<LoadedModel> compile(std::string_view src) {
  std::vector<Diagnostic> diags;
  return compile(src, diags);
}

// First diagnostic, or a dummy when none exists (every stored
// diagnostic is an error).
const Diagnostic& first_error(const std::vector<Diagnostic>& diags) {
  static const Diagnostic none;
  return diags.empty() ? none : diags.front();
}

std::size_t error_count(const std::vector<Diagnostic>& diags) {
  return diags.size();
}

constexpr std::string_view kTiny = R"(system tiny;
clock x;
chan ctrl go;
chan unctrl out;
int[0, 5] n = 1;
process P uncontrolled {
  loc A;
  loc B { inv x <= 5; }
  init A;
  edge A -> B on go? when x >= 2, n == 1 do x := 0, n := n + 1;
  edge B -> A on out! when x < 5;
}
process E controlled {
  loc E0;
  init E0;
  edge E0 -> E0 on go!;
  edge E0 -> E0 on out?;
}
control: A<> P.B;
)";

// ── lexer ─────────────────────────────────────────────────────────────

TEST(LangLexer, TokenKindsAndPositions) {
  const Source source("lex.tg", "edge A -> B when x >= 2 do x := 0; // c");
  DiagnosticSink sink(source);
  const std::vector<Token> toks = lex(source, sink);
  EXPECT_FALSE(sink.has_errors());

  const std::vector<TokKind> kinds = {
      TokKind::kIdent, TokKind::kIdent, TokKind::kArrow, TokKind::kIdent,
      TokKind::kIdent, TokKind::kIdent, TokKind::kGe,    TokKind::kNumber,
      TokKind::kIdent, TokKind::kIdent, TokKind::kAssignOp,
      TokKind::kNumber, TokKind::kSemi, TokKind::kEof};
  ASSERT_EQ(toks.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(toks[i].kind, kinds[i]) << "token " << i;
  }
  EXPECT_EQ(toks[0].text, "edge");
  EXPECT_EQ(toks[0].pos.offset, 0u);
  EXPECT_EQ(toks[2].pos.offset, 7u);   // ->
  EXPECT_EQ(toks[7].number, 2);
  EXPECT_EQ(toks[7].pos.offset, 22u);  // the '2'
}

TEST(LangLexer, OperatorsCommentsAndStrings) {
  const Source source(
      "lex.tg", "<= < >= > == != := = ! ? && || .. /* block */ \"hi\" 17");
  DiagnosticSink sink(source);
  const std::vector<Token> toks = lex(source, sink);
  EXPECT_FALSE(sink.has_errors());
  const std::vector<TokKind> kinds = {
      TokKind::kLe, TokKind::kLt, TokKind::kGe, TokKind::kGt, TokKind::kEqEq,
      TokKind::kNotEq, TokKind::kAssignOp, TokKind::kEquals, TokKind::kBang,
      TokKind::kQuestion, TokKind::kAndAnd, TokKind::kOrOr, TokKind::kDotDot,
      TokKind::kString, TokKind::kNumber, TokKind::kEof};
  ASSERT_EQ(toks.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(toks[i].kind, kinds[i]) << "token " << i;
  }
  EXPECT_EQ(toks[13].text, "hi");
  EXPECT_EQ(toks[14].number, 17);
}

TEST(LangLexer, JunkCharacterIsPositionedAndRecovered) {
  const Source source("lex.tg", "clock x;\n@ clock y;");
  DiagnosticSink sink(source);
  const std::vector<Token> toks = lex(source, sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].line, 2u);
  EXPECT_EQ(sink.diagnostics()[0].column, 1u);
  EXPECT_NE(sink.diagnostics()[0].message.find("unexpected character"),
            std::string::npos);
  // Lexing continued past the junk: both clock declarations tokenised.
  std::size_t idents = 0;
  for (const Token& t : toks) idents += t.kind == TokKind::kIdent;
  EXPECT_EQ(idents, 4u);  // clock, x, clock, y
}

// ── parser / AST ──────────────────────────────────────────────────────

TEST(LangParser, BuildsExpectedAst) {
  const Source source("ast.tg", std::string(kTiny));
  DiagnosticSink sink(source);
  const ModelAst ast = parse(source, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.render_all();

  EXPECT_EQ(ast.system_name, "tiny");
  ASSERT_EQ(ast.clocks.size(), 1u);
  EXPECT_EQ(ast.clocks[0].name, "x");
  ASSERT_EQ(ast.channels.size(), 2u);
  EXPECT_TRUE(ast.channels[0].controllable);
  EXPECT_FALSE(ast.channels[1].controllable);
  ASSERT_EQ(ast.variables.size(), 1u);
  EXPECT_EQ(ast.variables[0].name, "n");
  ASSERT_EQ(ast.processes.size(), 2u);

  const ProcessDeclAst& p = ast.processes[0];
  EXPECT_EQ(p.name, "P");
  EXPECT_FALSE(p.controllable_default);
  ASSERT_EQ(p.locations.size(), 2u);
  EXPECT_EQ(p.locations[1].invariants.size(), 1u);
  EXPECT_EQ(p.init_loc, "A");
  ASSERT_EQ(p.items.size(), 2u);
  ASSERT_TRUE(p.items[0].edge.has_value());
  ASSERT_TRUE(p.items[1].edge.has_value());
  const EdgeDeclAst& e = *p.items[0].edge;
  EXPECT_EQ(e.src, "A");
  EXPECT_EQ(e.dst, "B");
  ASSERT_TRUE(e.sync.has_value());
  EXPECT_EQ(e.sync->channel, "go");
  EXPECT_FALSE(e.sync->send);
  EXPECT_EQ(e.guards.size(), 2u);
  ASSERT_EQ(e.updates.size(), 2u);
  EXPECT_EQ(e.updates[0].target, "x");
  EXPECT_EQ(e.updates[1].target, "n");

  ASSERT_EQ(ast.controls.size(), 1u);
  const ControlDeclAst& control = ast.controls[0];
  EXPECT_EQ(control.kind, tsystem::PurposeKind::kReach);
  ASSERT_NE(control.formula, nullptr);
  EXPECT_EQ(control.formula->kind, ExprAst::Kind::kName);
  EXPECT_EQ(control.formula->process, "P");
  EXPECT_EQ(control.formula->name, "B");
  EXPECT_EQ(control.source, "control: A<> P.B");
}

TEST(LangParser, QuantifierAndOperatorPrecedence) {
  const Source source(
      "q.tg",
      "process P controlled { loc A; init A;\n"
      "edge A -> A when forall (i : 0..2) a[i] == 1 and 1 + 2 * 3 == 7; }");
  DiagnosticSink sink(source);
  const ModelAst ast = parse(source, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.render_all();
  ASSERT_EQ(ast.processes.size(), 1u);
  ASSERT_EQ(ast.processes[0].items.size(), 1u);
  ASSERT_TRUE(ast.processes[0].items[0].edge.has_value());
  const ExprAst& guard = *ast.processes[0].items[0].edge->guards.at(0);
  // Max-munch quantifier body: the `and` is inside the forall.
  EXPECT_EQ(guard.kind, ExprAst::Kind::kQuantifier);
  EXPECT_TRUE(guard.is_forall);
  const ExprAst& body = *guard.lhs;
  EXPECT_EQ(body.kind, ExprAst::Kind::kBinary);
  EXPECT_EQ(body.bin_op, BinOp::kAnd);
  // 1 + 2 * 3 == 7 parses as (1 + (2 * 3)) == 7.
  const ExprAst& cmp = *body.rhs;
  EXPECT_EQ(cmp.bin_op, BinOp::kEq);
  EXPECT_EQ(cmp.lhs->bin_op, BinOp::kAdd);
  EXPECT_EQ(cmp.lhs->rhs->bin_op, BinOp::kMul);
}

// ── elaboration ───────────────────────────────────────────────────────

TEST(LangElaborate, LowersTinyModelOntoSystem) {
  const auto model = compile(kTiny);
  ASSERT_TRUE(model.has_value());
  const tsystem::System& sys = model->system;
  EXPECT_TRUE(sys.finalized());
  EXPECT_EQ(sys.name(), "tiny");
  EXPECT_EQ(sys.clock_count(), 2u);  // reference + x
  EXPECT_TRUE(sys.find_clock("x").has_value());
  ASSERT_EQ(sys.channels().size(), 2u);
  EXPECT_EQ(sys.channels()[0].control, tsystem::Controllability::kControllable);
  EXPECT_EQ(sys.channels()[1].control,
            tsystem::Controllability::kUncontrollable);
  EXPECT_TRUE(sys.data().find("n").has_value());

  ASSERT_EQ(sys.processes().size(), 2u);
  const tsystem::Process& p = sys.processes()[0];
  EXPECT_EQ(p.name(), "P");
  ASSERT_EQ(p.locations().size(), 2u);
  EXPECT_EQ(p.locations()[1].invariant.size(), 1u);
  EXPECT_EQ(p.initial(), 0u);
  ASSERT_EQ(p.edges().size(), 2u);
  const tsystem::Edge& e0 = p.edges()[0];
  EXPECT_EQ(e0.sync, SyncKind::kReceive);
  EXPECT_EQ(e0.guard.size(), 1u);            // x >= 2
  EXPECT_FALSE(e0.data_guard.is_null());     // n == 1
  EXPECT_EQ(e0.resets.size(), 1u);           // x := 0
  EXPECT_EQ(e0.assignments.size(), 1u);      // n := n + 1
  EXPECT_TRUE(sys.edge_controllable(p, e0));  // go is controllable
  EXPECT_FALSE(sys.edge_controllable(p, p.edges()[1]));

  ASSERT_EQ(model->purposes.size(), 1u);
  EXPECT_EQ(model->purposes[0].kind, tsystem::PurposeKind::kReach);
}

TEST(LangElaborate, ClockEqualityExpandsToTwoWeakBounds) {
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; loc B; init A;\n"
      "  edge A -> B when x == 3; }\n");
  ASSERT_TRUE(model.has_value());
  const tsystem::Edge& e = model->system.processes()[0].edges()[0];
  ASSERT_EQ(e.guard.size(), 2u);
  EXPECT_EQ(e.guard[0].bound, dbm::make_weak(3));   // x - 0 <= 3
  EXPECT_EQ(e.guard[1].bound, dbm::make_weak(-3));  // 0 - x <= -3
}

TEST(LangElaborate, ClockDifferenceUrgencyOverridesAndLabels) {
  const auto model = compile(
      "clock x, y;\n"
      "chan ctrl go;\n"
      "process P uncontrolled {\n"
      "  loc A; urgent loc U; committed loc C; init A;\n"
      "  edge A -> U when x - y <= 4 ctrl label \"hop\";\n"
      "  edge U -> C on go? unctrl;\n"
      "}\n");
  ASSERT_TRUE(model.has_value());
  const tsystem::Process& p = model->system.processes()[0];
  EXPECT_EQ(p.locations()[1].kind, LocationKind::kUrgent);
  EXPECT_EQ(p.locations()[2].kind, LocationKind::kCommitted);
  const tsystem::Edge& e0 = p.edges()[0];
  ASSERT_EQ(e0.guard.size(), 1u);
  EXPECT_EQ(e0.guard[0].i, 1u);  // x
  EXPECT_EQ(e0.guard[0].j, 2u);  // y
  EXPECT_EQ(e0.comment, "hop");
  EXPECT_TRUE(model->system.edge_controllable(p, e0));           // ctrl
  EXPECT_FALSE(model->system.edge_controllable(p, p.edges()[1]));  // unctrl
}

TEST(LangElaborate, ArraysQuantifiersAndInitDefaults) {
  const auto model = compile(
      "int[0, 1] inUse[3];\n"
      "int[2, 7] floor;\n"  // 0 outside range: defaults to lo = 2
      "process P controlled { loc A; init A;\n"
      "  edge A -> A when forall (i : inUse) inUse[i] == 0 do floor := 3;\n"
      "}\n");
  ASSERT_TRUE(model.has_value());
  const tsystem::DataLayout& data = model->system.data();
  const auto in_use = data.find("inUse");
  ASSERT_TRUE(in_use.has_value());
  EXPECT_EQ(data.decl(*in_use).size, 3u);
  const auto floor_var = data.find("floor");
  ASSERT_TRUE(floor_var.has_value());
  EXPECT_EQ(data.decl(*floor_var).init, 2);
  const tsystem::Edge& e = model->system.processes()[0].edges()[0];
  EXPECT_FALSE(e.data_guard.is_null());
  EXPECT_EQ(e.assignments.size(), 1u);
}

// ── diagnostics on malformed inputs ───────────────────────────────────

TEST(LangDiagnostics, UnknownClockInReset) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; init A;\n"
      "  edge A -> A do q := 0;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 3u);
  EXPECT_EQ(d.column, 18u);  // the 'q'
  EXPECT_NE(d.message.find("unknown clock or variable 'q'"),
            std::string::npos);
}

TEST(LangDiagnostics, UnknownIdentifierInGuard) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; init A;\n"
      "  edge A -> A when q >= 2;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 3u);
  EXPECT_EQ(d.column, 20u);
  EXPECT_NE(d.message.find("unknown identifier 'q'"), std::string::npos);
}

TEST(LangDiagnostics, DuplicateLocation) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "process P controlled {\n"
      "  loc A;\n"
      "  loc A;\n"
      "  init A;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 3u);
  EXPECT_EQ(d.column, 7u);
  EXPECT_NE(d.message.find("duplicate location 'A' in process 'P'"),
            std::string::npos);
}

TEST(LangDiagnostics, SyncOnUndeclaredChannel) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "process P controlled { loc A; init A;\n"
      "  edge A -> A on nochan?;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.column, 18u);
  EXPECT_NE(d.message.find("unknown channel 'nochan'"), std::string::npos);
}

TEST(LangDiagnostics, SyncOnNonChannelNamesTheCategory) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; init A;\n"
      "  edge A -> A on x?;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("'x' is a clock, not a channel"),
            std::string::npos);
}

TEST(LangDiagnostics, LexicalJunkDoesNotCrash) {
  std::vector<Diagnostic> diags;
  const auto model = compile("clock x;\n\x01\x02 process @ {\n", diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_GE(error_count(diags), 1u);
  EXPECT_EQ(first_error(diags).line, 2u);
}

TEST(LangDiagnostics, MultiErrorRecoveryReportsSeveralInOnePass) {
  // Three independent syntax errors, one parse.
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "clok y;\n"                                   // error 1: typo keyword
      "process P controlled {\n"
      "  loc A;\n"
      "  init A;\n"
      "  edge A -> ;\n"                             // error 2: missing target
      "  edge A -> A on go;\n"                      // error 3: missing !/?
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_GE(error_count(diags), 3u) << "recovery must keep going";
  bool saw_decl = false, saw_target = false, saw_sync = false;
  for (const Diagnostic& d : diags) {
    saw_decl |= d.message.find("expected a declaration") != std::string::npos;
    saw_target |= d.message.find("expected target location") !=
                  std::string::npos;
    saw_sync |= d.message.find("'!' or '?'") != std::string::npos;
  }
  EXPECT_TRUE(saw_decl);
  EXPECT_TRUE(saw_target);
  EXPECT_TRUE(saw_sync);
  // Elaboration errors likewise all surface in one pass (parse errors
  // stop elaboration, so these need a syntactically clean input).
  std::vector<Diagnostic> diags2;
  const auto model2 = compile(
      "process P controlled {\n"
      "  loc A;\n"
      "  loc A;\n"
      "  init A;\n"
      "  edge A -> Nowhere;\n"
      "  edge A -> A on nochan!;\n"
      "}\n",
      diags2);
  EXPECT_FALSE(model2.has_value());
  EXPECT_GE(error_count(diags2), 3u);
  bool saw_duplicate = false, saw_unknown_loc = false, saw_unknown_chan = false;
  for (const Diagnostic& d : diags2) {
    saw_duplicate |= d.message.find("duplicate location") != std::string::npos;
    saw_unknown_loc |=
        d.message.find("unknown location 'Nowhere'") != std::string::npos;
    saw_unknown_chan |=
        d.message.find("unknown channel 'nochan'") != std::string::npos;
  }
  EXPECT_TRUE(saw_duplicate);
  EXPECT_TRUE(saw_unknown_loc);
  EXPECT_TRUE(saw_unknown_chan);
}

TEST(LangDiagnostics, InvariantsMustConstrainClocks) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "int[0, 1] n;\n"
      "process P controlled { loc A { inv n == 1; } init A; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("invariants may only constrain"),
            std::string::npos);
}

TEST(LangDiagnostics, MissingInitAndNonConstantClockBound) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "int[0, 3] n;\n"
      "process P controlled { loc A;\n"
      "  edge A -> A when x <= n;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  bool saw_init = false, saw_bound = false;
  for (const Diagnostic& d : diags) {
    saw_init |= d.message.find("has no 'init'") != std::string::npos;
    saw_bound |= d.message.find("constant integer bound") != std::string::npos;
  }
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_bound);
}

TEST(LangDiagnostics, ControlPropertyErrorsArePositioned) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; init A; }\n"
      "control: A<> P.Nowhere;\n",
      diags);
  EXPECT_FALSE(model.has_value());
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 3u);
  EXPECT_EQ(d.column, 16u);  // exactly at 'Nowhere'
  EXPECT_NE(d.message.find("Nowhere"), std::string::npos);
}

TEST(LangDiagnostics, StrayClosingBraceAtTopLevelTerminates) {
  // Regression: '}' at the top level used to loop forever (sync stops
  // *at* '}' without consuming it).
  std::vector<Diagnostic> diags;
  const auto model = compile("}}}\nclock x;\n}", diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_GE(error_count(diags), 1u);
}

TEST(LangDiagnostics, ErrorFloodIsCappedOnGarbageInput) {
  std::vector<Diagnostic> diags;
  const std::string garbage(100000, '@');
  const auto model = compile(garbage, diags);
  EXPECT_FALSE(model.has_value());
  // Stored diagnostics are bounded; the tail is a suppression marker.
  EXPECT_LE(diags.size(), DiagnosticSink::kMaxStoredErrors + 1);
  EXPECT_NE(diags.back().message.find("too many errors"), std::string::npos);
}

TEST(LangDiagnostics, OverlongIntegerLiteralIsRejected) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; init A;\n"
      "  edge A -> A when x <= 1111111111111111111111111;\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("out of range"),
            std::string::npos);
}

TEST(LangElaborate, SizeOneArraysIndexLikeArrays) {
  const auto model = compile(
      "int[0, 1] mark[1];\n"
      "process P controlled { loc A; init A;\n"
      "  edge A -> A when mark[0] == 0 do mark[0] := 1;\n"
      "}\n");
  ASSERT_TRUE(model.has_value());
  const auto var = model->system.data().find("mark");
  ASSERT_TRUE(var.has_value());
  EXPECT_TRUE(model->system.data().decl(*var).is_array());
}

TEST(LangParser, CommentsInsideControlPropertiesAreIgnored) {
  const auto model = compile(
      "clock x;\n"
      "process P controlled { loc A; loc B; init A; }\n"
      "control: A<> /* goal */ P.B  // trailing\n;\n");
  ASSERT_TRUE(model.has_value());
  ASSERT_EQ(model->purposes.size(), 1u);
}

TEST(LangDiagnostics, ConstantFoldOverflowIsAnErrorNotUB) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "int[0, 1099511627776 * 1099511627776] v;\n"
      "process P controlled { loc A; init A; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("constant integer"),
            std::string::npos);
}

TEST(LangDiagnostics, ScalarQuantifierRangeInPurposeIsRejected) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "int[0, 5] n = 3;\n"
      "process P controlled { loc A; loc B; init A; }\n"
      "control: A<> forall (i : n) P.B;\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("'n' is not an array"),
            std::string::npos);
}

TEST(LangDiagnostics, DeeplyNestedExpressionIsAnErrorNotAStackOverflow) {
  std::vector<Diagnostic> diags;
  const std::string nest(5000, '(');
  const auto model = compile("int[0, 1] v;\n"
                             "process P controlled { loc A; init A;\n"
                             "  edge A -> A when " + nest + "v;\n}\n",
                             diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("too deeply nested"),
            std::string::npos);
}

TEST(LangDiagnostics, DuplicateInitAndSystemDeclarations) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "system one;\nsystem two;\n"
      "process P controlled { loc A; loc B; init A; init B; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  bool saw_system = false, saw_init = false;
  for (const Diagnostic& d : diags) {
    saw_system |= d.message.find("duplicate 'system'") != std::string::npos;
    saw_init |= d.message.find("duplicate 'init'") != std::string::npos;
  }
  EXPECT_TRUE(saw_system);
  EXPECT_TRUE(saw_init);
}

TEST(LangParser, MultiNameIntDeclarationSharesBounds) {
  const auto model = compile(
      "int[2, 7] a, b = 5;\n"
      "process P controlled { loc A; init A; }\n");
  ASSERT_TRUE(model.has_value());
  const tsystem::DataLayout& data = model->system.data();
  for (const char* name : {"a", "b"}) {
    const auto var = data.find(name);
    ASSERT_TRUE(var.has_value()) << name;
    EXPECT_EQ(data.decl(*var).lo, 2) << name;
    EXPECT_EQ(data.decl(*var).hi, 7) << name;
  }
  EXPECT_EQ(data.decl(*data.find("a")).init, 2);  // defaulted to lo
  EXPECT_EQ(data.decl(*data.find("b")).init, 5);
}

TEST(LangDiagnostics, VariableBoundsMustFitInt32) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "int[0, 4294967297] n;\n"
      "process P controlled { loc A; init A; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("32-bit"), std::string::npos);
}

TEST(LangDiagnostics, RenderedReportCarriesSnippetAndCaret) {
  std::vector<Diagnostic> diags;
  compile("process P controlled { loc A; init A;\n  edge A -> B;\n}\n",
          diags);
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 2u);
  const std::string rendered = d.render("bad.tg");
  EXPECT_NE(rendered.find("bad.tg:2:"), std::string::npos);
  EXPECT_NE(rendered.find("edge A -> B;"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(LangDiagnostics, DuplicateAcrossCategories) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\nchan ctrl x;\n"
      "process P controlled { loc A; init A; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  const Diagnostic& d = first_error(diags);
  EXPECT_EQ(d.line, 2u);
  EXPECT_NE(d.message.find("'x' is already declared as a clock"),
            std::string::npos);
}

// ── const declarations ────────────────────────────────────────────────

TEST(LangParser, ConstDeclarationsFoldAcrossDeclarations) {
  const auto model = compile(
      "clock x;\n"
      "const N = 3;\n"
      "const MaxAddr = N - 1, Window = 2 * MaxAddr;\n"
      "int[0, MaxAddr] best = MaxAddr;\n"
      "int[0, 1] inUse[N];\n"
      "process P controlled {\n"
      "  loc A { inv x <= Window; }\n"
      "  init A;\n"
      "  edge A -> A when x >= Window - 3, best == MaxAddr do x := 0;\n"
      "}\n");
  ASSERT_TRUE(model.has_value());
  const tsystem::DataLayout& data = model->system.data();
  EXPECT_EQ(data.decl(*data.find("best")).hi, 2);
  EXPECT_EQ(data.decl(*data.find("best")).init, 2);
  EXPECT_EQ(data.decl(*data.find("inUse")).size, 3u);
  // Window = 4 landed in the invariant: the max constant of x is 4.
  EXPECT_EQ(model->system.max_constants()[1], 4);
  // Constants never become data slots.
  EXPECT_FALSE(data.find("N").has_value());
  EXPECT_FALSE(data.find("Window").has_value());
}

TEST(LangDiagnostics, ConstForwardReferenceIsAnError) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "const A = B + 1;\nconst B = 2;\n"
      "process P controlled { loc A0; init A0; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_EQ(first_error(diags).line, 1u);
  EXPECT_NE(first_error(diags).message.find("constant integer expression"),
            std::string::npos);
}

TEST(LangDiagnostics, ConstClashesWithOtherNamespaces) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "clock x;\nconst x = 1;\n"
      "process P controlled { loc A; init A; }\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("'x' is already declared as a "
                                            "clock"),
            std::string::npos);
}

TEST(LangDiagnostics, ConstCannotBeAssigned) {
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "const K = 1;\n"
      "process P controlled { loc A; init A;\n"
      "  edge A -> A do K := 2;\n}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("'K' is a constant and cannot be "
                                            "assigned"),
            std::string::npos);
}

TEST(LangDiagnostics, ConstSyntaxErrorsRecover) {
  std::vector<Diagnostic> diags;
  compile(
      "const = 3;\nconst K = 4;\nclock x;\n"
      "process P controlled { loc A { inv x <= K; } init A; }\n",
      diags);
  // The first declaration is reported; the rest of the file still
  // parses and K resolves (no cascade).
  EXPECT_EQ(error_count(diags), 1u);
  EXPECT_EQ(first_error(diags).line, 1u);
}

// ── templates, for blocks and arrays ──────────────────────────────────

TEST(LangParser, TemplateAndInstantiationAstShape) {
  const Source source(
      "tpl.tg",
      "const N = 3;\n"
      "template P(i : 0..N-1) uncontrolled {\n"
      "  loc A; init A;\n"
      "  for (k : 0..i) { edge A -> A when k == i; }\n"
      "}\n"
      "system P(0), P(2) as Two, P(j) for j in 0..N-1;\n");
  DiagnosticSink sink(source);
  const ModelAst ast = parse(source, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.render_all();

  ASSERT_EQ(ast.templates.size(), 1u);
  const TemplateDeclAst& tpl = ast.templates[0];
  EXPECT_EQ(tpl.body.name, "P");
  EXPECT_EQ(tpl.param, "i");
  EXPECT_FALSE(tpl.body.controllable_default);
  ASSERT_EQ(tpl.body.items.size(), 1u);
  ASSERT_TRUE(tpl.body.items[0].loop.has_value());
  const ForBlockAst& loop = *tpl.body.items[0].loop;
  EXPECT_EQ(loop.var, "k");
  ASSERT_EQ(loop.items.size(), 1u);
  EXPECT_TRUE(loop.items[0].edge.has_value());

  ASSERT_EQ(ast.instantiations.size(), 1u);
  const InstantiationAst& inst = ast.instantiations[0];
  ASSERT_EQ(inst.items.size(), 3u);
  EXPECT_EQ(inst.items[0].template_name, "P");
  EXPECT_TRUE(inst.items[0].as_name.empty());
  EXPECT_EQ(inst.items[1].as_name, "Two");
  EXPECT_EQ(inst.items[2].loop_var, "j");
  ASSERT_TRUE(inst.items[2].loop_lo != nullptr);
  ASSERT_TRUE(inst.items[2].loop_hi != nullptr);
  // `system P(...)` is an instantiation, not the system name.
  EXPECT_TRUE(ast.system_name.empty());
  ASSERT_EQ(ast.unit_order.size(), 1u);
  EXPECT_EQ(ast.unit_order[0].kind, ModelAst::UnitKind::kInstantiation);
}

TEST(LangParser, ChannelArraysSyncIndicesAndWholeArrayUpdates) {
  const Source source(
      "arr.tg",
      "chan ctrl send[4];\n"
      "int[0, 1] a[4];\n"
      "process P controlled {\n"
      "  loc A; init A;\n"
      "  edge A -> A on send[2]! do a[] := 0;\n"
      "}\n");
  DiagnosticSink sink(source);
  const ModelAst ast = parse(source, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.render_all();
  ASSERT_EQ(ast.channels.size(), 1u);
  EXPECT_TRUE(ast.channels[0].size != nullptr);
  const EdgeDeclAst& e = *ast.processes[0].items[0].edge;
  ASSERT_TRUE(e.sync.has_value());
  EXPECT_TRUE(e.sync->index != nullptr);
  EXPECT_TRUE(e.sync->send);
  ASSERT_EQ(e.updates.size(), 1u);
  EXPECT_TRUE(e.updates[0].whole_array);
  EXPECT_TRUE(e.updates[0].index == nullptr);
}

TEST(LangDiagnostics, DeeplyNestedForBlocksAreAnErrorNotAStackOverflow) {
  std::string body;
  for (int i = 0; i < 200; ++i) body += "for (i : 0..1) { ";
  body += "edge A -> A;";
  for (int i = 0; i < 200; ++i) body += " }";
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "process P controlled { loc A; init A;\n" + body + "\n}\n", diags);
  EXPECT_FALSE(model.has_value());
  bool saw_depth = false;
  for (const Diagnostic& d : diags) {
    saw_depth |= d.message.find("nested too deeply") != std::string::npos;
  }
  EXPECT_TRUE(saw_depth);
}

TEST(LangDiagnostics, RuntimeGuardOnStampedEdgeStillChecksBounds) {
  // A `for` variable is a constant inside the loop: using it as a
  // clock bound must work, and the loop dies cleanly on a bad body.
  const auto model = compile(
      "clock x;\n"
      "process P controlled {\n"
      "  loc A; init A;\n"
      "  for (i : 1..3) { edge A -> A when x <= i; }\n"
      "}\n");
  ASSERT_TRUE(model.has_value());
  const tsystem::Process& p = model->system.processes()[0];
  ASSERT_EQ(p.edges().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(p.edges()[i].guard.size(), 1u);
    EXPECT_EQ(p.edges()[i].guard[0].bound,
              dbm::make_weak(static_cast<dbm::bound_t>(i + 1)));
  }
}

TEST(LangDiagnostics, ForRangeExplosionIsCapped) {
  // The iteration-count cap fires up front — even with an empty body,
  // and even when the bounds would overflow 32 bits — instead of
  // spinning through the range.
  for (const char* range : {"0..100000000", "0..1099511627776 * 8",
                            "-1099511627776..0"}) {
    std::vector<Diagnostic> diags;
    const auto model = compile(
        std::string("process P controlled {\n"
                    "  loc A; init A;\n"
                    "  for (i : ") + range + ") { }\n"
        "}\n",
        diags);
    SCOPED_TRACE(range);
    EXPECT_FALSE(model.has_value());
    const std::string& msg = first_error(diags).message;
    EXPECT_TRUE(msg.find("spans more than") != std::string::npos ||
                msg.find("32-bit") != std::string::npos)
        << msg;
  }
  // Stamping more edges than the per-process budget still errors even
  // when each individual range is small.
  std::vector<Diagnostic> diags;
  const auto model = compile(
      "process P controlled {\n"
      "  loc A; init A;\n"
      "  for (i : 0..32767) { edge A -> A; edge A -> A; edge A -> A; }\n"
      "}\n",
      diags);
  EXPECT_FALSE(model.has_value());
  EXPECT_NE(first_error(diags).message.find("stamps more than"),
            std::string::npos);
}

// ── formula goldens ───────────────────────────────────────────────────
// StateFormula::to_string for the `control:` formulas of the shipped
// models and every distinct formula shape the examples, benches and
// tests use (`P.L`, `!P.L`, TP1-TP3, ...), reached through both entry
// points: TestPurpose::parse on a loaded model, and a
// `control:` line appended to the model's source.  The printed form
// spells out the whole formula tree (connectives, quantifier ranges,
// data expressions), so a front-end change that builds a different tree
// fails here.

#ifndef TIGAT_MODEL_DIR
#error "TIGAT_MODEL_DIR must point at examples/models"
#endif

struct FormulaGolden {
  const char* model;    // file under examples/models
  const char* formula;  // the text after `control: `
  tsystem::PurposeKind kind;
  const char* printed;  // StateFormula::to_string
};

constexpr tsystem::PurposeKind kReach = tsystem::PurposeKind::kReach;
constexpr tsystem::PurposeKind kSafety = tsystem::PurposeKind::kSafety;

constexpr FormulaGolden kFormulaGoldens[] = {
    {"smart_light.tg", "A<> IUT.Bright", kReach, "IUT.Bright"},
    {"smart_light.tg", "A[] !IUT.Bright", kSafety, "!IUT.Bright"},
    {"smart_light.tg", "A<> !IUT.Bright", kReach, "!IUT.Bright"},
    {"smart_light.tg", "A<> IUT.Dim", kReach, "IUT.Dim"},
    {"smart_light.tg", "A<> IUT.L5", kReach, "IUT.L5"},
    {"smart_light.tg", "A<> IUT.L6", kReach, "IUT.L6"},
    {"smart_light.tg", "A<> IUT.Off", kReach, "IUT.Off"},
    {"smart_light.tg", "A[] IUT.Off", kSafety, "IUT.Off"},
    {"smart_light.tg", "A[] IUT.Bright", kSafety, "IUT.Bright"},
    {"smart_light_safety.tg", "A[] IUT.On", kSafety, "IUT.On"},
    {"lep.tg", "A<> (IUT.betterInfo == 1) and IUT.forward", kReach,
     "((betterInfo==1) && IUT.forward)"},
    {"lep.tg", "A<> (IUT.betterInfo == 1) && IUT.forward", kReach,
     "((betterInfo==1) && IUT.forward)"},
    {"lep.tg", "A<> forall (i : inUse) inUse[i] == 1", kReach,
     "forall (i0 : 0..2) (inUse[i4294967295]==1)"},
    {"lep.tg", "A<> (forall (i : inUse) inUse[i] == 1) and IUT.idle", kReach,
     "(forall (i0 : 0..2) (inUse[i4294967295]==1) && IUT.idle)"},
    {"lep.tg", "A<> (forall (i : inUse) inUse[i] == 1) && IUT.idle", kReach,
     "(forall (i0 : 0..2) (inUse[i4294967295]==1) && IUT.idle)"},
    {"lep.tg", "A<> (forall (i : 0..2) inUse[i] == 1) && IUT.idle", kReach,
     "(forall (i0 : 0..2) (inUse[i4294967295]==1) && IUT.idle)"},
    {"lep.tg", "A<> (IUT.betterInfo == 1) and IUT.leader", kReach,
     "((betterInfo==1) && IUT.leader)"},
    {"lep.tg", "A<> IUT.forward", kReach, "IUT.forward"},
    {"lep.tg", "A[] IUT.idle", kSafety, "IUT.idle"},
    {"lep.tg", "A<> !(exists (i : inUse) inUse[i] == 1)", kReach,
     "!exists (i0 : 0..2) (inUse[i4294967295]==1)"},
    {"lep.tg", "A<> IUT.betterInfo == 1", kReach, "(betterInfo==1)"},
    {"lep.tg", "A<> betterInfo", kReach, "betterInfo"},
    {"lep.tg", "A<> IUT.forward || IUT.idle && betterInfo == 1", kReach,
     "(IUT.forward || (IUT.idle && (betterInfo==1)))"},
    {"lep.tg", "A<> inUse[0] + inUse[1] + inUse[2] >= 2", kReach,
     "(((inUse[0]+inUse[1])+inUse[2])>=2)"},
    {"lep.tg", "A<> (inUse[0] + 1) * 2 == 2", kReach, "(((inUse[0]+1)*2)==2)"},
};

std::string read_model(const std::string& file) {
  std::ifstream in(std::string(TIGAT_MODEL_DIR) + "/" + file, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(LangFormulaGoldens, TestPurposeParsePrintsTheGolden) {
  std::map<std::string, LoadedModel> models;
  for (const FormulaGolden& g : kFormulaGoldens) {
    SCOPED_TRACE(g.formula);
    auto it = models.find(g.model);
    if (it == models.end()) {
      it = models
               .emplace(g.model, load_model(std::string(TIGAT_MODEL_DIR) +
                                            "/" + g.model))
               .first;
    }
    const tsystem::System& system = it->second.system;
    const std::string text = std::string("control: ") + g.formula;
    const auto purpose = tsystem::TestPurpose::parse(system, text);
    EXPECT_EQ(purpose.kind, g.kind);
    EXPECT_EQ(purpose.source, text);
    EXPECT_EQ(purpose.formula.to_string(system), g.printed);
  }
}

TEST(LangFormulaGoldens, ControlDeclarationsPrintTheGolden) {
  for (const FormulaGolden& g : kFormulaGoldens) {
    SCOPED_TRACE(g.formula);
    const std::string text = std::string("control: ") + g.formula;
    std::vector<Diagnostic> diags;
    const auto model = compile_model(read_model(g.model) + text + ";\n",
                                     g.model, diags);
    ASSERT_TRUE(model.has_value())
        << (diags.empty() ? std::string() : diags.front().message);
    const tsystem::TestPurpose& purpose = model->purposes.back();
    EXPECT_EQ(purpose.kind, g.kind);
    EXPECT_EQ(purpose.source, text);
    EXPECT_EQ(purpose.formula.to_string(model->system), g.printed);
  }
}

// ── formulas through the .tg parser ───────────────────────────────────

TEST(LangDiagnostics, DeeplyNestedControlFormulaIsAnErrorNotAStackOverflow) {
  const std::string model = "int[0, 1] v;\n"
                            "process P controlled { loc A; init A; }\n";
  const std::string nest(100000, '(');
  std::vector<Diagnostic> diags;
  EXPECT_FALSE(
      compile(model + "control: A<> " + nest + "v;\n", diags).has_value());
  EXPECT_NE(first_error(diags).message.find("too deeply nested"),
            std::string::npos);
  EXPECT_EQ(first_error(diags).line, 3u);

  const LoadedModel loaded = load_model_from_string(model, "m.tg");
  EXPECT_THROW(
      tsystem::TestPurpose::parse(loaded.system, "control: A<> " + nest + "v"),
      tsystem::ModelError);
}

// Operator chains loop in the parser but build left-deep trees that
// every later pass walks recursively, so each operand is charged to
// the nesting budget: a 100 000-operand chain is the same positioned
// diagnostic as 100 000 '(' — in a guard, on a `control:` line and
// through TestPurpose::parse.
TEST(LangDiagnostics, LongOperatorChainIsAnErrorNotAStackOverflow) {
  const auto chain = [](std::size_t operands, const std::string& op) {
    std::string text = "v";
    for (std::size_t i = 1; i < operands; ++i) text += " " + op + " v";
    return text;
  };
  const std::string model = "int[0, 1] v;\n"
                            "process P controlled { loc A; init A;\n";
  std::vector<Diagnostic> diags;
  EXPECT_FALSE(compile(model + "  edge A -> A when " + chain(100000, "+") +
                           " > 0;\n}\n",
                       diags)
                   .has_value());
  EXPECT_NE(first_error(diags).message.find("too deeply nested"),
            std::string::npos);
  EXPECT_EQ(first_error(diags).line, 3u);

  diags.clear();
  EXPECT_FALSE(compile(model + "}\ncontrol: A<> " + chain(100000, "&&") +
                           ";\n",
                       diags)
                   .has_value());
  EXPECT_NE(first_error(diags).message.find("too deeply nested"),
            std::string::npos);
  EXPECT_EQ(first_error(diags).line, 4u);

  const LoadedModel loaded = load_model_from_string(model + "}\n", "m.tg");
  for (const std::string op : {"||", "*"}) {
    try {
      (void)tsystem::TestPurpose::parse(
          loaded.system, "control: A<> " + chain(100000, op) + " == 0");
      ADD_FAILURE() << op << " chain parsed";
    } catch (const tsystem::ModelError& e) {
      EXPECT_NE(std::string(e.what()).find("too deeply nested"),
                std::string::npos)
          << e.what();
    }
  }
  // A chain within the budget still parses.
  EXPECT_NO_THROW((void)tsystem::TestPurpose::parse(
      loaded.system, "control: A<> " + chain(100, "||")));
}

// lep.tg with extra `control:` lines appended (throws LangError with
// the rendered report on any diagnostic).
LoadedModel lep_with(const std::string& controls,
                     const CompileOptions& options = {}) {
  return load_model_from_string(read_model("lep.tg") + controls, "lep.tg",
                                options);
}

TEST(LangFormulas, ConstantsAndParametersAreInScope) {
  const LoadedModel m = lep_with("control: A<> inUse[MaxAddr] == 1;\n",
                                 CompileOptions{{{"N", 4}}});
  const tsystem::TestPurpose& scoped = m.purposes.back();
  const auto literal =
      tsystem::TestPurpose::parse(m.system, "control: A<> inUse[3] == 1");
  EXPECT_EQ(scoped.formula.to_string(m.system),
            literal.formula.to_string(m.system));

  const auto in_use = m.system.data().find("inUse");
  ASSERT_TRUE(in_use.has_value());
  const std::vector<tsystem::LocId> locs(m.system.processes().size(), 0);
  tsystem::DataState state = m.system.data().initial_state();
  for (const std::int32_t value : {0, 1}) {
    state.set(m.system.data().slot_of(*in_use, 3), value);
    EXPECT_EQ(scoped.formula.eval(locs, state, m.system.data()), value == 1);
    EXPECT_EQ(literal.formula.eval(locs, state, m.system.data()), value == 1);
  }
}

TEST(LangFormulas, FoldedQuantifierRangeEqualsTheArrayRange) {
  const LoadedModel m = lep_with(
      "control: A<> forall (i : 0..N-1) inUse[i] == 1;\n"
      "control: A<> forall (i : inUse) inUse[i] == 1;\n");
  const auto& purposes = m.purposes;
  ASSERT_GE(purposes.size(), 2u);
  EXPECT_EQ(purposes[purposes.size() - 2].formula.to_string(m.system),
            purposes.back().formula.to_string(m.system));
}

TEST(LangFormulas, TrueAndFalseAreFormulas) {
  const LoadedModel m =
      lep_with("control: A<> true;\ncontrol: A[] !false;\n");
  const std::vector<tsystem::LocId> locs(m.system.processes().size(), 0);
  const tsystem::DataState state = m.system.data().initial_state();
  ASSERT_GE(m.purposes.size(), 2u);
  for (std::size_t k = m.purposes.size() - 2; k < m.purposes.size(); ++k) {
    EXPECT_TRUE(m.purposes[k].formula.eval(locs, state, m.system.data()));
  }
}

TEST(LangDiagnostics, QualifiedNameInAGuardIsRejected) {
  // A variable, a clock and a constant behind a qualifier: none of them
  // may slip through as the unqualified name.
  for (const char* guard : {"P.v == 1", "P.x >= 2", "v == P.N"}) {
    SCOPED_TRACE(guard);
    std::vector<Diagnostic> diags;
    const auto model = compile(std::string("clock x;\n"
                                           "const N = 1;\n"
                                           "int[0, 1] v;\n"
                                           "process P controlled {\n"
                                           "  loc A; init A;\n"
                                           "  edge A -> A when ") +
                                   guard + ";\n}\n",
                               diags);
    EXPECT_FALSE(model.has_value());
    const Diagnostic& d = first_error(diags);
    EXPECT_EQ(d.line, 6u);
    EXPECT_NE(d.message.find("only allowed in a control: formula"),
              std::string::npos);
  }
  std::vector<Diagnostic> diags;
  compile("int[0, 1] v;\n"
          "process P controlled { loc A; init A;\n"
          "  edge A -> A when P.v == 1;\n"
          "}\n",
          diags);
  EXPECT_EQ(first_error(diags).column, 22u);  // at `v` of `P.v`
}

// The two readings the shared precedence changed (README, "Formulas").
TEST(LangFormulas, PrecedenceFollowsTheExpressionGrammar) {
  const LoadedModel m = lep_with("");
  const auto printed = [&m](const char* formula) {
    return tsystem::TestPurpose::parse(m.system, formula)
        .formula.to_string(m.system);
  };
  EXPECT_EQ(printed("control: A<> !betterInfo == 1"),
            printed("control: A<> (!betterInfo) == 1"));
  EXPECT_NE(printed("control: A<> !betterInfo == 1"),
            printed("control: A<> !(betterInfo == 1)"));

  EXPECT_EQ(printed("control: A<> forall (i : inUse) inUse[i] == 1 && "
                    "IUT.idle"),
            printed("control: A<> forall (i : inUse) (inUse[i] == 1 && "
                    "IUT.idle)"));
  EXPECT_NE(printed("control: A<> forall (i : inUse) inUse[i] == 1 && "
                    "IUT.idle"),
            printed("control: A<> (forall (i : inUse) inUse[i] == 1) && "
                    "IUT.idle"));
}

TEST(LangLoad, MissingFileThrowsLangError) {
  EXPECT_THROW(load_model("/nonexistent/model.tg"), LangError);
}

TEST(LangLoad, LoadFromStringRunsWholePipeline) {
  const LoadedModel model = load_model_from_string(kTiny, "tiny.tg");
  EXPECT_TRUE(model.system.finalized());
  EXPECT_EQ(model.purposes.size(), 1u);
  EXPECT_THROW(load_model_from_string("clock x; clock x;", "dup.tg"),
               LangError);
}

}  // namespace
}  // namespace tigat::lang
