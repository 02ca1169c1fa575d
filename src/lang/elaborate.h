// Elaboration: name resolution + lowering of a ModelAst onto the
// tsystem::System fluent API.
//
// The elaborator owns every semantic rule of the language:
//
//   * one global namespace for clocks, channels, variables and
//     processes (duplicates are reported at the second declaration);
//   * `when` conjuncts are classified syntactically — a comparison with
//     a clock (or clock difference) on one side and a constant integer
//     expression on the other lowers to a DBM ClockConstraint (with
//     `==` expanding to the two weak bounds); everything else lowers to
//     a data guard Expr;
//   * `do` items lower to clock resets (constant right-hand sides) or
//     data assignments, preserving source order;
//   * `control:` formulas lower onto tsystem::StateFormula against the
//     finalized system: `&&`, `||`, `!` and quantifiers become formula
//     connectives, a qualified `Proc.Loc` a location atom, and every
//     other expression a data atom, with constants in scope as in any
//     guard.  Qualified names are rejected everywhere else.
//
// All problems are reported through the DiagnosticSink; elaboration
// continues past per-edge errors so one pass surfaces as many
// independent mistakes as possible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lang/ast.h"
#include "lang/diag.h"
#include "tsystem/property.h"
#include "tsystem/system.h"

namespace tigat::lang {

struct ElaboratedModel {
  tsystem::System system;  // finalized
  std::vector<tsystem::TestPurpose> purposes;  // one per control decl
};

// Knobs the driver may pass into compilation.
struct CompileOptions {
  // `--param N=4` style overrides: each entry replaces the value of the
  // `const` declaration of that name before anything folds, so one
  // templated model file serves every instance size.  An override that
  // matches no `const` declaration is an error.
  std::vector<std::pair<std::string, std::int64_t>> params;
};

// Lowers one parsed `control:` formula against a finalized system with
// no model source behind it (so no constant is in scope): the back end
// of tsystem::TestPurpose::parse.  Returns nullopt after reporting.
[[nodiscard]] std::optional<tsystem::TestPurpose> lower_purpose(
    const ControlDeclAst& decl, const tsystem::System& system,
    DiagnosticSink& sink);

// Lowers `ast`; returns nullopt when any diagnostic of error severity
// was emitted (the sink then holds the full report).  `fallback_name`
// names the system when the source has no `system` declaration.
[[nodiscard]] std::optional<ElaboratedModel> elaborate(
    const ModelAst& ast, const std::string& fallback_name,
    DiagnosticSink& sink, const CompileOptions& options = {});

}  // namespace tigat::lang
