// Public entry points of the .tg model language.
//
// A .tg file is a textual TIOGA network — clocks, bounded ints,
// channels with the controllable/uncontrollable game partition,
// processes with invariants/urgency/guards/syncs/resets/assignments —
// plus optional `control:` test purposes.  See README.md for the
// grammar and examples/models/ for the paper's two case studies:
//
//   lang::LoadedModel m = lang::load_model("examples/models/smart_light.tg");
//   game::GameSolver solver(m.system, m.purposes.at(0));
//   const auto solution = solver.solve();
//
// `load_model` throws LangError (a tsystem::ModelError) whose what()
// is the full rendered diagnostic report.  `compile_model` is the
// non-throwing variant used by tools that want the diagnostics
// themselves (tests, IDE-ish frontends).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/diag.h"
#include "lang/elaborate.h"
#include "tsystem/property.h"
#include "tsystem/system.h"

namespace tigat::lang {

using LoadedModel = ElaboratedModel;

// Raised by load_model on I/O and compile errors; what() carries every
// diagnostic, rendered with file/line/column and source snippets.
class LangError : public tsystem::ModelError {
 public:
  using tsystem::ModelError::ModelError;
};

// Parses + elaborates `source`.  `name` labels diagnostics (usually the
// file path) and provides the fallback system name.  Diagnostics land
// in `diagnostics`; the result is nullopt whenever an error was
// reported.  `options.params` overrides `const` declarations by name
// (the `run_model --param N=4` mechanism), so one templated model file
// serves every instance size.
[[nodiscard]] std::optional<LoadedModel> compile_model(
    std::string_view source, const std::string& name,
    std::vector<Diagnostic>& diagnostics, const CompileOptions& options = {});

// Reads and compiles a .tg file; throws LangError on any failure.
// `purposes` (texts of the form `control: A<> φ`, as on the run_model
// command line) are compiled after the file's own `control:` lines, in
// the model's scope: they see its constants, overrides applied.  Each
// must parse on its own as exactly one purpose first.
[[nodiscard]] LoadedModel load_model(
    const std::string& path, const CompileOptions& options = {},
    const std::vector<std::string>& purposes = {});

// As load_model, for in-memory text (`name` labels diagnostics).
[[nodiscard]] LoadedModel load_model_from_string(
    std::string_view source, const std::string& name,
    const CompileOptions& options = {});

}  // namespace tigat::lang
