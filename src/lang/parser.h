// Recursive-descent parser for the .tg model language.
//
// The parser is resilient: a syntax error is reported to the sink and
// parsing resynchronises at the next declaration boundary (`;`, `}` or
// a declaration keyword), so a single pass surfaces every independent
// error in the file.  The returned AST covers whatever parsed cleanly;
// callers must check `sink.has_errors()` before elaborating.
#pragma once

#include <optional>

#include "lang/ast.h"
#include "lang/diag.h"
#include "lang/lexer.h"

namespace tigat::lang {

[[nodiscard]] ModelAst parse(const Source& source, DiagnosticSink& sink);

// Parses `source` as exactly one test purpose, `control: A<> φ` or
// `control: A[] φ` with no trailing `;` — the front end of
// tsystem::TestPurpose::parse.  Returns nullopt after a syntax error;
// callers must also check `sink.has_errors()` for lexical errors.
[[nodiscard]] std::optional<ControlDeclAst> parse_purpose(
    const Source& source, DiagnosticSink& sink);

}  // namespace tigat::lang
