// Hand-written lexer for the .tg model language.
//
// Produces the whole token stream up front (models are small), each
// token carrying its byte offset so diagnostics can point at the exact
// line/column.  `//` line comments and `/* */` block comments are
// skipped; an unterminated block comment and stray characters produce
// positioned diagnostics and lexing continues — the parser then sees a
// best-effort stream and can report its own errors in the same pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/diag.h"

namespace tigat::lang {

enum class TokKind : std::uint8_t {
  kEof,
  kIdent,   // names and keywords (keywords are contextual)
  kNumber,  // non-negative decimal integer
  kString,  // "..." (edge labels)
  // punctuation / operators
  kLBrace, kRBrace, kLBracket, kRBracket, kLParen, kRParen,
  kComma, kSemi, kColon,
  kArrow,      // ->
  kAssignOp,   // :=
  kEquals,     // =
  kBang,       // !   (send marker / logical not)
  kQuestion,   // ?
  kDot,        // .   (qualified names `IUT.Bright`; formulas only)
  kDotDot,     // ..
  kPlus, kMinus, kStar, kSlash, kPercent,
  kEqEq, kNotEq, kLt, kLe, kGt, kGe,
  kAndAnd,     // &&
  kOrOr,       // ||
};

// Human-readable token-kind name for error messages ("'->'", "number").
[[nodiscard]] const char* to_string(TokKind kind);

struct Token {
  TokKind kind = TokKind::kEof;
  std::string_view text;        // slice of the source buffer
  std::int64_t number = 0;      // for kNumber
  Pos pos;

  [[nodiscard]] bool is(TokKind k) const { return kind == k; }
  // Contextual keyword test: an identifier spelled exactly `kw`.
  [[nodiscard]] bool is_keyword(std::string_view kw) const {
    return kind == TokKind::kIdent && text == kw;
  }
};

// Lexes the whole source; diagnostics go to `sink`.  The returned
// stream always ends with a kEof token.
[[nodiscard]] std::vector<Token> lex(const Source& source,
                                     DiagnosticSink& sink);

}  // namespace tigat::lang
