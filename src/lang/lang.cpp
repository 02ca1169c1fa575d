#include "lang/lang.h"

#include <fstream>
#include <sstream>

#include "lang/parser.h"
#include "util/assert.h"
#include "util/text.h"

namespace tigat::lang {

namespace {

// "models/smart_light.tg" → "smart_light": the fallback system name.
std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem.empty() ? "model" : stem;
}

// The one compile pipeline; both public entry points wrap it.
std::optional<LoadedModel> compile_with_sink(DiagnosticSink& sink,
                                             const CompileOptions& options) {
  const ModelAst ast = parse(sink.source(), sink);
  if (sink.has_errors()) return std::nullopt;
  return elaborate(ast, stem_of(sink.source().name()), sink, options);
}

LoadedModel compile_or_throw(std::string_view text, const std::string& name,
                             const CompileOptions& options) {
  const Source source(name, std::string(text));
  DiagnosticSink sink(source);
  std::optional<LoadedModel> model = compile_with_sink(sink, options);
  if (!model) throw LangError(sink.render_all());
  return std::move(*model);
}

}  // namespace

std::optional<LoadedModel> compile_model(std::string_view source_text,
                                         const std::string& name,
                                         std::vector<Diagnostic>& diagnostics,
                                         const CompileOptions& options) {
  const Source source(name, std::string(source_text));
  DiagnosticSink sink(source);
  std::optional<LoadedModel> model = compile_with_sink(sink, options);
  diagnostics = sink.diagnostics();
  return model;
}

LoadedModel load_model(const std::string& path, const CompileOptions& options,
                       const std::vector<std::string>& purposes) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw LangError(util::format("%s: cannot open model file", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  // Each purpose must parse alone, so appended text declares nothing;
  // a `;` on its own line survives a trailing `//` comment.
  for (const std::string& text : purposes) {
    const Source source("test purpose", text);
    DiagnosticSink sink(source);
    if (!parse_purpose(source, sink) || sink.has_errors()) {
      throw LangError(sink.render_all());
    }
    buffer << '\n' << text << "\n;";
  }
  return compile_or_throw(buffer.str(), path, options);
}

LoadedModel load_model_from_string(std::string_view source,
                                   const std::string& name,
                                   const CompileOptions& options) {
  return compile_or_throw(source, name, options);
}

}  // namespace tigat::lang

namespace tigat::tsystem {

// Declared in tsystem/property.h; purposes given as text run through
// the same lexer, expression parser and lowering as a model's
// `control:` lines.
TestPurpose TestPurpose::parse(const System& system, std::string_view text) {
  TIGAT_ASSERT(system.finalized(), "parse requires a finalized system");
  const lang::Source source("test purpose", std::string(text));
  lang::DiagnosticSink sink(source);
  const auto decl = lang::parse_purpose(source, sink);
  std::optional<TestPurpose> purpose;
  if (decl && !sink.has_errors()) {
    purpose = lang::lower_purpose(*decl, system, sink);
  }
  if (!purpose) {
    const lang::Diagnostic& first = sink.diagnostics().front();
    throw ModelError(util::format("test purpose:%u:%u: %s", first.line,
                                  first.column, first.message.c_str()));
  }
  purpose->source = std::string(util::trim(text));
  return std::move(*purpose);
}

}  // namespace tigat::tsystem
