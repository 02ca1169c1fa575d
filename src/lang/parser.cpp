#include "lang/parser.h"

#include "util/text.h"

namespace tigat::lang {

namespace {

// A declaration keyword that can start a top-level declaration; used as
// a resynchronisation anchor after syntax errors.
bool is_top_keyword(const Token& t) {
  return t.is_keyword("system") || t.is_keyword("clock") ||
         t.is_keyword("chan") || t.is_keyword("const") ||
         t.is_keyword("int") || t.is_keyword("process") ||
         t.is_keyword("template") || t.is_keyword("control");
}

bool is_body_keyword(const Token& t) {
  return t.is_keyword("loc") || t.is_keyword("edge") || t.is_keyword("init") ||
         t.is_keyword("for") || t.is_keyword("urgent") ||
         t.is_keyword("committed");
}

class Parser {
 public:
  Parser(const Source& source, DiagnosticSink& sink)
      : source_(source), sink_(sink), toks_(lex(source, sink)) {}

  ModelAst run() {
    ModelAst model;
    while (!peek().is(TokKind::kEof)) {
      if (peek().is_keyword("system")) {
        parse_system(model);
      } else if (peek().is_keyword("clock")) {
        parse_clocks(model);
      } else if (peek().is_keyword("chan")) {
        parse_channels(model);
      } else if (peek().is_keyword("const")) {
        parse_constants(model);
      } else if (peek().is_keyword("int")) {
        parse_variable(model);
      } else if (peek().is_keyword("process")) {
        parse_process(model);
      } else if (peek().is_keyword("template")) {
        parse_template(model);
      } else if (peek().is_keyword("control")) {
        parse_control(model);
      } else {
        error(peek().pos,
              util::format("expected a declaration (system, clock, chan, "
                           "const, int, process, template or control), got %s",
                           describe(peek()).c_str()));
        // The offending token is by definition not a declaration start,
        // and sync() stops *at* '}' — consume it first so the loop
        // always makes progress.
        next();
        sync_top();
      }
    }
    return model;
  }

  std::optional<ControlDeclAst> run_purpose() {
    try {
      ControlDeclAst decl = parse_property();
      if (!peek().is(TokKind::kEof)) fail("the end of the property");
      return decl;
    } catch (SyntaxError&) {
      return std::nullopt;
    }
  }

 private:
  // ── token plumbing ──────────────────────────────────────────────────
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = at_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& next() {
    const Token& t = peek();
    if (at_ + 1 < toks_.size()) ++at_;
    return t;
  }
  bool accept(TokKind kind) {
    if (!peek().is(kind)) return false;
    next();
    return true;
  }
  bool accept_kw(std::string_view kw) {
    if (!peek().is_keyword(kw)) return false;
    next();
    return true;
  }

  [[nodiscard]] std::string describe(const Token& t) const {
    if (t.is(TokKind::kIdent) || t.is(TokKind::kNumber)) {
      return util::format("'%.*s'", static_cast<int>(t.text.size()),
                          t.text.data());
    }
    return to_string(t.kind);
  }

  void error(Pos pos, std::string message) {
    sink_.error(pos, std::move(message));
  }

  // Reports "expected X, got Y" and throws out to the recovery point.
  struct SyntaxError {};
  [[noreturn]] void fail(const std::string& what) {
    error(peek().pos, util::format("expected %s, got %s", what.c_str(),
                                   describe(peek()).c_str()));
    throw SyntaxError{};
  }
  void expect(TokKind kind, const char* what) {
    if (!accept(kind)) fail(what ? what : to_string(kind));
  }
  std::string expect_ident(const char* what) {
    if (!peek().is(TokKind::kIdent)) fail(what);
    return std::string(next().text);
  }

  // Panic-mode recovery: skip to just past the next ';', to (not past)
  // a '}' or a declaration keyword, or to end of file.
  void sync_top() { sync(is_top_keyword); }
  void sync_body() { sync([](const Token& t) { return is_body_keyword(t); }); }
  template <typename Anchor>
  void sync(Anchor anchor) {
    while (!peek().is(TokKind::kEof)) {
      if (peek().is(TokKind::kSemi)) {
        next();
        return;
      }
      if (peek().is(TokKind::kRBrace) || anchor(peek()) ||
          is_top_keyword(peek())) {
        return;
      }
      next();
    }
  }

  // ── declarations ────────────────────────────────────────────────────
  // `system name ;` names the system; `system P(...) ... ;` is a
  // template-instantiation list, told apart by the '(' after the first
  // identifier.
  void parse_system(ModelAst& model) {
    try {
      const Token& kw = next();  // system
      const Pos kw_pos = kw.pos;
      const Pos first_pos = peek().pos;
      std::string first = expect_ident("system name or template name");
      if (peek().is(TokKind::kLParen)) {
        parse_instantiation(model, kw_pos, std::move(first), first_pos);
        return;
      }
      if (!model.system_name.empty()) {
        error(kw_pos, "duplicate 'system' declaration");
      }
      model.system_pos = kw_pos;
      model.system_name = std::move(first);
      expect(TokKind::kSemi, "';'");
    } catch (SyntaxError&) {
      sync_top();
    }
  }

  // system P(0), P(2) as Two, Q(i) for i in 0..N-1 ;
  // The first template name is already consumed (by parse_system).
  void parse_instantiation(ModelAst& model, Pos kw_pos, std::string first_name,
                           Pos first_pos) {
    InstantiationAst inst;
    inst.pos = kw_pos;
    bool first = true;
    do {
      InstItemAst item;
      if (first) {
        item.template_name = std::move(first_name);
        item.pos = first_pos;
        first = false;
      } else {
        item.pos = peek().pos;
        item.template_name = expect_ident("template name");
      }
      expect(TokKind::kLParen, "'(' after the template name");
      item.arg = parse_expr();
      expect(TokKind::kRParen, "')'");
      if (accept_kw("as")) {
        item.as_pos = peek().pos;
        item.as_name = expect_ident("instance name after 'as'");
      }
      if (peek().is_keyword("for")) {
        if (!item.as_name.empty()) {
          error(item.as_pos,
                "'as' cannot name a 'for' comprehension (each instance is "
                "named <template><value>)");
        }
        next();  // for
        item.loop_var_pos = peek().pos;
        item.loop_var = expect_ident("comprehension variable after 'for'");
        if (!accept_kw("in")) fail("'in' after the comprehension variable");
        item.loop_lo = parse_expr();
        expect(TokKind::kDotDot, "'..'");
        item.loop_hi = parse_expr();
      }
      inst.items.push_back(std::move(item));
    } while (accept(TokKind::kComma));
    expect(TokKind::kSemi, "';'");
    model.unit_order.push_back({ModelAst::UnitKind::kInstantiation,
                                model.instantiations.size()});
    model.instantiations.push_back(std::move(inst));
  }

  void parse_clocks(ModelAst& model) {
    try {
      next();  // clock
      do {
        const Pos pos = peek().pos;
        model.clocks.push_back({expect_ident("clock name"), pos});
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemi, "';'");
    } catch (SyntaxError&) {
      sync_top();
    }
  }

  void parse_channels(ModelAst& model) {
    try {
      next();  // chan
      bool controllable = true;
      if (accept_kw("ctrl") || accept_kw("controllable")) {
        controllable = true;
      } else if (accept_kw("unctrl") || accept_kw("uncontrollable")) {
        controllable = false;
      } else {
        fail("'ctrl' or 'unctrl' after 'chan'");
      }
      do {
        ChanDeclAst decl;
        decl.pos = peek().pos;
        decl.name = expect_ident("channel name");
        decl.controllable = controllable;
        if (accept(TokKind::kLBracket)) {  // channel array
          decl.size = parse_expr();
          expect(TokKind::kRBracket, "']'");
        }
        model.channels.push_back(std::move(decl));
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemi, "';'");
    } catch (SyntaxError&) {
      sync_top();
    }
  }

  // const name = expr {, name = expr} ;
  void parse_constants(ModelAst& model) {
    try {
      next();  // const
      do {
        ConstDeclAst decl;
        decl.pos = peek().pos;
        decl.name = expect_ident("constant name");
        expect(TokKind::kEquals, "'=' after the constant name");
        decl.value = parse_expr();
        model.constants.push_back(std::move(decl));
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemi, "';'");
    } catch (SyntaxError&) {
      sync_top();
    }
  }

  // int [lo, hi] name ([size])? (= init)? {, name ...} ;
  void parse_variable(ModelAst& model) {
    try {
      next();  // int
      expect(TokKind::kLBracket, "'[' after 'int'");
      ExprPtr lo = parse_expr();
      expect(TokKind::kComma, "',' between range bounds");
      ExprPtr hi = parse_expr();
      expect(TokKind::kRBracket, "']'");
      bool first = true;
      do {
        VarDeclAst decl;
        decl.pos = peek().pos;
        decl.name = expect_ident("variable name");
        decl.lo = first ? std::move(lo) : model.variables.back().lo;
        decl.hi = first ? std::move(hi) : model.variables.back().hi;
        if (accept(TokKind::kLBracket)) {
          decl.size = parse_expr();
          expect(TokKind::kRBracket, "']'");
        }
        if (accept(TokKind::kEquals)) decl.init = parse_expr();
        model.variables.push_back(std::move(decl));
        first = false;
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemi, "';'");
    } catch (SyntaxError&) {
      sync_top();
    }
  }

  void parse_process(ModelAst& model) {
    ProcessDeclAst proc;
    try {
      proc.pos = peek().pos;
      next();  // process
      proc.name = expect_ident("process name");
      if (accept_kw("controlled")) {
        proc.controllable_default = true;
      } else if (accept_kw("uncontrolled")) {
        proc.controllable_default = false;
      } else {
        fail("'controlled' or 'uncontrolled' after the process name");
      }
      expect(TokKind::kLBrace, "'{'");
    } catch (SyntaxError&) {
      sync_top();
      return;
    }

    parse_process_body(proc);
    model.unit_order.push_back(
        {ModelAst::UnitKind::kProcess, model.processes.size()});
    model.processes.push_back(std::move(proc));
  }

  // template P(i : lo..hi) (controlled|uncontrolled) { <process body> }
  void parse_template(ModelAst& model) {
    TemplateDeclAst tpl;
    try {
      tpl.pos = peek().pos;
      tpl.body.pos = tpl.pos;
      next();  // template
      tpl.body.name = expect_ident("template name");
      expect(TokKind::kLParen, "'(' after the template name");
      tpl.param_pos = peek().pos;
      tpl.param = expect_ident("parameter name");
      expect(TokKind::kColon, "':' after the parameter name");
      tpl.range_lo = parse_expr();
      expect(TokKind::kDotDot, "'..'");
      tpl.range_hi = parse_expr();
      expect(TokKind::kRParen, "')'");
      if (accept_kw("controlled")) {
        tpl.body.controllable_default = true;
      } else if (accept_kw("uncontrolled")) {
        tpl.body.controllable_default = false;
      } else {
        fail("'controlled' or 'uncontrolled' after the parameter list");
      }
      expect(TokKind::kLBrace, "'{'");
    } catch (SyntaxError&) {
      sync_top();
      return;
    }

    parse_process_body(tpl.body);
    model.templates.push_back(std::move(tpl));
  }

  // The shared `{ ... }` body of a process or template; consumes the
  // closing brace.
  void parse_process_body(ProcessDeclAst& proc) {
    while (!peek().is(TokKind::kRBrace) && !peek().is(TokKind::kEof)) {
      try {
        if (peek().is_keyword("loc") || peek().is_keyword("urgent") ||
            peek().is_keyword("committed")) {
          parse_location(proc);
        } else if (peek().is_keyword("edge")) {
          ProcessItemAst item;
          item.edge = parse_edge();
          proc.items.push_back(std::move(item));
        } else if (peek().is_keyword("for")) {
          ProcessItemAst item;
          item.loop = parse_for_block();
          proc.items.push_back(std::move(item));
        } else if (peek().is_keyword("init")) {
          const Token& kw = next();  // init
          if (!proc.init_loc.empty()) {
            error(kw.pos, util::format("duplicate 'init' in process '%s'",
                                       proc.name.c_str()));
          }
          proc.init_pos = peek().pos;
          proc.init_loc = expect_ident("initial location name");
          expect(TokKind::kSemi, "';'");
        } else if (is_top_keyword(peek())) {
          error(peek().pos,
                util::format("%s cannot appear inside a process "
                             "(missing '}'?)",
                             describe(peek()).c_str()));
          break;  // let the top level resume from the keyword
        } else {
          fail("'loc', 'edge', 'for' or 'init' inside the process body");
        }
      } catch (SyntaxError&) {
        sync_body();
      }
    }
    accept(TokKind::kRBrace);
  }

  // for (i : lo..hi) { <edges / nested for blocks> }
  ForBlockAst parse_for_block() {
    const DepthGuard guard{for_depth_, for_depth_};
    if (++for_depth_ > kMaxForDepth) {
      error(peek().pos, "'for' blocks are nested too deeply");
      throw SyntaxError{};
    }

    ForBlockAst fb;
    fb.pos = peek().pos;
    next();  // for
    expect(TokKind::kLParen, "'(' after 'for'");
    fb.var_pos = peek().pos;
    fb.var = expect_ident("loop variable");
    expect(TokKind::kColon, "':' after the loop variable");
    fb.lo = parse_expr();
    expect(TokKind::kDotDot, "'..'");
    fb.hi = parse_expr();
    expect(TokKind::kRParen, "')'");
    expect(TokKind::kLBrace, "'{'");
    while (!peek().is(TokKind::kRBrace) && !peek().is(TokKind::kEof)) {
      ProcessItemAst item;
      if (peek().is_keyword("edge")) {
        item.edge = parse_edge();
      } else if (peek().is_keyword("for")) {
        item.loop = parse_for_block();
      } else {
        fail("'edge' or a nested 'for' inside the 'for' block");
      }
      fb.items.push_back(std::move(item));
    }
    expect(TokKind::kRBrace, "'}'");
    return fb;
  }

  void parse_location(ProcessDeclAst& proc) {
    LocDeclAst loc;
    if (accept_kw("urgent")) {
      loc.kind = tsystem::LocationKind::kUrgent;
    } else if (accept_kw("committed")) {
      loc.kind = tsystem::LocationKind::kCommitted;
    }
    if (!accept_kw("loc")) fail("'loc'");
    loc.pos = peek().pos;
    loc.name = expect_ident("location name");
    if (accept(TokKind::kLBrace)) {
      while (!peek().is(TokKind::kRBrace)) {
        if (accept_kw("inv")) {
          do {
            loc.invariants.push_back(parse_expr());
          } while (accept(TokKind::kComma));
          expect(TokKind::kSemi, "';'");
        } else {
          fail("'inv' or '}' in the location body");
        }
      }
      expect(TokKind::kRBrace, "'}'");
    } else {
      expect(TokKind::kSemi, "';' or '{' after the location name");
    }
    proc.locations.push_back(std::move(loc));
  }

  // edge A -> B (on chan[idx]! | on chan[idx]?)? (when e {, e})?
  //   (do u {, u})? (ctrl | unctrl)? (label "...")? ;
  EdgeDeclAst parse_edge() {
    EdgeDeclAst edge;
    edge.pos = peek().pos;
    next();  // edge
    edge.src_pos = peek().pos;
    edge.src = expect_ident("source location");
    expect(TokKind::kArrow, "'->'");
    edge.dst_pos = peek().pos;
    edge.dst = expect_ident("target location");

    if (accept_kw("on")) {
      SyncAst sync;
      sync.pos = peek().pos;
      sync.channel = expect_ident("channel name after 'on'");
      if (accept(TokKind::kLBracket)) {  // channel-array member
        sync.index = parse_expr();
        expect(TokKind::kRBracket, "']'");
      }
      if (accept(TokKind::kBang)) {
        sync.send = true;
      } else if (accept(TokKind::kQuestion)) {
        sync.send = false;
      } else {
        fail("'!' or '?' after the channel name");
      }
      edge.sync = std::move(sync);
    }
    if (accept_kw("when")) {
      do {
        edge.guards.push_back(parse_expr());
      } while (accept(TokKind::kComma));
    }
    if (accept_kw("do")) {
      do {
        UpdateAst update;
        update.pos = peek().pos;
        update.target = expect_ident("update target");
        if (accept(TokKind::kLBracket)) {
          if (accept(TokKind::kRBracket)) {
            update.whole_array = true;  // `A[] := e`
          } else {
            update.index = parse_expr();
            expect(TokKind::kRBracket, "']'");
          }
        }
        expect(TokKind::kAssignOp, "':='");
        update.rhs = parse_expr();
        edge.updates.push_back(std::move(update));
      } while (accept(TokKind::kComma));
    }
    if (accept_kw("ctrl")) {
      edge.ctrl_override = true;
    } else if (accept_kw("unctrl")) {
      edge.ctrl_override = false;
    }
    if (accept_kw("label")) {
      if (!peek().is(TokKind::kString)) fail("a string after 'label'");
      edge.label = std::string(next().text);
    }
    expect(TokKind::kSemi, "';'");
    return edge;
  }

  // control: A<> φ ;   |   control: A[] φ ;
  void parse_control(ModelAst& model) {
    try {
      model.controls.push_back(parse_property());
      expect(TokKind::kSemi, "';' after the property");
    } catch (SyntaxError&) {
      sync_top();
    }
  }

  // `control: A<> φ` or `control: A[] φ`, up to the last token of φ.
  ControlDeclAst parse_property() {
    if (!accept_kw("control")) fail("'control:'");
    expect(TokKind::kColon, "':' after 'control'");
    ControlDeclAst decl;
    decl.pos = peek().pos;
    if (!accept_kw("A")) fail("'A<>' or 'A[]'");
    if (accept(TokKind::kLt)) {
      expect(TokKind::kGt, "'>' of 'A<>'");
      decl.kind = tsystem::PurposeKind::kReach;
    } else if (accept(TokKind::kLBracket)) {
      expect(TokKind::kRBracket, "']' of 'A[]'");
      decl.kind = tsystem::PurposeKind::kSafety;
    } else {
      fail("'<>' or '[]' after 'A'");
    }
    decl.formula = parse_expr();
    const Token& last = toks_[at_ - 1];
    const std::size_t end = last.pos.offset + last.text.size();
    decl.source = "control: " + source_.text().substr(decl.pos.offset,
                                                      end - decl.pos.offset);
    return decl;
  }

  // ── expressions ─────────────────────────────────────────────────────
  std::shared_ptr<ExprAst> make_expr(ExprAst::Kind kind, Pos pos) {
    auto e = std::make_shared<ExprAst>();
    e->kind = kind;
    e->pos = pos;
    return e;
  }

  ExprPtr parse_expr() { return parse_or(); }

  // Charges one nesting level: every recursion passes parse_unary, and
  // every further operand of a chain charges too — the loops build
  // left-deep trees that later passes walk recursively.  Hostile input
  // gets a diagnostic, not a stack overflow.
  void enter_expr() {
    if (++expr_depth_ > kMaxExprDepth) {
      error(peek().pos, "expression is too deeply nested");
      throw SyntaxError{};
    }
  }

  ExprPtr parse_or() {
    const DepthGuard chain{expr_depth_, expr_depth_};
    ExprPtr lhs = parse_and();
    while (peek().is(TokKind::kOrOr) || peek().is_keyword("or")) {
      enter_expr();
      const Pos pos = next().pos;
      auto e = make_expr(ExprAst::Kind::kBinary, pos);
      e->bin_op = BinOp::kOr;
      e->lhs = std::move(lhs);
      e->rhs = parse_and();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_and() {
    const DepthGuard chain{expr_depth_, expr_depth_};
    ExprPtr lhs = parse_cmp();
    while (peek().is(TokKind::kAndAnd) || peek().is_keyword("and")) {
      enter_expr();
      const Pos pos = next().pos;
      auto e = make_expr(ExprAst::Kind::kBinary, pos);
      e->bin_op = BinOp::kAnd;
      e->lhs = std::move(lhs);
      e->rhs = parse_cmp();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    BinOp op;
    switch (peek().kind) {
      case TokKind::kEqEq: op = BinOp::kEq; break;
      case TokKind::kNotEq: op = BinOp::kNe; break;
      case TokKind::kLt: op = BinOp::kLt; break;
      case TokKind::kLe: op = BinOp::kLe; break;
      case TokKind::kGt: op = BinOp::kGt; break;
      case TokKind::kGe: op = BinOp::kGe; break;
      default: return lhs;
    }
    const Pos pos = next().pos;
    auto e = make_expr(ExprAst::Kind::kBinary, pos);
    e->bin_op = op;
    e->lhs = std::move(lhs);
    e->rhs = parse_add();
    return e;
  }

  ExprPtr parse_add() {
    const DepthGuard chain{expr_depth_, expr_depth_};
    ExprPtr lhs = parse_mul();
    while (peek().is(TokKind::kPlus) || peek().is(TokKind::kMinus)) {
      enter_expr();
      const BinOp op = peek().is(TokKind::kPlus) ? BinOp::kAdd : BinOp::kSub;
      const Pos pos = next().pos;
      auto e = make_expr(ExprAst::Kind::kBinary, pos);
      e->bin_op = op;
      e->lhs = std::move(lhs);
      e->rhs = parse_mul();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_mul() {
    const DepthGuard chain{expr_depth_, expr_depth_};
    ExprPtr lhs = parse_unary();
    while (peek().is(TokKind::kStar) || peek().is(TokKind::kSlash) ||
           peek().is(TokKind::kPercent)) {
      enter_expr();
      const BinOp op = peek().is(TokKind::kStar)    ? BinOp::kMul
                       : peek().is(TokKind::kSlash) ? BinOp::kDiv
                                                    : BinOp::kMod;
      const Pos pos = next().pos;
      auto e = make_expr(ExprAst::Kind::kBinary, pos);
      e->bin_op = op;
      e->lhs = std::move(lhs);
      e->rhs = parse_unary();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    const DepthGuard guard{expr_depth_, expr_depth_};
    enter_expr();
    if (peek().is(TokKind::kMinus) || peek().is(TokKind::kBang) ||
        peek().is_keyword("not")) {
      const UnOp op = peek().is(TokKind::kMinus) ? UnOp::kNeg : UnOp::kNot;
      const Pos pos = next().pos;
      auto e = make_expr(ExprAst::Kind::kUnary, pos);
      e->un_op = op;
      e->lhs = parse_unary();
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    if (t.is(TokKind::kNumber)) {
      auto e = make_expr(ExprAst::Kind::kNumber, t.pos);
      e->number = next().number;
      return e;
    }
    if (t.is(TokKind::kLParen)) {
      next();
      ExprPtr e = parse_expr();
      expect(TokKind::kRParen, "')'");
      return e;
    }
    if (t.is_keyword("forall") || t.is_keyword("exists")) {
      return parse_quantifier();
    }
    if (t.is(TokKind::kIdent)) {
      auto e = make_expr(ExprAst::Kind::kName, t.pos);
      e->name = std::string(next().text);
      if (accept(TokKind::kDot)) {  // `Proc.Name`, positioned at `Name`
        e->process = std::move(e->name);
        e->pos = peek().pos;
        e->name = expect_ident("a location or variable name after '.'");
      }
      if (accept(TokKind::kLBracket)) {
        e->kind = ExprAst::Kind::kIndex;
        e->lhs = parse_expr();
        expect(TokKind::kRBracket, "']'");
      }
      return e;
    }
    fail("an expression");
  }

  // forall (i : lo..hi) body   |   forall (i : array) body
  ExprPtr parse_quantifier() {
    const Token& kw = next();
    auto e = make_expr(ExprAst::Kind::kQuantifier, kw.pos);
    e->is_forall = kw.is_keyword("forall");
    expect(TokKind::kLParen, "'('");
    e->name = expect_ident("binder name");
    expect(TokKind::kColon, "':'");
    // `ident` alone (not followed by '..') names an array range.
    if (peek().is(TokKind::kIdent) && !peek(1).is(TokKind::kDotDot)) {
      e->range_array = std::string(next().text);
    } else {
      e->range_lo = parse_expr();
      expect(TokKind::kDotDot, "'..'");
      e->range_hi = parse_expr();
    }
    expect(TokKind::kRParen, "')'");
    e->lhs = parse_expr();  // max-munch body; parenthesise to restrict
    return e;
  }

  struct DepthGuard {  // restores a nesting counter on scope exit
    int& depth;
    int saved;
    ~DepthGuard() { depth = saved; }
  };

  static constexpr int kMaxExprDepth = 500;
  static constexpr int kMaxForDepth = 64;

  const Source& source_;
  DiagnosticSink& sink_;
  std::vector<Token> toks_;
  std::size_t at_ = 0;
  int expr_depth_ = 0;
  int for_depth_ = 0;
};

}  // namespace

ModelAst parse(const Source& source, DiagnosticSink& sink) {
  return Parser(source, sink).run();
}

std::optional<ControlDeclAst> parse_purpose(const Source& source,
                                            DiagnosticSink& sink) {
  return Parser(source, sink).run_purpose();
}

}  // namespace tigat::lang
