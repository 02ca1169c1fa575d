#include "lang/elaborate.h"

#include <limits>
#include <unordered_map>

#include "util/text.h"

namespace tigat::lang {

namespace {

using tsystem::ChannelId;
using tsystem::ClockConstraint;
using tsystem::Controllability;
using tsystem::Expr;
using tsystem::LocId;
using tsystem::ModelError;
using tsystem::Process;
using tsystem::StateFormula;
using tsystem::System;
using tsystem::TestPurpose;

enum class NameKind {
  kClock, kChannel, kChannelArray, kConstant, kVariable, kProcess,
};

const char* to_string(NameKind k) {
  switch (k) {
    case NameKind::kClock: return "a clock";
    case NameKind::kChannel: return "a channel";
    case NameKind::kChannelArray: return "a channel array";
    case NameKind::kConstant: return "a constant";
    case NameKind::kVariable: return "a variable";
    case NameKind::kProcess: return "a process";
  }
  return "a name";
}

// Name resolution and lowering of expressions and `control:` formulas
// onto a System: the half of elaboration that TestPurpose::parse shares
// with the model compiler.  On its own it lowers against a finalized
// System with no model source behind it, so no constant or template
// parameter is in scope; the Elaborator derives from it and adds them.
class Lowering {
 public:
  Lowering(const System* system, DiagnosticSink& sink)
      : system_(system), sink_(sink) {}

  // The purpose a `control:` declaration states, or nullopt after an
  // error was reported.
  std::optional<TestPurpose> lower_control(const ControlDeclAst& decl) {
    formula_ = true;
    StateFormula formula = lower_formula(*decl.formula);
    formula_ = false;
    if (formula.is_null()) return std::nullopt;
    return decl.kind == tsystem::PurposeKind::kReach
               ? TestPurpose::reach(std::move(formula), decl.source)
               : TestPurpose::safety(std::move(formula), decl.source);
  }

 protected:
  // Every elaboration error goes through here so the current
  // instantiation/iteration trace rides along as notes.
  void error(Pos pos, std::string message) {
    sink_.error(pos, std::move(message), trace_);
  }

  // ── formulas ────────────────────────────────────────────────────────
  // `&&`, `||`, `!` and quantifiers become formula connectives and a
  // qualified `Proc.Loc` a location atom; any other expression is a
  // data atom, true where it evaluates non-zero.
  StateFormula lower_formula(const ExprAst& e) {
    if (e.kind == ExprAst::Kind::kBinary &&
        (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr)) {
      StateFormula lhs = lower_formula(*e.lhs);
      StateFormula rhs = lower_formula(*e.rhs);
      if (lhs.is_null() || rhs.is_null()) return {};
      return e.bin_op == BinOp::kAnd
                 ? StateFormula::conj(std::move(lhs), std::move(rhs))
                 : StateFormula::disj(std::move(lhs), std::move(rhs));
    }
    if (e.kind == ExprAst::Kind::kUnary && e.un_op == UnOp::kNot) {
      StateFormula operand = lower_formula(*e.lhs);
      if (operand.is_null()) return {};
      return StateFormula::neg(std::move(operand));
    }
    if (e.kind == ExprAst::Kind::kQuantifier) {
      const auto range = quantifier_range(e);
      if (!range) return {};
      binders_.push_back(e.name);
      StateFormula body = lower_formula(*e.lhs);
      binders_.pop_back();
      if (body.is_null()) return {};
      return e.is_forall
                 ? StateFormula::forall(range->first, range->second,
                                        std::move(body))
                 : StateFormula::exists(range->first, range->second,
                                        std::move(body));
    }
    if (e.kind == ExprAst::Kind::kName && !e.process.empty()) {
      if (const auto proc = system_->find_process(e.process)) {
        if (const auto loc =
                system_->processes()[*proc].find_location(e.name)) {
          return StateFormula::location(*proc, *loc);
        }
      }
    }
    const Expr data = lower_expr(e);
    if (data.is_null()) return {};
    return StateFormula::data(data);
  }

  // `Proc.Name` outside a location atom names the variable `Name` (data
  // is global); only formulas have qualified names at all.
  bool check_qualifier(const ExprAst& e) {
    if (!formula_) {
      error(e.pos, util::format("qualified name '%s.%s' is only allowed in a "
                                "control: formula",
                                e.process.c_str(), e.name.c_str()));
      return false;
    }
    if (system_->find_process(e.process)) return true;
    error(e.pos, util::format("unknown process '%s'", e.process.c_str()));
    return false;
  }

  // `lo..hi`, folded, or a declared array `arr` meaning 0..size(arr)-1.
  std::optional<std::pair<std::int64_t, std::int64_t>> quantifier_range(
      const ExprAst& e) {
    if (e.range_array.empty()) {
      const auto lo = fold_const(e.range_lo, "quantifier range");
      const auto hi = fold_const(e.range_hi, "quantifier range");
      if (!lo || !hi) return std::nullopt;
      return std::pair{*lo, *hi};
    }
    const auto var = system_->data().find(e.range_array);
    if (!var || !system_->data().decl(*var).is_array()) {
      error(e.pos, util::format("quantifier range '%s' is not an array",
                                e.range_array.c_str()));
      return std::nullopt;
    }
    return std::pair<std::int64_t, std::int64_t>{
        0, static_cast<std::int64_t>(system_->data().decl(*var).size) - 1};
  }

  // ── data expressions ────────────────────────────────────────────────
  // Lowers to tsystem::Expr; reports and returns a null Expr on errors.
  Expr lower_expr(const ExprAst& e) {
    if (!e.process.empty() && !check_qualifier(e)) return {};
    switch (e.kind) {
      case ExprAst::Kind::kNumber:
        return Expr::constant(e.number);
      case ExprAst::Kind::kName: {
        for (std::size_t k = 0; k < binders_.size(); ++k) {
          if (binders_[binders_.size() - 1 - k] == e.name) {
            return Expr::bound_var(static_cast<std::uint32_t>(k));
          }
        }
        if (const std::int64_t* scoped = find_scoped(e.name)) {
          return Expr::constant(*scoped);
        }
        if (const auto c = consts_.find(e.name); c != consts_.end()) {
          return Expr::constant(c->second);
        }
        if (const auto var = system_->data().find(e.name)) {
          if (system_->data().decl(*var).is_array()) {
            error(e.pos,
                        util::format("array '%s' needs an index here",
                                     e.name.c_str()));
            return {};
          }
          return Expr::var(*var);
        }
        if (e.name == "true") return Expr::constant(1);
        if (e.name == "false") return Expr::constant(0);
        if (system_->find_clock(e.name)) {
          error(e.pos,
                formula_
                    ? util::format("clock '%s' cannot appear in a control: "
                                   "formula, which ranges over locations "
                                   "and data variables only",
                                   e.name.c_str())
                    : util::format("clock '%s' may only appear in simple "
                                   "comparisons like '%s <= 3'",
                                   e.name.c_str(), e.name.c_str()));
          return {};
        }
        error(e.pos,
                    util::format("unknown identifier '%s'", e.name.c_str()));
        return {};
      }
      case ExprAst::Kind::kIndex: {
        const auto var = system_->data().find(e.name);
        if (!var) {
          error(e.pos,
                      util::format("unknown variable '%s'", e.name.c_str()));
          return {};
        }
        if (!system_->data().decl(*var).is_array()) {
          error(e.pos,
                      util::format("'%s' is not an array", e.name.c_str()));
          return {};
        }
        const Expr index = lower_expr(*e.lhs);
        if (index.is_null()) return {};
        return Expr::var(*var, index);
      }
      case ExprAst::Kind::kUnary: {
        const Expr operand = lower_expr(*e.lhs);
        if (operand.is_null()) return {};
        return e.un_op == UnOp::kNeg ? -operand : !operand;
      }
      case ExprAst::Kind::kBinary: {
        const Expr lhs = lower_expr(*e.lhs);
        const Expr rhs = lower_expr(*e.rhs);
        if (lhs.is_null() || rhs.is_null()) return {};
        return Expr::binary(to_expr_kind(e.bin_op), lhs, rhs);
      }
      case ExprAst::Kind::kQuantifier: {
        const auto range = quantifier_range(e);
        if (!range) return {};
        binders_.push_back(e.name);
        const Expr body = lower_expr(*e.lhs);
        binders_.pop_back();
        if (body.is_null()) return {};
        return e.is_forall ? Expr::forall(range->first, range->second, body)
                           : Expr::exists(range->first, range->second, body);
      }
    }
    return {};
  }

  static Expr::Kind to_expr_kind(BinOp op) {
    switch (op) {
      case BinOp::kAdd: return Expr::Kind::kAdd;
      case BinOp::kSub: return Expr::Kind::kSub;
      case BinOp::kMul: return Expr::Kind::kMul;
      case BinOp::kDiv: return Expr::Kind::kDiv;
      case BinOp::kMod: return Expr::Kind::kMod;
      case BinOp::kEq: return Expr::Kind::kEq;
      case BinOp::kNe: return Expr::Kind::kNe;
      case BinOp::kLt: return Expr::Kind::kLt;
      case BinOp::kLe: return Expr::Kind::kLe;
      case BinOp::kGt: return Expr::Kind::kGt;
      case BinOp::kGe: return Expr::Kind::kGe;
      case BinOp::kAnd: return Expr::Kind::kAnd;
      case BinOp::kOr: return Expr::Kind::kOr;
    }
    return Expr::Kind::kAdd;
  }

  // ── constant folding ────────────────────────────────────────────────
  // Integer-folds an expression that may not mention clocks, variables
  // or quantifiers (declaration bounds, reset values, clock bounds).
  [[nodiscard]] std::optional<std::int64_t> fold_const_expr(
      const ExprAst& e) const {
    switch (e.kind) {
      case ExprAst::Kind::kNumber:
        return e.number;
      case ExprAst::Kind::kName: {
        if (!e.process.empty()) return std::nullopt;
        if (e.name == "true") return 1;
        if (e.name == "false") return 0;
        if (const std::int64_t* scoped = find_scoped(e.name)) return *scoped;
        const auto it = consts_.find(e.name);
        if (it != consts_.end()) return it->second;
        return std::nullopt;
      }
      case ExprAst::Kind::kUnary: {
        const auto v = fold_const_expr(*e.lhs);
        if (!v) return std::nullopt;
        if (e.un_op == UnOp::kNot) return *v == 0 ? 1 : 0;
        if (*v == std::numeric_limits<std::int64_t>::min()) {
          return std::nullopt;
        }
        return -*v;
      }
      case ExprAst::Kind::kBinary: {
        const auto a = fold_const_expr(*e.lhs);
        const auto b = fold_const_expr(*e.rhs);
        if (!a || !b) return std::nullopt;
        // Overflow makes the expression non-constant rather than UB.
        std::int64_t r = 0;
        switch (e.bin_op) {
          case BinOp::kAdd:
            if (__builtin_add_overflow(*a, *b, &r)) return std::nullopt;
            return r;
          case BinOp::kSub:
            if (__builtin_sub_overflow(*a, *b, &r)) return std::nullopt;
            return r;
          case BinOp::kMul:
            if (__builtin_mul_overflow(*a, *b, &r)) return std::nullopt;
            return r;
          case BinOp::kDiv:
            if (*b == 0 ||
                (*a == std::numeric_limits<std::int64_t>::min() && *b == -1)) {
              return std::nullopt;
            }
            return *a / *b;
          case BinOp::kMod:
            if (*b == 0 ||
                (*a == std::numeric_limits<std::int64_t>::min() && *b == -1)) {
              return std::nullopt;
            }
            return *a % *b;
          case BinOp::kEq: return *a == *b ? 1 : 0;
          case BinOp::kNe: return *a != *b ? 1 : 0;
          case BinOp::kLt: return *a < *b ? 1 : 0;
          case BinOp::kLe: return *a <= *b ? 1 : 0;
          case BinOp::kGt: return *a > *b ? 1 : 0;
          case BinOp::kGe: return *a >= *b ? 1 : 0;
          case BinOp::kAnd: return (*a != 0 && *b != 0) ? 1 : 0;
          case BinOp::kOr: return (*a != 0 || *b != 0) ? 1 : 0;
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  // As fold_const_expr, but reports a positioned error on failure.
  std::optional<std::int64_t> fold_const(const ExprPtr& e, const char* what) {
    if (!e) return std::nullopt;
    const auto v = fold_const_expr(*e);
    if (!v) {
      error(e->pos,
                  util::format("%s must be a constant integer expression",
                               what));
    }
    return v;
  }

  // Innermost template parameter / `for` variable binding, or null.
  [[nodiscard]] const std::int64_t* find_scoped(
      const std::string& name) const {
    for (auto it = scoped_.rbegin(); it != scoped_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

  const System* system_;
  DiagnosticSink& sink_;
  std::unordered_map<std::string, std::int64_t> consts_;
  std::vector<std::string> binders_;
  // Template parameters and `for` variables in scope, outermost first.
  std::vector<std::pair<std::string, std::int64_t>> scoped_;
  // Instantiation/iteration context for diagnostics, outermost first.
  std::vector<Note> trace_;
  bool formula_ = false;  // lowering a `control:` formula
};

class Elaborator : private Lowering {
 public:
  Elaborator(const ModelAst& ast, const std::string& fallback_name,
             DiagnosticSink& sink, const CompileOptions& options)
      : Lowering(nullptr, sink),
        ast_(ast),
        fallback_name_(fallback_name),
        options_(options) {}

  std::optional<ElaboratedModel> run() {
    sys_.emplace(ast_.system_name.empty() ? fallback_name_
                                          : ast_.system_name);
    system_ = &*sys_;  // Lowering resolves names in the system being built
    check_param_overrides();
    declare_clocks();
    declare_constants();  // before channels/variables: sizes fold constants
    declare_channels();
    declare_variables();
    register_templates();
    for (const ModelAst::UnitRef& unit : ast_.unit_order) {
      if (unit.kind == ModelAst::UnitKind::kProcess) {
        elaborate_process(ast_.processes[unit.index]);
      } else {
        elaborate_instantiation(ast_.instantiations[unit.index]);
      }
    }
    if (sys_->processes().empty()) {
      error(ast_.system_pos, "a model needs at least one process");
    }
    if (sink_.has_errors()) return std::nullopt;

    try {
      sys_->finalize();
    } catch (const ModelError& e) {
      error(ast_.system_pos,
            util::format("model validation failed: %s", e.what()));
      return std::nullopt;
    }

    std::vector<TestPurpose> purposes;
    for (const ControlDeclAst& control : ast_.controls) {
      if (auto purpose = lower_control(control)) {
        purposes.push_back(std::move(*purpose));
      }
    }
    if (sink_.has_errors()) return std::nullopt;
    return ElaboratedModel{std::move(*sys_), std::move(purposes)};
  }

 private:
  [[nodiscard]] static bool fits_i32(std::int64_t v) {
    return v >= std::numeric_limits<std::int32_t>::min() &&
           v <= std::numeric_limits<std::int32_t>::max();
  }

  // ── declarations ────────────────────────────────────────────────────
  // One global namespace: a second declaration of any name is an error.
  bool declare_name(const std::string& name, NameKind kind, Pos pos) {
    const auto [it, fresh] = names_.emplace(name, kind);
    if (!fresh) {
      error(pos, util::format("'%s' is already declared as %s",
                              name.c_str(), to_string(it->second)));
      return false;
    }
    return true;
  }

  // `--param` overrides are validated up front: a name that matches no
  // `const` declaration (or repeats) would otherwise be silently inert.
  void check_param_overrides() {
    for (std::size_t i = 0; i < options_.params.size(); ++i) {
      const std::string& name = options_.params[i].first;
      bool declared = false;
      for (const ConstDeclAst& decl : ast_.constants) {
        declared |= decl.name == name;
      }
      if (!declared) {
        sink_.error(util::format("parameter override '%s=%lld' does not "
                                 "match any 'const' declaration",
                                 name.c_str(),
                                 static_cast<long long>(
                                     options_.params[i].second)));
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (options_.params[j].first == name) {
          sink_.error(util::format("duplicate parameter override '%s'",
                                   name.c_str()));
          break;
        }
      }
    }
  }

  [[nodiscard]] const std::int64_t* find_override(
      const std::string& name) const {
    for (const auto& [n, v] : options_.params) {
      if (n == name) return &v;
    }
    return nullptr;
  }

  void declare_clocks() {
    for (const ClockDeclAst& decl : ast_.clocks) {
      if (!declare_name(decl.name, NameKind::kClock, decl.pos)) continue;
      sys_->add_clock(decl.name);
    }
  }

  void declare_channels() {
    for (const ChanDeclAst& decl : ast_.channels) {
      const Controllability control = decl.controllable
                                          ? Controllability::kControllable
                                          : Controllability::kUncontrollable;
      if (!decl.size) {
        if (!declare_name(decl.name, NameKind::kChannel, decl.pos)) continue;
        channels_.emplace(decl.name, sys_->add_channel(decl.name, control));
        continue;
      }
      // A channel array stamps out members `name[0] .. name[size-1]`.
      if (!declare_name(decl.name, NameKind::kChannelArray, decl.pos)) {
        continue;
      }
      const auto size = fold_const(decl.size, "channel array size");
      if (!size) continue;
      if (*size < 1 || *size > kMaxChannelArray) {
        error(decl.pos,
              util::format("channel array size must be in [1, %d], got %lld",
                           kMaxChannelArray,
                           static_cast<long long>(*size)));
        continue;
      }
      chan_arrays_.emplace(decl.name, *size);
      for (std::int64_t k = 0; k < *size; ++k) {
        const std::string member =
            util::format("%s[%lld]", decl.name.c_str(),
                         static_cast<long long>(k));
        channels_.emplace(member, sys_->add_channel(member, control));
      }
    }
  }

  // Constants fold in declaration order, so a value may reference any
  // earlier constant (`const N = 3; const MaxAddr = N - 1;`); a
  // forward or unknown reference surfaces through fold_const's
  // "must be a constant integer expression" with the exact position.
  void declare_constants() {
    for (const ConstDeclAst& decl : ast_.constants) {
      if (!declare_name(decl.name, NameKind::kConstant, decl.pos)) continue;
      if (const std::int64_t* override_value = find_override(decl.name)) {
        consts_.emplace(decl.name, *override_value);
        continue;  // the declared value expression is replaced wholesale
      }
      const auto value = fold_const(decl.value, "constant value");
      if (!value) continue;
      consts_.emplace(decl.name, *value);
    }
  }

  void declare_variables() {
    for (const VarDeclAst& decl : ast_.variables) {
      if (!declare_name(decl.name, NameKind::kVariable, decl.pos)) continue;
      const auto lo = fold_const(decl.lo, "range bound");
      const auto hi = fold_const(decl.hi, "range bound");
      if (!lo || !hi) continue;
      std::int64_t init = 0;
      if (decl.init) {
        const auto v = fold_const(decl.init, "initial value");
        if (!v) continue;
        init = *v;
      } else if (*lo > 0 || *hi < 0) {
        init = *lo;  // 0 is outside the range: default to the low bound
      }
      if (!fits_i32(*lo) || !fits_i32(*hi) || !fits_i32(init)) {
        error(decl.pos,
                    util::format("'%s': range bounds and initial value must "
                                 "fit a 32-bit integer",
                                 decl.name.c_str()));
        continue;
      }
      try {
        if (decl.size) {
          const auto size = fold_const(decl.size, "array size");
          if (!size) continue;
          if (*size < 1 || *size > (1 << 20)) {
            error(decl.pos,
                        util::format("array size must be in [1, 2^20], got %lld",
                                     static_cast<long long>(*size)));
            continue;
          }
          sys_->data().add_array(decl.name, static_cast<std::uint32_t>(*size),
                                 static_cast<std::int32_t>(*lo),
                                 static_cast<std::int32_t>(*hi),
                                 static_cast<std::int32_t>(init));
        } else {
          sys_->data().add_scalar(decl.name, static_cast<std::int32_t>(*lo),
                                  static_cast<std::int32_t>(*hi),
                                  static_cast<std::int32_t>(init));
        }
      } catch (const ModelError& e) {
        error(decl.pos, e.what());
      }
    }
  }

  // ── templates ───────────────────────────────────────────────────────
  struct TemplateInfo {
    const TemplateDeclAst* decl = nullptr;
    std::int64_t lo = 0, hi = -1;
    bool range_ok = false;
  };

  // Templates live in their own namespace — they never appear in
  // expressions or purposes, only after `system` with a '(' — so a
  // single instantiation may reuse the template's own name (`system
  // IUT(N) as IUT`).
  void register_templates() {
    for (const TemplateDeclAst& tpl : ast_.templates) {
      const std::string& name = tpl.body.name;
      if (templates_.contains(name)) {
        error(tpl.pos, util::format("duplicate template '%s'", name.c_str()));
        continue;
      }
      if (const auto it = names_.find(name); it != names_.end()) {
        error(tpl.pos,
              util::format("'%s' is already declared as %s and cannot also "
                           "name a template",
                           name.c_str(), to_string(it->second)));
        continue;
      }
      check_binder_shadow(tpl.param, tpl.param_pos, "template parameter");
      TemplateInfo info;
      info.decl = &tpl;
      const auto lo = fold_const(tpl.range_lo, "template parameter range");
      const auto hi = fold_const(tpl.range_hi, "template parameter range");
      if (lo && hi) {
        if (*lo > *hi) {
          error(tpl.param_pos,
                util::format("template parameter range %lld..%lld is empty",
                             static_cast<long long>(*lo),
                             static_cast<long long>(*hi)));
        } else {
          info.lo = *lo;
          info.hi = *hi;
          info.range_ok = true;
        }
      }
      templates_.emplace(name, info);
    }
  }

  // A template parameter or `for` variable must not shadow a declared
  // name — `template P(w : ...)` with a clock `w` would silently turn
  // every clock constraint into folded arithmetic.
  void check_binder_shadow(const std::string& name, Pos pos,
                           const char* what) {
    if (const auto it = names_.find(name); it != names_.end()) {
      error(pos, util::format("%s '%s' shadows %s", what, name.c_str(),
                              to_string(it->second)));
      return;
    }
    for (const auto& [scoped_name, value] : scoped_) {
      if (scoped_name == name) {
        error(pos, util::format("%s '%s' shadows an enclosing parameter",
                                what, name.c_str()));
        return;
      }
    }
  }

  void elaborate_instantiation(const InstantiationAst& inst) {
    for (const InstItemAst& item : inst.items) {
      const auto it = templates_.find(item.template_name);
      if (it == templates_.end()) {
        const auto known = names_.find(item.template_name);
        error(item.pos,
              known == names_.end()
                  ? util::format("unknown template '%s'",
                                 item.template_name.c_str())
                  : util::format("'%s' is %s, not a template",
                                 item.template_name.c_str(),
                                 to_string(known->second)));
        continue;
      }
      if (item.loop_var.empty()) {
        const auto arg = fold_const(item.arg, "instantiation argument");
        if (!arg) continue;
        instantiate(it->second, item, *arg, item.as_name);
        continue;
      }
      // Comprehension: `system P(expr-of-i) for i in lo..hi`.
      check_binder_shadow(item.loop_var, item.loop_var_pos,
                          "comprehension variable");
      const auto lo = fold_const(item.loop_lo, "comprehension range");
      const auto hi = fold_const(item.loop_hi, "comprehension range");
      if (!lo || !hi) continue;
      if (!fits_i32(*lo) || !fits_i32(*hi)) {
        error(item.loop_var_pos,
              "comprehension range bounds must fit a 32-bit integer");
        continue;
      }
      if (*hi - *lo + 1 > kMaxInstances) {
        error(item.loop_var_pos,
              util::format("comprehension stamps more than %d instances",
                           kMaxInstances));
        continue;
      }
      for (std::int64_t v = *lo; v <= *hi; ++v) {
        scoped_.push_back({item.loop_var, v});
        const auto arg = fold_const(item.arg, "instantiation argument");
        scoped_.pop_back();
        if (!arg) break;
        instantiate(it->second, item, *arg, std::string());
      }
    }
  }

  void instantiate(const TemplateInfo& info, const InstItemAst& item,
                   std::int64_t arg, const std::string& as_name) {
    const TemplateDeclAst& tpl = *info.decl;
    if (info.range_ok && (arg < info.lo || arg > info.hi)) {
      error(item.pos,
            util::format("cannot instantiate %s(%lld): the argument is "
                         "outside the declared parameter range %lld..%lld",
                         tpl.body.name.c_str(), static_cast<long long>(arg),
                         static_cast<long long>(info.lo),
                         static_cast<long long>(info.hi)));
      return;
    }
    if (++stamped_count_ > kMaxInstances) {
      if (stamped_count_ == kMaxInstances + 1) {
        error(item.pos,
              util::format("more than %d stamped processes", kMaxInstances));
      }
      return;
    }
    const std::string name =
        !as_name.empty()
            ? as_name
            : tpl.body.name + std::to_string(arg);
    // An `as` name may not hijack a *different* template's name.
    if (name != tpl.body.name && templates_.contains(name)) {
      error(item.as_pos,
            util::format("instance name '%s' is already a template name",
                         name.c_str()));
      return;
    }
    if (!declare_name(name, NameKind::kProcess, item.pos)) return;
    trace_.push_back({util::format("in %s(%lld), instantiated",
                                   tpl.body.name.c_str(),
                                   static_cast<long long>(arg)),
                      item.pos});
    scoped_.push_back({tpl.param, arg});
    elaborate_process_named(tpl.body, name);
    scoped_.pop_back();
    trace_.pop_back();
  }

  // ── processes ───────────────────────────────────────────────────────
  void elaborate_process(const ProcessDeclAst& decl) {
    if (templates_.contains(decl.name)) {
      error(decl.pos,
            util::format("process '%s' collides with a template of the same "
                         "name",
                         decl.name.c_str()));
      return;
    }
    if (!declare_name(decl.name, NameKind::kProcess, decl.pos)) return;
    elaborate_process_named(decl, decl.name);
  }

  // Lowers a (possibly stamped) process body; `name` is the declared or
  // stamped instance name, already registered in the global namespace.
  void elaborate_process_named(const ProcessDeclAst& decl,
                               const std::string& name) {
    Process& proc = sys_->add_process(
        name, decl.controllable_default
                  ? Controllability::kControllable
                  : Controllability::kUncontrollable);

    std::unordered_map<std::string, LocId> locs;
    for (const LocDeclAst& loc : decl.locations) {
      if (locs.contains(loc.name)) {
        error(loc.pos,
              util::format("duplicate location '%s' in process '%s'",
                           loc.name.c_str(), name.c_str()));
        continue;
      }
      locs.emplace(loc.name, proc.add_location(loc.name, loc.kind));
    }

    for (const LocDeclAst& loc : decl.locations) {
      const auto it = locs.find(loc.name);
      if (it == locs.end()) continue;
      for (const ExprPtr& inv : loc.invariants) {
        for (const ExprAst* atom : split_conjuncts(inv)) {
          std::vector<ClockConstraint> cs;
          if (lower_clock_constraint(*atom, cs)) {
            for (const ClockConstraint& c : cs) {
              proc.set_invariant(it->second, c);
            }
          } else {
            error(atom->pos,
                  "invariants may only constrain clocks (e.g. 'x <= 3')");
          }
        }
      }
    }

    if (decl.init_loc.empty()) {
      error(decl.pos, util::format("process '%s' has no 'init' "
                                   "declaration",
                                   name.c_str()));
    } else if (const auto it = locs.find(decl.init_loc); it != locs.end()) {
      proc.set_initial(it->second);
    } else {
      error(decl.init_pos,
            util::format("unknown initial location '%s' in process '%s'",
                         decl.init_loc.c_str(), name.c_str()));
    }

    std::int64_t edge_budget = kMaxEdgesPerProcess;
    elaborate_items(proc, name, locs, decl.items, edge_budget);
  }

  // Stamps the edges of a body in declaration order, expanding `for`
  // blocks.  `edge_budget` bounds the total stamped edges of one
  // process so a hostile range cannot explode the system.
  void elaborate_items(Process& proc, const std::string& pname,
                       const std::unordered_map<std::string, LocId>& locs,
                       const std::vector<ProcessItemAst>& items,
                       std::int64_t& edge_budget) {
    for (const ProcessItemAst& item : items) {
      if (edge_budget < 0) return;
      if (item.edge) {
        if (--edge_budget < 0) {
          error(item.edge->pos,
                util::format("process '%s' stamps more than %d edges",
                             pname.c_str(), kMaxEdgesPerProcess));
          return;
        }
        elaborate_edge(proc, pname, locs, *item.edge);
      } else if (item.loop) {
        elaborate_for(proc, pname, locs, *item.loop, edge_budget);
      }
    }
  }

  void elaborate_for(Process& proc, const std::string& pname,
                     const std::unordered_map<std::string, LocId>& locs,
                     const ForBlockAst& fb, std::int64_t& edge_budget) {
    check_binder_shadow(fb.var, fb.var_pos, "loop variable");
    const auto lo = fold_const(fb.lo, "'for' range bound");
    const auto hi = fold_const(fb.hi, "'for' range bound");
    if (!lo || !hi) return;
    // Bound the iteration count up front (not just the stamped edges):
    // an empty body over a huge — or int64-overflowing — range must
    // fail fast, not spin.  With 32-bit bounds the arithmetic below is
    // exact.
    if (!fits_i32(*lo) || !fits_i32(*hi)) {
      error(fb.pos, "'for' range bounds must fit a 32-bit integer");
      return;
    }
    if (*hi - *lo >= kMaxEdgesPerProcess) {
      error(fb.pos,
            util::format("'for' range spans more than %d iterations",
                         kMaxEdgesPerProcess));
      return;
    }
    // An empty range (lo > hi) stamps nothing — the n = 0 corner of a
    // template is a model with fewer edges, not an error.
    for (std::int64_t v = *lo; v <= *hi && edge_budget >= 0; ++v) {
      scoped_.push_back({fb.var, v});
      trace_.push_back({util::format("in 'for' iteration %s = %lld",
                                     fb.var.c_str(),
                                     static_cast<long long>(v)),
                        fb.pos});
      elaborate_items(proc, pname, locs, fb.items, edge_budget);
      trace_.pop_back();
      scoped_.pop_back();
    }
  }

  void elaborate_edge(Process& proc, const std::string& pname,
                      const std::unordered_map<std::string, LocId>& locs,
                      const EdgeDeclAst& edge) {
    // Resolve everything before bailing out, so one pass also surfaces
    // the guard/sync/update mistakes of an edge with a bad endpoint.
    const auto src = locs.find(edge.src);
    if (src == locs.end()) {
      error(edge.src_pos,
            util::format("unknown location '%s' in process '%s'",
                         edge.src.c_str(), pname.c_str()));
    }
    const auto dst = locs.find(edge.dst);
    if (dst == locs.end()) {
      error(edge.dst_pos,
            util::format("unknown location '%s' in process '%s'",
                         edge.dst.c_str(), pname.c_str()));
    }
    std::optional<tsystem::EdgeBuilder> builder;
    if (src != locs.end() && dst != locs.end()) {
      builder.emplace(proc.add_edge(src->second, dst->second));
    }

    if (edge.sync) {
      if (const auto name = resolve_sync_channel(*edge.sync)) {
        const auto chan = channels_.find(*name);
        if (chan == channels_.end()) {
          const auto known = names_.find(*name);
          error(edge.sync->pos,
                known == names_.end()
                    ? util::format("unknown channel '%s'", name->c_str())
                    : util::format("'%s' is %s, not a channel",
                                   name->c_str(),
                                   to_string(known->second)));
        } else if (builder) {
          if (edge.sync->send) {
            builder->send(chan->second);
          } else {
            builder->receive(chan->second);
          }
        }
      }
    }

    for (const ExprPtr& guard : edge.guards) {
      for (const ExprAst* atom : split_conjuncts(guard)) {
        std::vector<ClockConstraint> cs;
        if (lower_clock_constraint(*atom, cs)) {
          if (builder) {
            for (const ClockConstraint& c : cs) builder->guard(c);
          }
        } else {
          const Expr g = lower_expr(*atom);
          if (builder && !g.is_null()) builder->provided(g);
        }
      }
    }

    for (const UpdateAst& update : edge.updates) {
      elaborate_update(builder ? &*builder : nullptr, update);
    }

    if (builder && edge.ctrl_override) {
      builder->controllable(*edge.ctrl_override);
    }
    if (builder && !edge.label.empty()) builder->comment(edge.label);
  }

  // Resolves a sync to the concrete channel name: plain channels pass
  // through, `chan[i]` folds the index into a channel-array member.
  // Returns nullopt when an error was already reported here.
  std::optional<std::string> resolve_sync_channel(const SyncAst& sync) {
    const auto array = chan_arrays_.find(sync.channel);
    if (!sync.index) {
      if (array != chan_arrays_.end()) {
        error(sync.pos,
              util::format("channel array '%s' needs an index ('%s[i]%c')",
                           sync.channel.c_str(), sync.channel.c_str(),
                           sync.send ? '!' : '?'));
        return std::nullopt;
      }
      return sync.channel;
    }
    if (array == chan_arrays_.end()) {
      const auto known = names_.find(sync.channel);
      error(sync.pos,
            known == names_.end()
                ? util::format("unknown channel array '%s'",
                               sync.channel.c_str())
                : util::format("'%s' is %s, not a channel array",
                               sync.channel.c_str(),
                               to_string(known->second)));
      return std::nullopt;
    }
    const auto index = fold_const(sync.index, "channel index");
    if (!index) return std::nullopt;
    if (*index < 0 || *index >= array->second) {
      error(sync.index->pos,
            util::format("channel index %lld is outside '%s[0..%lld]'",
                         static_cast<long long>(*index),
                         sync.channel.c_str(),
                         static_cast<long long>(array->second - 1)));
      return std::nullopt;
    }
    return util::format("%s[%lld]", sync.channel.c_str(),
                        static_cast<long long>(*index));
  }

  // `builder` may be null (the edge had an unresolvable endpoint); the
  // update is still checked for its own errors.
  void elaborate_update(tsystem::EdgeBuilder* builder,
                        const UpdateAst& update) {
    if (const auto clock = sys_->find_clock(update.target)) {
      if (update.index || update.whole_array) {
        error(update.pos, util::format("clock '%s' cannot be indexed",
                                       update.target.c_str()));
        return;
      }
      const auto value = fold_const(update.rhs, "clock reset value");
      if (!value) return;
      if (*value < 0 || *value >= tigat::dbm::kMaxBoundValue) {
        error(update.pos,
              util::format("clock reset value must be a constant in "
                           "[0, 2^28), got %lld",
                           static_cast<long long>(*value)));
        return;
      }
      if (builder) {
        builder->reset(*clock,
                       static_cast<tigat::dbm::bound_t>(*value));
      }
      return;
    }

    const auto var = sys_->data().find(update.target);
    if (!var) {
      for (const auto& [scoped_name, value] : scoped_) {
        if (scoped_name == update.target) {
          error(update.pos,
                util::format("'%s' is a template parameter or 'for' "
                             "variable and cannot be assigned",
                             update.target.c_str()));
          return;
        }
      }
      const auto known = names_.find(update.target);
      error(update.pos,
            known == names_.end()
                ? util::format("unknown clock or variable '%s'",
                               update.target.c_str())
                : util::format("'%s' is %s and cannot be assigned",
                               update.target.c_str(),
                               to_string(known->second)));
      return;
    }
    const bool is_array = sys_->data().decl(*var).is_array();
    if (update.whole_array && !is_array) {
      error(update.pos,
            util::format("whole-array assignment '%s[] := ...' needs an "
                         "array; '%s' is a scalar",
                         update.target.c_str(), update.target.c_str()));
      return;
    }
    if (is_array && !update.index && !update.whole_array) {
      error(update.pos,
            util::format("array '%s' needs an index in assignments "
                         "(or '%s[] := ...' for every cell)",
                         update.target.c_str(), update.target.c_str()));
      return;
    }
    if (!is_array && update.index) {
      error(update.pos, util::format("'%s' is not an array",
                                     update.target.c_str()));
      return;
    }
    const Expr rhs = lower_expr(*update.rhs);
    if (rhs.is_null()) return;
    if (update.whole_array) {
      // `A[] := e` expands to one per-cell assignment, in index order;
      // `e` is evaluated per cell (it may not reference the index).
      if (builder) {
        const std::uint32_t size = sys_->data().decl(*var).size;
        for (std::uint32_t k = 0; k < size; ++k) {
          builder->assign_elem(*var, Expr::constant(k), rhs);
        }
      }
      return;
    }
    if (update.index) {
      const Expr index = lower_expr(*update.index);
      if (index.is_null()) return;
      if (builder) builder->assign_elem(*var, index, rhs);
    } else if (builder) {
      builder->assign(*var, rhs);
    }
  }

  // ── guard classification ────────────────────────────────────────────
  // Splits top-level `&&` into the atoms the System API wants.
  std::vector<const ExprAst*> split_conjuncts(const ExprPtr& e) {
    std::vector<const ExprAst*> out;
    split_conjuncts(e.get(), out);
    return out;
  }
  void split_conjuncts(const ExprAst* e, std::vector<const ExprAst*>& out) {
    if (e == nullptr) return;
    if (e->kind == ExprAst::Kind::kBinary && e->bin_op == BinOp::kAnd) {
      split_conjuncts(e->lhs.get(), out);
      split_conjuncts(e->rhs.get(), out);
      return;
    }
    out.push_back(e);
  }

  // A clock operand: `x` or `x - y` with both names clocks.
  struct ClockOperand {
    std::uint32_t i = 0, j = 0;  // x_i − x_j (j = 0 for a plain clock)
  };
  [[nodiscard]] std::optional<ClockOperand> as_clock_operand(
      const ExprAst& e) const {
    if (const auto c = clock_named(e)) return ClockOperand{c->id, 0};
    if (e.kind == ExprAst::Kind::kBinary && e.bin_op == BinOp::kSub) {
      const auto a = clock_named(*e.lhs);
      const auto b = clock_named(*e.rhs);
      if (a && b) return ClockOperand{a->id, b->id};
    }
    return std::nullopt;
  }
  // A qualified `P.x` is never a clock: it fails in lower_expr instead.
  [[nodiscard]] std::optional<tsystem::Clock> clock_named(
      const ExprAst& e) const {
    if (e.kind != ExprAst::Kind::kName || !e.process.empty()) {
      return std::nullopt;
    }
    return sys_->find_clock(e.name);
  }

  // Lowers `atom` into `out` when it is a clock constraint; returns
  // false when the atom belongs to the data world instead.
  bool lower_clock_constraint(const ExprAst& atom,
                              std::vector<ClockConstraint>& out) {
    if (atom.kind != ExprAst::Kind::kBinary) return false;
    BinOp op = atom.bin_op;
    if (op != BinOp::kEq && op != BinOp::kNe && op != BinOp::kLt &&
        op != BinOp::kLe && op != BinOp::kGt && op != BinOp::kGe) {
      return false;
    }
    std::optional<ClockOperand> clk = as_clock_operand(*atom.lhs);
    const ExprAst* bound_side = atom.rhs.get();
    if (!clk) {
      clk = as_clock_operand(*atom.rhs);
      if (!clk) return false;
      bound_side = atom.lhs.get();
      // Mirror: `c < x` ⇔ `x > c`.
      switch (op) {
        case BinOp::kLt: op = BinOp::kGt; break;
        case BinOp::kLe: op = BinOp::kGe; break;
        case BinOp::kGt: op = BinOp::kLt; break;
        case BinOp::kGe: op = BinOp::kLe; break;
        default: break;
      }
    }
    if (op == BinOp::kNe) {
      error(atom.pos, "'!=' is not a convex clock constraint");
      out.clear();
      return true;  // consumed (do not fall back to the data world)
    }
    const auto value = fold_const_expr(*bound_side);
    if (!value) {
      error(bound_side->pos,
                  "clock comparisons need a constant integer bound");
      out.clear();
      return true;
    }
    if (*value <= -tigat::dbm::kMaxBoundValue ||
        *value >= tigat::dbm::kMaxBoundValue) {
      error(bound_side->pos, "clock bound is out of range");
      out.clear();
      return true;
    }
    const auto c = static_cast<tigat::dbm::bound_t>(*value);
    const std::uint32_t i = clk->i, j = clk->j;
    switch (op) {
      case BinOp::kLt:
        out.push_back({i, j, tigat::dbm::make_strict(c)});
        break;
      case BinOp::kLe:
        out.push_back({i, j, tigat::dbm::make_weak(c)});
        break;
      case BinOp::kGt:
        out.push_back({j, i, tigat::dbm::make_strict(-c)});
        break;
      case BinOp::kGe:
        out.push_back({j, i, tigat::dbm::make_weak(-c)});
        break;
      case BinOp::kEq:
        out.push_back({i, j, tigat::dbm::make_weak(c)});
        out.push_back({j, i, tigat::dbm::make_weak(-c)});
        break;
      default:
        break;
    }
    return true;
  }

  static constexpr int kMaxChannelArray = 1024;
  static constexpr int kMaxInstances = 1024;
  static constexpr int kMaxEdgesPerProcess = 65536;

  const ModelAst& ast_;
  const std::string& fallback_name_;
  const CompileOptions& options_;
  std::optional<System> sys_;
  std::unordered_map<std::string, NameKind> names_;
  std::unordered_map<std::string, ChannelId> channels_;
  std::unordered_map<std::string, std::int64_t> chan_arrays_;
  std::unordered_map<std::string, TemplateInfo> templates_;
  int stamped_count_ = 0;
};

}  // namespace

std::optional<TestPurpose> lower_purpose(const ControlDeclAst& decl,
                                         const System& system,
                                         DiagnosticSink& sink) {
  return Lowering(&system, sink).lower_control(decl);
}

std::optional<ElaboratedModel> elaborate(const ModelAst& ast,
                                         const std::string& fallback_name,
                                         DiagnosticSink& sink,
                                         const CompileOptions& options) {
  return Elaborator(ast, fallback_name, sink, options).run();
}

}  // namespace tigat::lang
