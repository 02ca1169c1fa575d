#include "tsystem/property.h"

#include <utility>

#include "util/assert.h"
#include "util/text.h"

namespace tigat::tsystem {

// ── formula AST ───────────────────────────────────────────────────────

struct FormulaNode {
  enum class Kind : std::uint8_t {
    kLocation, kData, kAnd, kOr, kNot, kForall, kExists,
  };
  Kind kind;
  std::uint32_t process = 0;
  LocId loc = 0;
  Expr expr;                 // kData
  std::int64_t lo = 0, hi = 0;  // quantifiers
  std::shared_ptr<const FormulaNode> lhs;
  std::shared_ptr<const FormulaNode> rhs;
};

using FKind = FormulaNode::Kind;

StateFormula StateFormula::location(std::uint32_t process, LocId loc) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kLocation;
  n->process = process;
  n->loc = loc;
  return StateFormula(std::move(n));
}

StateFormula StateFormula::data(Expr boolean_expr) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kData;
  n->expr = std::move(boolean_expr);
  return StateFormula(std::move(n));
}

StateFormula StateFormula::conj(StateFormula a, StateFormula b) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kAnd;
  n->lhs = std::move(a.node_);
  n->rhs = std::move(b.node_);
  return StateFormula(std::move(n));
}

StateFormula StateFormula::disj(StateFormula a, StateFormula b) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kOr;
  n->lhs = std::move(a.node_);
  n->rhs = std::move(b.node_);
  return StateFormula(std::move(n));
}

StateFormula StateFormula::neg(StateFormula a) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kNot;
  n->lhs = std::move(a.node_);
  return StateFormula(std::move(n));
}

StateFormula StateFormula::forall(std::int64_t lo, std::int64_t hi,
                                  StateFormula body) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kForall;
  n->lo = lo;
  n->hi = hi;
  n->lhs = std::move(body.node_);
  return StateFormula(std::move(n));
}

StateFormula StateFormula::exists(std::int64_t lo, std::int64_t hi,
                                  StateFormula body) {
  auto n = std::make_shared<FormulaNode>();
  n->kind = FKind::kExists;
  n->lo = lo;
  n->hi = hi;
  n->lhs = std::move(body.node_);
  return StateFormula(std::move(n));
}

namespace {

bool eval_node(const FormulaNode* n, std::span<const LocId> locs,
               const DataState& state, const DataLayout& layout,
               BoundEnv& env) {
  switch (n->kind) {
    case FKind::kLocation:
      return locs[n->process] == n->loc;
    case FKind::kData:
      return n->expr.eval(state, layout, env) != 0;
    case FKind::kAnd:
      return eval_node(n->lhs.get(), locs, state, layout, env) &&
             eval_node(n->rhs.get(), locs, state, layout, env);
    case FKind::kOr:
      return eval_node(n->lhs.get(), locs, state, layout, env) ||
             eval_node(n->rhs.get(), locs, state, layout, env);
    case FKind::kNot:
      return !eval_node(n->lhs.get(), locs, state, layout, env);
    case FKind::kForall:
      for (std::int64_t i = n->lo; i <= n->hi; ++i) {
        env.push_back(i);
        const bool ok = eval_node(n->lhs.get(), locs, state, layout, env);
        env.pop_back();
        if (!ok) return false;
      }
      return true;
    case FKind::kExists:
      for (std::int64_t i = n->lo; i <= n->hi; ++i) {
        env.push_back(i);
        const bool ok = eval_node(n->lhs.get(), locs, state, layout, env);
        env.pop_back();
        if (ok) return true;
      }
      return false;
  }
  TIGAT_ASSERT(false, "unreachable formula kind");
  return false;
}

std::string print_node(const FormulaNode* n, const System& sys,
                       std::uint32_t depth) {
  switch (n->kind) {
    case FKind::kLocation:
      return sys.processes()[n->process].name() + "." +
             sys.processes()[n->process].locations()[n->loc].name;
    case FKind::kData:
      return n->expr.to_string(sys.data());
    case FKind::kAnd:
      return "(" + print_node(n->lhs.get(), sys, depth) + " && " +
             print_node(n->rhs.get(), sys, depth) + ")";
    case FKind::kOr:
      return "(" + print_node(n->lhs.get(), sys, depth) + " || " +
             print_node(n->rhs.get(), sys, depth) + ")";
    case FKind::kNot:
      return "!" + print_node(n->lhs.get(), sys, depth);
    case FKind::kForall:
    case FKind::kExists:
      return util::format("%s (i%u : %lld..%lld) ",
                          n->kind == FKind::kForall ? "forall" : "exists",
                          depth, static_cast<long long>(n->lo),
                          static_cast<long long>(n->hi)) +
             print_node(n->lhs.get(), sys, depth + 1);
  }
  return "?";
}

}  // namespace

bool StateFormula::eval(std::span<const LocId> locations,
                        const DataState& state, const DataLayout& layout,
                        BoundEnv& env) const {
  TIGAT_ASSERT(node_ != nullptr, "eval of null formula");
  return eval_node(node_.get(), locations, state, layout, env);
}

std::string StateFormula::to_string(const System& system) const {
  if (is_null()) return "true";
  return print_node(node_.get(), system, 0);
}

TestPurpose TestPurpose::reach(StateFormula formula, std::string label) {
  TestPurpose p;
  p.kind = PurposeKind::kReach;
  p.formula = std::move(formula);
  p.source = std::move(label);
  return p;
}

TestPurpose TestPurpose::safety(StateFormula formula, std::string label) {
  TestPurpose p;
  p.kind = PurposeKind::kSafety;
  p.formula = std::move(formula);
  p.source = std::move(label);
  return p;
}

}  // namespace tigat::tsystem
