// Test purposes: the annotated TCTL subset of the paper (Sec. 2.4).
//
//   control: A<> φ     — reachability game: the tester can force φ
//   control: A[] φ     — safety game: the tester can maintain φ
//
// φ is a boolean state formula over process locations and data
// variables, with bounded `forall`/`exists` quantifiers, e.g. the
// paper's LEP purposes:
//
//   control: A<> (IUT.betterInfo == 1) && IUT.forward
//   control: A<> forall (i : inUse) inUse[i] == 1
//   control: A<> (forall (i : inUse) inUse[i] == 1) && IUT.idle
//
// φ is written in the .tg expression language, with its precedence
// (README.md, "Formulas").  `forall (i : a..b)` ranges over the integer
// interval; `forall (i : arr)` abbreviates 0..size(arr)-1 for a declared
// array.  Both `&&/and` `||/or` `!/not` spellings are accepted.  A bare
// data expression in boolean position means `expr != 0`; a qualified
// `Proc.Name` resolves to a location atom if the process has such a
// location, otherwise to the variable `Name`.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "tsystem/system.h"

namespace tigat::tsystem {

struct FormulaNode;  // opaque

// Boolean formula over (location vector, data state).
class StateFormula {
 public:
  StateFormula() = default;
  [[nodiscard]] bool is_null() const { return node_ == nullptr; }

  static StateFormula location(std::uint32_t process, LocId loc);
  static StateFormula data(Expr boolean_expr);
  static StateFormula conj(StateFormula a, StateFormula b);
  static StateFormula disj(StateFormula a, StateFormula b);
  static StateFormula neg(StateFormula a);
  static StateFormula forall(std::int64_t lo, std::int64_t hi, StateFormula body);
  static StateFormula exists(std::int64_t lo, std::int64_t hi, StateFormula body);

  [[nodiscard]] bool eval(std::span<const LocId> locations,
                          const DataState& state, const DataLayout& layout,
                          BoundEnv& env) const;
  [[nodiscard]] bool eval(std::span<const LocId> locations,
                          const DataState& state,
                          const DataLayout& layout) const {
    BoundEnv env;
    return eval(locations, state, layout, env);
  }

  [[nodiscard]] std::string to_string(const System& system) const;

 private:
  explicit StateFormula(std::shared_ptr<const FormulaNode> node)
      : node_(std::move(node)) {}
  std::shared_ptr<const FormulaNode> node_;
};

enum class PurposeKind : std::uint8_t {
  kReach,   // control: A<> φ
  kSafety,  // control: A[] φ
};

// A parsed test purpose, ready for the game solver.
struct TestPurpose {
  PurposeKind kind = PurposeKind::kReach;
  StateFormula formula;
  std::string source;  // original text, for reports

  // Parses `control: A<> φ` / `control: A[] φ` with the .tg front end
  // (defined in src/lang/lang.cpp, so tsystem does not depend on lang).
  // Throws ModelError with a position-annotated message on bad input.
  static TestPurpose parse(const System& system, std::string_view text);

  // Programmatic construction.
  static TestPurpose reach(StateFormula formula, std::string label = {});
  static TestPurpose safety(StateFormula formula, std::string label = {});
};

}  // namespace tigat::tsystem
