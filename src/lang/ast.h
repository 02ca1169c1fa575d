// Abstract syntax of the .tg model language.
//
// The AST is a faithful, name-based picture of the source — nothing is
// resolved yet.  Identifiers stay strings, integer expressions stay
// trees, and every node keeps the Pos of its defining token so the
// elaborator can report resolution errors (unknown clock, duplicate
// location, ...) at the exact source position.  One expression family
// serves guards, updates, declarations and `control:` formulas alike.
// Grammar reference: README.md, "The .tg model language".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/diag.h"
#include "tsystem/property.h"
#include "tsystem/system.h"

namespace tigat::lang {

// ── expressions ───────────────────────────────────────────────────────

// Expression nodes are immutable once parsed and may be shared — a
// multi-name declaration like `int [0, 5] a, b;` reuses the bound
// expressions for every name (which is also why there is no hand-rolled
// deep clone to keep in sync with the field list).
struct ExprAst;
using ExprPtr = std::shared_ptr<const ExprAst>;

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnOp : std::uint8_t { kNeg, kNot };

struct ExprAst {
  enum class Kind : std::uint8_t {
    kNumber,      // `number`
    kName,        // `name` — clock, variable or bound variable
    kIndex,       // `name [ index ]`
    kUnary,       // `op lhs`
    kBinary,      // `lhs op rhs`
    kQuantifier,  // forall/exists `( name : range ) body` (body = lhs)
  };

  Kind kind = Kind::kNumber;
  Pos pos;

  std::int64_t number = 0;            // kNumber
  std::string name;                   // kName, kIndex base, binder name
  std::string process;                // kName, kIndex: `Proc.` qualifier,
                                      // legal only in control: formulas
  BinOp bin_op = BinOp::kAdd;         // kBinary
  UnOp un_op = UnOp::kNeg;            // kUnary
  ExprPtr lhs;                        // kUnary operand, kBinary lhs,
                                      // kIndex index, kQuantifier body
  ExprPtr rhs;                        // kBinary rhs

  // kQuantifier: either an explicit `lo..hi` range or the name of a
  // declared array (meaning 0 .. size-1).
  bool is_forall = true;
  ExprPtr range_lo, range_hi;
  std::string range_array;
};

// ── declarations ──────────────────────────────────────────────────────

struct ClockDeclAst {
  std::string name;
  Pos pos;
};

// `chan ctrl name ;` — or `chan ctrl name [size] ;`, a channel array:
// the elaborator stamps out channels `name[0] .. name[size-1]`, which
// edges address as `name[i]!` / `name[i]?` with a constant index.
struct ChanDeclAst {
  std::string name;
  bool controllable = true;
  ExprPtr size;  // null for a plain channel
  Pos pos;
};

// `const name = expr ;` — a named compile-time integer.  The value
// expression may reference previously declared constants; the
// elaborator folds the whole chain, so constants parameterise range
// bounds, array sizes, guards, invariants and resets without ever
// existing at run time.
struct ConstDeclAst {
  std::string name;
  ExprPtr value;
  Pos pos;
};

// `int [lo , hi] name ( [size] )? ( = init )? ;` — scalar when `size`
// is null.  Omitted init defaults to 0 when the range allows it, else
// to `lo`.
struct VarDeclAst {
  std::string name;
  ExprPtr lo, hi;
  ExprPtr size;  // null for scalars
  ExprPtr init;  // null when omitted
  Pos pos;
};

struct LocDeclAst {
  std::string name;
  tsystem::LocationKind kind = tsystem::LocationKind::kNormal;
  std::vector<ExprPtr> invariants;  // conjuncts, clock constraints only
  Pos pos;
};

struct SyncAst {
  std::string channel;
  ExprPtr index;      // `chan[i]!` — addresses one member of a channel array
  bool send = false;  // `chan!` vs `chan?`
  Pos pos;
};

struct UpdateAst {
  std::string target;  // clock (reset) or variable (assignment)
  ExprPtr index;       // null for scalars/clocks
  bool whole_array = false;  // `A[] := e` — every cell, in index order
  ExprPtr rhs;
  Pos pos;
};

struct EdgeDeclAst {
  std::string src, dst;
  Pos src_pos, dst_pos;
  std::optional<SyncAst> sync;          // absent = τ edge
  std::vector<ExprPtr> guards;          // `when` conjuncts
  std::vector<UpdateAst> updates;       // `do` items
  std::optional<bool> ctrl_override;    // trailing `ctrl` / `unctrl`
  std::string label;                    // `label "..."` → Edge::comment
  Pos pos;
};

// `for (i : lo..hi) { <edges / nested for blocks> }` inside a process
// or template body — the elaborator stamps the items once per value of
// `i`, which acts as a constant inside them.  An empty range (lo > hi)
// stamps nothing.
struct ProcessItemAst;

struct ForBlockAst {
  std::string var;
  Pos var_pos;
  ExprPtr lo, hi;
  std::vector<ProcessItemAst> items;
  Pos pos;
};

// Exactly one member is engaged; declaration order is preserved so
// stamped edges land in the same order the source states them.
struct ProcessItemAst {
  std::optional<EdgeDeclAst> edge;
  std::optional<ForBlockAst> loop;
};

struct ProcessDeclAst {
  std::string name;
  bool controllable_default = false;
  std::vector<LocDeclAst> locations;
  std::vector<ProcessItemAst> items;  // edges and for-blocks, in order
  std::string init_loc;
  Pos init_pos;
  Pos pos;
};

// `template P(i : lo..hi) controlled { ... }` — a process family over
// one integer parameter.  The body reuses ProcessDeclAst (body.name is
// the template name); nothing is resolved until an instantiation
// stamps it out with a concrete parameter value.
struct TemplateDeclAst {
  std::string param;
  Pos param_pos;
  ExprPtr range_lo, range_hi;  // the legal parameter range
  ProcessDeclAst body;
  Pos pos;
};

// One item of a `system` instantiation list:
//   system P(0), P(2) as Two;          — explicit arguments
//   system P(i) for i in 0..N-1;       — comprehension over a range
// Stamped instances are named `<template><value>` (`P0`, `P1`, ...)
// unless `as` names them explicitly.
struct InstItemAst {
  std::string template_name;
  Pos pos;  // the template-name token
  ExprPtr arg;
  std::string as_name;  // optional `as` instance name (explicit form)
  Pos as_pos;
  std::string loop_var;  // non-empty: the comprehension form
  Pos loop_var_pos;
  ExprPtr loop_lo, loop_hi;
};

struct InstantiationAst {
  std::vector<InstItemAst> items;
  Pos pos;  // the `system` keyword
};

// `control: A<> φ ;` or `control: A[] φ ;` — a test purpose.  φ is an
// ordinary expression; the elaborator lowers it onto a
// tsystem::StateFormula (`&&`, `||`, `!` and quantifiers become formula
// connectives, a qualified `Proc.Loc` a location atom).
struct ControlDeclAst {
  tsystem::PurposeKind kind = tsystem::PurposeKind::kReach;
  ExprPtr formula;
  Pos pos;             // the `A` of `A<>` / `A[]`
  std::string source;  // "control: " + the source text from `A` to the
                       // last token of φ, for reports and .tgs labels
};

struct ModelAst {
  std::string system_name;  // empty: derive from the file name
  Pos system_pos;
  std::vector<ClockDeclAst> clocks;
  std::vector<ChanDeclAst> channels;
  std::vector<ConstDeclAst> constants;
  std::vector<VarDeclAst> variables;
  std::vector<TemplateDeclAst> templates;
  std::vector<ProcessDeclAst> processes;
  std::vector<InstantiationAst> instantiations;
  std::vector<ControlDeclAst> controls;

  // File order over `process` declarations and `system P(...)`
  // instantiation statements, so stamped and plain processes land in
  // the elaborated system exactly in declaration order.
  enum class UnitKind : std::uint8_t { kProcess, kInstantiation };
  struct UnitRef {
    UnitKind kind = UnitKind::kProcess;
    std::size_t index = 0;  // into `processes` or `instantiations`
  };
  std::vector<UnitRef> unit_order;
};

}  // namespace tigat::lang
