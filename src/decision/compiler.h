// Strategy → DecisionTable compilation.
//
// For every discrete key the compiler materialises the decision
// cascade Strategy::decide evaluates on the fly:
//
//   for each delta (round order):                 # rank = first hit
//     round 0                   → goal
//     per controllable out-edge → action  (region ∩ delta, edge order)
//     remainder of the delta    → delay   (candidate zones attached)
//   no delta                    → unwinnable
//
// and lowers the first-federation-wins cascade into an interval-test
// DAG: pick a difference constraint of the first still-live federation
// that properly splits the current path zone, recurse on both sides,
// and emit a leaf as soon as the first live federation covers the path
// zone.  Consecutive tests of the same clock difference fuse into one
// multi-arc node (bounds stay strictly sorted), and nodes, leaves,
// zones and delay slices are hash-consed into shared pools, so equal
// sub-decisions — frequent across ranks and keys — are stored once.
//
// Fragment + pack.  The keys are split into fixed contiguous ranges,
// lowered in parallel on a util::ThreadPool as wide as the solve that
// built the solution (GameSolution::worker_count; games of under a
// thousand keys compile inline).  Each range yields an uncompacted
// FRAGMENT with its own content-interned pools.  A packer then walks
// the fragments in key order, keeps only what the key roots reach
// (fusion strands intermediate nodes) and hash-conses every record by
// content in packed space, numbering in post-order DFS from the roots;
// each fragment is freed as soon as it is packed.
//
// The construction is exact (no sampling): on every concrete state
// with integral non-negative ticks, walking the DAG reproduces
// Strategy::decide bit for bit, because each path zone is partitioned
// by the very bounds the federations are made of and delay leaves
// carry the exact member zones whose earliest_entry_delay Strategy
// minimises.  Compilation is deterministic at any worker count — the
// packed numbering depends only on content and key order, not on where
// the ranges were cut — so the same solution gives the same table and
// byte-stable .tgs files (tests/compile_determinism_test).
#pragma once

#include "decision/table.h"
#include "game/solver.h"
#include "game/strategy.h"

namespace tigat::decision {

struct CompileStats {
  std::size_t cascade_entries = 0;  // federation rows before lowering
  std::size_t nodes_built = 0;      // before hash-consing hits
  double compile_seconds = 0.0;
};

// Compiles the solved game into a self-contained decision table.
[[nodiscard]] DecisionTable compile(const game::GameSolution& solution,
                                    CompileStats* stats = nullptr);

[[nodiscard]] inline DecisionTable compile(const game::Strategy& strategy,
                                           CompileStats* stats = nullptr) {
  return compile(strategy.solution(), stats);
}

}  // namespace tigat::decision
