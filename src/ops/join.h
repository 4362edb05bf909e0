#ifndef DATACELL_OPS_JOIN_H_
#define DATACELL_OPS_JOIN_H_

#include <string>
#include <utility>
#include <vector>

#include "column/table.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "util/status.h"

namespace datacell::ops {

/// Equi-join key pair (column names in the respective inputs).
struct JoinKey {
  std::string left;
  std::string right;
};

/// Matching row-pair lists (parallel vectors; unsorted, duplicates allowed).
struct JoinMatches {
  SelVector left;
  SelVector right;
};

/// Hash equi-join on one or more keys (inner join). Builds on the smaller
/// input. Null keys never match. Works over self-joins (pass the same table
/// twice), which the Linear Road queries need.
Result<JoinMatches> HashJoinIndices(const Table& left, const Table& right,
                                    const std::vector<JoinKey>& keys);

/// Theta join: every pair satisfying `predicate`, evaluated over a combined
/// row (left columns first, right columns renamed on collision with a "r_"
/// prefix). O(n*m); used for the benchmark's theta joins where no equi-key
/// exists.
Result<JoinMatches> NestedLoopJoin(const Table& left, const Table& right,
                                   const Expr& predicate,
                                   const EvalContext& ctx);

/// Materializes matches into a result table: left columns then right
/// columns; a right column whose name collides gets a "r_" prefix.
Result<Table> MaterializeJoin(const Table& left, const Table& right,
                              const JoinMatches& matches);

}  // namespace datacell::ops

#endif  // DATACELL_OPS_JOIN_H_
