#ifndef DATACELL_SQL_PLANNER_H_
#define DATACELL_SQL_PLANNER_H_

#include <map>
#include <string>
#include <vector>

#include "column/type.h"
#include "expr/expr.h"
#include "ops/join.h"
#include "util/status.h"

namespace datacell::sql {

/// The join plan for a two-source FROM clause: hash-join keys plus a
/// residual predicate (evaluated over the combined table; null if the whole
/// WHERE was absorbed into keys). When `keys` is empty the executor falls
/// back to a nested-loop theta join over the full predicate.
struct EquiJoinPlan {
  std::vector<ops::JoinKey> keys;
  ExprPtr residual;
};

/// Splits a predicate (already resolved to combined-table column names)
/// into equality join keys and a residual. `left_columns` names the left
/// input's columns. `combined_to_right` maps a combined-table column name
/// to the column's name in the right input (right columns may have been
/// renamed with an "r_" prefix on collision); any combined name not in
/// this map belongs to the left input.
Result<EquiJoinPlan> ExtractEquiJoin(
    const ExprPtr& where_combined, const std::vector<std::string>& left_columns,
    const std::map<std::string, std::string>& combined_to_right);

}  // namespace datacell::sql

#endif  // DATACELL_SQL_PLANNER_H_
