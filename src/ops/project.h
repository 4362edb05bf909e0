#ifndef DATACELL_OPS_PROJECT_H_
#define DATACELL_OPS_PROJECT_H_

#include <string>
#include <vector>

#include "column/table.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "util/status.h"

namespace datacell::ops {

/// One output column of a projection: an expression and its output name —
/// covers both projection and the stream `map` operation of §5.
struct ProjectionItem {
  ExprPtr expr;
  std::string name;
};

/// Evaluates each item over `table` and assembles the result table. If
/// `sel` is non-null, only those rows are evaluated/emitted.
Result<Table> Project(const Table& table,
                      const std::vector<ProjectionItem>& items,
                      const EvalContext& ctx, const SelVector* sel = nullptr);

}  // namespace datacell::ops

#endif  // DATACELL_OPS_PROJECT_H_
