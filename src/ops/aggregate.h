#ifndef DATACELL_OPS_AGGREGATE_H_
#define DATACELL_OPS_AGGREGATE_H_

#include <string>
#include <vector>

#include "column/table.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "util/status.h"

namespace datacell::ops {

enum class AggFunc : uint8_t {
  kCountStar,  // count(*)
  kCount,      // count(expr): non-null rows
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// Parses "count"/"sum"/"avg"/"min"/"max" (case-insensitive).
Result<AggFunc> AggFuncFromName(const std::string& name, bool star);

/// One aggregate output column.
struct AggItem {
  AggFunc func;
  ExprPtr arg;  // null for kCountStar
  std::string name;
};

/// One grouping key.
struct GroupItem {
  ExprPtr expr;
  std::string name;
};

/// Hash group-by aggregation. With no group items, produces exactly one row
/// (global aggregates; count over an empty input is 0, other aggregates are
/// NULL, matching SQL).
Result<Table> Aggregate(const Table& table, const std::vector<GroupItem>& groups,
                        const std::vector<AggItem>& aggs,
                        const EvalContext& ctx);

}  // namespace datacell::ops

#endif  // DATACELL_OPS_AGGREGATE_H_
