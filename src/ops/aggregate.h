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

/// What an aggregation run again and again, as a standing query's is,
/// keeps across calls: its key, argument and output columns, the group id
/// per row, the representative row per group, the int-key probe table,
/// and its output schema for the key and argument types it last saw. A
/// call reuses their storage: a column is refilled in place once no one
/// else holds it (Column::Refill). After a call, storage the column
/// kernel's recycler takes (64 KiB and up: past 16384 row ids or 8192
/// probe slots or values) goes back to the recycler, so a bulk delivery's
/// tables do not stay resident, and no column of the input stays
/// referenced. One thread at a time; every call passes the same groups
/// and aggregates.
struct AggregateState {
  std::vector<Column> key_cols;
  std::vector<Column> arg_cols;  // parallel to aggs; empty for count(*)
  std::vector<Column> outs;      // the output columns of the last call
  std::vector<uint32_t> row_group;
  std::vector<uint32_t> group_rep;
  std::vector<int64_t> slot_keys;
  std::vector<uint32_t> slot_gids;
  std::vector<DataType> types;  // key then argument types `schema` is for
  Schema schema;
};

/// Hash group-by aggregation over the rows of `table` that `sel` selects
/// (every row when null); only the columns the keys and arguments read are
/// gathered. With no group items, produces exactly one row (global
/// aggregates; count over an empty input is 0, other aggregates are NULL,
/// matching SQL). With `state`, working storage and the output schema
/// carry over between calls (see AggregateState).
Result<Table> Aggregate(const Table& table, const std::vector<GroupItem>& groups,
                        const std::vector<AggItem>& aggs,
                        const EvalContext& ctx, const SelVector* sel = nullptr,
                        AggregateState* state = nullptr);

}  // namespace datacell::ops

#endif  // DATACELL_OPS_AGGREGATE_H_
