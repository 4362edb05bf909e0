#ifndef DATACELL_OPS_PROJECT_H_
#define DATACELL_OPS_PROJECT_H_

#include <optional>
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

/// The rows of a table that a selection picks (every row when it is null),
/// read by an operator a column at a time: a bare column reference gathers
/// that column alone, and any other expression is evaluated over the
/// selected rows of the whole table, gathered once on first use. The Into
/// forms fill a column the operator keeps between calls: a gather reuses
/// its storage (Column::Refill), and with no selection it becomes a copy
/// sharing the table's buffers.
class SelectedRows {
 public:
  SelectedRows(const Table& table, const SelVector* sel)
      : table_(table), sel_(sel) {}

  size_t num_rows() const {
    return sel_ == nullptr ? table_.num_rows() : sel_->size();
  }
  /// Column `i` of the table over the selected rows, into `*out`.
  void GetInto(size_t i, Column* out) const;
  /// `expr` over the selected rows, as EvalScalar evaluates it over them.
  Result<Column> Eval(const Expr& expr, const EvalContext& ctx);
  Status EvalInto(const Expr& expr, const EvalContext& ctx, Column* out);

 private:
  const Table& table_;
  const SelVector* sel_;
  std::optional<Table> gathered_;
};

/// What a projection run again and again, as a standing query's is, keeps
/// across calls. When every item is a bare column reference, the first
/// call resolves the items to input positions and builds the output
/// schema; later calls reuse both until the input's field list changes.
/// `input` pins that list, so a freed list's address cannot be reused and
/// read as a match. An item that names no input column (a session
/// variable) leaves the projection to evaluate every item as usual. Over
/// a selection, the output columns are gathered into `cols`, whose small
/// buffers are refilled on the next call once the consumer let go of
/// them. One thread at a time; every call passes the same items.
struct ProjectState {
  Schema input;
  std::vector<size_t> positions;  // empty: evaluate every item
  Schema output;
  std::vector<Column> cols;  // parallel to positions
};

/// Evaluates each item over the rows of `table` that `sel` selects (every
/// row when null) and assembles the result table. Only the columns the
/// items read are gathered. With `state`, bare column items resolve once
/// per input schema (see ProjectState).
Result<Table> Project(const Table& table,
                      const std::vector<ProjectionItem>& items,
                      const EvalContext& ctx, const SelVector* sel = nullptr,
                      ProjectState* state = nullptr);

}  // namespace datacell::ops

#endif  // DATACELL_OPS_PROJECT_H_
