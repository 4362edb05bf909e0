#include "ops/project.h"

#include "util/logging.h"

namespace datacell::ops {

namespace {

// Resolves every item to an input column position and builds the output
// schema over `schema`; leaves `state->positions` empty when an item is no
// bare column of it.
void Resolve(const Schema& schema, const std::vector<ProjectionItem>& items,
             ProjectState* state) {
  state->input = schema;
  state->positions.clear();
  state->output = Schema();
  state->cols.clear();
  std::vector<Field> fields;
  fields.reserve(items.size());
  for (const ProjectionItem& item : items) {
    const int idx = item.expr->kind == ExprKind::kColumnRef
                        ? schema.FindField(item.expr->column)
                        : -1;
    if (idx < 0) {
      state->positions.clear();
      return;
    }
    state->positions.push_back(static_cast<size_t>(idx));
    fields.push_back({item.name, schema.field(static_cast<size_t>(idx)).type});
  }
  Result<Schema> output = Schema::Make(std::move(fields));
  if (!output.ok()) {
    // Duplicate output names: evaluating reports the error.
    state->positions.clear();
    return;
  }
  state->output = std::move(*output);
}

}  // namespace

void SelectedRows::GetInto(size_t i, Column* out) const {
  const Column& c = table_.column(i);
  if (sel_ == nullptr) {
    *out = c;
    return;
  }
  out->Refill(c.type());
  Status st = out->AppendColumnRows(c, *sel_);
  DC_DCHECK(st.ok());
}

Result<Column> SelectedRows::Eval(const Expr& expr, const EvalContext& ctx) {
  Column out(DataType::kInt64);
  RETURN_NOT_OK(EvalInto(expr, ctx, &out));
  return out;
}

Status SelectedRows::EvalInto(const Expr& expr, const EvalContext& ctx,
                              Column* out) {
  const Table* rows = &table_;
  if (sel_ != nullptr) {
    if (expr.kind == ExprKind::kColumnRef) {
      const int idx = table_.schema().FindField(expr.column);
      if (idx >= 0) {
        GetInto(static_cast<size_t>(idx), out);
        return Status::OK();
      }
    }
    if (!gathered_.has_value()) gathered_ = table_.Take(*sel_);
    rows = &*gathered_;
  }
  ASSIGN_OR_RETURN(*out, EvalScalar(*rows, expr, ctx));
  return Status::OK();
}

Result<Table> Project(const Table& table,
                      const std::vector<ProjectionItem>& items,
                      const EvalContext& ctx, const SelVector* sel,
                      ProjectState* state) {
  SelectedRows rows(table, sel);
  std::vector<Column> out_columns;
  out_columns.reserve(items.size());
  if (state != nullptr) {
    if (!state->input.SharesFields(table.schema())) {
      Resolve(table.schema(), items, state);
    }
    const std::vector<size_t>& positions = state->positions;
    if (!positions.empty()) {
      std::vector<Column>& cols = state->cols;
      if (sel == nullptr) {
        for (const size_t i : positions) out_columns.push_back(table.column(i));
      } else {
        cols.resize(positions.size(), Column(DataType::kInt64));
        for (size_t j = 0; j < positions.size(); ++j) {
          rows.GetInto(positions[j], &cols[j]);
          out_columns.push_back(cols[j]);
        }
        // A large buffer is the recycler's once the consumer lets go.
        for (Column& c : cols) {
          if (c.Large()) c.Clear();
        }
      }
      return Table(state->output, std::move(out_columns));
    }
  }
  // One reserved field list per call; the output adopts the evaluated
  // columns as they are.
  std::vector<Field> fields;
  fields.reserve(items.size());
  for (const ProjectionItem& item : items) {
    ASSIGN_OR_RETURN(Column col, rows.Eval(*item.expr, ctx));
    fields.push_back({item.name, col.type()});
    out_columns.push_back(std::move(col));
  }
  ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema), std::move(out_columns));
  return out;
}

}  // namespace datacell::ops
