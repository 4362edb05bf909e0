#include "ops/project.h"

#include "util/logging.h"

namespace datacell::ops {

Result<Table> Project(const Table& table,
                      const std::vector<ProjectionItem>& items,
                      const EvalContext& ctx, const SelVector* sel) {
  // Restrict first so expressions are only evaluated on surviving rows.
  // Bare column references skip the copy via the borrow in EvalScalar when
  // sel is null.
  const Table* input = &table;
  Table restricted;
  if (sel != nullptr) {
    restricted = table.Take(*sel);
    input = &restricted;
  }
  Schema out_schema;
  std::vector<Column> out_columns;
  out_columns.reserve(items.size());
  for (const ProjectionItem& item : items) {
    ASSIGN_OR_RETURN(Column col, EvalScalar(*input, *item.expr, ctx));
    RETURN_NOT_OK(out_schema.AddField({item.name, col.type()}));
    out_columns.push_back(std::move(col));
  }
  Table out(out_schema);
  for (size_t i = 0; i < out_columns.size(); ++i) {
    RETURN_NOT_OK(out.column(i).AppendColumn(out_columns[i]));
  }
  return out;
}

}  // namespace datacell::ops
