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
  // One reserved field list per call; the output adopts the evaluated
  // columns as they are.
  std::vector<Field> fields;
  std::vector<Column> out_columns;
  fields.reserve(items.size());
  out_columns.reserve(items.size());
  for (const ProjectionItem& item : items) {
    ASSIGN_OR_RETURN(Column col, EvalScalar(*input, *item.expr, ctx));
    fields.push_back({item.name, col.type()});
    out_columns.push_back(std::move(col));
  }
  ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema), std::move(out_columns));
  return out;
}

}  // namespace datacell::ops
