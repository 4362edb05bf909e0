#include "column/table.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace datacell {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

Table::Table(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  DC_DCHECK(columns_.size() == schema_.num_fields());
  for (size_t i = 0; i < columns_.size(); ++i) {
    DC_DCHECK(columns_[i].type() == schema_.field(i).type);
    DC_DCHECK(columns_[i].size() == columns_[0].size());
  }
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  int idx = schema_.FindField(name);
  if (idx < 0) return Status::NotFound("no column named '" + name + "'");
  return static_cast<size_t>(idx);
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  ASSIGN_OR_RETURN(size_t idx, ColumnIndex(name));
  return &columns_[idx];
}

Result<Column*> Table::GetMutableColumn(const std::string& name) {
  ASSIGN_OR_RETURN(size_t idx, ColumnIndex(name));
  return &columns_[idx];
}

Status Table::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  // Validate all values before mutating any column so a failed append
  // leaves the table aligned.
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].MatchesType(schema_.field(i).type)) {
      return Status::TypeMismatch("value " + row[i].ToString() +
                                  " does not fit column '" +
                                  schema_.field(i).name + "' of type " +
                                  DataTypeName(schema_.field(i).type));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    Status st = columns_[i].AppendValue(row[i]);
    DC_DCHECK(st.ok());
  }
  return Status::OK();
}

Status Table::AppendTable(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::TypeMismatch("appending table with different arity");
  }
  // Check every type before touching any column, so a mismatch leaves the
  // table aligned. Into an empty table each column then adopts the
  // source's buffers (Column::AppendColumn): a fan-out to many baskets
  // costs O(#columns) refcount bumps per basket, not a copy per basket.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type() != other.columns_[i].type()) {
      return Status::TypeMismatch(
          std::string("append type mismatch in column ") + std::to_string(i) +
          ": " + DataTypeName(other.columns_[i].type()) + " vs " +
          DataTypeName(columns_[i].type()));
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    RETURN_NOT_OK(columns_[i].AppendColumn(other.columns_[i]));
  }
  return Status::OK();
}

Status Table::AppendTableRows(const Table& other, const SelVector& sel) {
  if (other.num_columns() != num_columns()) {
    return Status::TypeMismatch("appending table with different arity");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    RETURN_NOT_OK(columns_[i].AppendColumnRows(other.columns_[i], sel));
  }
  return Status::OK();
}

Row Table::GetRow(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& c : columns_) row.push_back(c.GetValue(i));
  return row;
}

Table Table::Take(const SelVector& sel) const {
  Table out(schema_);
  Status st = out.AppendTableRows(*this, sel);
  DC_DCHECK(st.ok());
  return out;
}

Status Table::CheckSortedSelection(const SelVector& sel) const {
  const size_t n = num_rows();
  for (size_t i = 0; i < sel.size(); ++i) {
    if (sel[i] >= n) {
      return Status::InvalidArgument("selection row out of range");
    }
    if (i > 0 && sel[i] <= sel[i - 1]) {
      return Status::InvalidArgument("selection not strictly ascending");
    }
  }
  return Status::OK();
}

Status Table::EraseRows(const SelVector& sorted_sel) {
  RETURN_NOT_OK(CheckSortedSelection(sorted_sel));
  for (Column& c : columns_) c.EraseRows(sorted_sel);
  return Status::OK();
}

Status Table::ErasePrefix(size_t n) {
  n = std::min(n, num_rows());
  if (n == 0) return Status::OK();
  for (Column& c : columns_) c.ErasePrefix(n);
  return Status::OK();
}

void Table::Clear() {
  for (Column& c : columns_) c.Clear();
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream out;
  out << schema_.ToString() << " rows=" << num_rows() << "\n";
  const size_t n = std::min(max_rows, num_rows());
  for (size_t r = 0; r < n; ++r) {
    out << "  ";
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out << " | ";
      out << columns_[c].ValueToString(r);
    }
    out << "\n";
  }
  if (n < num_rows()) out << "  ... (" << (num_rows() - n) << " more)\n";
  return out.str();
}

}  // namespace datacell
