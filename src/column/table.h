#ifndef DATACELL_COLUMN_TABLE_H_
#define DATACELL_COLUMN_TABLE_H_

#include <string>
#include <vector>

#include "column/column.h"
#include "column/type.h"
#include "column/value.h"
#include "util/status.h"

namespace datacell {

/// A relational table: a schema plus one length-aligned Column per field.
///
/// Tables are value types used both for persistent relations (via Catalog)
/// and for intermediate operator results. Baskets (core/basket.h) wrap a
/// Table and add the stream-specific semantics.
///
/// Copying a Table is a zero-copy snapshot: columns share their backing
/// buffers copy-on-write (see Column) and the schema shares its field
/// list, so the copy costs O(#columns) refcount bumps and both sides
/// detach lazily on their next mutation.
class Table {
 public:
  Table() = default;
  /// An empty table over `schema`; its columns own no buffers yet.
  explicit Table(Schema schema);
  /// Adopts already-built columns, one per field of `schema` and of the
  /// field's type, all of one length (operator outputs).
  Table(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return num_rows() == 0; }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Column index by field name, or error.
  Result<size_t> ColumnIndex(const std::string& name) const;
  /// Column pointer by field name, or error. The pointer is invalidated by
  /// structural changes (appends of new columns), not by row appends.
  Result<const Column*> GetColumn(const std::string& name) const;
  Result<Column*> GetMutableColumn(const std::string& name);

  /// Appends one tuple; arity and types must match the schema.
  Status AppendRow(const Row& row);
  /// Appends all rows of `other`; schemas must be type-compatible
  /// (same column count and types; names are not required to match, as
  /// operator outputs are matched positionally). Into a table with no
  /// rows this adopts `other`'s column buffers copy-on-write, like a
  /// snapshot copy; either side's first mutation detaches.
  Status AppendTable(const Table& other);
  /// Appends the selected rows of `other`.
  Status AppendTableRows(const Table& other, const SelVector& sel);

  /// Boxed read of one tuple.
  Row GetRow(size_t i) const;

  /// New table with only the selected rows (any order, duplicates allowed).
  Table Take(const SelVector& sel) const;

  /// Removes the given rows (ascending, unique) from every column in one
  /// shifting pass. A selection that is exactly the prefix {0..k-1} is
  /// consumed in O(1) per column via ErasePrefix.
  Status EraseRows(const SelVector& sorted_sel);
  /// Removes the first n rows (FIFO window consumption) in O(1) per column
  /// by advancing the logical head; physical reclamation is amortized.
  Status ErasePrefix(size_t n);

  /// Drops all rows, keeping the schema.
  void Clear();

  /// Tabular rendering of up to `max_rows` rows, for debugging and the
  /// examples.
  std::string ToString(size_t max_rows = 20) const;

 private:
  // Validates that sel is strictly ascending and in range.
  Status CheckSortedSelection(const SelVector& sel) const;

  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace datacell

#endif  // DATACELL_COLUMN_TABLE_H_
