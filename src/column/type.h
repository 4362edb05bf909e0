#ifndef DATACELL_COLUMN_TYPE_H_
#define DATACELL_COLUMN_TYPE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace datacell {

/// Logical column types supported by the kernel.
///
/// kTimestamp is physically an int64 (microseconds, see util/clock.h) but
/// kept logically distinct so the SQL layer can type-check time expressions
/// and the codec can format it.
enum class DataType : uint8_t {
  kInt64 = 0,
  kDouble,
  kBool,
  kString,
  kTimestamp,
};

/// "int", "double", "bool", "string", "timestamp".
const char* DataTypeName(DataType type);

/// Inverse of DataTypeName (case-insensitive); also accepts SQL synonyms
/// (integer, bigint, float, real, varchar, text).
Result<DataType> DataTypeFromName(const std::string& name);

/// True if the physical representation is int64 (kInt64, kTimestamp).
inline bool IsIntegerPhysical(DataType t) {
  return t == DataType::kInt64 || t == DataType::kTimestamp;
}

/// True for types usable in arithmetic (+,-,*,/).
inline bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kTimestamp;
}

/// A named, typed column slot in a schema.
struct Field {
  std::string name;
  DataType type;

  bool operator==(const Field& other) const = default;
};

/// An ordered list of fields with by-name lookup.
///
/// Schemas are value types whose field list is shared: copying a Schema
/// (and with it a Table or a basket snapshot) bumps a reference count and
/// copies no fields. The list is immutable once shared; AddField builds a
/// new list for this Schema alone (copy-on-write), so it belongs to
/// prepare and DDL time, not to a firing. Concurrent copies of one Schema
/// are safe; mutating a Schema concurrently with reading it is not.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields)
      : fields_(std::make_shared<const std::vector<Field>>(std::move(fields))) {}

  size_t num_fields() const { return fields().size(); }
  const Field& field(size_t i) const { return fields()[i]; }
  const std::vector<Field>& fields() const {
    return fields_ != nullptr ? *fields_ : Empty();
  }

  /// As the constructor, but rejects duplicate names as AddField does:
  /// builds a whole list at once where a loop of AddField would copy it
  /// once per field.
  static Result<Schema> Make(std::vector<Field> fields);

  /// Index of the field with this name, or -1.
  int FindField(const std::string& name) const;

  /// Appends a field; duplicate names are rejected. Copies the field list
  /// (copy-on-write): other Schemas sharing it are unaffected.
  Status AddField(Field field);

  /// "(a int, b double)" — for error messages and tooling.
  std::string ToString() const;

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_ || fields() == other.fields();
  }

  /// Whether both share one field list: equal in O(1), and copies of one
  /// Schema always do. A caller that keeps a copy pins the list, so a
  /// later list cannot reuse its address and pass for it.
  bool SharesFields(const Schema& other) const {
    return fields_ == other.fields_;
  }

 private:
  static const std::vector<Field>& Empty();

  std::shared_ptr<const std::vector<Field>> fields_;  // null = no fields
};

}  // namespace datacell

#endif  // DATACELL_COLUMN_TYPE_H_
