#include "column/type.h"

#include "util/strings.h"

namespace datacell {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int";
    case DataType::kDouble:
      return "double";
    case DataType::kBool:
      return "bool";
    case DataType::kString:
      return "string";
    case DataType::kTimestamp:
      return "timestamp";
  }
  return "?";
}

Result<DataType> DataTypeFromName(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "int" || n == "integer" || n == "bigint" || n == "smallint") {
    return DataType::kInt64;
  }
  if (n == "double" || n == "float" || n == "real" || n == "decimal") {
    return DataType::kDouble;
  }
  if (n == "bool" || n == "boolean") return DataType::kBool;
  if (n == "string" || n == "varchar" || n == "text" || n == "char") {
    return DataType::kString;
  }
  if (n == "timestamp") return DataType::kTimestamp;
  return Status::ParseError("unknown type name: " + name);
}

const std::vector<Field>& Schema::Empty() {
  static const std::vector<Field> empty;
  return empty;
}

Result<Schema> Schema::Make(std::vector<Field> fields) {
  for (size_t i = 1; i < fields.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (fields[i].name == fields[j].name) {
        return Status::AlreadyExists("duplicate field name: " +
                                     fields[i].name);
      }
    }
  }
  return Schema(std::move(fields));
}

int Schema::FindField(const std::string& name) const {
  const std::vector<Field>& fs = fields();
  for (size_t i = 0; i < fs.size(); ++i) {
    if (fs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::AddField(Field field) {
  if (FindField(field.name) >= 0) {
    return Status::AlreadyExists("duplicate field name: " + field.name);
  }
  // Always copy: another Schema (possibly on another thread) may share
  // the current list, and a shared list is never written.
  std::vector<Field> next;
  next.reserve(num_fields() + 1);
  next = fields();
  next.push_back(std::move(field));
  fields_ = std::make_shared<const std::vector<Field>>(std::move(next));
  return Status::OK();
}

std::string Schema::ToString() const {
  const std::vector<Field>& fs = fields();
  std::string out = "(";
  for (size_t i = 0; i < fs.size(); ++i) {
    if (i > 0) out += ", ";
    out += fs[i].name;
    out += " ";
    out += DataTypeName(fs[i].type);
  }
  out += ")";
  return out;
}

}  // namespace datacell
