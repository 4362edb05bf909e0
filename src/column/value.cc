#include "column/value.h"

#include "util/strings.h"

namespace datacell {

Result<double> Value::AsDouble() const {
  if (is_int()) return static_cast<double>(int_value());
  if (is_double()) return double_value();
  return Status::TypeMismatch("value is not numeric: " + ToString());
}

Result<Value> Value::CastTo(DataType type) const {
  if (is_null()) return Value::Null();
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (is_int()) return *this;
      if (is_double()) {
        // NaN, +-inf and doubles outside [-2^63, 2^63) have no int64 value
        // (converting them is undefined); like int64 overflow, they are NULL.
        const double d = double_value();
        if (!(d >= -0x1p63 && d < 0x1p63)) return Value::Null();
        return Value(static_cast<int64_t>(d));
      }
      if (is_bool()) return Value(static_cast<int64_t>(bool_value() ? 1 : 0));
      break;
    case DataType::kDouble:
      if (is_double()) return *this;
      if (is_int()) return Value(static_cast<double>(int_value()));
      break;
    case DataType::kBool:
      if (is_bool()) return *this;
      break;
    case DataType::kString:
      if (is_string()) return *this;
      break;
  }
  return Status::TypeMismatch("cannot cast " + ToString() + " to " +
                              DataTypeName(type));
}

bool Value::MatchesType(DataType type) const {
  if (is_null()) return true;
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return is_int();
    case DataType::kDouble:
      return is_double() || is_int();
    case DataType::kBool:
      return is_bool();
    case DataType::kString:
      return is_string();
  }
  return false;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(int_value());
  if (is_double()) return StringPrintf("%g", double_value());
  if (is_bool()) return bool_value() ? "true" : "false";
  return "'" + string_value() + "'";
}

}  // namespace datacell
