#include "ops/select.h"

#include "ops/kernels.h"

namespace datacell::ops {

Result<SelVector> SelectRange(const Table& table, const std::string& column,
                              const Value& lo, bool lo_inclusive,
                              const Value& hi, bool hi_inclusive) {
  ASSIGN_OR_RETURN(const Column* col, table.GetColumn(column));
  if (IsIntegerPhysical(col->type())) {
    if (!lo.is_null() && !lo.is_int()) {
      return Status::TypeMismatch("range bound type mismatch");
    }
    if (!hi.is_null() && !hi.is_int()) {
      return Status::TypeMismatch("range bound type mismatch");
    }
    // Normalize to an inclusive [a, b] for the fused range kernel:
    // x > a  <=>  x >= a+1 (empty if a is already INT64_MAX), same for b.
    int64_t a = lo.is_null() ? INT64_MIN : lo.int_value();
    int64_t b = hi.is_null() ? INT64_MAX : hi.int_value();
    if (!lo_inclusive) {
      if (a == INT64_MAX) return SelVector{};
      ++a;
    }
    if (!hi_inclusive) {
      if (b == INT64_MIN) return SelVector{};
      --b;
    }
    return kern::SelectRangeI64Col(*col, a, b);
  }
  if (col->type() == DataType::kDouble) {
    ASSIGN_OR_RETURN(double a, lo.is_null() ? Result<double>(-1e308) : lo.AsDouble());
    ASSIGN_OR_RETURN(double b, hi.is_null() ? Result<double>(1e308) : hi.AsDouble());
    return kern::SelectRangeF64Col(*col, a, lo_inclusive, b, hi_inclusive);
  }
  return Status::TypeMismatch("SelectRange requires a numeric column");
}

}  // namespace datacell::ops
