#include "expr/eval.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "column/recycler.h"
#include "ops/kernels.h"
#include "util/logging.h"
#include "util/simd.h"

namespace datacell {

namespace {

// Checked int64 arithmetic, shared by constant folding and the vector
// kernels: writes `a op b` to *out and returns false when the result is
// SQL NULL — a zero divisor, or a result int64 cannot hold (+ - *
// overflow, INT64_MIN / -1, INT64_MIN % -1). Never traps, never UB.
template <BinaryOp kOp>
inline bool CheckedInt(int64_t a, int64_t b, int64_t* out) {
  if constexpr (kOp == BinaryOp::kAdd) {
    return !__builtin_add_overflow(a, b, out);
  } else if constexpr (kOp == BinaryOp::kSub) {
    return !__builtin_sub_overflow(a, b, out);
  } else if constexpr (kOp == BinaryOp::kMul) {
    return !__builtin_mul_overflow(a, b, out);
  } else {
    const bool ok = b != 0 && !(b == -1 && a == INT64_MIN);
    const int64_t d = ok ? b : 1;
    *out = kOp == BinaryOp::kDiv ? a / d : a % d;
    return ok;
  }
}

// Unary minus and abs, checked the same way: only INT64_MIN has no
// int64 result.
bool NegateInt(int64_t x, int64_t* out) {
  return CheckedInt<BinaryOp::kSub>(0, x, out);
}

bool AbsInt(int64_t x, int64_t* out) {
  if (x >= 0) {
    *out = x;
    return true;
  }
  return NegateInt(x, out);
}

template <BinaryOp kOp>
using OpTag = std::integral_constant<BinaryOp, kOp>;

// Calls f(OpTag<op>{}) for a runtime arithmetic op, so each kernel loop is
// instantiated per op with the switch outside it.
template <typename F>
Status WithArithOp(BinaryOp op, F&& f) {
  switch (op) {
    case BinaryOp::kAdd:
      f(OpTag<BinaryOp::kAdd>{});
      return Status::OK();
    case BinaryOp::kSub:
      f(OpTag<BinaryOp::kSub>{});
      return Status::OK();
    case BinaryOp::kMul:
      f(OpTag<BinaryOp::kMul>{});
      return Status::OK();
    case BinaryOp::kDiv:
      f(OpTag<BinaryOp::kDiv>{});
      return Status::OK();
    case BinaryOp::kMod:
      f(OpTag<BinaryOp::kMod>{});
      return Status::OK();
    default:
      return Status::Internal("not an arithmetic op");
  }
}

// As WithArithOp, for the comparison ops.
template <typename F>
Status WithCompareOp(BinaryOp op, F&& f) {
  switch (op) {
    case BinaryOp::kEq:
      f(OpTag<BinaryOp::kEq>{});
      return Status::OK();
    case BinaryOp::kNe:
      f(OpTag<BinaryOp::kNe>{});
      return Status::OK();
    case BinaryOp::kLt:
      f(OpTag<BinaryOp::kLt>{});
      return Status::OK();
    case BinaryOp::kLe:
      f(OpTag<BinaryOp::kLe>{});
      return Status::OK();
    case BinaryOp::kGt:
      f(OpTag<BinaryOp::kGt>{});
      return Status::OK();
    case BinaryOp::kGe:
      f(OpTag<BinaryOp::kGe>{});
      return Status::OK();
    default:
      return Status::Internal("not a comparison");
  }
}

// ---------------------------------------------------------------------------
// Constant evaluation
// ---------------------------------------------------------------------------

Result<Value> ConstBinary(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (l.is_int() && r.is_int()) {
        int64_t v = 0;
        bool ok = false;
        RETURN_NOT_OK(WithArithOp(op, [&](auto tag) {
          constexpr BinaryOp kOp = decltype(tag)::value;
          ok = CheckedInt<kOp>(l.int_value(), r.int_value(), &v);
        }));
        return ok ? Value(v) : Value::Null();
      }
      ASSIGN_OR_RETURN(double a, l.AsDouble());
      ASSIGN_OR_RETURN(double b, r.AsDouble());
      switch (op) {
        case BinaryOp::kAdd:
          return Value(a + b);
        case BinaryOp::kSub:
          return Value(a - b);
        case BinaryOp::kMul:
          return Value(a * b);
        case BinaryOp::kDiv:
          if (b == 0) return Value::Null();
          return Value(a / b);
        case BinaryOp::kMod:
          if (b == 0) return Value::Null();
          return Value(std::fmod(a, b));
        default:
          break;
      }
      return Status::Internal("unreachable");
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      int cmp = 0;
      if (l.is_string() && r.is_string()) {
        cmp = l.string_value().compare(r.string_value());
      } else if (l.is_bool() && r.is_bool()) {
        cmp = static_cast<int>(l.bool_value()) - static_cast<int>(r.bool_value());
      } else {
        ASSIGN_OR_RETURN(double a, l.AsDouble());
        ASSIGN_OR_RETURN(double b, r.AsDouble());
        cmp = (a < b) ? -1 : (a > b ? 1 : 0);
      }
      switch (op) {
        case BinaryOp::kEq:
          return Value(cmp == 0);
        case BinaryOp::kNe:
          return Value(cmp != 0);
        case BinaryOp::kLt:
          return Value(cmp < 0);
        case BinaryOp::kLe:
          return Value(cmp <= 0);
        case BinaryOp::kGt:
          return Value(cmp > 0);
        case BinaryOp::kGe:
          return Value(cmp >= 0);
        default:
          break;
      }
      return Status::Internal("unreachable");
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (!l.is_bool() || !r.is_bool()) {
        return Status::TypeMismatch("logical op on non-bool constants");
      }
      return Value(op == BinaryOp::kAnd ? (l.bool_value() && r.bool_value())
                                        : (l.bool_value() || r.bool_value()));
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<Value> EvalConst(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (ctx.variables != nullptr) {
        auto it = ctx.variables->find(expr.column);
        if (it != ctx.variables->end()) return it->second;
      }
      return Status::BindError("'" + expr.column +
                               "' is not a constant or session variable");
    }
    case ExprKind::kBinary: {
      ASSIGN_OR_RETURN(Value l, EvalConst(*expr.children[0], ctx));
      ASSIGN_OR_RETURN(Value r, EvalConst(*expr.children[1], ctx));
      return ConstBinary(expr.bop, l, r);
    }
    case ExprKind::kUnary: {
      ASSIGN_OR_RETURN(Value v, EvalConst(*expr.children[0], ctx));
      if (v.is_null()) return Value::Null();
      if (expr.uop == UnaryOp::kNot) {
        if (!v.is_bool()) return Status::TypeMismatch("NOT on non-bool");
        return Value(!v.bool_value());
      }
      if (v.is_int()) {
        int64_t neg = 0;
        return NegateInt(v.int_value(), &neg) ? Value(neg) : Value::Null();
      }
      if (v.is_double()) return Value(-v.double_value());
      return Status::TypeMismatch("unary minus on non-numeric");
    }
    case ExprKind::kCall: {
      if (expr.func == "now") return Value(ctx.now);
      std::vector<Value> args;
      for (const ExprPtr& c : expr.children) {
        ASSIGN_OR_RETURN(Value v, EvalConst(*c, ctx));
        args.push_back(std::move(v));
      }
      if (expr.func == "abs" && args.size() == 1) {
        if (args[0].is_null()) return Value::Null();
        if (args[0].is_int()) {
          int64_t abs = 0;
          return AbsInt(args[0].int_value(), &abs) ? Value(abs) : Value::Null();
        }
        if (args[0].is_double()) return Value(std::fabs(args[0].double_value()));
        return Status::TypeMismatch("abs on non-numeric");
      }
      if (expr.func == "length" && args.size() == 1) {
        if (args[0].is_null()) return Value::Null();
        if (!args[0].is_string()) return Status::TypeMismatch("length on non-string");
        return Value(static_cast<int64_t>(args[0].string_value().size()));
      }
      if ((expr.func == "least" || expr.func == "greatest") && args.size() == 2) {
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        ASSIGN_OR_RETURN(Value cmp, ConstBinary(BinaryOp::kLt, args[0], args[1]));
        bool first = cmp.bool_value() == (expr.func == "least");
        return first ? args[0] : args[1];
      }
      if (expr.func == "cast_int" && args.size() == 1) {
        return args[0].CastTo(DataType::kInt64);
      }
      if (expr.func == "cast_double" && args.size() == 1) {
        return args[0].CastTo(DataType::kDouble);
      }
      return Status::BindError("unknown function '" + expr.func + "'");
    }
    case ExprKind::kIsNull: {
      ASSIGN_OR_RETURN(Value v, EvalConst(*expr.children[0], ctx));
      return Value(expr.negated ? !v.is_null() : v.is_null());
    }
  }
  return Status::Internal("unreachable");
}

namespace {

// ---------------------------------------------------------------------------
// Vectorized evaluation
// ---------------------------------------------------------------------------

// Either borrows a column from the input table (column refs) or owns a
// freshly computed one. Avoids copying table columns during recursion.
class Handle {
 public:
  explicit Handle(const Column* borrowed) : borrowed_(borrowed) {}
  explicit Handle(Column owned)
      : borrowed_(nullptr), owned_(std::move(owned)) {}

  const Column& get() const { return borrowed_ ? *borrowed_ : *owned_; }

  Column ToOwned() && {
    if (borrowed_) return *borrowed_;  // copy
    return std::move(*owned_);
  }

 private:
  const Column* borrowed_;
  std::optional<Column> owned_;
};

Result<Handle> EvalRec(const Table& table, const Expr& expr,
                       const EvalContext& ctx);

// n bytes of `v` (validity or truth values); a large vector comes from the
// recycler.
std::vector<uint8_t> Bytes(size_t n, uint8_t v) {
  std::vector<uint8_t> out = recycler::Take<uint8_t>(n);
  out.assign(n, v);
  return out;
}

// Broadcasts a constant to an n-row column in one fill. Type is derived
// from the value; integer constants (and NULL) become kInt64.
Column Broadcast(const Value& v, size_t n) {
  if (v.is_double()) {
    Column c(DataType::kDouble);
    c.Reserve(n);
    c.doubles().assign(n, v.double_value());
    return c;
  }
  if (v.is_bool()) {
    Column c(DataType::kBool);
    c.Reserve(n);
    c.bools().assign(n, v.bool_value() ? 1 : 0);
    return c;
  }
  if (v.is_string()) {
    Column c(DataType::kString);
    c.strings().assign(n, v.string_value());
    return c;
  }
  Column c(DataType::kInt64);
  c.Reserve(n);
  c.ints().assign(n, v.is_int() ? v.int_value() : 0);
  if (v.is_null()) c.SetValidity(Bytes(n, 0));
  return c;
}

// Numeric view: reads row i of a column as double; caller checked type.
inline double NumAt(const Column& c, size_t i) {
  if (c.type() == DataType::kDouble) return c.doubles()[i];
  return static_cast<double>(c.ints()[i]);
}

bool BothInt(const Column& a, const Column& b) {
  return IsIntegerPhysical(a.type()) && IsIntegerPhysical(b.type());
}

// Validity bytes of a column's live rows, empty when it has no nulls.
std::vector<uint8_t> ValidityOf(const Column& c) {
  const uint8_t* v = c.raw_validity();
  if (v == nullptr) return {};
  std::vector<uint8_t> out = recycler::Take<uint8_t>(c.size());
  out.assign(v, v + c.size());
  return out;
}

// Validity of a binary kernel's output before the kernel's own NULLs: the
// AND of both inputs' validity bytes, empty when neither has nulls.
std::vector<uint8_t> AndValidity(const Column& l, const Column& r) {
  const uint8_t* a = l.raw_validity();
  const uint8_t* b = r.raw_validity();
  if (a == nullptr) return ValidityOf(r);
  if (b == nullptr) return ValidityOf(l);
  const size_t n = l.size();
  std::vector<uint8_t> v = Bytes(n, 0);
  for (size_t i = 0; i < n; ++i) v[i] = a[i] & b[i];
  return v;
}

// Marks the rows where `ok(i)` is false invalid, materializing the
// validity on first use. Only runs once a kernel saw such a row.
template <typename Ok>
void ClearInvalidRows(size_t n, std::vector<uint8_t>* valid, Ok ok) {
  if (valid->empty()) *valid = Bytes(n, 1);
  for (size_t i = 0; i < n; ++i) {
    if (!ok(i)) (*valid)[i] = 0;
  }
}

// Calls f(a, b) with the typed data of two numeric columns (int64 or
// double each), so a kernel is instantiated per operand-type pairing.
template <typename F>
Status WithNumericPair(const Column& l, const Column& r, F&& f) {
  const bool ld = l.type() == DataType::kDouble;
  const bool rd = r.type() == DataType::kDouble;
  if (ld && rd) return f(l.doubles().data(), r.doubles().data());
  if (ld) return f(l.doubles().data(), r.ints().data());
  if (rd) return f(l.ints().data(), r.doubles().data());
  return f(l.ints().data(), r.ints().data());
}

// One int64 arithmetic kernel: values for every row (NULL rows included,
// their slots are reset by SetValidity), then a second pass only when some
// row overflowed or divided by zero.
template <BinaryOp kOp>
void IntArith(const int64_t* a, const int64_t* b, size_t n, int64_t* o,
              std::vector<uint8_t>* valid) {
  bool all_ok = true;
  for (size_t i = 0; i < n; ++i) all_ok &= CheckedInt<kOp>(a[i], b[i], &o[i]);
  if (all_ok) return;
  ClearInvalidRows(n, valid, [&](size_t i) {
    int64_t scratch = 0;
    return CheckedInt<kOp>(a[i], b[i], &scratch);
  });
}

// One double arithmetic kernel over any pairing of int64/double inputs.
// A zero divisor yields NULL; the division itself runs on a divisor of 1
// so no row ever divides by zero.
template <BinaryOp kOp, typename A, typename B>
void F64Arith(const A* a, const B* b, size_t n, double* o,
              std::vector<uint8_t>* valid) {
  bool zero = false;
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(a[i]);
    const double y = static_cast<double>(b[i]);
    if constexpr (kOp == BinaryOp::kAdd) {
      o[i] = x + y;
    } else if constexpr (kOp == BinaryOp::kSub) {
      o[i] = x - y;
    } else if constexpr (kOp == BinaryOp::kMul) {
      o[i] = x * y;
    } else {
      zero |= y == 0;
      const double d = y == 0 ? 1.0 : y;
      o[i] = kOp == BinaryOp::kDiv ? x / d : std::fmod(x, d);
    }
  }
  if (!zero) return;
  ClearInvalidRows(n, valid,
                   [&](size_t i) { return static_cast<double>(b[i]) != 0; });
}

Result<Column> EvalArith(BinaryOp op, const Column& l, const Column& r) {
  const size_t n = l.size();
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::TypeMismatch("arithmetic on non-numeric columns");
  }
  std::vector<uint8_t> valid = AndValidity(l, r);
  if (BothInt(l, r)) {
    DataType out_t = (l.type() == DataType::kTimestamp ||
                      r.type() == DataType::kTimestamp)
                         ? DataType::kTimestamp
                         : DataType::kInt64;
    Column out(out_t);
    out.Reserve(n);
    std::vector<int64_t>& o = out.ints();
    o.resize(n);
    const int64_t* a = l.ints().data();
    const int64_t* b = r.ints().data();
    RETURN_NOT_OK(WithArithOp(op, [&](auto tag) {
      IntArith<decltype(tag)::value>(a, b, n, o.data(), &valid);
    }));
    if (!valid.empty()) out.SetValidity(std::move(valid));
    return out;
  }
  Column out(DataType::kDouble);
  out.Reserve(n);
  std::vector<double>& o = out.doubles();
  o.resize(n);
  RETURN_NOT_OK(WithNumericPair(l, r, [&](const auto* a, const auto* b) {
    return WithArithOp(op, [&](auto tag) {
      F64Arith<decltype(tag)::value>(a, b, n, o.data(), &valid);
    });
  }));
  if (!valid.empty()) out.SetValidity(std::move(valid));
  return out;
}

// -1 / 0 / +1 three-way compare of row i across two columns of compatible
// types. Caller must ensure both rows are valid.
Result<int> CompareRow(const Column& l, size_t i, const Column& r, size_t j) {
  if (l.type() == DataType::kString || r.type() == DataType::kString) {
    if (l.type() != DataType::kString || r.type() != DataType::kString) {
      return Status::TypeMismatch("comparing string with non-string");
    }
    return l.strings()[i].compare(r.strings()[j]);
  }
  if (l.type() == DataType::kBool || r.type() == DataType::kBool) {
    if (l.type() != DataType::kBool || r.type() != DataType::kBool) {
      return Status::TypeMismatch("comparing bool with non-bool");
    }
    return static_cast<int>(l.bools()[i]) - static_cast<int>(r.bools()[j]);
  }
  double a = NumAt(l, i), b = NumAt(r, j);
  return a < b ? -1 : (a > b ? 1 : 0);
}

bool CmpMatches(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

// CmpMatches over CompareRow's numeric three-way result, written as the
// predicate it reduces to: a NaN on either side compares "equal", exactly
// as the row-at-a-time -1/0/+1 compare decides.
template <BinaryOp kOp>
inline bool NumMatches(double x, double y) {
  if constexpr (kOp == BinaryOp::kEq) return !(x < y) && !(x > y);
  if constexpr (kOp == BinaryOp::kNe) return x < y || x > y;
  if constexpr (kOp == BinaryOp::kLt) return x < y;
  if constexpr (kOp == BinaryOp::kLe) return !(x > y);
  if constexpr (kOp == BinaryOp::kGt) return x > y;
  return !(x < y);  // kGe
}

// Numeric compare kernel; int64 inputs compare through double, as
// CompareRow does.
template <BinaryOp kOp, typename A, typename B>
void NumCompare(const A* a, const B* b, size_t n, uint8_t* o) {
  for (size_t i = 0; i < n; ++i) {
    o[i] = NumMatches<kOp>(static_cast<double>(a[i]),
                           static_cast<double>(b[i]));
  }
}

Result<Column> EvalCompare(BinaryOp op, const Column& l, const Column& r) {
  const size_t n = l.size();
  std::vector<uint8_t> valid = AndValidity(l, r);
  const bool ls = l.type() == DataType::kString;
  const bool rs = r.type() == DataType::kString;
  const bool lb = l.type() == DataType::kBool;
  const bool rb = r.type() == DataType::kBool;
  const bool compatible = ls == rs && (ls || lb == rb);
  if (!compatible) {
    // Incompatible types fail on the first row where both sides are
    // non-NULL; a batch without one compares to all-false.
    const bool any_row = valid.empty()
                             ? n > 0
                             : std::find(valid.begin(), valid.end(), 1) !=
                                   valid.end();
    if (any_row) {
      return Status::TypeMismatch(ls || rs ? "comparing string with non-string"
                                           : "comparing bool with non-bool");
    }
  }
  Column out(DataType::kBool);
  out.Reserve(n);
  std::vector<uint8_t>& o = out.bools();
  o.resize(n);
  if (!compatible) {
    // All rows NULL on one side: nothing matches.
  } else if (ls) {
    const auto a = l.strings();
    const auto b = r.strings();
    for (size_t i = 0; i < n; ++i) o[i] = CmpMatches(op, a[i].compare(b[i]));
  } else if (lb) {
    const uint8_t* a = l.bools().data();
    const uint8_t* b = r.bools().data();
    for (size_t i = 0; i < n; ++i) {
      o[i] = CmpMatches(op, static_cast<int>(a[i]) - static_cast<int>(b[i]));
    }
  } else {
    RETURN_NOT_OK(WithNumericPair(l, r, [&](const auto* a, const auto* b) {
      return WithCompareOp(
          op, [&](auto tag) {
            NumCompare<decltype(tag)::value>(a, b, n, o.data());
          });
    }));
  }
  // SQL: comparison with NULL is unknown; we fold unknown to false.
  if (!valid.empty()) {
    for (size_t i = 0; i < n; ++i) o[i] &= valid[i];
    recycler::Park(&valid);
  }
  return out;
}

// Bool column as 0/1 bytes with NULL rows read as false, into `t`.
void TruthOf(const Column& c, std::vector<uint8_t>* t) {
  const size_t n = c.size();
  const uint8_t* a = c.bools().data();
  const uint8_t* v = c.raw_validity();
  t->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*t)[i] = static_cast<uint8_t>((a[i] != 0) & (v == nullptr || v[i] != 0));
  }
}

Result<Column> EvalLogical(BinaryOp op, const Column& l, const Column& r) {
  if (l.type() != DataType::kBool || r.type() != DataType::kBool) {
    return Status::TypeMismatch("logical op on non-bool columns");
  }
  // Null booleans participate as false.
  const size_t n = l.size();
  recycler::Scratch<uint8_t> a(n);
  recycler::Scratch<uint8_t> b(n);
  TruthOf(l, &*a);
  TruthOf(r, &*b);
  Column out(DataType::kBool);
  out.Reserve(n);
  std::vector<uint8_t>& o = out.bools();
  o.resize(n);
  if (op == BinaryOp::kAnd) {
    for (size_t i = 0; i < n; ++i) o[i] = (*a)[i] & (*b)[i];
  } else {
    for (size_t i = 0; i < n; ++i) o[i] = (*a)[i] | (*b)[i];
  }
  return out;
}

// Unary int64 kernel: `f(x, &out)` returns false where the result is NULL
// (it does not fit int64). NULL inputs stay NULL.
template <typename F>
Column IntUnary(const Column& c, F f) {
  const size_t n = c.size();
  Column out(c.type());
  out.Reserve(n);
  std::vector<int64_t>& o = out.ints();
  o.resize(n);
  const int64_t* a = c.ints().data();
  std::vector<uint8_t> valid = ValidityOf(c);
  bool all_ok = true;
  for (size_t i = 0; i < n; ++i) all_ok &= f(a[i], &o[i]);
  if (!all_ok) {
    ClearInvalidRows(n, &valid, [&](size_t i) {
      int64_t scratch = 0;
      return f(a[i], &scratch);
    });
  }
  if (!valid.empty()) out.SetValidity(std::move(valid));
  return out;
}

// Unary double kernel; NULL inputs stay NULL.
template <typename F>
Column F64Unary(const Column& c, F f) {
  const size_t n = c.size();
  Column out(DataType::kDouble);
  out.Reserve(n);
  std::vector<double>& o = out.doubles();
  o.resize(n);
  const double* a = c.doubles().data();
  for (size_t i = 0; i < n; ++i) o[i] = f(a[i]);
  std::vector<uint8_t> valid = ValidityOf(c);
  if (!valid.empty()) out.SetValidity(std::move(valid));
  return out;
}

Result<Column> EvalCall(const Table& table, const Expr& expr,
                        const EvalContext& ctx) {
  const size_t n = table.num_rows();
  if (expr.func == "now") {
    Column out(DataType::kTimestamp);
    out.Reserve(n);
    out.ints().assign(n, ctx.now);
    return out;
  }
  std::vector<Column> args;
  for (const ExprPtr& c : expr.children) {
    ASSIGN_OR_RETURN(Handle h, EvalRec(table, *c, ctx));
    args.push_back(std::move(h).ToOwned());
  }
  if (expr.func == "abs" && args.size() == 1) {
    Column& a = args[0];
    if (a.type() == DataType::kDouble) {
      return F64Unary(a, [](double x) { return std::fabs(x); });
    }
    if (IsIntegerPhysical(a.type())) return IntUnary(a, AbsInt);
    return Status::TypeMismatch("abs on non-numeric column");
  }
  if (expr.func == "length" && args.size() == 1) {
    if (args[0].type() != DataType::kString) {
      return Status::TypeMismatch("length on non-string column");
    }
    Column out(DataType::kInt64);
    out.Reserve(n);
    std::vector<int64_t>& o = out.ints();
    o.resize(n);
    const auto s = args[0].strings();
    for (size_t i = 0; i < n; ++i) o[i] = static_cast<int64_t>(s[i].size());
    std::vector<uint8_t> valid = ValidityOf(args[0]);
    if (!valid.empty()) out.SetValidity(std::move(valid));
    return out;
  }
  if ((expr.func == "least" || expr.func == "greatest") && args.size() == 2) {
    const Column& a = args[0];
    const Column& b = args[1];
    const bool want_less = expr.func == "least";
    Column out(a.type() == DataType::kDouble || b.type() == DataType::kDouble
                   ? DataType::kDouble
                   : a.type());
    for (size_t i = 0; i < n; ++i) {
      if (!a.IsValid(i) || !b.IsValid(i)) {
        out.AppendNull();
        continue;
      }
      ASSIGN_OR_RETURN(int cmp, CompareRow(a, i, b, i));
      const Column& pick = (cmp < 0) == want_less ? a : b;
      RETURN_NOT_OK(out.AppendValue(pick.GetValue(i)));
    }
    return out;
  }
  if (expr.func == "cast_int" && args.size() == 1) {
    Column out(DataType::kInt64);
    for (size_t i = 0; i < n; ++i) {
      if (!args[0].IsValid(i)) {
        out.AppendNull();
        continue;
      }
      ASSIGN_OR_RETURN(Value v, args[0].GetValue(i).CastTo(DataType::kInt64));
      RETURN_NOT_OK(out.AppendValue(v));
    }
    return out;
  }
  if (expr.func == "cast_double" && args.size() == 1) {
    Column out(DataType::kDouble);
    for (size_t i = 0; i < n; ++i) {
      if (!args[0].IsValid(i)) {
        out.AppendNull();
        continue;
      }
      ASSIGN_OR_RETURN(Value v, args[0].GetValue(i).CastTo(DataType::kDouble));
      RETURN_NOT_OK(out.AppendValue(v));
    }
    return out;
  }
  return Status::BindError("unknown function '" + expr.func + "'");
}

Result<Handle> EvalRec(const Table& table, const Expr& expr,
                       const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Handle(Broadcast(expr.literal, table.num_rows()));
    case ExprKind::kColumnRef: {
      int idx = table.schema().FindField(expr.column);
      if (idx >= 0) return Handle(&table.column(static_cast<size_t>(idx)));
      if (ctx.variables != nullptr) {
        auto it = ctx.variables->find(expr.column);
        if (it != ctx.variables->end()) {
          return Handle(Broadcast(it->second, table.num_rows()));
        }
      }
      return Status::BindError("unknown column '" + expr.column + "'");
    }
    case ExprKind::kBinary: {
      ASSIGN_OR_RETURN(Handle l, EvalRec(table, *expr.children[0], ctx));
      ASSIGN_OR_RETURN(Handle r, EvalRec(table, *expr.children[1], ctx));
      switch (expr.bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          ASSIGN_OR_RETURN(Column c, EvalArith(expr.bop, l.get(), r.get()));
          return Handle(std::move(c));
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          ASSIGN_OR_RETURN(Column c, EvalCompare(expr.bop, l.get(), r.get()));
          return Handle(std::move(c));
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          ASSIGN_OR_RETURN(Column c, EvalLogical(expr.bop, l.get(), r.get()));
          return Handle(std::move(c));
        }
      }
      return Status::Internal("unreachable");
    }
    case ExprKind::kUnary: {
      ASSIGN_OR_RETURN(Handle v, EvalRec(table, *expr.children[0], ctx));
      const Column& c = v.get();
      if (expr.uop == UnaryOp::kNot) {
        if (c.type() != DataType::kBool) {
          return Status::TypeMismatch("NOT on non-bool column");
        }
        const size_t n = c.size();
        Column out(DataType::kBool);
        out.Reserve(n);
        std::vector<uint8_t>& o = out.bools();
        o.resize(n);
        const uint8_t* a = c.bools().data();
        for (size_t i = 0; i < n; ++i) o[i] = a[i] == 0;
        std::vector<uint8_t> valid = ValidityOf(c);
        if (!valid.empty()) out.SetValidity(std::move(valid));
        return Handle(std::move(out));
      }
      if (c.type() == DataType::kDouble) {
        return Handle(F64Unary(c, [](double x) { return -x; }));
      }
      if (IsIntegerPhysical(c.type())) return Handle(IntUnary(c, NegateInt));
      return Status::TypeMismatch("unary minus on non-numeric column");
    }
    case ExprKind::kCall: {
      ASSIGN_OR_RETURN(Column c, EvalCall(table, expr, ctx));
      return Handle(std::move(c));
    }
    case ExprKind::kIsNull: {
      ASSIGN_OR_RETURN(Handle v, EvalRec(table, *expr.children[0], ctx));
      const Column& c = v.get();
      const uint8_t* valid = c.raw_validity();
      Column out(DataType::kBool);
      out.Reserve(c.size());
      // IS NOT NULL is the validity itself; IS NULL its complement.
      std::vector<uint8_t>& o = out.bools();
      o.assign(c.size(), expr.negated ? 1 : 0);
      if (valid != nullptr) {
        for (size_t i = 0; i < o.size(); ++i) {
          o[i] = static_cast<uint8_t>((valid[i] != 0) == expr.negated);
        }
      }
      return Handle(std::move(out));
    }
  }
  return Status::Internal("unreachable");
}

// ---------------------------------------------------------------------------
// Predicate fast paths
// ---------------------------------------------------------------------------

// Is this a comparison of a bare column against a constant expression?
// Returns the comparison with the column always on the left.
struct ColConstCmp {
  const Column* column;
  BinaryOp op;
  Value constant;
};

BinaryOp FlipCmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

bool IsComparisonOp(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

bool IsConstExpr(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return ctx.variables != nullptr && ctx.variables->count(e.column) > 0;
    case ExprKind::kCall:
      if (e.func != "now" && e.func != "abs" && e.func != "least" &&
          e.func != "greatest" && e.func != "cast_int" &&
          e.func != "cast_double") {
        return false;
      }
      [[fallthrough]];
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kIsNull:
      for (const ExprPtr& c : e.children) {
        if (!IsConstExpr(*c, ctx)) return false;
      }
      return true;
  }
  return false;
}

// Tries to recognize `col <cmp> const` (either side).
Result<std::optional<ColConstCmp>> MatchColConstCmp(const Table& table,
                                                    const Expr& e,
                                                    const EvalContext& ctx) {
  if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.bop)) {
    return std::optional<ColConstCmp>{};
  }
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  auto col_of = [&](const Expr& side) -> const Column* {
    if (side.kind != ExprKind::kColumnRef) return nullptr;
    int idx = table.schema().FindField(side.column);
    if (idx < 0) return nullptr;
    return &table.column(static_cast<size_t>(idx));
  };
  if (const Column* c = col_of(l); c != nullptr && IsConstExpr(r, ctx)) {
    ASSIGN_OR_RETURN(Value v, EvalConst(r, ctx));
    return std::optional<ColConstCmp>(ColConstCmp{c, e.bop, std::move(v)});
  }
  if (const Column* c = col_of(r); c != nullptr && IsConstExpr(l, ctx)) {
    ASSIGN_OR_RETURN(Value v, EvalConst(l, ctx));
    return std::optional<ColConstCmp>(
        ColConstCmp{c, FlipCmp(e.bop), std::move(v)});
  }
  return std::optional<ColConstCmp>{};
}

// Calls f(row) for every candidate row in ascending order; a null
// candidate list means every row of an n-row table.
template <typename F>
void ForCandidates(const SelVector* candidates, size_t n, F&& f) {
  if (candidates == nullptr) {
    for (size_t r = 0; r < n; ++r) f(static_cast<uint32_t>(r));
  } else {
    for (uint32_t r : *candidates) f(r);
  }
}

size_t NumCandidates(const SelVector* candidates, size_t n) {
  return candidates == nullptr ? n : candidates->size();
}

// Applies a column-vs-constant comparison over the candidate rows,
// appending the matches to `out`.
Status SelectColConst(const ColConstCmp& cc, const SelVector* candidates,
                      SelVector* out) {
  const Column& c = *cc.column;
  const size_t n = c.size();
  if (cc.constant.is_null()) return Status::OK();  // NULL never matches
  recycler::Reserve(out, out->size() + NumCandidates(candidates, n));
  const bool nulls = c.has_nulls();
  auto select = [&](auto&& match) {
    ForCandidates(candidates, n, [&](uint32_t r) {
      if ((!nulls || c.IsValid(r)) && match(r)) out->push_back(r);
    });
  };
  if (IsIntegerPhysical(c.type()) && cc.constant.is_int()) {
    const int64_t k = cc.constant.int_value();
    const auto& v = c.ints();
    switch (cc.op) {
      case BinaryOp::kEq:
        select([&](uint32_t r) { return v[r] == k; });
        break;
      case BinaryOp::kNe:
        select([&](uint32_t r) { return v[r] != k; });
        break;
      case BinaryOp::kLt:
        select([&](uint32_t r) { return v[r] < k; });
        break;
      case BinaryOp::kLe:
        select([&](uint32_t r) { return v[r] <= k; });
        break;
      case BinaryOp::kGt:
        select([&](uint32_t r) { return v[r] > k; });
        break;
      case BinaryOp::kGe:
        select([&](uint32_t r) { return v[r] >= k; });
        break;
      default:
        return Status::Internal("not a comparison");
    }
    return Status::OK();
  }
  if (c.type() == DataType::kDouble &&
      (cc.constant.is_double() || cc.constant.is_int())) {
    ASSIGN_OR_RETURN(double k, cc.constant.AsDouble());
    // IEEE predicates, matching the dense SIMD kernel (NaN only matches
    // !=) — see DESIGN.md §12.
    simd::Cmp op;
    if (!ops::kern::CmpFromBinaryOp(cc.op, &op)) {
      return Status::Internal("not a comparison");
    }
    const auto& v = c.doubles();
    select([&](uint32_t r) { return simd::CmpMatchesF64(op, v[r], k); });
    return Status::OK();
  }
  if (c.type() == DataType::kString && cc.constant.is_string()) {
    const auto& v = c.strings();
    const std::string& k = cc.constant.string_value();
    select([&](uint32_t r) { return CmpMatches(cc.op, v[r].compare(k)); });
    return Status::OK();
  }
  if (c.type() == DataType::kBool && cc.constant.is_bool()) {
    const auto& v = c.bools();
    const bool k = cc.constant.bool_value();
    select([&](uint32_t r) {
      return CmpMatches(cc.op,
                        static_cast<int>(v[r] != 0) - static_cast<int>(k));
    });
    return Status::OK();
  }
  // Mixed numeric (int column vs double constant etc.): generic numeric.
  if (IsNumeric(c.type()) && (cc.constant.is_int() || cc.constant.is_double())) {
    ASSIGN_OR_RETURN(double k, cc.constant.AsDouble());
    select([&](uint32_t r) {
      const double x = NumAt(c, r);
      return CmpMatches(cc.op, x < k ? -1 : (x > k ? 1 : 0));
    });
    return Status::OK();
  }
  return Status::TypeMismatch("predicate compares incompatible types");
}

// `int64 column (op int-literal)* <cmp> int-literal`, e.g. `a * 3 + 7 < k`
// or `a % 8 <> 1`, with one to kMaxSteps arithmetic steps; literals may
// sit on either side of each operator. Held inline, so matching one
// allocates nothing.
struct IntChainCmp {
  static constexpr size_t kMaxSteps = 8;
  struct Step {
    BinaryOp op;
    int64_t k;
    bool literal_left;
  };
  const Column* column = nullptr;
  std::array<Step, kMaxSteps> steps{};  // innermost first
  size_t num_steps = 0;
  BinaryOp cmp = BinaryOp::kEq;
  int64_t k = 0;
};

bool IsArithmeticOp(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv || op == BinaryOp::kMod;
}

bool IsIntLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && e.literal.is_int();
}

// Recognizes an IntChainCmp over a non-null int64 column of `table`.
std::optional<IntChainCmp> MatchIntChainCmp(const Table& table,
                                            const Expr& e) {
  if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.bop)) {
    return std::nullopt;
  }
  IntChainCmp m;
  const Expr* chain = nullptr;
  if (IsIntLiteral(*e.children[1])) {
    chain = e.children[0].get();
    m.cmp = e.bop;
    m.k = e.children[1]->literal.int_value();
  } else if (IsIntLiteral(*e.children[0])) {
    chain = e.children[1].get();
    m.cmp = FlipCmp(e.bop);
    m.k = e.children[0]->literal.int_value();
  } else {
    return std::nullopt;
  }
  while (chain->kind == ExprKind::kBinary && IsArithmeticOp(chain->bop)) {
    if (m.num_steps == IntChainCmp::kMaxSteps) return std::nullopt;
    const Expr& l = *chain->children[0];
    const Expr& r = *chain->children[1];
    if (IsIntLiteral(r)) {
      m.steps[m.num_steps++] = {chain->bop, r.literal.int_value(), false};
      chain = &l;
    } else if (IsIntLiteral(l)) {
      m.steps[m.num_steps++] = {chain->bop, l.literal.int_value(), true};
      chain = &r;
    } else {
      return std::nullopt;
    }
  }
  if (m.num_steps == 0 || chain->kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  const int idx = table.schema().FindField(chain->column);
  if (idx < 0) return std::nullopt;
  m.column = &table.column(static_cast<size_t>(idx));
  if (m.column->type() != DataType::kInt64 || m.column->has_nulls()) {
    return std::nullopt;
  }
  std::reverse(m.steps.begin(), m.steps.begin() + m.num_steps);
  return m;
}

// One arithmetic step over a block of chain values; a row whose result is
// NULL under CheckedInt (overflow, x/0, INT64_MIN / -1) clears its ok byte.
template <BinaryOp kOp>
void ChainStep(int64_t* v, uint8_t* ok, size_t n, int64_t k,
               bool literal_left) {
  if (literal_left) {
    for (size_t i = 0; i < n; ++i) ok[i] &= CheckedInt<kOp>(k, v[i], &v[i]);
  } else {
    for (size_t i = 0; i < n; ++i) ok[i] &= CheckedInt<kOp>(v[i], k, &v[i]);
  }
}

// Evaluates an IntChainCmp over the candidate rows only, in fixed-size
// blocks: gather, one loop per step, then compare through double (as the
// generic int-vs-int compare does), appending the matches to `out`.
// Selects exactly the rows the generic evaluator does.
Status SelectIntChain(const IntChainCmp& m, const SelVector* candidates,
                      SelVector* out) {
  // Block scratch is written before it is read: no zero-fill per call,
  // which would cost more than a small candidate list's whole evaluation.
  constexpr size_t kBlock = 256;
  int64_t v[kBlock];
  uint8_t ok[kBlock];
  uint32_t identity[kBlock];
  const int64_t* col = m.column->ints().data();
  const double k = static_cast<double>(m.k);
  const size_t total = NumCandidates(candidates, m.column->size());
  size_t w = out->size();
  recycler::Reserve(out, w + total);
  out->resize(w + total);
  uint32_t* dst = out->data();
  for (size_t base = 0; base < total; base += kBlock) {
    const size_t n = std::min(kBlock, total - base);
    const uint32_t* rows = identity;
    if (candidates != nullptr) {
      rows = candidates->data() + base;
    } else {
      for (size_t i = 0; i < n; ++i) {
        identity[i] = static_cast<uint32_t>(base + i);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      v[i] = col[rows[i]];
      ok[i] = 1;
    }
    for (size_t s = 0; s < m.num_steps; ++s) {
      const IntChainCmp::Step& step = m.steps[s];
      RETURN_NOT_OK(WithArithOp(step.op, [&](auto tag) {
        ChainStep<decltype(tag)::value>(v, ok, n, step.k, step.literal_left);
      }));
    }
    RETURN_NOT_OK(WithCompareOp(m.cmp, [&](auto tag) {
      for (size_t i = 0; i < n; ++i) {
        dst[w] = rows[i];
        w += ok[i] & static_cast<uint8_t>(NumMatches<decltype(tag)::value>(
                         static_cast<double>(v[i]), k));
      }
    }));
  }
  out->resize(w);
  return Status::OK();
}

// Appends to `out` the rows matching `expr` among `candidates` (null: all
// rows), ascending. AND refines left to right; OR unions both sides.
Status SelectWhere(const Table& table, const Expr& expr,
                   const SelVector* candidates, const EvalContext& ctx,
                   SelVector* out) {
  if (expr.kind == ExprKind::kBinary && expr.bop == BinaryOp::kAnd) {
    recycler::Scratch<uint32_t> lhs(0);
    RETURN_NOT_OK(SelectWhere(table, *expr.children[0], candidates, ctx, &*lhs));
    return SelectWhere(table, *expr.children[1], &*lhs, ctx, out);
  }
  if (expr.kind == ExprKind::kBinary && expr.bop == BinaryOp::kOr) {
    recycler::Scratch<uint32_t> lhs(0);
    recycler::Scratch<uint32_t> rhs(0);
    RETURN_NOT_OK(SelectWhere(table, *expr.children[0], candidates, ctx, &*lhs));
    RETURN_NOT_OK(SelectWhere(table, *expr.children[1], candidates, ctx, &*rhs));
    recycler::Reserve(out, out->size() + lhs->size() + rhs->size());
    std::set_union(lhs->begin(), lhs->end(), rhs->begin(), rhs->end(),
                   std::back_inserter(*out));
    return Status::OK();
  }
  // Column-vs-constant comparison fast path.
  ASSIGN_OR_RETURN(auto cc, MatchColConstCmp(table, expr, ctx));
  if (cc.has_value()) return SelectColConst(*cc, candidates, out);
  if (std::optional<IntChainCmp> chain = MatchIntChainCmp(table, expr)) {
    return SelectIntChain(*chain, candidates, out);
  }
  // Generic fallback: evaluate a boolean column over the candidate rows
  // (gathered first, so the cost follows the candidates, not the table),
  // then keep the candidates it holds true.
  Table picked;
  if (candidates != nullptr) picked = table.Take(*candidates);
  ASSIGN_OR_RETURN(Handle h,
                   EvalRec(candidates != nullptr ? picked : table, expr, ctx));
  const Column& b = h.get();
  if (b.type() != DataType::kBool) {
    return Status::TypeMismatch("predicate is not boolean: " + expr.ToString());
  }
  const auto bits = b.bools();
  recycler::Reserve(out, out->size() + b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    if (b.IsValid(i) && bits[i] != 0) {
      out->push_back(candidates != nullptr ? (*candidates)[i]
                                           : static_cast<uint32_t>(i));
    }
  }
  return Status::OK();
}

// Dense fast path: runs a column-vs-constant comparison over *all* rows
// through the vectorized compare kernel (compare-mask + compressed-store,
// morsel-gridded) into `out` instead of walking the rows one by one.
// Returns false when the type pairing has no kernel (string/bool/mixed
// numeric) and the caller must fall back.
bool TryDenseColConst(const ColConstCmp& cc, SelVector* out) {
  simd::Cmp op;
  if (!ops::kern::CmpFromBinaryOp(cc.op, &op)) return false;
  const Column& c = *cc.column;
  if (cc.constant.is_null()) return true;  // NULL never matches
  if (IsIntegerPhysical(c.type()) && cc.constant.is_int()) {
    ops::kern::SelectCmpI64Col(c, op, cc.constant.int_value(), out);
    return true;
  }
  if (c.type() == DataType::kDouble &&
      (cc.constant.is_double() || cc.constant.is_int())) {
    Result<double> k = cc.constant.AsDouble();
    if (!k.ok()) return false;
    ops::kern::SelectCmpF64Col(c, op, k.value(), out);
    return true;
  }
  return false;
}

// Applies every conjunct of an AND-chain except the leftmost leaf (which
// the dense kernel already turned into `*sel`), preserving SelectWhere's
// left-to-right refinement order; `*sel` holds the result.
Status RefineRestConjuncts(const Table& table, const Expr& e,
                           const EvalContext& ctx, SelVector* sel) {
  if (e.kind == ExprKind::kBinary && e.bop == BinaryOp::kAnd) {
    RETURN_NOT_OK(RefineRestConjuncts(table, *e.children[0], ctx, sel));
    recycler::Scratch<uint32_t> next(0);
    RETURN_NOT_OK(SelectWhere(table, *e.children[1], sel, ctx, &*next));
    sel->swap(*next);
  }
  return Status::OK();
}

}  // namespace

Result<Column> EvalScalar(const Table& table, const Expr& expr,
                          const EvalContext& ctx) {
  ASSIGN_OR_RETURN(Handle h, EvalRec(table, expr, ctx));
  return std::move(h).ToOwned();
}

Status EvalPredicateInto(const Table& table, const Expr& expr,
                         const SelVector* candidates, const EvalContext& ctx,
                         SelVector* out) {
  DC_DCHECK(out != candidates);
  out->clear();
  if (candidates == nullptr) {
    // Classify the leftmost conjunct: a simple `col <cmp> literal` there
    // goes through the SIMD compare kernel to produce the initial
    // candidate list, and only residual conjuncts fall back to
    // expression eval.
    const Expr* leftmost = &expr;
    while (leftmost->kind == ExprKind::kBinary &&
           leftmost->bop == BinaryOp::kAnd) {
      leftmost = leftmost->children[0].get();
    }
    ASSIGN_OR_RETURN(auto cc, MatchColConstCmp(table, *leftmost, ctx));
    if (cc.has_value() && TryDenseColConst(*cc, out)) {
      return RefineRestConjuncts(table, expr, ctx, out);
    }
  }
  return SelectWhere(table, expr, candidates, ctx, out);
}

Result<SelVector> EvalPredicate(const Table& table, const Expr& expr,
                                const EvalContext& ctx) {
  SelVector out;
  RETURN_NOT_OK(EvalPredicateInto(table, expr, nullptr, ctx, &out));
  return out;
}

Result<SelVector> EvalPredicateOn(const Table& table, const Expr& expr,
                                  const SelVector& candidates,
                                  const EvalContext& ctx) {
  SelVector out;
  RETURN_NOT_OK(EvalPredicateInto(table, expr, &candidates, ctx, &out));
  return out;
}

}  // namespace datacell
