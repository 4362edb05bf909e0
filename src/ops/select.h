#ifndef DATACELL_OPS_SELECT_H_
#define DATACELL_OPS_SELECT_H_

#include <string>

#include "column/table.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "util/status.h"

namespace datacell::ops {

/// Range scan `lo < col < hi` (open/closed per flags) on a numeric column —
/// the kernel primitive behind the paper's `monetdb.select(input, v1, v2)`
/// factory example (Algorithm 1). Pass a null Value to leave a bound open.
Result<SelVector> SelectRange(const Table& table, const std::string& column,
                              const Value& lo, bool lo_inclusive,
                              const Value& hi, bool hi_inclusive);

}  // namespace datacell::ops

#endif  // DATACELL_OPS_SELECT_H_
