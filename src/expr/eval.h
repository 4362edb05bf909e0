#ifndef DATACELL_EXPR_EVAL_H_
#define DATACELL_EXPR_EVAL_H_

#include <map>
#include <string>

#include "column/table.h"
#include "expr/expr.h"
#include "util/clock.h"
#include "util/status.h"

namespace datacell {

/// Ambient state for expression evaluation.
struct EvalContext {
  /// Value of now() — injected so queries are deterministic under the
  /// simulated clock.
  Micros now = 0;
  /// Session variables (SQL `declare`/`set`); consulted when a column name
  /// does not resolve against the input schema. May be null.
  const std::map<std::string, Value>* variables = nullptr;
};

/// Evaluates an expression with no column references (literals, variables,
/// now(), arithmetic over them) to a single Value.
Result<Value> EvalConst(const Expr& expr, const EvalContext& ctx);

/// Evaluates a scalar expression over every row of `table`, producing a
/// column of `table.num_rows()` results.
Result<Column> EvalScalar(const Table& table, const Expr& expr,
                          const EvalContext& ctx);

/// Evaluates a boolean predicate and returns the ascending row positions
/// where it is true (nulls are not matched). Fast paths exist for
/// column-vs-constant comparisons and conjunctions of them, mirroring a
/// column kernel's select/refine pattern.
Result<SelVector> EvalPredicate(const Table& table, const Expr& expr,
                                const EvalContext& ctx);

/// As EvalPredicate, but only considers the rows in `candidates`
/// (ascending); returns the qualifying subset, still ascending.
Result<SelVector> EvalPredicateOn(const Table& table, const Expr& expr,
                                  const SelVector& candidates,
                                  const EvalContext& ctx);

/// The kernel behind both: the selection over `candidates` (null = every
/// row, as EvalPredicate) replaces the contents of `*out`, which must not
/// be `candidates`. A caller that keeps `*out` across calls reuses its
/// capacity, so a firing's selection allocates nothing once warm.
Status EvalPredicateInto(const Table& table, const Expr& expr,
                         const SelVector* candidates, const EvalContext& ctx,
                         SelVector* out);

}  // namespace datacell

#endif  // DATACELL_EXPR_EVAL_H_
