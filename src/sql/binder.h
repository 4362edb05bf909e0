#ifndef DATACELL_SQL_BINDER_H_
#define DATACELL_SQL_BINDER_H_

#include <string>
#include <utility>
#include <vector>

#include "column/type.h"
#include "expr/expr.h"
#include "ops/aggregate.h"
#include "util/status.h"

namespace datacell::sql {

/// Name resolution for a FROM scope: maps the qualified ("alias.col") and
/// unqualified ("col") names visible in SQL text to the actual column names
/// of the materialized input table the expressions run against.
class NameScope {
 public:
  /// Registers a source. `visible` lists (source column name, actual column
  /// name in the combined table) in schema order.
  void AddSource(const std::string& alias,
                 std::vector<std::pair<std::string, std::string>> visible);

  /// Resolves "x" or "a.x". Unqualified names must be unambiguous across
  /// sources.
  Result<std::string> Resolve(const std::string& name) const;
  bool Contains(const std::string& name) const;

  /// True when the unqualified name matches distinct columns in more than
  /// one source. Ambiguity is never maskable by allow_unresolved: a name
  /// that exists in several sources cannot be a session variable.
  bool IsAmbiguous(const std::string& name) const;

  /// Columns for `*` (qualifier empty) or `alias.*` expansion, in order:
  /// (output name, actual name). Internal arrival-timestamp columns are
  /// skipped.
  Result<std::vector<std::pair<std::string, std::string>>> StarColumns(
      const std::string& qualifier) const;

 private:
  struct Source {
    std::string alias;
    std::vector<std::pair<std::string, std::string>> visible;
  };
  std::vector<Source> sources_;
};

/// Rewrites every column reference through the scope. Names that do not
/// resolve are left untouched when `allow_unresolved` (they may be session
/// variables, resolved at evaluation time) and are an error otherwise.
Result<ExprPtr> ResolveColumns(const ExprPtr& expr, const NameScope& scope,
                               bool allow_unresolved);

/// True if `name` is one of the aggregate function names.
bool IsAggregateFunction(const std::string& name);

/// Whether the expression contains an aggregate call anywhere.
bool ContainsAggregate(const Expr& expr);

/// Pulls aggregate calls out of an expression: each aggregate sub-tree is
/// appended to `aggs` (named "_agg<i>") and replaced by a column reference
/// to that name, so the remaining expression can be evaluated over the
/// aggregation output. A call identical to one already in `aggs` (same
/// function, same argument text) reuses that item. Nested aggregates are
/// an error.
Result<ExprPtr> ExtractAggregates(const ExprPtr& expr,
                                  std::vector<ops::AggItem>* aggs);

/// Replaces every subtree textually equal to one of `group_exprs` with a
/// reference to the corresponding group output column "_g<i>". Applied
/// before ExtractAggregates so group keys survive inside select items.
ExprPtr SubstituteGroupExprs(const ExprPtr& expr,
                             const std::vector<ExprPtr>& group_exprs);

}  // namespace datacell::sql

#endif  // DATACELL_SQL_BINDER_H_
