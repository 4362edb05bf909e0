#ifndef DATACELL_SQL_PLAN_REWRITE_H_
#define DATACELL_SQL_PLAN_REWRITE_H_

#include <vector>

#include "expr/expr.h"
#include "sql/plan/plan.h"

/// Predicate rewrite passes. All passes are pure: they return new Expr
/// trees (Expr nodes are immutable after construction) and never mutate
/// their input. Normalization runs before fingerprinting so equivalent
/// predicates written differently ("10 > x" vs "x < 10", "b and a" vs
/// "a and b") factor into the same shared trie node.
namespace datacell::sql::plan {

/// Canonical form:
///  * comparisons with the literal on the left are flipped
///    (10 > x  ->  x < 10);
///  * commutative operators (AND, OR, +, *) order their operands by
///    rendered text.
/// Recurses through the whole tree.
ExprPtr NormalizePredicate(const ExprPtr& expr);

/// Splits a predicate on top-level ANDs. A null predicate yields nothing.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Rebuilds a single predicate from conjuncts (null when empty).
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

/// True when the predicate's verdict for a tuple can never change after
/// arrival: it contains no now() call. Session variables are handled by
/// the shareability schema check (an unresolved column fails type
/// inference), not here.
bool IsStreamStatic(const Expr& expr);

/// Sorts most-selective-first, fingerprint as the deterministic tiebreak.
/// The multi-query optimizer refines this order with sharing counts (more
/// widely shared conjuncts float upstream); this is the single-query
/// ordering EXPLAIN shows.
void OrderBySelectivity(std::vector<Conjunct>* conjuncts);

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_REWRITE_H_
