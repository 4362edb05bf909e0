#ifndef DATACELL_SQL_PLAN_PLAN_H_
#define DATACELL_SQL_PLAN_PLAN_H_

#include <cstdint>
#include <string>

#include "expr/expr.h"

/// Normalized conjuncts and their fingerprints: the unit the multi-query
/// optimizer shares. A continuous query's WHERE clauses are split into
/// conjuncts, each resolved against the source basket, canonically
/// normalized and fingerprinted (FNV-1a over the normalized rendering).
/// Two standing queries whose conjuncts fingerprint equal evaluate them
/// once, in one node of their source basket's shared trie (the paper's
/// shared-basket strategy, §5, generalized). What a query then runs is its
/// prepared operator chain (sql/executor.h), which EXPLAIN renders.
namespace datacell::sql::plan {

/// FNV-1a 64-bit over `s`, rendered as 16 lowercase hex digits. Stable
/// across runs and platforms — fingerprints appear in stage/basket names
/// and EXPLAIN goldens.
uint64_t Fnv1a64(const std::string& s);
std::string FingerprintHex(const std::string& s);

/// One normalized conjunct of a WHERE clause. `expr` is resolved to the
/// source's actual column names and canonically normalized (literal on the
/// right, commutative operands ordered), so textually different but
/// equivalent predicates fingerprint equal.
struct Conjunct {
  ExprPtr expr;
  std::string fp;        // FingerprintHex(expr->ToString())
  double est_sel = 1.0;  // cost-model estimate, refreshed at re-plan
  /// Safe to evaluate in the shared upstream trie: fully resolved against
  /// the source basket schema, boolean-typed, and time-invariant (no
  /// now()), so a tuple's verdict never changes after arrival.
  bool shareable = false;
};

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_PLAN_H_
