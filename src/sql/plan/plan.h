#ifndef DATACELL_SQL_PLAN_PLAN_H_
#define DATACELL_SQL_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"

/// The logical-plan IR the SQL frontend compiles continuous (and, for
/// EXPLAIN, one-time) queries into before any factory is wired. The nodes
/// mirror the relational shapes the dialect can express: a Scan of a
/// basket or table, a selectivity-ordered conjunctive Filter, the basket
/// expression's Window (order by / top n with consumption), Join for the
/// two-basket merge, Aggregate, Project, and Split for a WITH block. Plans are immutable trees of
/// shared_ptr<const PlanNode>; rewrites build new trees.
///
/// Subtree fingerprints (FNV-1a over a canonical rendering) are what the
/// multi-query optimizer matches across the standing-query set: two
/// queries whose scan+filter prefixes fingerprint equal can share one
/// factory chain (the paper's shared-basket strategy, §5, generalized).
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
  double est_sel = 1.0;  // cost-model estimate, refreshed at rebuild
  /// Safe to evaluate in the shared upstream trie: fully resolved against
  /// the source basket schema, boolean-typed, and time-invariant (no
  /// now()), so a tuple's verdict never changes after arrival.
  bool shareable = false;
};

enum class PlanNodeKind : uint8_t {
  kScan,
  kFilter,
  kWindow,
  kProject,
  kAggregate,
  kJoin,
  /// WITH block: the binding's basket expression, then one plan per body
  /// statement; `detail` is the binding name.
  kSplit,
};

const char* PlanNodeKindName(PlanNodeKind k);

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kScan;
  /// 0 children for kScan, 1 for the pipeline nodes, 2 for kJoin, 1 + the
  /// body count for kSplit.
  std::vector<PlanPtr> children;

  // kScan
  std::string relation;
  bool is_basket = false;

  // kFilter: conjuncts in evaluation order (most selective first).
  std::vector<Conjunct> conjuncts;

  // kWindow / kProject / kAggregate / kJoin / kSplit: rendered description
  // (order by / top n, projection list, group keys, join predicate,
  // binding name).
  std::string detail;

  /// Cost-model estimated output cardinality.
  double est_rows = 0;

  /// Canonical text of this subtree (kind, key fields, children), the
  /// input to Fingerprint().
  std::string CanonicalText() const;
  std::string Fingerprint() const { return FingerprintHex(CanonicalText()); }

  /// Root-first indented tree rendering (EXPLAIN's plan section). When
  /// `shared_by` is supplied it maps conjunct fingerprints to the number
  /// of standing queries sharing that conjunct, annotated per filter line.
  void Render(int indent, std::string* out,
              const std::vector<std::pair<std::string, size_t>>* shared_by =
                  nullptr) const;
};

PlanPtr MakeScan(std::string relation, bool is_basket, double est_rows);
PlanPtr MakeFilter(PlanPtr input, std::vector<Conjunct> conjuncts,
                   double est_rows);
PlanPtr MakeUnary(PlanNodeKind kind, PlanPtr input, std::string detail,
                  double est_rows);
PlanPtr MakeJoin(PlanPtr left, PlanPtr right, std::string detail,
                 double est_rows);
PlanPtr MakeSplit(std::string binding, std::vector<PlanPtr> children,
                  double est_rows);

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_PLAN_H_
