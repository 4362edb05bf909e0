#ifndef DATACELL_SQL_PLAN_BUILDER_H_
#define DATACELL_SQL_PLAN_BUILDER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/ast.h"
#include "sql/plan/cost.h"
#include "sql/plan/plan.h"
#include "util/status.h"

/// Compiles a parsed continuous statement into the plan layer's view of
/// it: the source basket, the normalized conjunct set with shareability
/// classification and the window threshold. The compiler is deliberately
/// strict — any shape it cannot prove safe to share (multi-source merges,
/// WITH blocks, scalar subqueries, inner projections, missing INSERT
/// targets) returns kUnsupported, and the optimizer runs that query as one
/// direct factory over its prepared statement, which handles everything.
namespace datacell::sql::plan {

struct CompiledQuery {
  std::string name;
  std::string source_basket;
  /// The original statement, untouched (the leaf rewrite clones it).
  std::shared_ptr<Statement> stmt;
  /// Shareable conjuncts (inner WHERE always; outer WHERE only when the
  /// window is trivial). Unordered — the optimizer orders them in its trie
  /// by (sharing count, estimated selectivity).
  std::vector<Conjunct> shared;
  /// Petri-net firing threshold of the source/leaf basket (top_n or 1).
  size_t min_tuples = 1;
  /// Inner window has no ORDER BY / TOP — outer conjuncts may push past it.
  bool window_trivial = true;
  /// The conjuncts the query's own operator chain keeps evaluating: the
  /// inner WHERE's unshareable ones and the outer WHERE's that stay past
  /// the window (EXPLAIN lists them after the shareable ones).
  std::vector<Conjunct> residual;
};

/// Compiles `stmt` for multi-query optimization. Returns kUnsupported for
/// any statement shape outside the shareable subset (callers run it as a
/// direct factory — never an error surfaced to users).
Result<CompiledQuery> CompileContinuous(core::Engine* engine,
                                        const std::string& name,
                                        std::shared_ptr<Statement> stmt,
                                        const CostModel& cost);

/// Builds the statement the leaf of a shared subnet executes: a clone of
/// the original with the inner FROM redirected to `leaf_basket`
/// (binding name preserved, so every column reference still resolves) and
/// every conjunct whose fingerprint is in `strip_fps` removed from the
/// inner and outer WHERE — those are evaluated upstream by the shared trie.
Result<std::shared_ptr<Statement>> MakeLeafStatement(
    core::Engine* engine, const CompiledQuery& q,
    const std::string& leaf_basket, const std::set<std::string>& strip_fps);

/// Whether a leaf statement MakeLeafStatement built keeps no state across
/// firings: a SELECT whose window has no WHERE, ORDER BY or TOP left, so it
/// reads its rows with a pass-through `take` (Executor::PassThrough) and
/// may run inside the fused root over its node's survivors. Decided from
/// the statement alone, before anything is prepared.
bool PassThroughLeaf(const Statement& leaf);

/// Points the window of a leaf statement MakeLeafStatement built at
/// `leaf_basket` instead, under the same binding name.
void RetargetLeaf(Statement* leaf, const std::string& leaf_basket);

/// Clones `stmt` with every basket-expression source that `leaf_of` maps
/// (source basket -> replica leaf basket) reading the leaf instead. Each
/// source keeps its binding name, so every column reference still
/// resolves. Baskets read outside a basket expression are left alone.
std::shared_ptr<Statement> RedirectBasketSources(
    const Statement& stmt, const std::map<std::string, std::string>& leaf_of);

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_BUILDER_H_
