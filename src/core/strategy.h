#ifndef DATACELL_CORE_STRATEGY_H_
#define DATACELL_CORE_STRATEGY_H_

#include <string>
#include <vector>

#include "core/basket.h"
#include "core/basket_expression.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "util/status.h"

namespace datacell::core {

/// One simple continuous selection query, the unit the §4.2 strategies are
/// defined over: `select * from [select * from S where predicate] as Z`.
struct ContinuousQuery {
  std::string name;
  ExprPtr predicate;  // null = select all
};

/// A wired query network: push tuples through `receptor`, drive
/// `transitions` with a scheduler, read results from `outputs[i]`
/// (one basket per query, holding the full stream schema).
struct QueryNetwork {
  ReceptorPtr receptor;
  std::vector<BasketPtr> outputs;
  std::vector<TransitionPtr> transitions;

  /// Registers all transitions with a scheduler, in construction order.
  void RegisterAll(Scheduler* scheduler) const;
};

/// §4.2 Separate baskets: maximum independence. Each query gets a private
/// input basket; the receptor replicates every incoming tuple into all k
/// baskets; each factory consumes its own basket with no coordination.
Result<QueryNetwork> BuildSeparateBaskets(
    const Schema& stream_schema, const std::vector<ContinuousQuery>& queries,
    size_t batch_size);

/// §4.2 Shared baskets: one input basket shared by all query factories,
/// guarded by the locker/unlocker factory pair of Figure 2(b). The locker
/// pins the current batch and raises one flag token per query; each query
/// factory reads without consuming and raises its done token; the unlocker
/// erases the batch once every query has finished and re-arms the locker.
Result<QueryNetwork> BuildSharedBaskets(
    const Schema& stream_schema, const std::vector<ContinuousQuery>& queries,
    size_t batch_size);

/// §4.2 Partial deletes: queries form a chain over one shared basket
/// (Figure 2(c)); each query deletes the tuples that qualified its basket
/// predicate before the next query reads, so later queries scan fewer
/// tuples (intended for disjoint predicates). The last query clears the
/// leftover batch.
Result<QueryNetwork> BuildPartialDeleteChain(
    const Schema& stream_schema, const std::vector<ContinuousQuery>& queries,
    size_t batch_size);

}  // namespace datacell::core

#endif  // DATACELL_CORE_STRATEGY_H_
