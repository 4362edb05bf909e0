#ifndef DATACELL_OBS_PLANS_H_
#define DATACELL_OBS_PLANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

/// Published view of the multi-query optimizer's compiled net (the
/// `dc_plans` virtual table). The optimizer pushes plain data rows here
/// for every query whose plan a registration changed; readers (dc_plans
/// materialization) copy them out under the registry lock and join the
/// live figures at read time: a trie node's PlanCounters (rows, sharing
/// count and estimate), else the transition.<stage>.* metrics. Keeping this a passive mirror — rather
/// than a callback into planner state — means a factory body that SELECTs
/// dc_plans while holding basket locks (rank kBasket) only ever descends
/// to kMetrics, and the optimizer's rebuild path never takes a lock a
/// reader might hold.
namespace datacell::obs {

/// Live figures of a plan row that is not a transition of its own (a node
/// of a fused shared-predicate trie). The owner bumps the row counts with
/// relaxed atomics from inside its firings. The optimizer stores the
/// sharing count and the estimate whenever a registration on the node's
/// basket moves them, so the rows of queries it did not re-plan still
/// read current values.
struct PlanCounters {
  std::atomic<uint64_t> rows_in{0};
  std::atomic<uint64_t> rows_out{0};
  std::atomic<int64_t> shared_by{0};
  std::atomic<double> est_rows{0};
};

/// One stage of one query's compiled pipeline, in pipeline order.
struct PlanRow {
  std::string query;        // registered continuous-query name
  std::string stage;        // transition or trie-node name
  std::string kind;         // direct | node | leaf
  std::string detail;       // predicate / projection text
  std::string fingerprint;  // conjunct fingerprints (hex), "" if n/a
  int64_t shared_by = 1;    // number of standing queries using this stage
  double est_rows = 0;      // cost-model estimated output cardinality
  /// The stage's own figures; null joins transition.<stage>.rows_in/out
  /// and keeps shared_by and est_rows as published.
  std::shared_ptr<const PlanCounters> counters;
  /// A shared query's leaf: the trie node feeding it, whose est_rows the
  /// row shows.
  std::shared_ptr<const PlanCounters> fed_by;
};

/// Process-global registry of published plans. Mutex rank kMetrics (same
/// tier as MetricsRegistry: leaf-ish, safe under basket locks).
class PlansRegistry {
 public:
  static PlansRegistry& Global();

  /// Replaces the published rows for `query`. Called by the optimizer
  /// when a registration changes the query's plan.
  void Publish(const std::string& query, std::vector<PlanRow> rows)
      DC_EXCLUDES(mu_);

  /// Drops the published rows for `query` (query unregistered).
  void Retract(const std::string& query) DC_EXCLUDES(mu_);

  /// All published rows, grouped by query name (map order), stages in
  /// publish order within each query.
  std::vector<PlanRow> Snapshot() const DC_EXCLUDES(mu_);

  size_t size() const DC_EXCLUDES(mu_);

 private:
  PlansRegistry() = default;

  mutable Mutex mu_{LockRank::kMetrics};
  std::map<std::string, std::vector<PlanRow>> plans_ DC_GUARDED_BY(mu_);
};

}  // namespace datacell::obs

#endif  // DATACELL_OBS_PLANS_H_
